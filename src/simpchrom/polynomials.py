"""Exact integer univariate polynomials plus coefficient-sequence predicates.

Coefficients are stored ascending (index = degree) with no trailing zeros;
the zero polynomial has an empty coefficient tuple.  All arithmetic is on
arbitrary-precision Python ints, never floats.
"""

from __future__ import annotations

from .report import CheckReport, report


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder."""

    def __init__(self, remainder: "IntPolynomial"):
        super().__init__(f"division is not exact, remainder {remainder}")
        self.remainder = remainder


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int) -> "IntPolynomial":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls((0,) * degree + (1,))

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, degree: int) -> int:
        if degree < 0:
            raise IndexError("no negative degrees")
        if degree >= len(self.coeffs):
            return 0
        return self.coeffs[degree]

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial((other,))
        return self + (-other)

    def __rsub__(self, other) -> "IntPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    out[i + j] += ci * cj
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        result = IntPolynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def evaluate(self, x: int) -> int:
        """Evaluate at an integer point by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def exact_divide(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Quotient of an exact division; raises InexactDivisionError otherwise."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = divisor.coeffs
        lead = d[-1]
        qdeg = len(rem) - len(d)
        quot = [0] * (qdeg + 1) if qdeg >= 0 else []
        for i in range(qdeg, -1, -1):
            top = rem[i + len(d) - 1]
            if top % lead != 0:
                raise InexactDivisionError(IntPolynomial(rem))
            q = top // lead
            quot[i] = q
            if q:
                for j, cj in enumerate(d):
                    rem[i + j] -= q * cj
        if any(rem):
            raise InexactDivisionError(IntPolynomial(rem))
        return IntPolynomial(quot)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self)


def format_poly(p: IntPolynomial, var: str = "t") -> str:
    """Render descending-degree text like ``t^4 - 6*t^3 + 11*t^2 - 6*t``."""
    if p.is_zero():
        return "0"
    parts = []
    for d in range(p.degree, -1, -1):
        c = p[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            power = var if d == 1 else f"{var}^{d}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def reciprocal(p: IntPolynomial, n: int) -> IntPolynomial:
    """Return t^n * p(1/t): the coefficient of t^(n-i) is the coefficient of t^i.

    Requires n >= deg p so the result stays a polynomial.
    """
    if n < p.degree:
        raise ValueError(f"reversal exponent {n} below degree {p.degree}")
    out = [0] * (n + 1)
    for i, c in enumerate(p.coeffs):
        out[n - i] = c
    return IntPolynomial(out)


def substitute_shift(p: IntPolynomial) -> IntPolynomial:
    """Return p(t-1), expanded exactly (Horner in the shifted variable)."""
    shift = IntPolynomial((-1, 1))
    acc = IntPolynomial.zero()
    for c in reversed(p.coeffs):
        acc = acc * shift + c
    return acc


def largest_log_concave_suffix(seq, absolute: bool = False) -> int:
    """Smallest start index such that seq[start:] is log concave.

    That is the last interior index i with e_{i-1}*e_{i+1} > e_i^2, since
    seq[i:] no longer has i in its interior; 0 when there is none.  The test
    is symmetric, so the last violation is the first one of the reversal.
    """
    n = len(seq)
    bad = _log_concave_violation(seq[::-1], absolute)
    return 0 if bad is None else n - 1 - bad


def _log_concave_violation(seq, absolute):
    vals = [abs(e) for e in seq] if absolute else list(seq)
    for i in range(1, len(vals) - 1):
        if vals[i - 1] * vals[i + 1] > vals[i] * vals[i]:
            return i
    return None


def is_log_concave(seq, *, absolute: bool = False) -> CheckReport:
    """Check e_{i-1}*e_{i+1} <= e_i^2 at every interior index of seq.

    The default mode compares the literal signed integers; ``absolute=True``
    scans absolute values instead.  The report names the mode it ran.
    """
    seq = list(seq)
    bad = _log_concave_violation(seq, absolute)
    return report(
        "log_concave",
        bad is None,
        witness=None if bad is None else {
            "index": bad,
            "triple": [seq[bad - 1], seq[bad], seq[bad + 1]],
        },
        mode="absolute" if absolute else "literal",
        window=[0, len(seq)],
        sequence=seq,
    )


def is_signed_palindrome(p: IntPolynomial, sign: int) -> CheckReport:
    """Check b_{lo+i} = sign*b_{hi-i} over the nonzero support window of p."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if p.is_zero():
        raise ValueError("zero polynomial has no support window")
    lo = next(i for i, c in enumerate(p.coeffs) if c != 0)
    hi = p.degree
    for i in range(hi - lo + 1):
        if p[lo + i] != sign * p[hi - i]:
            return report(
                "signed_palindrome", False,
                witness={"low_degree": lo + i, "high_degree": hi - i,
                         "coeffs": [p[lo + i], p[hi - i]]},
                sign=sign, window=[lo, hi], coeffs=list(p.coeffs),
            )
    return report("signed_palindrome", True, sign=sign, window=[lo, hi],
                  coeffs=list(p.coeffs))


def brenti_criterion(p: IntPolynomial) -> CheckReport:
    """Hilbert-polynomial criterion: all coefficients in N and a_1, a_2 >= 3."""
    for d, c in enumerate(p.coeffs):
        if c < 0:
            return report("brenti_criterion", False,
                          witness={"degree": d, "coefficient": c,
                                   "reason": "negative coefficient"},
                          coeffs=list(p.coeffs))
    for d in (1, 2):
        if p[d] < 3:
            return report("brenti_criterion", False,
                          witness={"degree": d, "coefficient": p[d],
                                   "reason": "coefficient below 3"},
                          coeffs=list(p.coeffs))
    return report("brenti_criterion", True, coeffs=list(p.coeffs))
