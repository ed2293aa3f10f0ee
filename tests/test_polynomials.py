"""Exact polynomial arithmetic and the coefficient-sequence predicates."""

import random

import pytest

from simpchrom.polynomials import (InexactDivisionError, IntPolynomial,
                                   brenti_criterion, format_poly, is_log_concave,
                                   is_signed_palindrome, reciprocal,
                                   substitute_shift)

P = IntPolynomial


def test_normalization_strips_trailing_zeros():
    assert P((1, 2, 0, 0)).coeffs == (1, 2)
    assert P(()).is_zero()
    assert P((0, 0)).is_zero()
    assert P((0, 1)).degree == 1
    assert P(()).degree == -1


def test_basic_arithmetic():
    one_minus_t = P((1, -1))
    one_plus_t = P((1, 1))
    assert one_minus_t * one_plus_t == P((1, 0, -1))
    assert one_minus_t + one_plus_t == P((2,))
    assert one_plus_t - one_plus_t == P(())
    assert (-one_plus_t).coeffs == (-1, -1)
    assert one_plus_t * 3 == P((3, 3))
    assert 2 + one_plus_t == P((3, 1))


def test_exact_division():
    assert P((1, 0, -1)).exact_divide(P((1, -1))) == P((1, 1))
    assert P((0, -1, 0, 1)).exact_divide(P((0, 1))) == P((-1, 0, 1))
    with pytest.raises(InexactDivisionError) as err:
        P((1, 1, 1)).exact_divide(P((1, 1)))
    assert not err.value.remainder.is_zero()
    with pytest.raises(ZeroDivisionError):
        P((1,)).exact_divide(P(()))


def test_evaluate_uses_exact_integers():
    assert P((0, -1, 0, 1)).evaluate(3) == 24
    big = P((1,) * 40)
    assert big.evaluate(10) == int("1" * 40)


def test_power():
    assert P((1, -1)) ** 3 == P((1, -3, 3, -1))
    assert P((1, 1)) ** 0 == P((1,))


def test_reciprocal_reverses_coefficients():
    assert reciprocal(P((1, 0, -1)), 3) == P((0, -1, 0, 1))
    assert reciprocal(P((1,)), 0) == P((1,))
    assert reciprocal(P((1, 1)), 1) == P((1, 1))
    with pytest.raises(ValueError):
        reciprocal(P((1, 0, -1)), 1)


def test_reciprocal_involution_and_rational_consistency():
    rng = random.Random(11)
    for _ in range(40):
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
        p = P(coeffs)
        n = p.degree + rng.randint(0, 3)
        if p.is_zero():
            continue
        assert reciprocal(reciprocal(p, n), n) == p
        for q in (2, 3, 5):
            # q^n * p(1/q) computed with exact rationals over q^deg
            scaled = sum(c * q ** (n - i) for i, c in enumerate(p.coeffs))
            assert reciprocal(p, n).evaluate(q) == scaled


def test_substitute_shift():
    assert substitute_shift(P((0, 0, 1))) == P((1, -2, 1))
    assert substitute_shift(P((1,))) == P((1,))
    # f/h conversion instance: f-side (t-1) + 2 equals h-side t + 1
    f_side = substitute_shift(P((2, 1)))
    assert f_side == P((1, 1))


def test_shift_round_trip():
    rng = random.Random(5)
    up = P((1, 1))
    for _ in range(30):
        p = P([rng.randint(-9, 9) for _ in range(rng.randint(0, 7))])
        shifted = substitute_shift(p)
        # substitute t -> t + 1 by Horner with (t + 1)
        back = P(())
        for c in reversed(shifted.coeffs):
            back = back * up + c
        assert back == p


def test_log_concavity():
    assert is_log_concave((1, 3, 3, 1)).passed
    rep = is_log_concave((1, 1, 2))
    assert not rep.passed
    assert rep.witness["index"] == 1
    # signed products can only be smaller: literal passes, absolute fails
    assert is_log_concave((-1, 1, 2)).passed
    assert not is_log_concave((-1, 1, 2), absolute=True).passed


def test_signed_palindrome():
    assert is_signed_palindrome(P((1, 3, 3, 1)), 1).passed
    assert is_signed_palindrome(P((0, -1, 0, 3, 0, -3, 0, 1)), -1).passed
    rep = is_signed_palindrome(P((1, 2)), 1)
    assert not rep.passed and rep.witness["coeffs"] == [1, 2]
    with pytest.raises(ValueError):
        is_signed_palindrome(P(()), 1)
    with pytest.raises(ValueError):
        is_signed_palindrome(P((1,)), 2)


@pytest.mark.parametrize("coeffs,expected", [
    ((1, 3, 3), True),
    ((1, 2, 5), False),
    ((0, 3, 3, 1), True),
])
def test_brenti_criterion_triplet(coeffs, expected):
    assert brenti_criterion(P(coeffs)).passed is expected


def test_brenti_reports_reason():
    rep = brenti_criterion(P((1, -1, 5)))
    assert rep.witness["reason"] == "negative coefficient"
    rep = brenti_criterion(P((4, 3)))
    assert rep.witness["degree"] == 2


def test_format_poly():
    assert format_poly(P((0, -6, 11, -6, 1))) == "t^4 - 6*t^3 + 11*t^2 - 6*t"
    assert format_poly(P((1, -1, 1)), var="x") == "x^2 - x + 1"
    assert format_poly(P(())) == "0"
    assert format_poly(P((-3,))) == "-3"
