"""Command-line front end: deterministic, machine-readable reports.

Reports are JSON on stdout (sorted keys) unless --pretty asks for text.
Exit codes: 0 for any computed result, including recorded FAIL verdicts of
the experiments; 2 for usage or malformed-input errors; 3 when a size guard
rejected the computation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import partial

from . import __version__
from .analysis import (dehn_sommerville_check, log_concavity_report,
                       reciprocity_report, uniform_matroid_complex)
from .auxiliary import (hilbert_polynomial_window, lift_disjoint, lift_with_apex,
                        search_alpha, verify_constant_component,
                        verify_main_theorem)
from .chromatic import (MERGE_VERTEX, REMOVE_ONLY, chromatic_polynomial,
                        finite_model_count, verify_addition_contraction)
from .cyclotomic import (CyclotomicSpec, ONE_BASED, ZERO_BASED,
                         check_constant_term_detection,
                         check_cyclotomic_homology, cyclotomic_polynomial)
from .hilbert import (h_vector, numerator_by_inclusion_exclusion,
                      series_coefficients, standard_monomial_count)
from .homology import reduced_homology
from .polynomials import format_poly
from .report import GuardError, check_limit
from .serialize import (InputError, _label_set, alpha_to_data, complex_to_data,
                        load_alpha, load_complex, load_complex_or_graph,
                        poly_to_data)
from .sweep import CSV_COLUMNS, run_sweep

SIGN_CONVENTION = "direct_inclusion_exclusion"
_LIFTS = {"apex": lift_with_apex, "disjoint": lift_disjoint}
_CYCLO_CHECKS = {"cycltop": check_cyclotomic_homology,
                "cyclcheck": check_constant_term_detection}


def _parse_nonface(text: str) -> list[str]:
    parts = [p for p in text.split(",") if p]
    if not parts:
        raise InputError("--nonface", "expected comma-separated labels")
    _label_set(parts, "--nonface")  # a repeated label is an input error
    return parts


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p)
    except ValueError as exc:
        raise InputError("--primes", "expected comma-separated integers") from exc


def _alpha_for(args, S):
    if args.alpha:
        return load_alpha(args.alpha)
    if args.search:
        return search_alpha(S.minimal_nonfaces())
    raise InputError("--alpha", "provide --alpha FILE or --search")


# Each command returns the body of its JSON report; main adds "command" and
# merges the optional "conventions" entry into the shared conventions.

def cmd_chromatic(args):
    S, kind = load_complex_or_graph(args.complex)
    p = chromatic_polynomial(S)
    return {
        "conventions": {"input": kind},
        "polynomial": poly_to_data(p),
        "pretty": format_poly(p),
        "n": S.n,
        "r": len(S.minimal_nonface_masks),
    }


def cmd_oracle_count(args):
    count = finite_model_count(load_complex(args.complex), args.q)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit and count >= 10 ** limit:  # too long for Python to write out
        digits = count.bit_length() * 30102 // 100000  # 0.30102 < log10(2)
        while count >= 10 ** digits:
            digits += 1
        check_limit("count_digits", digits, limit, "digits in the count",
                    "chromatic gives chi_c, whose value at q is the count")
    return {"q": args.q, "count": count}


def cmd_verify_ac(args):
    S = load_complex(args.complex)
    rep = verify_addition_contraction(S, _parse_nonface(args.nonface),
                                      args.convention)
    return {"conventions": {"contraction": args.convention},
            "report": rep.to_dict()}


def cmd_hilbert(args):
    S = load_complex(args.complex)
    k = numerator_by_inclusion_exclusion(S.minimal_nonfaces())
    h = h_vector(S)
    out = {
        "numerator": poly_to_data(k),
        "numerator_pretty": format_poly(k),
        "h_vector": list(h.entries),
        "f_vector": list(S.f_vector),
        "d": h.d,
        "n": S.n,
    }
    if args.expand is not None:
        series = series_coefficients(S, args.expand)
        oracle = [standard_monomial_count(S, m) for m in range(args.expand + 1)]
        out["series"] = series
        out["series_oracle"] = oracle
        out["series_match"] = series == oracle
    return out


def cmd_alpha_check(args, check):
    """verify-theorem and reciprocity: run check on S and its assignment."""
    S = load_complex(args.complex)
    assign = _alpha_for(args, S)
    if assign is None:
        return {"alpha": None, "search": "NOT_FOUND"}
    rep = check(S, assign)
    return {"alpha": alpha_to_data(assign), "report": rep.to_dict()}


def cmd_lift(args):
    T = load_complex(args.complex)
    S, assign = _LIFTS[args.mode](T)
    return {
        "conventions": {"lift_mode": args.mode},
        "complex": complex_to_data(S),
        "alpha": alpha_to_data(assign),
    }


def cmd_verify_cc(args):
    S = load_complex(args.complex)
    rep = verify_constant_component(S, args.a)
    return {"report": rep.to_dict()}


def cmd_hilb_window(args):
    S = load_complex(args.complex)
    window, rep = hilbert_polynomial_window(S, args.a)
    return {"window": poly_to_data(window), "report": rep.to_dict()}


def cmd_homology(args):
    S = load_complex(args.complex)
    hom = reduced_homology(S)
    return {
        "table": [{"degree": k, "betti": rank, "torsion": list(torsion)}
                  for k, (rank, torsion) in sorted(hom.items())],
    }


def cmd_cyclo_poly(args):
    p = cyclotomic_polynomial(args.n)
    return {
        "n": args.n,
        "polynomial": poly_to_data(p),
        "pretty": format_poly(p, var="x"),
    }


def cmd_cyclo_check(args):
    spec = CyclotomicSpec(_parse_primes(args.primes), args.labeling)
    rep = _CYCLO_CHECKS[args.mode](spec, args.j)
    return {"conventions": {"labeling": spec.labeling, "mode": args.mode},
            "report": rep.to_dict()}


def cmd_logconcavity(args):
    S = load_complex(args.complex)
    assign = load_alpha(args.alpha) if args.alpha else None
    rep = log_concavity_report(S, assign, absolute=args.absolute)
    return {"conventions": {"log_concavity_mode": rep.details["mode"]},
            "report": rep.to_dict()}


def cmd_dehn_sommerville(args):
    S = load_complex(args.complex)
    rep = dehn_sommerville_check(S)
    return {"report": rep.to_dict()}


def cmd_uniform(args):
    S = uniform_matroid_complex(args.n, args.r)
    out = {"complex": complex_to_data(S, name=f"uniform-{args.n}-{args.r}")}
    if args.lift:
        lifted, assign = _LIFTS[args.lift](S)
        out["lift"] = {"mode": args.lift,
                       "complex": complex_to_data(lifted),
                       "alpha": alpha_to_data(assign)}
    return out


def cmd_sweep(args):
    rows = run_sweep(args.seed)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return {"seed": args.seed, "rows": len(rows), "out": args.out}
    return {"raw": text}


def _print_pretty(payload):
    """One line per key ("key:") or list item ("-"), a nonempty dict or list
    indented below it; strings bare, other values and empty ones as JSON."""
    def walk(obj, indent=0):
        pad = "  " * indent
        items = ([(f"{key}:", obj[key]) for key in sorted(obj)]
                 if isinstance(obj, dict) else [("-", value) for value in obj])
        for head, value in items:
            if value and isinstance(value, (dict, list)):
                sys.stdout.write(f"{pad}{head}\n")
                walk(value, indent + 1)
            else:
                text = value if isinstance(value, str) else json.dumps(value)
                sys.stdout.write(f"{pad}{head} {text}\n")
    walk(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simpchrom",
        description="Exact chromatic/Hilbert toolkit for simplicial complexes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--pretty", action="store_true",
                       help="human-readable text instead of JSON")
        return p

    p = add("chromatic", cmd_chromatic, "chromatic polynomial of a complex")
    p.add_argument("complex")

    p = add("oracle-count", cmd_oracle_count, "finite-model tuple count at q")
    p.add_argument("complex")
    p.add_argument("--q", type=int, required=True)

    p = add("verify-ac", cmd_verify_ac, "addition-contraction residual")
    p.add_argument("complex")
    p.add_argument("--nonface", required=True, help="comma-separated labels")
    p.add_argument("--convention", choices=(MERGE_VERTEX, REMOVE_ONLY),
                   default=MERGE_VERTEX)

    p = add("hilbert", cmd_hilbert, "numerator, h-vector, f-vector")
    p.add_argument("complex")
    p.add_argument("--expand", type=int, default=None,
                   help="also expand the series to this degree")

    p = add("verify-theorem", partial(cmd_alpha_check, check=verify_main_theorem),
            "reversed-numerator identity for an alpha assignment")
    p.add_argument("complex")
    p.add_argument("--alpha", help="alpha assignment JSON file")
    p.add_argument("--search", action="store_true",
                   help="search remove-one-element assignments")

    p = add("lift", cmd_lift, "apex or disjoint lift of a complex")
    p.add_argument("complex")
    p.add_argument("--mode", choices=_LIFTS, required=True)

    p = add("verify-cc", cmd_verify_cc, "constant component-count identity")
    p.add_argument("complex")
    p.add_argument("--a", type=int, required=True, help="component count, >= 0")

    p = add("hilb-window", cmd_hilb_window,
            "Hilbert-polynomial criterion on the numerator window")
    p.add_argument("complex")
    p.add_argument("--a", type=int, required=True, help="window start, >= 0")

    p = add("homology", cmd_homology, "reduced integer homology table")
    p.add_argument("complex")

    p = add("cyclo-poly", cmd_cyclo_poly, "cyclotomic polynomial")
    p.add_argument("--n", type=int, required=True)

    p = add("cyclo-check", cmd_cyclo_check,
            "cyclotomic coefficient experiments on residue subcomplexes")
    p.add_argument("--primes", required=True, help="comma-separated primes")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--mode", choices=_CYCLO_CHECKS, default="cycltop")
    p.add_argument("--labeling", choices=(ONE_BASED, ZERO_BASED), default=ONE_BASED,
                   help="residue labeling (default: one-based)")

    p = add("logconcavity", cmd_logconcavity, "log-concavity report")
    p.add_argument("complex")
    p.add_argument("--alpha")
    p.add_argument("--absolute", action="store_true",
                   help="scan absolute values instead of signed integers")

    p = add("dehn-sommerville", cmd_dehn_sommerville, "h-vector palindromicity")
    p.add_argument("complex")

    p = add("reciprocity", partial(cmd_alpha_check, check=reciprocity_report),
            "signed palindrome structure of chi_c")
    p.add_argument("complex")
    p.add_argument("--alpha")
    p.add_argument("--search", action="store_true")

    p = add("uniform", cmd_uniform, "uniform matroid independence complex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--lift", choices=_LIFTS, default=None)

    p = add("sweep", cmd_sweep, "randomized property suites as CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        body = args.func(args)
    except GuardError as exc:
        print(f"guard rejected ({exc.limit}): {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if "raw" in body:
        sys.stdout.write(body["raw"])
        return 0
    payload = {"command": args.subcommand, **body,
               "conventions": {"sign_convention": SIGN_CONVENTION,
                               **body.get("conventions", {})}}
    if args.pretty:
        _print_pretty(payload)
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
