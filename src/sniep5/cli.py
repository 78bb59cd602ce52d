"""Command-line interface.

Subcommands: ``check`` (classify a spectrum), ``realize`` (print a realizing
matrix when one of the explicit patterns applies), ``qroots`` (roots of the
diagonal-parameter cubic), ``perturb`` (closure decision for a perturbed
spectrum), ``sample`` (CSV sweep of the undecided region), and ``verify``
(check a matrix file against a target spectrum).

Exit codes: 0 success, 1 undecided verdict, 2 usage or input error,
3 verification failure.  Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .classify import Certificate, RealizabilityDecision, Verdict, classify, realize
from .cubic import real_roots
from .errors import NoConvergence, SniepError
from .guo import Perturbation, decide_perturbed
from .pattern_b import find_g, q_poly
from .sampler import CSV_HEADER, sample_region
from .spectrum import SortedSpectrum, SymMatrix5, parse_spectrum, sort_descending
from .spectrum import _unit_scale
from .verify import verify_spectrum

EXIT_OK = 0
EXIT_UNDECIDED = 1
EXIT_USAGE = 2
EXIT_VERIFY_FAILED = 3

# what backs the decision-only certificates; shown so a realize call that
# emits no matrix still says where to find one
EXTERNAL_NOTES = {
    Certificate.SULEIMANOVA: (
        "at most one positive entry and nonnegative sum: realizable by the "
        "classical single-positive construction (matrix not emitted)"
    ),
    Certificate.TWO_POSITIVE: (
        "exactly two positive entries: the necessary conditions are also "
        "sufficient in this region by published constructions (matrix not "
        "emitted)"
    ),
    Certificate.DIRECT_SUM: (
        "lam3 fits on the diagonal: realizable as a 4x4 realization of the "
        "other four entries direct-summed with the 1x1 block (lam3); the "
        "4x4 construction is not emitted"
    ),
    Certificate.TRACE_ZERO: (
        "zero-sum characterization: realizable by the known trace-zero "
        "construction (matrix not emitted)"
    ),
    Certificate.GUO_CLOSURE: (
        "realizable for every perturbation size by a closure argument; an "
        "explicit matrix exists here only when a pattern gate passes"
    ),
}


def _tolerance(text: str) -> float:
    """A ``--tol`` value, refused at parse time unless finite and positive:
    an infinite tolerance would pass any matrix."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sniep5",
        description="Decide and certify symmetric nonnegative realizability "
        "of five-element spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spectrum(p):
        p.add_argument(
            "--spectrum",
            required=True,
            help="comma-separated 5-tuple, e.g. 1000,381,360,-641,-750",
        )

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="classify a spectrum")
    add_spectrum(p)
    add_format(p)
    p.add_argument("--verify", action="store_true",
                   help="also construct and verify when a pattern applies")
    p.add_argument("--tol", type=_tolerance, default=1e-8)

    p = sub.add_parser("realize", help="print a realizing matrix if possible")
    add_spectrum(p)
    add_format(p)
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    p = sub.add_parser("qroots", help="roots of the diagonal-parameter cubic")
    add_spectrum(p)
    add_format(p)

    p = sub.add_parser("perturb", help="closure decision for a perturbed spectrum")
    add_spectrum(p)
    add_format(p)
    p.add_argument("--i", type=int, required=True, choices=(2, 3, 4, 5),
                   help="index of the co-moving entry")
    p.add_argument("--sign", required=True, choices=("plus", "minus"))
    p.add_argument("--s", type=float, required=True, help="perturbation size")

    p = sub.add_parser("sample", help="CSV sweep of the undecided region")
    p.add_argument("--grid", type=int, default=50, help="points per axis")
    p.add_argument("--t", type=float, action="append", required=True,
                   help="trace value in [0, 1); repeatable")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--verify", action="store_true",
                   help="verify every constructive verdict")
    p.add_argument("--tol", type=_tolerance, default=1e-8)

    p = sub.add_parser("verify", help="check a matrix file against a spectrum")
    add_spectrum(p)
    add_format(p)
    p.add_argument("--matrix", required=True,
                   help="file with 5 rows of 5 numbers, or a JSON array")
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    return parser


def _print_decision_text(decision: RealizabilityDecision, out) -> None:
    print(f"verdict: {decision.verdict.value}", file=out)
    if decision.certificate is not None:
        print(f"certificate: {decision.certificate.value}", file=out)
    if decision.reason is not None:
        print(f"reason: {decision.reason.value}", file=out)
    if decision.g is not None:
        print(f"g: {decision.g:.17g}", file=out)
    d = decision.details
    if d is not None:
        print(
            f"details: e1={d.e1:.12g} r={d.r:.12g} u={d.u:.12g} "
            f"mn_sum={d.mn_sum:.12g}",
            file=out,
        )


def _print_report_text(report, out) -> None:
    status = "pass" if report.passed else "FAIL"
    print(f"verification: {status} (max deviation {report.max_deviation:.3e}, "
          f"tolerance {report.rel_tol:g} relative)", file=out)
    print("eigenvalues: " + " ".join(f"{x:.12g}" for x in report.eigenvalues),
          file=out)
    print("target:      " + " ".join(f"{x:.12g}" for x in report.target),
          file=out)


def _decide(args, out, show_matrix: bool) -> int:
    """``check`` and ``realize``: classify, build and verify, print.

    ``realize`` (``show_matrix``) always builds and also shows the matrix,
    or a note for a decision-only certificate; ``check`` builds only with
    ``--verify`` and shows the verification alone.
    """
    s = sort_descending(parse_spectrum(args.spectrum))
    decision = classify(s)
    matrix = realize(s, decision) if show_matrix or args.verify else None
    report = None if matrix is None else verify_spectrum(matrix, s, rel_tol=args.tol)
    note = EXTERNAL_NOTES.get(decision.certificate) if show_matrix else None
    if args.format == "json":
        payload = decision.to_json_dict()
        if report is not None:
            if show_matrix:
                payload["matrix"] = json.loads(matrix.format_json())
            payload["verification"] = report.to_json_dict()
        elif note is not None:
            payload["note"] = note
        print(json.dumps(payload, indent=2), file=out)
    else:
        _print_decision_text(decision, out)
        if report is not None:
            if show_matrix:
                print("matrix:", file=out)
                print(matrix.format_text(), file=out)
            _print_report_text(report, out)
        elif note is not None:
            print(f"note: {note}", file=out)
    if decision.verdict is Verdict.UNKNOWN:
        return EXIT_UNDECIDED
    if report is not None and not report.passed:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_qroots(args, out) -> int:
    s = sort_descending(parse_spectrum(args.spectrum))
    q = q_poly(s)
    unit, k = _unit_scale(s)  # where find_g solves Q, so g is one of its roots
    qu = q_poly(unit)
    roots = tuple(math.ldexp(x, k) for x in real_roots(qu.c3, qu.c2, qu.c1, qu.c0))
    g = find_g(s)
    if args.format == "json":
        payload = {
            "coefficients": [q.c3, q.c2, q.c1, q.c0],
            "roots": list(roots),
            "g": g,
        }
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(
            f"cubic: {q.c3:.12g} z^3 + {q.c2:.12g} z^2 + {q.c1:.12g} z "
            f"+ {q.c0:.12g}",
            file=out,
        )
        for root in roots:
            mark = "  <- g" if g is not None and root == g else ""
            print(f"root: {root:.17g}{mark}", file=out)
        if g is None:
            print("g: none in range", file=out)
        elif g not in roots:
            print(f"g: {g:.17g} (clamped to range)", file=out)
    return EXIT_OK


def _cmd_perturb(args, out) -> int:
    s = sort_descending(parse_spectrum(args.spectrum))
    p = Perturbation(i=args.i, sign=args.sign, s=args.s)
    result = decide_perturbed(s, p)
    if args.format == "json":
        print(json.dumps(result.to_json_dict(), indent=2), file=out)
    else:
        print(f"rule: {result.rule.value}", file=out)
        print("perturbed: " + ",".join(f"{x:.12g}" for x in result.perturbed),
              file=out)
        _print_decision_text(result.decision, out)
        if result.matrix is not None:
            print("matrix:", file=out)
            print(result.matrix.format_text(), file=out)
    if result.decision.verdict is Verdict.UNKNOWN:
        return EXIT_UNDECIDED
    return EXIT_OK


def _cmd_sample(args, out) -> int:
    lines = [CSV_HEADER]
    failures = 0
    for sample in sample_region(args.grid, args.t):
        lines.append(sample.csv_row())
        if args.verify and sample.verdict is Verdict.REALIZABLE:
            s = SortedSpectrum((1.0, sample.lambda2, sample.lambda3,
                                sample.lambda4, sample.lambda5))
            decision = RealizabilityDecision(
                sample.verdict, Certificate(sample.tag), g=sample.g)
            matrix = realize(s, decision)
            if matrix is not None and not verify_spectrum(
                    matrix, s, rel_tol=args.tol).passed:
                failures += 1
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        out.write(text)
    if failures:
        print(f"error: {failures} sample(s) failed verification",
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    s = sort_descending(parse_spectrum(args.spectrum))
    with open(args.matrix) as fh:
        matrix = SymMatrix5.parse(fh.read())
    report = verify_spectrum(matrix, s, rel_tol=args.tol)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2), file=out)
    else:
        _print_report_text(report, out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


_HANDLERS = {
    "check": lambda args, out: _decide(args, out, show_matrix=False),
    "realize": lambda args, out: _decide(args, out, show_matrix=True),
    "qroots": _cmd_qroots,
    "perturb": _cmd_perturb,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
}


def run_cli(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args, out)
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (SniepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
