"""Output checks, run outside the timed region.

Each check takes one op's input and its result (or the exception it raised)
and returns True when the answer is consistent.  A False is a failed op.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sniep5 as sn
from sniep5 import Certificate, Reason, Verdict

from workloads import CERTIFY_REL_TOL


def _builds_and_verifies(s, certificate, g) -> bool:
    if certificate is Certificate.PATTERN_A:
        matrix = sn.build_pattern_a(s)
    else:
        matrix = sn.build_pattern_b(s, g)
    return sn.verify_spectrum(matrix, s, rel_tol=CERTIFY_REL_TOL).passed


def check_grid(_, row) -> bool:
    """The soundness rules of acceptance test 08, per row."""
    if isinstance(row, Exception):
        return False
    s = sn.SortedSpectrum((1.0, row.lambda2, row.lambda3, row.lambda4, row.lambda5))
    e1 = sn.elem_syms(s).e1
    if row.verdict is Verdict.REALIZABLE:
        if row.tag in (Certificate.PATTERN_A.value, Certificate.PATTERN_B.value):
            return _builds_and_verifies(s, Certificate(row.tag), row.g)
        if row.tag == Certificate.DIRECT_SUM.value:
            return s.lam3 <= e1
        return row.tag in {c.value for c in Certificate}
    if row.verdict is Verdict.NOT_REALIZABLE:
        return {
            Reason.PF_VIOLATED.value: s.lam1 < 0.0 or s.lam1 < -s.lam5,
            Reason.TRACE_VIOLATED.value: e1 < 0.0,
            Reason.MN_VIOLATED.value: s.lam1 + s.lam3 + s.lam4 < 0.0,
            Reason.NEGATED_PERRON_BOUNDARY.value: s.lam5 == -s.lam1 and s.lam3 > e1,
        }.get(row.tag, False)
    return (s.lam3 > e1 and s.lam5 > -s.lam1
            and not sn.pattern_a_conditions(s) and not sn.pattern_b_conditions(s))


def check_certify(vals, res) -> bool:
    """Verification at 1e-8, char-poly coefficients = (-1)^k e_k, entry bound."""
    if isinstance(res, Exception):
        return False
    if not (res.report.passed and res.entry_ok):
        return False
    scale = max(1.0, abs(vals[0]))
    signed = (1.0,) + tuple((-1.0) ** k * e
                            for k, e in enumerate(res.esyms.as_tuple(), start=1))
    return all(
        abs(got - want) <= CERTIFY_REL_TOL * math.comb(5, k) * scale ** k
        for k, (got, want) in enumerate(zip(res.coeffs, signed))
    )


def _exact_necessary(lam) -> tuple[bool, bool, bool]:
    """Perron, trace and partial-sum conditions on exact descending values."""
    return (lam[0] >= 0 and lam[0] >= -lam[4],
            sum(lam) >= 0,
            lam[0] + lam[2] + lam[3] >= 0)


def _exact_decision_holds(lam, decision, floats) -> bool:
    """Re-check a decision about the typed values ``lam`` in exact arithmetic.

    A not_realizable reason must hold as an exact inequality; any other
    verdict needs the three exact necessary conditions.  Pattern
    certificates must also build a matrix that verifies against ``floats``.
    """
    pf, trace, mn = _exact_necessary(lam)
    if decision.verdict is Verdict.NOT_REALIZABLE:
        return {
            Reason.PF_VIOLATED: not pf,
            Reason.TRACE_VIOLATED: not trace,
            Reason.MN_VIOLATED: not mn,
            Reason.NEGATED_PERRON_BOUNDARY: lam[4] == -lam[0] and lam[2] > sum(lam),
        }.get(decision.reason, False)
    if not (pf and trace and mn):
        return False
    e1 = sum(lam)
    cert = decision.certificate
    if cert is Certificate.SULEIMANOVA:
        return lam[1] <= 0
    if cert is Certificate.TWO_POSITIVE:
        return lam[2] <= 0
    if cert is Certificate.DIRECT_SUM:
        return lam[2] <= e1
    if cert in (Certificate.PATTERN_A, Certificate.PATTERN_B):
        return _builds_and_verifies(floats, cert, decision.g)
    return True


def check_query(inp, res) -> bool:
    """Exact re-check, with Fractions of the decimals as typed."""
    if isinstance(res, Exception):
        return False
    text, perturbation = inp
    lam = sorted((Fraction(p) for p in text.split(",")), reverse=True)
    if perturbation is None:
        return _exact_decision_holds(lam, res, sn.sort_descending(sn.parse_spectrum(text)))
    i, sign, size = perturbation
    lam[0] += Fraction(size)
    lam[i - 1] += Fraction(size) if sign == "plus" else -Fraction(size)
    lam.sort(reverse=True)
    if res.matrix is not None and not sn.verify_spectrum(
            res.matrix, res.perturbed, rel_tol=CERTIFY_REL_TOL).passed:
        return False
    return _exact_decision_holds(lam, res.decision, res.perturbed)


def failure_kind(result) -> str:
    """A short label for a failed op: the exception type or the answer given."""
    if isinstance(result, Exception):
        return type(result).__name__
    decision = getattr(result, "decision", result)
    label = getattr(decision, "reason", None) or getattr(decision, "certificate", None)
    if label is not None:
        return label.value
    return getattr(result, "tag", None) or type(result).__name__


CHECKS = {"grid_sweep": check_grid, "certify": check_certify,
          "query_mix": check_query}
