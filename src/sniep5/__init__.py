"""Symmetric nonnegative inverse eigenvalue tools for five-element spectra.

Given five real numbers, decide whether they are the spectrum of some
symmetric entrywise-nonnegative 5x5 matrix, and when one of the two
explicit sparse patterns applies, produce the matrix.  Everything a
constructor emits can be re-checked through an independent verification
path (cyclic Jacobi eigenvalues and a trace-recurrence characteristic
polynomial).  Perturbation closure rules extend the decided region, and a
deterministic grid sampler maps the part that stays undecided.
"""

from .classify import (
    Certificate,
    DecisionDetails,
    RealizabilityDecision,
    Reason,
    Verdict,
    classify,
    classify_trace_zero,
    realize,
)
from .cubic import real_roots
from .errors import (
    BoundaryProximityWarning,
    DegenerateLeadingCoefficient,
    DegenerateU,
    EmptyGrid,
    InvalidSpectrum,
    NegativeRadicand,
    NoConvergence,
    NotTraceZero,
    PreconditionViolated,
    SniepError,
)
from .guo import (
    ClosureRule,
    PerturbedDecision,
    Perturbation,
    Sign,
    apply_perturbation,
    decide_perturbed,
)
from .pattern_a import (
    PatternAScalars,
    build_pattern_a,
    compute_uvwr,
    pattern_a_conditions,
)
from .pattern_b import (
    CubicQ,
    PatternBScalars,
    build_pattern_b,
    compute_klm,
    find_g,
    pattern_b_conditions,
    q_poly,
)
from .sampler import CSV_HEADER, RegionSample, decision_tag, sample_region
from .spectrum import (
    ConditionReport,
    ElemSyms,
    SortedSpectrum,
    Spectrum,
    SymMatrix5,
    check_mn,
    check_pf,
    check_trace,
    elem_syms,
    parse_spectrum,
    scale,
    sort_descending,
)
from .verify import (
    VerificationReport,
    char_poly_coeffs,
    entry_bound_check,
    sym_eigenvalues,
    verify_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryProximityWarning",
    "CSV_HEADER",
    "Certificate",
    "ClosureRule",
    "ConditionReport",
    "CubicQ",
    "DecisionDetails",
    "DegenerateLeadingCoefficient",
    "DegenerateU",
    "ElemSyms",
    "EmptyGrid",
    "InvalidSpectrum",
    "NegativeRadicand",
    "NoConvergence",
    "NotTraceZero",
    "PatternAScalars",
    "PatternBScalars",
    "PerturbedDecision",
    "Perturbation",
    "PreconditionViolated",
    "RealizabilityDecision",
    "Reason",
    "RegionSample",
    "Sign",
    "SniepError",
    "SortedSpectrum",
    "Spectrum",
    "SymMatrix5",
    "VerificationReport",
    "Verdict",
    "apply_perturbation",
    "build_pattern_a",
    "build_pattern_b",
    "char_poly_coeffs",
    "check_mn",
    "check_pf",
    "check_trace",
    "classify",
    "classify_trace_zero",
    "compute_klm",
    "compute_uvwr",
    "decide_perturbed",
    "decision_tag",
    "elem_syms",
    "entry_bound_check",
    "find_g",
    "parse_spectrum",
    "pattern_a_conditions",
    "pattern_b_conditions",
    "q_poly",
    "real_roots",
    "realize",
    "sample_region",
    "scale",
    "sort_descending",
    "sym_eigenvalues",
    "verify_spectrum",
]
