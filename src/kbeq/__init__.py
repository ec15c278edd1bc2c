"""Kac-Bernstein functional equation toolkit for finitely generated Abelian groups.

Verifies, synthesizes, decomposes and exhaustively enumerates solutions of

    f(x+y) g(x-y) = f(x) f(y) g(x) g(-y)

on groups ``Z^r x Z/n1 x ... x Z/nt``, in the class of positive functions
and in the class of non-vanishing Hermitian complex functions (plus the
vanishing case on groups with onto doubling).
"""

from .checks import (
    CheckReport,
    Witness,
    check_cauchy,
    check_character,
    check_coset_constant,
    check_eq5,
    check_hermitian,
    check_kb,
    check_kb_self,
    check_polynomial,
    check_quadratic,
    check_sign_eq26,
)
from .decompose import (
    decompose_T,
    decompose_hermitian,
    decompose_positive,
    decompose_self,
    decompose_vanishing,
    extend_additive,
    extend_biadditive,
    extend_character,
    recover_deg2,
)
from .errors import (
    BudgetExceededError,
    DecompositionError,
    DomainSizeError,
    EquationFailsError,
    GroupHypothesisError,
    GroupMismatchError,
    GroupParseError,
    IncompatibleTablesError,
    KbeqError,
    SynthesisError,
)
from .functions import (
    AdditiveMap,
    CharacterSpec,
    CosetConstantMap,
    Exact,
    FuncTable,
    HermitianSolutionForm,
    PositiveSolutionForm,
    QuadraticForm,
    SignMap,
    eval_hermitian,
    eval_positive,
    synth_table,
)
from .groups import (
    Box,
    CosetIndex,
    Domain,
    FullGroup,
    GroupElement,
    GroupSpec,
    SubgroupSpec,
    parse_element,
    parse_group,
)
from .oracle import (
    SignSolutionCensus,
    SuiteFailedError,
    SuiteReport,
    builtin_counterexample,
    builtin_odd_quadratic,
    enum_restricted_kb,
    enum_sign_solutions,
    predicted_restricted_count,
    random_hermitian_form,
    random_positive_form,
    restricted_rows_match_prediction,
    scan_restricted_kb,
    verify_theorem_suite,
)

__version__ = "0.1.0"
