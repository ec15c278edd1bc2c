"""Kac-Bernstein functional equation toolkit for finitely generated Abelian groups.

Verifies, synthesizes, decomposes and exhaustively enumerates solutions of

    f(x+y) g(x-y) = f(x) f(y) g(x) g(-y)

on groups ``Z^r x Z/n1 x ... x Z/nt``, in the class of positive functions
and in the class of non-vanishing Hermitian complex functions (plus the
vanishing case on groups with onto doubling).

The package namespace is lazy (PEP 562): each public name is imported from
its module on first access and then kept here, so a process loads only the
modules it uses; ``kbeq.cli`` imports each command's modules in its handler.
"""

import sys

# each public name, by the module that defines it
_EXPORTS = {
    "checks": (
        "CheckReport", "Witness", "check_cauchy", "check_character",
        "check_coset_constant", "check_eq5", "check_hermitian", "check_kb",
        "check_kb_self", "check_polynomial", "check_quadratic",
        "check_sign_eq26",
    ),
    "decompose": (
        "decompose_T", "decompose_hermitian", "decompose_positive",
        "decompose_self", "decompose_vanishing", "extend_additive",
        "extend_biadditive", "extend_character", "recover_deg2",
    ),
    "errors": (
        "BudgetExceededError", "DecompositionError", "DomainSizeError",
        "EquationFailsError", "GroupHypothesisError", "GroupMismatchError",
        "GroupParseError", "IncompatibleTablesError", "KbeqError",
        "SynthesisError",
    ),
    "functions": (
        "AdditiveMap", "CharacterSpec", "CosetConstantMap", "Exact",
        "FuncTable", "HermitianSolutionForm", "PositiveSolutionForm",
        "QuadraticForm", "SignMap", "eval_hermitian", "eval_positive",
        "synth_table",
    ),
    "groups": (
        "Box", "CosetIndex", "Domain", "FullGroup", "GroupElement",
        "GroupSpec", "SubgroupSpec", "parse_element", "parse_group",
    ),
    "oracle": (
        "SignSolutionCensus", "SuiteFailedError", "SuiteReport",
        "builtin_counterexample", "builtin_odd_quadratic",
        "enum_restricted_kb", "enum_sign_solutions",
        "predicted_restricted_count", "random_hermitian_form",
        "random_positive_form", "restricted_rows_match_prediction",
        "scan_restricted_kb", "verify_theorem_suite",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def _submodule(module: str):
    # the import statement's machinery, which ``-X importtime`` reports
    name = f"{__name__}.{module}"
    __import__(name)
    return sys.modules[name]


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as ``import kbeq.<name>`` binds it
        return _submodule(name)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(module), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
