"""Symbolic toolkit for a nonseparable two-dimensional complex oscillator.

The package builds the model's ladder operators and symmetry algebra inside
the Weyl algebra of (z, zbar), constructs the Jordan-block basis functions in
reduced (Gaussian-envelope-free) form, and machine-verifies the full catalog
of algebraic relations, operator actions, representation coefficients, and
bilinear-pairing identities, either exactly (coefficients are ``Fraction``s)
or in floating point (coefficients are ``float``s). ``DEFAULT_TOL`` is the
tolerance of a float verdict, the default of ``verify --tol``.
"""

from .gaussint import (
    OracleUnavailableError,
    expand_in_basis,
    gram_block,
    h_block,
    inner_product,
    minimum_order,
    moment,
    quadrature_oracle,
)
from .model import (
    CATALOG_NAMES,
    EXPLICIT_NAMES,
    Params,
    apply,
    build_phi,
    build_psi,
    chain_psi,
    conjugate_through_envelope,
    energy,
    eval_expression,
    explicit_form,
    from_chain,
    make_operator,
)
from .verifier import (
    ACTION_RULES,
    DEFAULT_TOL,
    SUITES,
    RelationSpec,
    Report,
    check_actions,
    check_explicit_forms,
    check_integrals,
    check_irrep,
    check_pseudo_hermiticity,
    check_relation,
    check_structure,
    load_negative_controls,
    load_relations,
    parse_relations,
    run_suites,
)
from .weyl import (
    EXACT,
    FLOAT,
    DiffOp,
    ModeMismatchError,
    Poly2,
    adjoint,
    anticommutator,
    commutator,
    lift,
    linear_combination,
    swap_vars,
)

__version__ = "0.1.0"

__all__ = [
    "ACTION_RULES",
    "CATALOG_NAMES",
    "DEFAULT_TOL",
    "DiffOp",
    "EXACT",
    "EXPLICIT_NAMES",
    "FLOAT",
    "ModeMismatchError",
    "OracleUnavailableError",
    "Params",
    "Poly2",
    "RelationSpec",
    "Report",
    "SUITES",
    "adjoint",
    "anticommutator",
    "apply",
    "build_phi",
    "build_psi",
    "chain_psi",
    "check_actions",
    "check_explicit_forms",
    "check_integrals",
    "check_irrep",
    "check_pseudo_hermiticity",
    "check_relation",
    "check_structure",
    "commutator",
    "conjugate_through_envelope",
    "energy",
    "eval_expression",
    "expand_in_basis",
    "explicit_form",
    "from_chain",
    "gram_block",
    "h_block",
    "inner_product",
    "lift",
    "linear_combination",
    "load_negative_controls",
    "load_relations",
    "make_operator",
    "minimum_order",
    "moment",
    "parse_relations",
    "quadrature_oracle",
    "run_suites",
    "swap_vars",
]
