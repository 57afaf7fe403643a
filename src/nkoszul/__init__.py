"""Exact-arithmetic workbench for N-homogeneous algebras and their duals."""

__version__ = "0.1.0"

from .algebras import (
    antisymmetrizer,
    count_admissible,
    dual_dims_closed_form,
    enumerate_admissible,
    free_algebra,
    polynomial,
    quantum_space,
)
from .freealg import shuffle_pairs
from .homog import AlgebraPresentation
from .koszul import (
    admissible_identity_check,
    dual_component_dim,
    dual_koszul_subspace,
    dvp_check,
    dvp_rhs,
    identity_eq1,
    koszul_certificate,
    nu,
)
from .manin import ManinBialgebra, build_end, chi_A, chi_J, kmt_check
from .mmt import mmt_check, nmt_check, random_rational_matrix
from .scalar import ParameterField
