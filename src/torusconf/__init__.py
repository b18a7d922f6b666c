"""Exact mod-2 cohomology of two-point configuration spaces of tori.

The package computes, by explicit GF(2) elimination, the cohomology of the
space of ordered pairs of distinct points of a d-torus as a module over the
coordinate swap, cross-checks the closed-form summand counts against that
brute force, and assembles the spectral-sequence tables of the associated
Borel construction for d = 2, 3.
"""

from .borel import (
    AlphaModuleSummand,
    CheckEntry,
    ConsistencyReport,
    SSPage,
    SwHeight,
    UconfModule,
    attribute_rank_drops,
    consistency_check,
    e2_page,
    fixture_page,
    sw_height,
    uconf_fixture,
)
from .decomp import (
    ClosedFormReport,
    closed_form_report,
    conf_closed_form,
    conf_table,
    decompose,
    published_closed_form,
    reduced_table,
)
from .gf2 import (
    Gf2Matrix,
    QuotientBasis,
    SubspaceNotPreservedError,
    induced_map_on_quotient,
    quotient_structure,
    rank,
)
from .quotient import (
    PhiStar,
    conf_dim,
    conf_module,
    fixed_element_x,
    kernel_generators,
    phi_star_build,
)
from .torus import (
    Decomposition,
    KernelPresentation,
    Sigma2Module,
    binom,
    cup,
    cup_vector,
    kunneth_basis,
    kunneth_index,
    monomials,
    sigma_matrix,
    swap_permutation,
    torus_closed_form,
    torus_module,
    total_dim,
)
from .verify import SuiteResult, poincare_product, run_checks

__version__ = "0.1.0"

__all__ = [
    "AlphaModuleSummand",
    "CheckEntry",
    "ClosedFormReport",
    "ConsistencyReport",
    "Decomposition",
    "Gf2Matrix",
    "KernelPresentation",
    "PhiStar",
    "QuotientBasis",
    "SSPage",
    "Sigma2Module",
    "SubspaceNotPreservedError",
    "SuiteResult",
    "SwHeight",
    "UconfModule",
    "attribute_rank_drops",
    "binom",
    "closed_form_report",
    "conf_closed_form",
    "conf_dim",
    "conf_module",
    "conf_table",
    "consistency_check",
    "cup",
    "cup_vector",
    "decompose",
    "e2_page",
    "fixed_element_x",
    "fixture_page",
    "induced_map_on_quotient",
    "kernel_generators",
    "kunneth_basis",
    "kunneth_index",
    "monomials",
    "phi_star_build",
    "poincare_product",
    "published_closed_form",
    "quotient_structure",
    "rank",
    "reduced_table",
    "run_checks",
    "sigma_matrix",
    "sw_height",
    "swap_permutation",
    "torus_closed_form",
    "torus_module",
    "total_dim",
    "uconf_fixture",
    "__version__",
]
