"""Exact-arithmetic engine for hierarchical spaces of vector configurations.

The package computes, over the rationals and with zero tolerance, the
matroid data of a configuration of column vectors, the central / external /
semi-external / semi-internal space bundles with their power and cover
ideals, Hilbert functions via three independent routes, the least map on
arrangement vertex sets and zonotope lattice points, and machine-checked
certificates for the structural statements tying all of these together.
"""

__version__ = "0.1.0"

from .config import (
    Config,
    SemiExternalFamily,
    bases,
    ensure_family,
    extend_basis,
    facets,
    full_family,
    i_internal_bases,
    independents,
    internal_bases,
    make_config,
    semiexternal_close,
    valuation,
    valuation_histogram,
)
from .errors import (
    ConsistencyError,
    InputError,
    ZonoforgeError,
)
from .geometry import (
    Arrangement,
    least_space,
    make_arrangement,
    restriction_certificate,
    vertex_set,
    zonotope_lattice,
)
from .graded import GradedSubspace, IdealGens, direct_sum_certificate, hilbert_quotient, kernel
from .poly import HPoly
from .verify import run_theorem, search_internal_extension
from .zonotopal import (
    Bundle,
    central,
    codimension_counts,
    dual_pairing_certificate,
    external,
    internal_extension_check,
    minimal_completion_sum,
    semi_external,
    semi_internal,
)

__all__ = [
    "__version__",
    "Arrangement",
    "Bundle",
    "Config",
    "ConsistencyError",
    "GradedSubspace",
    "HPoly",
    "IdealGens",
    "InputError",
    "SemiExternalFamily",
    "ZonoforgeError",
    "bases",
    "central",
    "codimension_counts",
    "direct_sum_certificate",
    "dual_pairing_certificate",
    "ensure_family",
    "extend_basis",
    "external",
    "facets",
    "full_family",
    "hilbert_quotient",
    "i_internal_bases",
    "independents",
    "internal_bases",
    "internal_extension_check",
    "kernel",
    "least_space",
    "make_arrangement",
    "make_config",
    "minimal_completion_sum",
    "restriction_certificate",
    "run_theorem",
    "search_internal_extension",
    "semi_external",
    "semi_internal",
    "semiexternal_close",
    "valuation",
    "valuation_histogram",
    "vertex_set",
    "zonotope_lattice",
]
