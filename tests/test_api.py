"""Public API: the names the package exports, pinned.

The package exports what the CLI, the tests and the README use.  A new
export, or a lost one, has to be written into this list on purpose.
"""

import ddisc
from ddisc import homology

PUBLIC = [
    "AGInvariant",
    "BoundQuiverPresentation",
    "ClockReport",
    "DdiscError",
    "DerivedEquivClass",
    "DiscretenessVerdict",
    "DynkinHereditary",
    "FactorClass",
    "GF",
    "GentleCertificate",
    "HomTable",
    "InfiniteDimensionalError",
    "K",
    "LambdaClass",
    "LambdaDescriptor",
    "ParseError",
    "Path",
    "PreconditionError",
    "PresentationError",
    "QQ",
    "Quiver",
    "RadicalProjectivity",
    "RepModule",
    "SeriesStep",
    "SeriesTrace",
    "SimplicityVerdict",
    "StripStuckError",
    "TraceReport",
    "UnknownClass",
    "__version__",
    "ag_invariant",
    "are_isomorphic",
    "build_lambda",
    "build_string_object",
    "cartan_matrix",
    "clock_condition",
    "composition_factors",
    "connected_components",
    "cycle_count",
    "direct_sum",
    "dynkin_type",
    "ext_dim",
    "find_isomorphism",
    "grothendieck_rank",
    "hom_table",
    "idempotent_subalgebra",
    "indec_projective",
    "infinite_gldim_check",
    "is_derived_discrete",
    "is_gentle",
    "is_n_derived_simple",
    "is_radical_projective",
    "lambda_descriptor_of",
    "lambda_normal_form",
    "module_direct_sum",
    "parse_presentation",
    "path_basis",
    "path_counts",
    "path_quotient",
    "projective_cover",
    "serialize_presentation",
    "simple_module",
    "strip_series",
    "two_truncated_cycle",
    "verify_trace",
    "vertex_sort_key",
]


def test_public_api_is_pinned():
    assert sorted(ddisc.__all__) == PUBLIC
    assert all(hasattr(ddisc, name) for name in PUBLIC)


def test_matrix_resolution_is_not_shipped():
    # the path-matrix resolution is a test reference (tests/test_homology.py)
    for name in ("resolve", "PathMatrix", "ProjComplex"):
        assert not hasattr(ddisc, name) and not hasattr(homology, name), name
