"""The public names of the package: `leavitt.__all__` is pinned."""

import leavitt

PUBLIC = [
    "Block",
    "BlockSelection",
    "Cycle",
    "DecompositionReport",
    "Edge",
    "ExitConditionError",
    "GeneratorImages",
    "GradedMatrix",
    "GradedMatrixAlgebra",
    "Graph",
    "GraphError",
    "IdempotentReport",
    "InfiniteEnumerationError",
    "LaurentElement",
    "LaurentRing",
    "LeavittAlgebra",
    "LpaElement",
    "Monomial",
    "NotRegularError",
    "Path",
    "PrimeField",
    "Rationals",
    "TypeReport",
    "VerificationError",
    "bgr_enumerate",
    "block_ranks",
    "central_idempotent",
    "classify",
    "decompose",
    "dim_series_check",
    "graded_inner_inverse",
    "has_exit",
    "idempotent_report",
    "inner_inverse",
    "inner_inverse_field",
    "inner_inverse_laurent",
    "no_exit_condition",
    "paths_into",
    "paths_into_cycle",
    "paths_up_to",
    "phi",
    "phi_inverse_basis",
    "pull_back",
    "sample_homogeneous",
    "simple_cycles",
    "sinks",
    "smith_normal_form",
    "special_edges",
    "type_I_witness",
    "verify_phi",
]


def test_all_is_pinned_and_sorted():
    assert leavitt.__all__ == PUBLIC
    assert PUBLIC == sorted(PUBLIC)


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(leavitt, name) is not None, name
