"""The one dense-capacity budget, checked before any array is allocated."""

import tracemalloc
from functools import partial

import pytest

from semionlab.anyons import QndParams, qnd_closed_form_deviation
from semionlab.errors import (
    DENSE_ELEMENTS,
    MAX_CAVITY_LEVELS,
    MAX_SQUARE_SITES,
    CapacityError,
)
from semionlab.hamiltonian import (
    DiagonalOracle,
    HamiltonianTerms,
    build_spin_hamiltonian,
    dense_matrix,
    spectrum,
)
from semionlab.lattice import SquareLattice, build_layout
from semionlab.pauli import PauliString
from semionlab.states import basis_state, project_ground, random_state


def _one_z_term(n: int) -> HamiltonianTerms:
    return HamiltonianTerms(n, ((1.0, PauliString.single(n, 0, "Z")),))


# Every guarded entry point, one size past the budget.  Each guard stands
# in front of its first array, so nothing may be allocated before the check.
CASES = {
    "to_matrix_13_qubits": PauliString.identity(13).to_matrix,
    "dense_matrix_13_qubits": partial(dense_matrix, _one_z_term(13)),
    "oracle_1x13": DiagonalOracle(
        build_layout(1, 13), 1.0, 1.0, 1.0).enumerate_energies,
    "spectrum_1x13": partial(
        spectrum, build_spin_hamiltonian(build_layout(1, 13), 1.0, 1.0, 1.0)),
    # the smallest lattice whose ground-state support, 2**25 entries,
    # passes the budget (3x4 has 2**9, 4x4 2**12)
    "project_ground_1x26_cavity2": partial(
        project_ground, build_layout(1, 26), 2),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_guard_refuses_past_budget_before_allocating(name):
    call = CASES[name]
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as info:
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(DENSE_ELEMENTS) in str(info.value)
    assert peak < 1 << 20, f"{peak} bytes allocated before the check"


@pytest.mark.parametrize("rows,cols", [(65, 64), (4097, 2), (10**30, 2)])
def test_lattice_size_limit_checked_before_any_bond(rows, cols):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as info:
            build_layout(rows, cols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(MAX_SQUARE_SITES) in str(info.value)
    assert peak < 1 << 16


def test_lattice_size_limit_is_inclusive():
    assert SquareLattice(64, 64).n_sites == MAX_SQUARE_SITES


# Every state builder and the QND deviation, one cavity level past the
# limit: each fits the array budget, so only the level limit refuses it.
CAVITY_CASES = {
    "basis_state": partial(basis_state, 2, cavity_dim=MAX_CAVITY_LEVELS + 1),
    "random_state": partial(random_state, 2, MAX_CAVITY_LEVELS + 1),
    "project_ground": partial(project_ground, build_layout(1, 2),
                              MAX_CAVITY_LEVELS + 1),
    "qnd_deviation": partial(qnd_closed_form_deviation,
                             QndParams.canonical(1.0, (0,)), 2,
                             MAX_CAVITY_LEVELS + 1),
}


@pytest.mark.parametrize("name", sorted(CAVITY_CASES))
def test_cavity_level_limit(name):
    with pytest.raises(CapacityError) as info:
        CAVITY_CASES[name]()
    assert str(MAX_CAVITY_LEVELS) in str(info.value)


def test_cavity_level_limit_is_inclusive():
    params = QndParams.canonical(1.0, (0,))
    assert qnd_closed_form_deviation(params, 2, MAX_CAVITY_LEVELS) < 1e-10
    assert basis_state(2, cavity_dim=MAX_CAVITY_LEVELS).cavity_dim == \
        MAX_CAVITY_LEVELS
