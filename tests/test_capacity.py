"""The one dense-capacity budget, checked before any array is allocated."""

import tracemalloc
from functools import partial

import pytest

from semionlab.anyons import QndParams, qnd_closed_form_deviation
from semionlab.errors import DENSE_ELEMENTS, CapacityError
from semionlab.hamiltonian import (
    DiagonalOracle,
    HamiltonianTerms,
    build_spin_hamiltonian,
    dense_matrix,
    spectrum,
)
from semionlab.lattice import build_layout
from semionlab.pauli import PauliString
from semionlab.states import basis_state


def _one_z_term(n: int) -> HamiltonianTerms:
    return HamiltonianTerms("honeycomb_spin", n,
                            ((1.0, PauliString.single(n, 0, "Z")),))


# Every guarded entry point, one size past the budget.  ``single_array``
# marks the guards in front of one array, where nothing may be allocated
# before the check; the sector spectrum labels its basis (2**n entries,
# inside the budget) before it can count the block entries.
CASES = {
    "to_matrix_13_qubits": (PauliString.identity(13).to_matrix, True),
    "dense_matrix_13_qubits": (partial(dense_matrix, _one_z_term(13)), True),
    "oracle_1x13": (DiagonalOracle(build_layout(1, 13), 1.0, 1.0, 1.0)
                    .enumerate_energies, True),
    "qnd_deviation_n11_cavity3": (
        partial(qnd_closed_form_deviation, QndParams.canonical(1.0, (0, 5)),
                11, 3), True),
    "basis_state_25": (partial(basis_state, 25), True),
    "spectrum_3x3": (
        partial(spectrum, build_spin_hamiltonian(build_layout(3, 3),
                                                 1.0, 1.0, 1.0)), False),
    "lanczos_25_qubits": (partial(spectrum, _one_z_term(25), k=1), True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_guard_refuses_past_budget_before_allocating(name):
    call, single_array = CASES[name]
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as info:
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(DENSE_ELEMENTS) in str(info.value)
    if single_array:
        assert peak < 1 << 20, f"{peak} bytes allocated before the check"
