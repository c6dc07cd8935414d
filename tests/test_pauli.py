"""Pauli algebra checked against dense matrices built independently."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semionlab.errors import (
    CapacityError,
    DimensionMismatchError,
    RepresentationError,
)
from semionlab.pauli import (
    PauliString,
    _echelon,
    _gf2_reduce,
    apply_pauli_sum,
    commutes,
    multiply,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_oracle(letters: str, phase: complex = 1.0) -> np.ndarray:
    """Independent tensor product, site 0 as least significant bit."""
    out = np.array([[1.0 + 0j]])
    for letter in reversed(letters):
        out = np.kron(out, MATS[letter])
    return phase * out


def random_pauli(rng, n, rep=None) -> PauliString:
    return PauliString(n, int(rng.integers(0, 1 << n)),
                       int(rng.integers(0, 1 << n)),
                       int(rng.integers(0, 4)), rep)


class TestSingleSiteConventions:
    def test_identity(self):
        assert np.array_equal(PauliString.identity(1).to_matrix(), I2)

    def test_z_basis_convention(self):
        # basis bit 0 maps to the +1 eigenvalue
        assert np.array_equal(PauliString.single(1, 0, "Z").to_matrix(),
                              np.diag([1, -1]))

    def test_y_matrix(self):
        assert np.array_equal(PauliString.single(1, 0, "Y").to_matrix(), Y)

    def test_x_times_z_is_minus_i_y(self):
        xz = multiply(PauliString.single(1, 0, "X"),
                      PauliString.single(1, 0, "Z"))
        assert np.allclose(xz.to_matrix(), -1j * Y)

    def test_all_single_site_products(self):
        for a in "IXYZ":
            for b in "IXYZ":
                got = multiply(PauliString.single(1, 0, a),
                               PauliString.single(1, 0, b)).to_matrix()
                assert np.allclose(got, MATS[a] @ MATS[b]), (a, b)


class TestMultiply:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(0)
        ident = PauliString.identity(4)
        for _ in range(20):
            p = random_pauli(rng, 4)
            assert multiply(p, ident) == p
            assert multiply(ident, p) == p

    def test_phase_exact_homomorphism_two_sites(self):
        # exhaustive on 2 sites: every mask/phase pair
        for px in range(4):
            for pz in range(4):
                for qx in range(4):
                    for qz in range(4):
                        p = PauliString(2, px, pz, 1)
                        q = PauliString(2, qx, qz, 3)
                        got = multiply(p, q).to_matrix()
                        want = p.to_matrix() @ q.to_matrix()
                        assert np.allclose(got, want)

    def test_phase_exact_homomorphism_random_ten_sites(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            p = random_pauli(rng, 10)
            q = random_pauli(rng, 10)
            got = multiply(p, q).to_matrix()
            assert np.allclose(got, p.to_matrix() @ q.to_matrix())

    def test_involution_phase(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = random_pauli(rng, 6)
            sq = multiply(p, p)
            assert sq.is_identity_mask()
            assert sq.phase_exp in (0, 2)
            if p.is_hermitian():
                assert sq.phase_exp == 0

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(PauliString.identity(2), PauliString.identity(3))

    def test_representation_mismatch(self):
        p = PauliString.single(2, 0, "X", rep="honeycomb_spin")
        q = PauliString.single(2, 0, "Z", rep="device")
        with pytest.raises(RepresentationError):
            multiply(p, q)


class TestCommutes:
    def test_single_anticommuting_site(self):
        a = PauliString.from_letters(2, {0: "X"})
        b = PauliString.from_letters(2, {0: "Z", 1: "Z"})
        assert not commutes(a, b)

    def test_two_anticommuting_sites_cancel(self):
        a = PauliString.from_letters(2, {0: "X", 1: "X"})
        b = PauliString.from_letters(2, {0: "Z", 1: "Z"})
        assert commutes(a, b)

    def test_agrees_with_matrix_commutator(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = random_pauli(rng, 5)
            q = random_pauli(rng, 5)
            pm, qm = p.to_matrix(), q.to_matrix()
            is_zero = np.allclose(pm @ qm - qm @ pm, 0)
            assert commutes(p, q) == is_zero

    def test_commutation_vs_phase_offset(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            p = random_pauli(rng, 6)
            q = random_pauli(rng, 6)
            pq, qp = multiply(p, q), multiply(q, p)
            offset = (pq.phase_exp - qp.phase_exp) % 4
            assert offset == (0 if commutes(p, q) else 2)


class TestApplyToState:
    def test_x_flips_bit(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        out = apply_pauli_sum([(1, PauliString.single(3, 0, "X"))], 3, amps)
        assert out[1] == 1.0 and np.count_nonzero(out) == 1

    def test_z_phase_on_set_bit(self):
        amps = np.zeros(8, dtype=complex)
        amps[1] = 1.0
        out = apply_pauli_sum([(1, PauliString.single(3, 0, "Z"))], 3, amps)
        assert out[1] == -1.0

    def test_against_dense_oracle_ten_sites(self):
        rng = np.random.default_rng(11)
        amps = rng.standard_normal(1 << 10) + 1j * rng.standard_normal(1 << 10)
        for _ in range(5):
            p = random_pauli(rng, 10)
            got = apply_pauli_sum([(1, p)], 10, amps)
            want = p.to_matrix() @ amps
            assert np.max(np.abs(got - want)) < 1e-12

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(12)
        amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        p = random_pauli(rng, 6)
        out = apply_pauli_sum([(1, p)], 6, amps)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(amps),
                                                    abs=0, rel=1e-15)


class TestApplyProperty:
    @settings(max_examples=150, deadline=None)
    @given(letters=st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=8),
           phase=st.integers(0, 3),
           lead=st.sampled_from([(), (3,)]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_matrix(self, letters, phase, lead, seed):
        n = len(letters)
        p = PauliString.from_letters(n, dict(enumerate(letters))).times_i(
            phase)
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((*lead, 1 << n)) + \
            1j * rng.standard_normal((*lead, 1 << n))
        got = apply_pauli_sum([(1, p)], n, block)
        want = block @ p.to_matrix().T
        assert got.shape == block.shape and got.dtype == complex
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.linalg.norm(got) == pytest.approx(np.linalg.norm(block),
                                                    abs=0, rel=1e-15)


# terms drawn from a small pool of distinct x-masks, so several terms
# often share one x-mask; random phases give odd-Y (imaginary weight)
# strings and the coefficients are complex
pauli_sums = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3,
             unique=True),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, (1 << n) - 1),
                       st.integers(0, 3)), min_size=1, max_size=8)))


class TestPauliSum:
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_one_term_is_exact(self, lead):
        # a unit string only permutes amplitudes and multiplies them by
        # units, so the kernel and the dense product agree bit for bit
        rng = np.random.default_rng(21)
        for _ in range(150):
            n = int(rng.integers(1, 11))
            p = random_pauli(rng, n)
            block = rng.standard_normal((*lead, 1 << n)) + \
                1j * rng.standard_normal((*lead, 1 << n))
            assert np.array_equal(apply_pauli_sum([(1, p)], n, block),
                                  block @ p.to_matrix().T)

    @settings(max_examples=150, deadline=None)
    @given(spec=pauli_sums,
           lone=st.tuples(st.integers(0, 8), st.integers(0, 127),
                          st.integers(0, 3)),
           lead=st.sampled_from([(), (3,)]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_sum(self, spec, lone, lead, seed):
        n, x_pool, draws = spec
        rng = np.random.default_rng(seed)
        terms = [(complex(*rng.standard_normal(2)),
                  PauliString(n, x_pool[k % len(x_pool)], z, phase))
                 for k, z, phase in draws]
        if len(x_pool) > 1:
            # one term alone keeps x_pool[0], placed first (it writes the
            # output) or later (it goes through the reused buffer)
            at, z, phase = lone
            terms = [t for t in terms if t[1].x_mask != x_pool[0]]
            terms.insert(min(at, len(terms)),
                         (complex(*rng.standard_normal(2)),
                          PauliString(n, x_pool[0], z % (1 << n), phase)))
        block = rng.standard_normal((*lead, 1 << n)) + \
            1j * rng.standard_normal((*lead, 1 << n))
        got = apply_pauli_sum(terms, n, block)
        want = block @ sum(c * p.to_matrix() for c, p in terms).T
        assert got.shape == block.shape and got.dtype == complex
        assert np.max(np.abs(got - want)) < 1e-12

    def test_real_coefficients_on_real_amplitudes(self):
        ops = [PauliString.parse(t) for t in ("XXZ", "XXI", "IZZ", "YXI")]
        terms = list(zip((0.5, -1.25, 2.0, 0.75), ops))
        amps = np.arange(8.0)
        want = sum(c * (p.to_matrix() @ amps) for c, p in terms)
        assert np.max(np.abs(apply_pauli_sum(terms, 3, amps) - want)) < 1e-12

    @pytest.mark.parametrize("shape", [(8,), (3, 8)])
    def test_empty_sum_is_zero(self, shape):
        out = apply_pauli_sum([], 3, np.ones(shape, dtype=complex))
        assert out.shape == shape and out.dtype == complex
        assert not out.any()

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_pauli_sum([(1.0, PauliString.single(3, 0, "X"))], 3,
                            np.ones(4))
        with pytest.raises(DimensionMismatchError):
            apply_pauli_sum([(1.0, PauliString.single(2, 0, "X"))], 3,
                            np.ones(8))


class TestHermiticity:
    def test_single_y_is_hermitian(self):
        assert PauliString.single(3, 1, "Y").is_hermitian()

    def test_i_z_is_not(self):
        assert not PauliString.single(1, 0, "Z").times_i().is_hermitian()

    def test_matches_matrix_adjoint(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            p = random_pauli(rng, 4)
            m = p.to_matrix()
            assert p.is_hermitian() == np.allclose(m, m.conj().T)


class TestTextForm:
    def test_render_examples(self):
        p = PauliString.from_letters(5, {0: "X", 1: "Z", 4: "Y"}).times_i()
        assert str(p) == "+i XZIIY"

    def test_round_trip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            p = random_pauli(rng, 7)
            q = PauliString.parse(str(p))
            assert (q.x_mask, q.z_mask, q.phase_exp) == \
                (p.x_mask, p.z_mask, p.phase_exp)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 63), max_size=10))
def test_echelon_spans_the_vectors(vectors):
    rows, deps = _echelon(vectors)
    gens = [v for v, dep in zip(vectors, deps) if dep is None]
    assert len(gens) == len(rows)
    # each row's leading bit is clear in every later row
    for i, (vec, _) in enumerate(rows):
        top = 1 << vec.bit_length() - 1
        assert all(not later & top for later, _ in rows[i + 1:])
    for vec, dep in rows:
        assert vec == _xor_of(gens, dep)
    for v, dep in zip(vectors, deps):
        assert _gf2_reduce(v, rows)[0] == 0
        if dep is not None:
            assert v == _xor_of(gens, dep)


def _xor_of(vectors, mask: int) -> int:
    out = 0
    for k, v in enumerate(vectors):
        if mask >> k & 1:
            out ^= v
    return out


def test_dense_capacity_error():
    with pytest.raises(CapacityError):
        PauliString.identity(20).to_matrix()


def test_large_register_masks_work():
    # beyond one machine word: plain integers keep working
    p = PauliString.single(80, 77, "Y")
    q = PauliString.single(80, 77, "Y")
    assert multiply(p, q).is_identity_mask()
    assert p.is_hermitian()


def _values():
    """One of each value class built in bulk: a Pauli string, a bond
    plaquette, a string spec and a fusion result."""
    from semionlab.anyons import StringSpec, fuse_check
    from semionlab.lattice import build_layout

    layout = build_layout(2, 3)
    loop = StringSpec.z_string(layout, [0, 1, 3])
    crossing = StringSpec.x_string(layout, [1])
    return [PauliString(5, 3, 6, 7, "device"), layout.bond_plaquettes[2],
            loop, fuse_check(layout, loop, crossing)]


class TestValueContract:
    @pytest.mark.parametrize("value", _values(),
                             ids=lambda v: type(v).__name__)
    def test_every_field_is_frozen(self, value):
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError,
                            TypeError)):
            value.extra = 1

    @pytest.mark.parametrize("value", _values(),
                             ids=lambda v: type(v).__name__)
    def test_copies_equal_the_original(self, value):
        assert dataclasses.replace(value) == value
        assert pickle.loads(pickle.dumps(value)) == value

    def test_equality_and_hash_ignore_rep(self):
        tagged = PauliString(4, 5, 9, 2, "honeycomb_spin")
        for other in (PauliString(4, 5, 9, 2), PauliString(4, 5, 9, 6, "x")):
            assert other == tagged and hash(other) == hash(tagged)
        assert PauliString(4, 5, 9, 3, "honeycomb_spin") != tagged
        assert PauliString(5, 5, 9, 2, "honeycomb_spin") != tagged

    def test_fields_by_keyword_and_phase_reduced(self):
        op = PauliString(n_sites=3, z_mask=4, phase_exp=-1, rep="device")
        assert (op.n_sites, op.x_mask, op.z_mask, op.phase_exp, op.rep) == \
            (3, 0, 4, 3, "device")
        assert PauliString(3).phase_exp == 0 and PauliString(3).rep is None

    @pytest.mark.parametrize("args", [(0,), (-1,), (3, 8), (3, -1),
                                      (3, 0, 8), (3, 0, -1), (1, 2, 0)])
    def test_out_of_range_refused(self, args):
        with pytest.raises(DimensionMismatchError):
            PauliString(*args)

    def test_replace_rechecks_and_keeps_the_rest(self):
        plq = _values()[1]
        moved = dataclasses.replace(plq, row=7, labels=(1, 2, 3))
        assert (moved.row, moved.labels) == (7, (1, 2, 3))
        assert (moved.index, moved.up, moved.down) == \
            (plq.index, plq.up, plq.down)
        with pytest.raises(DimensionMismatchError):
            dataclasses.replace(plq.up, x_mask=1 << plq.up.n_sites)
