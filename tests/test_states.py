import math

import numpy as np
import pytest

from conftest import assert_counts_match
from oamqkd.exceptions import DimensionMismatch, IndexOutOfRange, UnsupportedDimension
from oamqkd.modes import ModeFamily, ModeLabel
from oamqkd.states import (
    Basis,
    MubFamily,
    PureState,
    born_probabilities,
    build_mub_family,
    fourier_unitary,
    make_b1_state,
    make_b2_state,
    sample_counts,
    sample_rows,
)


# ----------------------------------------------------------------- PureState


def test_pure_state_normalization_enforced():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))
    PureState(np.array([1.0, 1.0]) / math.sqrt(2))  # fine


def test_pure_state_is_immutable():
    st = make_b1_state(4, 1)
    with pytest.raises(ValueError):
        st.amplitudes[0] = 1.0
    with pytest.raises(Exception):
        st.oam_sector = 1


def test_physical_mode_mapping():
    # Logical component n of sector l is the LG mode of order N = 2n + l and
    # winding l, i.e. indices (n + l, n); component 1 of sector 2 is LG(3, 1).
    st = PureState(np.array([1.0, 0.0, 0.0]), oam_sector=2)
    np.testing.assert_array_equal(st.physical_orders(), [2, 4, 6])
    label = ModeLabel(ModeFamily.LG, 3, 1)
    assert label.order == st.physical_orders()[1]
    assert label.oam == st.oam_sector
    for n, order in enumerate(st.physical_orders()):
        lg = ModeLabel(ModeFamily.LG, n + st.oam_sector, n)
        assert (lg.order, lg.oam) == (order, st.oam_sector)


# --------------------------------------------------------------------- bases


def test_make_b1_unit_vectors():
    np.testing.assert_array_equal(make_b1_state(4, 0).amplitudes, [1, 0, 0, 0])
    np.testing.assert_array_equal(make_b1_state(4, 3).amplitudes, [0, 0, 0, 1])
    assert np.sum(np.abs(make_b1_state(7, 5).amplitudes) ** 2) == pytest.approx(1.0)
    with pytest.raises(IndexOutOfRange):
        make_b1_state(4, 4)
    with pytest.raises(IndexOutOfRange):
        make_b1_state(4, -1)


def test_make_b2_d2_values():
    np.testing.assert_allclose(
        make_b2_state(2, 0).amplitudes, np.array([1, 1]) / math.sqrt(2), atol=1e-15
    )
    np.testing.assert_allclose(
        make_b2_state(2, 1).amplitudes, np.array([1, -1]) / math.sqrt(2), atol=1e-15
    )
    with pytest.raises(IndexOutOfRange):
        make_b2_state(2, 2)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_b1_b2_unbiased(d):
    for i in range(d):
        for j in range(d):
            ip = np.vdot(make_b1_state(d, i).amplitudes, make_b2_state(d, j).amplitudes)
            assert abs(ip) ** 2 == pytest.approx(1.0 / d, abs=1e-12)


def test_fourier_unitary_small():
    np.testing.assert_allclose(fourier_unitary(1).matrix, [[1.0]])
    np.testing.assert_allclose(
        fourier_unitary(2).matrix, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15
    )


@pytest.mark.parametrize("d", range(1, 17))
def test_fourier_unitary_is_unitary(d):
    u = fourier_unitary(d).matrix
    np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-12)


def test_fourier_columns_equal_b2_states():
    for d in (2, 5, 8):
        for k in range(d):
            np.testing.assert_allclose(
                fourier_unitary(d).vector(k), make_b2_state(d, k).amplitudes, atol=1e-14
            )


def test_fourier_maps_e0_to_uniform():
    d = 8
    out = fourier_unitary(d).matrix @ make_b1_state(d, 0).amplitudes
    np.testing.assert_allclose(out, np.full(d, 1.0 / math.sqrt(d)), atol=1e-14)


def test_basis_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Basis(np.array([[1.0, 1.0], [0.0, 1.0]]))


# ----------------------------------------------------------------- MUB families


def max_unbiasedness_deviation(family):
    """Exhaustive pairwise check, independent of MubFamily internals."""
    d = family.d
    worst = 0.0
    for a in range(family.num_bases):
        for b in range(a + 1, family.num_bases):
            for i in range(d):
                for j in range(d):
                    ip = np.vdot(family[a].vector(i), family[b].vector(j))
                    worst = max(worst, abs(abs(ip) ** 2 - 1.0 / d))
    return worst


def test_build_mub_family_pair():
    fam = build_mub_family(4, 2)
    assert fam.num_bases == 2
    np.testing.assert_allclose(fam[0].matrix, np.eye(4), atol=1e-15)
    np.testing.assert_allclose(fam[1].matrix, fourier_unitary(4).matrix, atol=1e-15)
    assert build_mub_family(4, 2) is fam  # built once per process


def test_build_mub_family_prime_full():
    fam = build_mub_family(5, 6)
    assert fam.num_bases == 6
    assert max_unbiasedness_deviation(fam) < 1e-10


def test_build_mub_family_d2_triple():
    fam = build_mub_family(2, 3)
    assert max_unbiasedness_deviation(fam) < 1e-12


def test_build_mub_family_rejects_nonprime():
    with pytest.raises(UnsupportedDimension):
        build_mub_family(4, 5)


def test_build_mub_family_bounds():
    with pytest.raises(ValueError):
        build_mub_family(5, 7)
    with pytest.raises(ValueError):
        build_mub_family(5, 1)


def test_mub_family_verifier_rejects_biased_pair():
    eye = Basis(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        MubFamily((eye, eye))


# ----------------------------------------------------------------- measurement


def test_born_eigenstate_is_deterministic(rng):
    fam = build_mub_family(4, 2)
    for b in range(2):
        # row k is the basis state k
        probs = fam[b].probabilities(fam[b].matrix.T)
        np.testing.assert_array_equal(sample_rows(probs, rng.random(4)), np.arange(4))


def test_born_wrong_basis_uniform(rng):
    d = 4
    fam = build_mub_family(d, 2)
    probs = born_probabilities(make_b2_state(d, 2), fam[0])
    outcomes = np.bincount(sample_rows(probs, rng.random(100_000)), minlength=d)
    assert_counts_match(outcomes, np.full(d, 1.0 / d))


def test_born_probabilities_match_counts(rng):
    amps = rng.normal(size=6) + 1j * rng.normal(size=6)
    state = PureState(amps / np.linalg.norm(amps))
    fam = build_mub_family(6, 2)
    probs = born_probabilities(state, fam[1])
    counts = sample_counts(probs, rng, 100_000)
    assert_counts_match(counts, probs)


def test_born_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        born_probabilities(make_b1_state(4, 0), fourier_unitary(8))


def test_born_consumes_one_draw_and_is_seed_deterministic():
    probs = born_probabilities(make_b2_state(4, 1), build_mub_family(4, 2)[0])
    u = np.random.default_rng(5).random(3)
    batch = sample_rows(np.tile(probs, (3, 1)), u)
    # one uniform per outcome: each row's outcome depends on its own uniform only
    assert batch.tolist() == [int(sample_rows(probs, x)) for x in u]
    np.testing.assert_array_equal(sample_rows(probs, np.random.default_rng(5).random(3)), batch)


def test_identical_seeds_identical_sequences():
    probs = born_probabilities(make_b2_state(8, 3), build_mub_family(8, 2)[0])
    s1 = sample_rows(probs, np.random.default_rng(99).random(20))
    s2 = sample_rows(probs, np.random.default_rng(99).random(20))
    np.testing.assert_array_equal(s1, s2)


def test_sample_index_matches_vectorized_counts():
    # independent oracle: searchsorted inversion of the same uniforms
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    u = np.random.default_rng(123).random(5000)
    oracle = np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), 3)
    np.testing.assert_array_equal(sample_rows(probs, u), oracle)
    counts = sample_counts(probs, np.random.default_rng(123), 5000)
    np.testing.assert_array_equal(np.bincount(oracle, minlength=4), counts)
