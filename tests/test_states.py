import math

import numpy as np
import pytest

from conftest import assert_counts_match
from oamqkd.exceptions import DimensionMismatch, IndexOutOfRange, UnsupportedDimension
from oamqkd.modes import ModeFamily
from oamqkd.states import (
    Basis,
    Frame,
    MubFamily,
    PureState,
    born_measure,
    born_probabilities,
    build_mub_family,
    fourier_unitary,
    make_b1_state,
    make_b2_state,
    sample_counts,
    sample_index,
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
        st.frame = Frame.LG_SIDE


def test_physical_mode_mapping():
    st = PureState(np.array([1.0, 0.0, 0.0]), oam_sector=2, frame=Frame.LG_SIDE)
    label = st.physical_mode(1)
    assert label.family is ModeFamily.LG
    assert (label.n, label.m) == (3, 1)
    assert label.oam == 2
    hg_st = st.with_frame(Frame.HG_SIDE)
    assert hg_st.physical_mode(1).family is ModeFamily.HG
    np.testing.assert_array_equal(st.physical_orders(), [2, 4, 6])


def test_rephased_preserves_everything_else():
    st = make_b2_state(4, 1, oam_sector=3)
    out = st.rephased(np.exp(1j * 0.7))
    assert out.oam_sector == 3
    assert out.frame is st.frame
    assert out.fidelity(st) == pytest.approx(1.0, abs=1e-12)


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
    for k in range(4):
        assert born_measure(fam[0].state(k), fam[0], rng) == k
        assert born_measure(fam[1].state(k), fam[1], rng) == k


def test_born_wrong_basis_uniform(rng):
    d = 4
    fam = build_mub_family(d, 2)
    state = make_b2_state(d, 2)
    outcomes = np.zeros(d, dtype=int)
    for _ in range(100_000):
        outcomes[born_measure(state, fam[0], rng)] += 1
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
    state = make_b2_state(4, 1)
    basis = build_mub_family(4, 2)[0]
    seq1 = [born_measure(state, basis, np.random.default_rng(5)) for _ in range(1)]
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    out = born_measure(state, basis, rng_a)
    assert out == seq1[0]
    # exactly one uniform consumed: the next draws agree after one skip
    rng_b.random()
    assert rng_a.random() == rng_b.random()


def test_identical_seeds_identical_sequences():
    state = make_b2_state(8, 3)
    basis = build_mub_family(8, 2)[0]
    rng1 = np.random.default_rng(99)
    rng2 = np.random.default_rng(99)
    s1 = [born_measure(state, basis, rng1) for _ in range(20)]
    s2 = [born_measure(state, basis, rng2) for _ in range(20)]
    assert s1 == s2


def test_sample_index_matches_vectorized_counts():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    rng1 = np.random.default_rng(123)
    rng2 = np.random.default_rng(123)
    scalar_seq = [sample_index(probs, rng1) for _ in range(5000)]
    counts = sample_counts(probs, rng2, 5000)
    np.testing.assert_array_equal(np.bincount(scalar_seq, minlength=4), counts)
