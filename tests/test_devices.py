import cmath
import math

import numpy as np
import pytest

from conftest import assert_counts_match, through
from oamqkd.channel import Gouy
from oamqkd.devices import (
    DeviceConfig,
    b1_probabilities,
    b2_probabilities,
    measure_b1_rows,
    measure_b2_rows,
    sorter_cascade,
    sorter_leaf_modes,
)
from oamqkd.exceptions import DimensionMismatch
from oamqkd.modes import default_geometry
from oamqkd.states import (
    PureState,
    born_probabilities,
    build_mub_family,
    make_b1_state,
    make_b2_state,
    sample_counts,
)

GEOM = default_geometry()


def random_state(d, rng):
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(amps / np.linalg.norm(amps))


def shots(measure, state, cfg, rng, n):
    """Outcomes of ``n`` photons in ``state``, measured as one batch."""
    return measure(np.tile(state.amplitudes, (n, 1)), cfg, rng.random(n))


# ------------------------------------------------------------- sorter cascade


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_sorter_cascade_structure(d):
    stages = sorter_cascade(d)
    s = d.bit_length() - 1
    assert len(stages) == s
    for j, stage in enumerate(stages, start=1):
        assert len(stage) == 2 ** (j - 1)
        for inputs, arm0, arm1 in stage:
            assert set(arm0) | set(arm1) == set(inputs)
            assert set(arm0) & set(arm1) == set()
            # each SMI splits on exactly one index bit
            bit = j - 1
            assert all(not (n >> bit) & 1 for n in arm0)
            assert all((n >> bit) & 1 for n in arm1)


def test_sorter_first_stage_is_parity_interleaver():
    (inputs, arm0, arm1), = sorter_cascade(8)[0]
    assert arm0 == (0, 2, 4, 6)
    assert arm1 == (1, 3, 5, 7)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_sorter_leaves_are_a_mode_bijection(d):
    leaves = sorter_leaf_modes(d)
    assert sorted(leaves) == list(range(d))


def test_device_config_validation():
    with pytest.raises(ValueError):
        DeviceConfig(d=3)
    with pytest.raises(ValueError):
        DeviceConfig(d=1)
    with pytest.raises(ValueError):
        DeviceConfig(d=4, detuning_epsilon=-0.1)


# ------------------------------------------------------------- B1 measurement


def test_measure_b1_sorts_every_ladder_state(rng):
    cfg = DeviceConfig(d=4)
    for k in range(4):
        assert np.all(shots(measure_b1_rows, make_b1_state(4, k), cfg, rng, 50) == k)


def test_measure_b1_uniform_on_b2_states(rng):
    d = 8
    cfg = DeviceConfig(d=d)
    counts = np.bincount(shots(measure_b1_rows, make_b2_state(d, 5), cfg, rng, 40_000), minlength=d)
    assert_counts_match(counts, np.full(d, 1.0 / d))


def test_measure_b1_matches_born_oracle(rng):
    d = 8
    cfg = DeviceConfig(d=d)
    fam = build_mub_family(d, 2)
    for _ in range(5):
        st = random_state(d, rng)
        born = born_probabilities(st, fam[0])
        np.testing.assert_allclose(b1_probabilities(st, cfg), born, atol=1e-12)
        counts = np.bincount(shots(measure_b1_rows, st, cfg, rng, 20_000), minlength=d)
        assert_counts_match(counts, born)


def test_measure_b1_frame_and_dimension_checks(rng):
    cfg = DeviceConfig(d=4)
    with pytest.raises(DimensionMismatch):
        shots(measure_b1_rows, make_b1_state(8, 0), cfg, rng, 1)
    with pytest.raises(DimensionMismatch):
        shots(measure_b2_rows, make_b1_state(8, 0), cfg, rng, 1)
    with pytest.raises(DimensionMismatch):
        b1_probabilities(make_b1_state(8, 0), cfg)


# ------------------------------------------------------------- B2 measurement


def test_measure_b2_deterministic_on_b2_states(rng):
    cfg = DeviceConfig(d=4)
    for k in range(4):
        assert np.all(shots(measure_b2_rows, make_b2_state(4, k), cfg, rng, 50) == k)


def test_measure_b2_uniform_on_b1_states(rng):
    d = 4
    cfg = DeviceConfig(d=d)
    counts = np.bincount(shots(measure_b2_rows, make_b1_state(d, 2), cfg, rng, 40_000), minlength=d)
    assert_counts_match(counts, np.full(d, 1.0 / d))


def test_measure_b2_matches_born_oracle(rng):
    d = 4
    cfg = DeviceConfig(d=d)
    fam = build_mub_family(d, 2)
    for _ in range(5):
        st = random_state(d, rng)
        born = born_probabilities(st, fam[1])
        np.testing.assert_allclose(b2_probabilities(st, cfg), born, atol=1e-12)


def oracle_b2_distribution(amps, path_phase):
    """Brute-force phase bookkeeping with plain complex arithmetic."""
    d = len(amps)
    probs = []
    for j in range(d):
        acc = 0j
        for n in range(d):
            acc += cmath.exp(-2j * math.pi * j * n / d) * amps[n] * cmath.exp(1j * path_phase(n))
        probs.append(abs(acc / math.sqrt(d)) ** 2)
    return np.array(probs)


def test_far_field_gouy_shifts_b2_outcome_by_half_d(rng):
    for d in (2, 4, 8):
        geom = GEOM
        z = 1e6 * geom.rayleigh_range
        cfg = DeviceConfig(d=d, geom=geom)
        for k in range(d):
            st = through(Gouy(z, geom), make_b2_state(d, k))
            probs = b2_probabilities(st, cfg)
            expected = (k + d // 2) % d
            assert probs[expected] == pytest.approx(1.0, abs=1e-9)
            # independent bookkeeping oracle agrees
            psi = math.atan2(z, geom.rayleigh_range)
            oracle = oracle_b2_distribution(
                make_b2_state(d, k).amplitudes, lambda n: -(2 * n + 1) * psi
            )
            np.testing.assert_allclose(probs, oracle, atol=1e-12)
            assert np.all(shots(measure_b2_rows, st, cfg, rng, 20) == expected)


def test_gouy_compensation_restores_b2_outcome(rng):
    d = 8
    z = 3.7 * GEOM.rayleigh_range
    cfg = DeviceConfig(d=d, geom=GEOM, compensate_gouy=True, propagation_z=z)
    for k in range(d):
        st = through(Gouy(z, GEOM), make_b2_state(d, k))
        assert shots(measure_b2_rows, st, cfg, rng, 1)[0] == k
        assert b2_probabilities(st, cfg)[k] == pytest.approx(1.0, abs=1e-12)


def test_intermediate_gouy_matches_oracle():
    d = 4
    z = 2.0 * GEOM.rayleigh_range
    psi = math.atan2(z, GEOM.rayleigh_range)
    cfg = DeviceConfig(d=d, geom=GEOM)
    for k in range(d):
        st = through(Gouy(z, GEOM), make_b2_state(d, k))
        oracle = oracle_b2_distribution(
            make_b2_state(d, k).amplitudes, lambda n: -(2 * n + 1) * psi
        )
        np.testing.assert_allclose(b2_probabilities(st, cfg), oracle, atol=1e-12)


def test_detuning_matches_oracle():
    d = 4
    eps = 0.37
    cfg = DeviceConfig(d=d, detuning_epsilon=eps)
    for k in range(d):
        st = make_b2_state(d, k)
        oracle = oracle_b2_distribution(st.amplitudes, lambda n: n * eps)
        np.testing.assert_allclose(b2_probabilities(st, cfg), oracle, atol=1e-12)


def test_knobs_are_noops_without_upstream_gouy():
    # compensation toggled on a pristine state redistributes nothing when the
    # upstream phase is absent AND z = 0; epsilon = 0 likewise
    d = 4
    pristine = DeviceConfig(d=d)
    comp_at_waist = DeviceConfig(d=d, compensate_gouy=True, propagation_z=0.0)
    detune_zero = DeviceConfig(d=d, detuning_epsilon=0.0)
    for k in range(d):
        st = make_b2_state(d, k)
        base = b2_probabilities(st, pristine)
        np.testing.assert_allclose(b2_probabilities(st, comp_at_waist), base, atol=1e-15)
        np.testing.assert_allclose(b2_probabilities(st, detune_zero), base, atol=1e-15)


# ----------------------------------------------------------------- preparation


@pytest.mark.parametrize("d", [2, 4, 8])
def test_prepare_then_measure_round_trip(d, rng):
    # the states Alice sends are the family's columns, one row per symbol
    cfg = DeviceConfig(d=d)
    b1_states, b2_states = (basis.matrix.T for basis in build_mub_family(d, 2).bases)
    np.testing.assert_array_equal(measure_b2_rows(b2_states, cfg, rng.random(d)), np.arange(d))
    np.testing.assert_array_equal(measure_b1_rows(b1_states, cfg, rng.random(d)), np.arange(d))


# ------------------------------------------- batch measurement vs inline inversion


def test_scalar_measure_agrees_with_vectorized_inversion():
    # an inline searchsorted inversion of the same uniforms gives the same
    # outcome sequences, draw for draw
    d = 8
    cfg = DeviceConfig(d=d)
    st = make_b2_state(d, 3)
    n = 4000

    u = np.random.default_rng(42).random(n)
    leaf = sorter_leaf_modes(d)
    cum = np.cumsum(np.abs(st.amplitudes[leaf]) ** 2)
    oracle_b1 = leaf[np.minimum(np.searchsorted(cum, u, side="right"), d - 1)]
    np.testing.assert_array_equal(shots(measure_b1_rows, st, cfg, np.random.default_rng(42), n), oracle_b1)

    u = np.random.default_rng(43).random(n)
    probs = b2_probabilities(st, cfg)
    oracle_b2 = np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), d - 1)
    np.testing.assert_array_equal(shots(measure_b2_rows, st, cfg, np.random.default_rng(43), n), oracle_b2)
    counts = sample_counts(probs, np.random.default_rng(43), n)
    np.testing.assert_array_equal(np.bincount(oracle_b2, minlength=d), counts)
