import cmath
import math

import numpy as np
import pytest

from conftest import assert_counts_match
from oamqkd.channel import apply_gouy
from oamqkd.devices import (
    ConvertDirection,
    DeviceConfig,
    b1_probabilities,
    b2_probabilities,
    measure_b1,
    measure_b2,
    modal_convert,
    prepare_b1,
    prepare_b2,
    sorter_cascade,
    sorter_leaf_modes,
)
from oamqkd.exceptions import DimensionMismatch, IndexOutOfRange, WrongFrame
from oamqkd.modes import default_geometry
from oamqkd.states import (
    Frame,
    PureState,
    born_probabilities,
    build_mub_family,
    make_b1_state,
    make_b2_state,
    sample_counts,
)

GEOM = default_geometry()


def random_state(d, rng, frame=Frame.HG_SIDE):
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(amps / np.linalg.norm(amps), frame=frame)


# ------------------------------------------------------------ modal converter


def test_modal_convert_flips_frame_keeps_amplitudes():
    st = make_b1_state(4, 2)
    lg = modal_convert(st, ConvertDirection.HG_TO_LG)
    assert lg.frame is Frame.LG_SIDE
    np.testing.assert_array_equal(lg.amplitudes, st.amplitudes)


def test_modal_convert_round_trip_is_identity(rng):
    st = random_state(8, rng)
    back = modal_convert(modal_convert(st, ConvertDirection.HG_TO_LG), ConvertDirection.LG_TO_HG)
    assert back.fidelity(st) == pytest.approx(1.0, abs=1e-12)
    assert back.frame is Frame.HG_SIDE


def test_modal_convert_preserves_b2_phases():
    st = make_b2_state(4, 3)
    lg = modal_convert(st, ConvertDirection.HG_TO_LG)
    np.testing.assert_allclose(
        lg.amplitudes, np.exp(2j * math.pi * 3 * np.arange(4) / 4) / 2.0, atol=1e-15
    )


def test_modal_convert_wrong_frame():
    st = make_b1_state(4, 0)  # HG side
    with pytest.raises(WrongFrame):
        modal_convert(st, ConvertDirection.LG_TO_HG)
    with pytest.raises(WrongFrame):
        modal_convert(modal_convert(st, ConvertDirection.HG_TO_LG), ConvertDirection.HG_TO_LG)


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
        st = make_b1_state(4, k)
        assert all(measure_b1(st, cfg, rng) == k for _ in range(50))


def test_measure_b1_uniform_on_b2_states(rng):
    d = 8
    cfg = DeviceConfig(d=d)
    counts = np.zeros(d, dtype=int)
    st = make_b2_state(d, 5)
    for _ in range(40_000):
        counts[measure_b1(st, cfg, rng)] += 1
    assert_counts_match(counts, np.full(d, 1.0 / d))


def test_measure_b1_matches_born_oracle(rng):
    d = 8
    cfg = DeviceConfig(d=d)
    fam = build_mub_family(d, 2)
    for _ in range(5):
        st = random_state(d, rng)
        born = born_probabilities(st, fam[0])
        np.testing.assert_allclose(b1_probabilities(st, cfg), born, atol=1e-12)
        counts = np.zeros(d, dtype=int)
        for _ in range(20_000):
            counts[measure_b1(st, cfg, rng)] += 1
        assert_counts_match(counts, born)


def test_measure_b1_frame_and_dimension_checks(rng):
    cfg = DeviceConfig(d=4)
    with pytest.raises(WrongFrame):
        measure_b1(make_b1_state(4, 0).with_frame(Frame.LG_SIDE), cfg, rng)
    with pytest.raises(DimensionMismatch):
        measure_b1(make_b1_state(8, 0), cfg, rng)


# ------------------------------------------------------------- B2 measurement


def test_measure_b2_deterministic_on_b2_states(rng):
    cfg = DeviceConfig(d=4)
    for k in range(4):
        st = make_b2_state(4, k)
        assert all(measure_b2(st, cfg, rng) == k for _ in range(50))


def test_measure_b2_uniform_on_b1_states(rng):
    d = 4
    cfg = DeviceConfig(d=d)
    counts = np.zeros(d, dtype=int)
    st = make_b1_state(d, 2)
    for _ in range(40_000):
        counts[measure_b2(st, cfg, rng)] += 1
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
            st = apply_gouy(make_b2_state(d, k), z, geom)
            probs = b2_probabilities(st, cfg)
            expected = (k + d // 2) % d
            assert probs[expected] == pytest.approx(1.0, abs=1e-9)
            # independent bookkeeping oracle agrees
            psi = math.atan2(z, geom.rayleigh_range)
            oracle = oracle_b2_distribution(
                make_b2_state(d, k).amplitudes, lambda n: -(2 * n + 1) * psi
            )
            np.testing.assert_allclose(probs, oracle, atol=1e-12)
            assert all(measure_b2(st, cfg, rng) == expected for _ in range(20))


def test_gouy_compensation_restores_b2_outcome(rng):
    d = 8
    z = 3.7 * GEOM.rayleigh_range
    cfg = DeviceConfig(d=d, geom=GEOM, compensate_gouy=True, propagation_z=z)
    for k in range(d):
        st = apply_gouy(make_b2_state(d, k), z, GEOM)
        assert measure_b2(st, cfg, rng) == k
        assert b2_probabilities(st, cfg)[k] == pytest.approx(1.0, abs=1e-12)


def test_intermediate_gouy_matches_oracle():
    d = 4
    z = 2.0 * GEOM.rayleigh_range
    psi = math.atan2(z, GEOM.rayleigh_range)
    cfg = DeviceConfig(d=d, geom=GEOM)
    for k in range(d):
        st = apply_gouy(make_b2_state(d, k), z, GEOM)
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


def test_prepare_b1_equals_logical_state():
    cfg = DeviceConfig(d=4)
    st = prepare_b1(4, 2, cfg)
    assert st.fidelity(make_b1_state(4, 2)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(IndexOutOfRange):
        prepare_b1(4, 4, cfg)
    with pytest.raises(DimensionMismatch):
        prepare_b1(8, 0, cfg)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_prepare_b2_equals_logical_state(d):
    cfg = DeviceConfig(d=d)
    for k in range(d):
        st = prepare_b2(d, k, cfg)
        assert st.fidelity(make_b2_state(d, k)) == pytest.approx(1.0, abs=1e-12)
        assert st.frame is Frame.HG_SIDE


@pytest.mark.parametrize("d", [2, 4, 8])
def test_prepare_then_measure_round_trip(d, rng):
    cfg = DeviceConfig(d=d)
    for k in range(d):
        assert measure_b2(prepare_b2(d, k, cfg), cfg, rng) == k
        assert measure_b1(prepare_b1(d, k, cfg), cfg, rng) == k


def test_prepare_b2_with_oam_sector():
    cfg = DeviceConfig(d=4)
    st = prepare_b2(4, 1, cfg, oam_sector=3)
    assert st.oam_sector == 3


# ------------------------------------------------- scalar vs vectorized sampling


def test_scalar_measure_agrees_with_vectorized_inversion():
    # the vectorized helper consumes the identical uniform stream, so the
    # outcome sequences coincide draw for draw
    d = 8
    cfg = DeviceConfig(d=d)
    st = make_b2_state(d, 3)
    shots = 4000

    rng_a = np.random.default_rng(42)
    scalar_b1 = np.array([measure_b1(st, cfg, rng_a) for _ in range(shots)])
    leaf = sorter_leaf_modes(d)
    cum = np.cumsum(np.abs(st.amplitudes[leaf]) ** 2)
    rng_b = np.random.default_rng(42)
    vector_b1 = leaf[np.minimum(np.searchsorted(cum, rng_b.random(shots), side="right"), d - 1)]
    np.testing.assert_array_equal(scalar_b1, vector_b1)

    rng_a = np.random.default_rng(43)
    scalar_b2 = np.array([measure_b2(st, cfg, rng_a) for _ in range(shots)])
    probs = b2_probabilities(st, cfg)
    rng_b = np.random.default_rng(43)
    counts = sample_counts(probs, rng_b, shots)
    np.testing.assert_array_equal(np.bincount(scalar_b2, minlength=d), counts)
