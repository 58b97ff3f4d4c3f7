import math

import numpy as np
import pytest

from conftest import assert_counts_match
from oamqkd.channel import (
    ChannelSpec,
    Eve,
    EveStrategy,
    FrequencyShift,
    Gouy,
    Loss,
    RandomRotation,
    Rotation,
    TimeVaryingRotation,
    apply_channel,
    apply_frequency_shift,
    apply_gouy,
    apply_loss,
    apply_rotation,
    apply_time_varying_rotation,
    eve_attack,
)
from oamqkd.devices import DeviceConfig, b1_probabilities, b2_probabilities
from oamqkd.exceptions import DimensionMismatch, IndexOutOfRange, WrongFrame
from oamqkd.modes import default_geometry
from oamqkd.states import (
    Frame,
    PureState,
    build_mub_family,
    make_b1_state,
    make_b2_state,
)

GEOM = default_geometry()


def flying(state):
    return state.with_frame(Frame.LG_SIDE)


def random_flying_state(d, rng, oam_sector=0):
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(amps / np.linalg.norm(amps), oam_sector=oam_sector, frame=Frame.LG_SIDE)


# ------------------------------------------------------------------ rotations


def test_rotation_l0_is_bitwise_identity():
    st = flying(make_b2_state(4, 1))
    out = apply_rotation(st, 1.234)
    assert out is st


def test_rotation_fixed_sector_global_phase():
    st = flying(make_b1_state(4, 2, oam_sector=3))
    out = apply_rotation(st, math.pi / 3)
    np.testing.assert_allclose(out.amplitudes, -st.amplitudes, atol=1e-15)
    assert out.fidelity(st) == pytest.approx(1.0, abs=1e-12)


def test_rotation_superposition_same_global_phase(rng):
    st = random_flying_state(8, rng, oam_sector=2)
    out = apply_rotation(st, 0.77)
    # same phase on every component, so all downstream statistics agree
    cfg = DeviceConfig(d=8)
    np.testing.assert_allclose(
        b1_probabilities(out.with_frame(Frame.HG_SIDE), cfg),
        b1_probabilities(st.with_frame(Frame.HG_SIDE), cfg),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        b2_probabilities(out.with_frame(Frame.HG_SIDE), cfg),
        b2_probabilities(st.with_frame(Frame.HG_SIDE), cfg),
        atol=1e-12,
    )


def test_rotation_requires_flight_frame():
    with pytest.raises(WrongFrame):
        apply_rotation(make_b1_state(4, 0), 0.5)


def test_time_varying_rotation():
    st_l0 = flying(make_b2_state(4, 3))
    assert apply_time_varying_rotation(st_l0, 123.0, 4.56) is st_l0

    st = flying(make_b1_state(4, 1, oam_sector=1))
    np.testing.assert_allclose(
        apply_time_varying_rotation(st, 0.0, 9.9).amplitudes, st.amplitudes, atol=1e-15
    )
    full_turn = apply_time_varying_rotation(st, 2 * math.pi, 1.0)
    np.testing.assert_allclose(full_turn.amplitudes, st.amplitudes, atol=1e-12)


# ----------------------------------------------------------------- Gouy phase


def test_gouy_at_waist_is_identity():
    st = flying(make_b2_state(4, 1))
    assert apply_gouy(st, 0.0, GEOM) is st


def test_gouy_leaves_b1_statistics_alone():
    cfg = DeviceConfig(d=4)
    for z in (0.5, 2.0, 1e6):
        for k in range(4):
            st = apply_gouy(make_b1_state(4, k), z, GEOM)
            probs = b1_probabilities(st, cfg)
            assert probs[k] == pytest.approx(1.0, abs=1e-12)


def test_gouy_far_field_phase_parity():
    # applied far-field factors alternate between 3*pi/2 (even n) and pi/2
    # (odd n) mod 2*pi under the propagation sign convention; the receiver's
    # compensation phases show the opposite parity assignment
    z = 1e9 * GEOM.rayleigh_range
    st = apply_gouy(make_b2_state(4, 0), z, GEOM)
    factors = st.amplitudes / make_b2_state(4, 0).amplitudes
    phases = np.mod(np.angle(factors), 2 * math.pi)
    np.testing.assert_allclose(
        phases, [3 * math.pi / 2, math.pi / 2, 3 * math.pi / 2, math.pi / 2], atol=1e-6
    )
    comp = np.mod(DeviceConfig(d=4, geom=GEOM, compensate_gouy=True, propagation_z=z).path_phases(), 2 * math.pi)
    np.testing.assert_allclose(comp, [math.pi / 2, 3 * math.pi / 2, math.pi / 2, 3 * math.pi / 2], atol=1e-6)


def test_gouy_composition_adds_phases(rng):
    st = random_flying_state(4, rng, oam_sector=1)
    z1, z2 = 0.7, 2.3
    twice = apply_gouy(apply_gouy(st, z1, GEOM), z2, GEOM)
    psi_sum = math.atan2(z1, GEOM.rayleigh_range) + math.atan2(z2, GEOM.rayleigh_range)
    expected = st.amplitudes * np.exp(-1j * (st.physical_orders() + 1) * psi_sum)
    np.testing.assert_allclose(twice.amplitudes, expected, atol=1e-12)


def test_gouy_sector_offset_enters_order():
    st = flying(make_b1_state(2, 0, oam_sector=3))
    out = apply_gouy(st, GEOM.rayleigh_range, GEOM)
    # order 2*0+3 = 3 -> phase -(3+1)*pi/4 = -pi
    assert out.amplitudes[0] == pytest.approx(-1.0, abs=1e-12)


# ----------------------------------------------------------------------- loss


def test_loss_extremes(rng):
    st = flying(make_b1_state(2, 0))
    assert all(apply_loss(st, 0.0, rng) is st for _ in range(100))
    assert all(apply_loss(st, 1.0, rng) is None for _ in range(100))
    with pytest.raises(ValueError):
        apply_loss(st, 1.5, rng)
    with pytest.raises(ValueError):
        Loss(probability=-0.1)


def test_loss_fraction_binomial(rng):
    st = flying(make_b1_state(2, 0))
    n = 100_000
    lost = sum(apply_loss(st, 0.3, rng) is None for _ in range(n))
    assert_counts_match(np.array([lost, n - lost]), np.array([0.3, 0.7]))


# ------------------------------------------------------------ frequency shift


def test_frequency_shift_l0_identity():
    st = flying(make_b2_state(4, 2))
    assert apply_frequency_shift(st, 777.0, 0.123) is st


def test_frequency_shift_global_phase():
    st = flying(make_b1_state(4, 1, oam_sector=2))
    out = apply_frequency_shift(st, math.pi, 0.5)  # l * omega * t = pi
    np.testing.assert_allclose(out.amplitudes, -st.amplitudes, atol=1e-12)
    assert out.fidelity(st) == pytest.approx(1.0, abs=1e-12)


def test_frequency_shift_invisible_without_detuning(rng):
    cfg = DeviceConfig(d=4, detuning_epsilon=0.0)
    st = random_flying_state(4, rng, oam_sector=2)
    out = apply_frequency_shift(st, 345.6, 7.8)
    np.testing.assert_allclose(
        b2_probabilities(out.with_frame(Frame.HG_SIDE), cfg),
        b2_probabilities(st.with_frame(Frame.HG_SIDE), cfg),
        atol=1e-12,
    )


# ------------------------------------------------------------------------ Eve


def exact_intercept_resend_qber(mub):
    """Exact sifted error rate by enumeration over (a, k, e, j) with Born weights."""
    d, m = mub.d, mub.num_bases
    err = 0.0
    for a in range(m):
        for k in range(d):
            sent = mub[a].vector(k)
            for e in range(m):
                p_eve = np.abs(mub[e].adjoint @ sent) ** 2
                for j in range(d):
                    p_bob_correct = np.abs(np.vdot(sent, mub[e].vector(j))) ** 2
                    err += p_eve[j] * (1.0 - p_bob_correct) / (m * d * m)
    return err


@pytest.mark.parametrize("d,expected", [(2, 0.25), (4, 0.375), (8, 0.4375)])
def test_enumeration_oracle_matches_closed_form(d, expected):
    mub = build_mub_family(d, 2)
    oracle = exact_intercept_resend_qber(mub)
    assert oracle == pytest.approx((d - 1) / (2 * d), abs=1e-12)
    assert oracle == pytest.approx(expected, abs=1e-12)


def test_eve_matching_basis_is_transparent(rng):
    mub = build_mub_family(4, 2)
    strategy = EveStrategy(mub=mub, fixed_basis=1)
    st = flying(make_b2_state(4, 2))
    out, guess = eve_attack(st, strategy, rng)
    assert guess.basis == 1
    assert guess.outcome == 2
    assert out.fidelity(st) == pytest.approx(1.0, abs=1e-12)
    assert out.frame is Frame.LG_SIDE


def test_eve_preserves_sector_and_frame(rng):
    mub = build_mub_family(4, 2)
    st = random_flying_state(4, rng, oam_sector=3)
    out, _ = eve_attack(st, EveStrategy(mub=mub), rng)
    assert out.oam_sector == 3
    assert out.frame is Frame.LG_SIDE
    assert not out.amplitudes.flags.writeable


def test_eve_dimension_mismatch(rng):
    mub = build_mub_family(4, 2)
    with pytest.raises(DimensionMismatch):
        eve_attack(flying(make_b1_state(8, 0)), EveStrategy(mub=mub), rng)


def test_eve_strategy_index_validation():
    mub = build_mub_family(4, 2)
    with pytest.raises(IndexOutOfRange):
        EveStrategy(mub=mub, fixed_basis=2)


def test_eve_monte_carlo_qber_matches_oracle(rng):
    # resample the whole attack chain and compare to the enumeration value
    d = 4
    mub = build_mub_family(d, 2)
    strategy = EveStrategy(mub=mub)
    trials = 60_000
    errors = 0
    for _ in range(trials):
        a = int(rng.integers(2))
        k = int(rng.integers(d))
        st = flying(mub[a].state(k))
        resent, _ = eve_attack(st, strategy, rng)
        # Bob measures in Alice's basis (sifted round)
        p_bob = np.abs(mub[a].adjoint @ resent.amplitudes) ** 2
        cum = np.cumsum(p_bob)
        outcome = min(int(np.searchsorted(cum, rng.random(), side="right")), d - 1)
        errors += outcome != k
    q = exact_intercept_resend_qber(mub)
    sigma = math.sqrt(q * (1 - q) / trials)
    assert abs(errors / trials - q) < 5 * sigma


# -------------------------------------------------------------- composition


def test_channel_spec_applies_in_order(rng):
    spec = ChannelSpec((Rotation(0.3), Gouy(z=1.0, geom=GEOM)))
    st = flying(make_b2_state(4, 1))
    out, guess = apply_channel(spec, st, t=0.0, rng=rng)
    assert guess is None
    expected = apply_gouy(apply_rotation(st, 0.3), 1.0, GEOM)
    np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-15)
    assert not out.amplitudes.flags.writeable


def test_channel_loss_short_circuits(rng):
    spec = ChannelSpec((Loss(1.0), Rotation(0.3)))
    out, _ = apply_channel(spec, flying(make_b2_state(4, 1)), t=0.0, rng=rng)
    assert out is None


def test_channel_random_rotation_consumes_one_draw():
    spec = ChannelSpec((RandomRotation(),))
    st = flying(make_b1_state(4, 0, oam_sector=1))
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(3)
    apply_channel(spec, st, t=0.0, rng=rng_a)
    rng_b.random()
    assert rng_a.random() == rng_b.random()


def test_channel_reports_eve_guess(rng):
    mub = build_mub_family(4, 2)
    spec = ChannelSpec((Eve(EveStrategy(mub=mub, fixed_basis=0)),))
    st = flying(make_b1_state(4, 2))
    out, guess = apply_channel(spec, st, t=0.0, rng=rng)
    assert guess == (0, 2)
    assert spec.has_eve()


def test_time_varying_uses_emission_time(rng):
    spec = ChannelSpec((TimeVaryingRotation(omega=2.0),))
    st = flying(make_b1_state(4, 1, oam_sector=1))
    out, _ = apply_channel(spec, st, t=0.25, rng=rng)
    np.testing.assert_allclose(
        out.amplitudes, st.amplitudes * np.exp(1j * 0.5), atol=1e-12
    )


def test_frequency_shift_element(rng):
    spec = ChannelSpec((FrequencyShift(omega=math.pi),))
    st = flying(make_b1_state(4, 1, oam_sector=2))
    out, _ = apply_channel(spec, st, t=1.0, rng=rng)
    np.testing.assert_allclose(out.amplitudes, st.amplitudes, atol=1e-12)  # e^{2pi i}


def test_rotation_commutes_with_gouy_up_to_global_phase(rng):
    st = random_flying_state(4, rng, oam_sector=2)
    rot_then_gouy = apply_gouy(apply_rotation(st, 0.9), 1.3, GEOM)
    gouy_then_rot = apply_rotation(apply_gouy(st, 1.3, GEOM), 0.9)
    assert rot_then_gouy.fidelity(gouy_then_rot) == pytest.approx(1.0, abs=1e-12)
    shift_then_gouy = apply_gouy(apply_frequency_shift(st, 11.0, 0.2), 1.3, GEOM)
    gouy_then_shift = apply_frequency_shift(apply_gouy(st, 1.3, GEOM), 11.0, 0.2)
    assert shift_then_gouy.fidelity(gouy_then_shift) == pytest.approx(1.0, abs=1e-12)
