import math

import numpy as np
import pytest

from conftest import assert_counts_match, fly, row_state, through
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
)
from oamqkd.devices import DeviceConfig, b1_probabilities, b2_probabilities
from oamqkd.exceptions import DimensionMismatch, IndexOutOfRange
from oamqkd.modes import default_geometry
from oamqkd.states import (
    PureState,
    build_mub_family,
    make_b1_state,
    make_b2_state,
    sample_rows,
)
from oamqkd.streams import Substreams

GEOM = default_geometry()


def random_amplitudes(d, rng):
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    return amps / np.linalg.norm(amps)


# ------------------------------------------------------------------ rotations


def test_rotation_l0_is_bitwise_identity():
    st = make_b2_state(4, 1)
    out = through(Rotation(1.234), st)
    np.testing.assert_array_equal(out.amplitudes, st.amplitudes)


def test_rotation_fixed_sector_global_phase():
    st = make_b1_state(4, 2, oam_sector=3)
    out = through(Rotation(math.pi / 3), st)
    np.testing.assert_allclose(out.amplitudes, -st.amplitudes, atol=1e-15)
    assert out.fidelity(st) == pytest.approx(1.0, abs=1e-12)


def test_rotation_superposition_same_global_phase(rng):
    st = PureState(random_amplitudes(8, rng), oam_sector=2)
    out = through(Rotation(0.77), st)
    # same phase on every component, so all downstream statistics agree
    cfg = DeviceConfig(d=8)
    np.testing.assert_allclose(b1_probabilities(out, cfg), b1_probabilities(st, cfg), atol=1e-12)
    np.testing.assert_allclose(b2_probabilities(out, cfg), b2_probabilities(st, cfg), atol=1e-12)


def test_time_varying_rotation():
    st_l0 = make_b2_state(4, 3)
    out_l0 = through(TimeVaryingRotation(123.0), st_l0, t=4.56)
    np.testing.assert_array_equal(out_l0.amplitudes, st_l0.amplitudes)

    st = make_b1_state(4, 1, oam_sector=1)
    np.testing.assert_allclose(
        through(TimeVaryingRotation(0.0), st, t=9.9).amplitudes, st.amplitudes, atol=1e-15
    )
    full_turn = through(TimeVaryingRotation(2 * math.pi), st, t=1.0)
    np.testing.assert_allclose(full_turn.amplitudes, st.amplitudes, atol=1e-12)


# ----------------------------------------------------------------- Gouy phase


def test_gouy_at_waist_is_identity():
    st = make_b2_state(4, 1)
    np.testing.assert_array_equal(through(Gouy(0.0, GEOM), st).amplitudes, st.amplitudes)


def test_gouy_leaves_b1_statistics_alone():
    cfg = DeviceConfig(d=4)
    for z in (0.5, 2.0, 1e6):
        for k in range(4):
            st = through(Gouy(z, GEOM), make_b1_state(4, k))
            probs = b1_probabilities(st, cfg)
            assert probs[k] == pytest.approx(1.0, abs=1e-12)


def test_gouy_far_field_phase_parity():
    # applied far-field factors alternate between 3*pi/2 (even n) and pi/2
    # (odd n) mod 2*pi under the propagation sign convention; the receiver's
    # compensation phases show the opposite parity assignment
    z = 1e9 * GEOM.rayleigh_range
    st = through(Gouy(z, GEOM), make_b2_state(4, 0))
    factors = st.amplitudes / make_b2_state(4, 0).amplitudes
    phases = np.mod(np.angle(factors), 2 * math.pi)
    np.testing.assert_allclose(
        phases, [3 * math.pi / 2, math.pi / 2, 3 * math.pi / 2, math.pi / 2], atol=1e-6
    )
    comp = np.mod(DeviceConfig(d=4, geom=GEOM, compensate_gouy=True, propagation_z=z).path_phases(), 2 * math.pi)
    np.testing.assert_allclose(comp, [math.pi / 2, 3 * math.pi / 2, math.pi / 2, 3 * math.pi / 2], atol=1e-6)


def test_gouy_composition_adds_phases(rng):
    st = PureState(random_amplitudes(4, rng), oam_sector=1)
    z1, z2 = 0.7, 2.3
    twice = through(Gouy(z2, GEOM), through(Gouy(z1, GEOM), st))
    psi_sum = math.atan2(z1, GEOM.rayleigh_range) + math.atan2(z2, GEOM.rayleigh_range)
    expected = st.amplitudes * np.exp(-1j * (st.physical_orders() + 1) * psi_sum)
    np.testing.assert_allclose(twice.amplitudes, expected, atol=1e-12)


def test_gouy_sector_offset_enters_order():
    np.testing.assert_array_equal(
        PureState(np.array([1.0, 0.0, 0.0]), oam_sector=2).physical_orders(), [2, 4, 6]
    )
    st = make_b1_state(2, 0, oam_sector=3)
    out = through(Gouy(GEOM.rayleigh_range, GEOM), st)
    # order 2*0+3 = 3 -> phase -(3+1)*pi/4 = -pi
    assert out.amplitudes[0] == pytest.approx(-1.0, abs=1e-12)


# ----------------------------------------------------------------------- loss


def test_loss_extremes():
    st = make_b1_state(2, 0)
    rows = np.tile(st.amplitudes, (100, 1))
    kept = fly(ChannelSpec((Loss(0.0),)), rows)
    assert kept.delivered.all()
    np.testing.assert_array_equal(kept.amplitudes, rows)
    assert not fly(ChannelSpec((Loss(1.0),)), rows).delivered.any()
    with pytest.raises(ValueError):
        Loss(probability=1.5)
    with pytest.raises(ValueError):
        Loss(probability=-0.1)


def test_loss_fraction_binomial():
    n = 100_000
    flight = fly(ChannelSpec((Loss(0.3),)), np.tile(make_b1_state(2, 0).amplitudes, (n, 1)))
    lost = int(np.count_nonzero(~flight.delivered))
    assert_counts_match(np.array([lost, n - lost]), np.array([0.3, 0.7]))


# ------------------------------------------------------------ frequency shift


def test_frequency_shift_l0_identity():
    st = make_b2_state(4, 2)
    out = through(FrequencyShift(777.0), st, t=0.123)
    np.testing.assert_array_equal(out.amplitudes, st.amplitudes)


def test_frequency_shift_global_phase():
    st = make_b1_state(4, 1, oam_sector=2)
    out = through(FrequencyShift(math.pi), st, t=0.5)  # l * omega * t = pi
    np.testing.assert_allclose(out.amplitudes, -st.amplitudes, atol=1e-12)
    assert out.fidelity(st) == pytest.approx(1.0, abs=1e-12)


def test_frequency_shift_invisible_without_detuning(rng):
    cfg = DeviceConfig(d=4, detuning_epsilon=0.0)
    st = PureState(random_amplitudes(4, rng), oam_sector=2)
    out = through(FrequencyShift(345.6), st, t=7.8)
    np.testing.assert_allclose(b2_probabilities(out, cfg), b2_probabilities(st, cfg), atol=1e-12)


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


def test_eve_matching_basis_is_transparent():
    mub = build_mub_family(4, 2)
    st = make_b2_state(4, 2)
    flight = fly(ChannelSpec((Eve(EveStrategy(mub=mub, fixed_basis=1)),)), st.amplitudes)
    assert flight.eve_basis[0] == 1
    assert flight.eve_outcome[0] == 2
    assert row_state(flight).fidelity(st) == pytest.approx(1.0, abs=1e-12)


def test_eve_preserves_sector_and_frame(rng):
    mub = build_mub_family(4, 2)
    flight = fly(ChannelSpec((Eve(EveStrategy(mub=mub)),)), random_amplitudes(4, rng), 3)
    out = row_state(flight)
    assert out.oam_sector == 3
    # the forwarded photon is the eigenstate Eve saw
    resent = mub[flight.eve_basis[0]].vector(flight.eve_outcome[0])
    np.testing.assert_array_equal(out.amplitudes, resent)


def test_eve_dimension_mismatch():
    mub = build_mub_family(4, 2)
    with pytest.raises(DimensionMismatch):
        fly(ChannelSpec((Eve(EveStrategy(mub=mub)),)), make_b1_state(8, 0).amplitudes)


def test_eve_strategy_index_validation():
    mub = build_mub_family(4, 2)
    with pytest.raises(IndexOutOfRange):
        EveStrategy(mub=mub, fixed_basis=2)


def test_eve_monte_carlo_qber_matches_oracle(rng):
    # resample the whole attack chain and compare to the enumeration value
    d = 4
    mub = build_mub_family(d, 2)
    trials = 60_000
    a = rng.integers(2, size=trials)
    k = rng.integers(d, size=trials)
    sent = np.stack([mub[b].matrix.T for b in range(2)])[a, k]
    resent = fly(ChannelSpec((Eve(EveStrategy(mub=mub)),)), sent).amplitudes
    # Bob measures in Alice's basis (sifted round)
    u = rng.random(trials)
    outcome = np.empty(trials, dtype=int)
    for b in range(2):
        rows = a == b
        outcome[rows] = sample_rows(mub[b].probabilities(resent[rows]), u[rows])
    errors = int(np.count_nonzero(outcome != k))
    q = exact_intercept_resend_qber(mub)
    sigma = math.sqrt(q * (1 - q) / trials)
    assert abs(errors / trials - q) < 5 * sigma


# -------------------------------------------------------------- composition


def test_channel_spec_applies_in_order():
    spec = ChannelSpec((Rotation(0.3), Gouy(z=1.0, geom=GEOM)))
    st = make_b2_state(4, 1)
    flight = fly(spec, st.amplitudes)
    assert flight.eve_basis[0] == -1
    expected = through(Gouy(1.0, GEOM), through(Rotation(0.3), st))
    np.testing.assert_allclose(flight.amplitudes[0], expected.amplitudes, atol=1e-15)


def test_channel_loss_short_circuits():
    spec = ChannelSpec((Loss(1.0), Rotation(0.3)))
    assert not fly(spec, make_b2_state(4, 1).amplitudes).delivered[0]


def test_channel_random_rotation_consumes_one_draw():
    spec = ChannelSpec((RandomRotation(),))
    streams, rows = Substreams(3, 0, 0, 1), np.arange(1)
    draws = np.zeros((1, spec.width))
    assert spec.sample(streams, rows, draws).tolist() == [0]
    oracle = np.random.default_rng((3, 0, 0))
    assert draws[0, 0] == oracle.random()
    assert streams.random(rows)[0] == oracle.random()


def test_channel_reports_eve_guess():
    mub = build_mub_family(4, 2)
    spec = ChannelSpec((Eve(EveStrategy(mub=mub, fixed_basis=0)),))
    flight = fly(spec, make_b1_state(4, 2).amplitudes)
    assert (flight.eve_basis[0], flight.eve_outcome[0]) == (0, 2)
    assert spec.has_eve()


def test_time_varying_uses_emission_time():
    spec = ChannelSpec((TimeVaryingRotation(omega=2.0),))
    st = make_b1_state(4, 1, oam_sector=1)
    flight = fly(spec, st.amplitudes, st.oam_sector, t=0.25)
    np.testing.assert_allclose(
        flight.amplitudes[0], st.amplitudes * np.exp(1j * 0.5), atol=1e-12
    )


def test_frequency_shift_element():
    spec = ChannelSpec((FrequencyShift(omega=math.pi),))
    st = make_b1_state(4, 1, oam_sector=2)
    flight = fly(spec, st.amplitudes, st.oam_sector, t=1.0)
    np.testing.assert_allclose(flight.amplitudes[0], st.amplitudes, atol=1e-12)  # e^{2pi i}


def test_rotation_commutes_with_gouy_up_to_global_phase(rng):
    st = PureState(random_amplitudes(4, rng), oam_sector=2)
    rot_then_gouy = through(Gouy(1.3, GEOM), through(Rotation(0.9), st))
    gouy_then_rot = through(Rotation(0.9), through(Gouy(1.3, GEOM), st))
    assert rot_then_gouy.fidelity(gouy_then_rot) == pytest.approx(1.0, abs=1e-12)
    shift_then_gouy = through(Gouy(1.3, GEOM), through(FrequencyShift(11.0), st, t=0.2))
    gouy_then_shift = through(FrequencyShift(11.0), through(Gouy(1.3, GEOM), st), t=0.2)
    assert shift_then_gouy.fidelity(gouy_then_shift) == pytest.approx(1.0, abs=1e-12)
