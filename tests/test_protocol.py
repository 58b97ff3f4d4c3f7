import math
from unittest import mock

import numpy as np
import pytest
from scipy import stats as scistats

from oamqkd import protocol
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
from oamqkd.devices import DeviceConfig
from oamqkd.exceptions import ConfigInvalid
from oamqkd.modes import default_geometry
from oamqkd.protocol import (
    QberEstimate,
    SessionConfig,
    Transcript,
    estimate_qber,
    run_session,
    sift,
)
from oamqkd.states import build_mub_family
from oamqkd.streams import Substreams


def noiseless_config(d=4, photons=20_000, seed=13, **kw):
    return SessionConfig(d=d, photons=photons, seed=seed, **kw)


def stats_without_wall_clock(stats):
    return {
        k: v
        for k, v in vars(stats).items()
        if k not in ("elapsed_seconds", "rounds_per_second")
    }


# ------------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        SessionConfig(d=4, photons=0, seed=1)
    with pytest.raises(ConfigInvalid):
        SessionConfig(d=4, photons=10, seed=-1)
    with pytest.raises(ConfigInvalid):
        SessionConfig(d=4, photons=10, seed=1, test_fraction=0.0)
    with pytest.raises(ConfigInvalid):
        SessionConfig(d=4, photons=10, seed=1, test_fraction=1.0)
    with pytest.raises(ConfigInvalid):
        SessionConfig(d=3, photons=10, seed=1)  # sorter needs a power of 2
    with pytest.raises(ConfigInvalid):
        SessionConfig(d=4, photons=10, seed=1, num_mubs=6)
    with pytest.raises(ConfigInvalid):
        SessionConfig(d=4, photons=10, seed=1, emission_rate=0.0)
    with pytest.raises(ConfigInvalid):
        SessionConfig(d=4, photons=10, seed=1, oam_sector=-1)
    with pytest.raises(ConfigInvalid):
        SessionConfig(d=4, photons=10, seed=1, device=DeviceConfig(d=8))


@pytest.mark.parametrize("bad", [1.5, 4.0, True])
def test_integer_fields_reject_non_integers(bad):
    # a float or bool used to run (oam_sector=1.5, seed=True) or die with a TypeError
    base = dict(d=4, photons=50, seed=0, channel=ChannelSpec((Rotation(0.3),)))
    for field in ("d", "photons", "seed", "num_mubs", "oam_sector"):
        with pytest.raises(ConfigInvalid, match=f"^{field} must be an integer"):
            SessionConfig(**{**base, field: bad})
    with pytest.raises(ConfigInvalid, match="d must be an integer"):
        DeviceConfig(d=bad)
    with pytest.raises(ConfigInvalid, match="fixed_basis"):
        EveStrategy(build_mub_family(4, 2), fixed_basis=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(bad):
    # a NaN emission rate used to stamp t = nan on every round
    with pytest.raises(ConfigInvalid, match="emission_rate"):
        SessionConfig(d=4, photons=3, seed=0, emission_rate=bad)
    # a finite rate whose emission times overflow: 1/rate, then (photons - 1)/rate
    with pytest.raises(ConfigInvalid, match="emission_rate"):
        SessionConfig(d=4, photons=1, seed=0, emission_rate=1e-310)
    with pytest.raises(ConfigInvalid, match="emission_rate"):
        SessionConfig(d=4, photons=100_000, seed=0, emission_rate=1e-304)
    with pytest.raises(ConfigInvalid, match="propagation_z"):
        DeviceConfig(d=4, propagation_z=bad)
    with pytest.raises(ConfigInvalid, match="detuning_epsilon"):
        DeviceConfig(d=4, detuning_epsilon=bad)
    with pytest.raises(ConfigInvalid, match="Gouy"):
        Gouy(z=bad, geom=default_geometry())
    for element in (Rotation, TimeVaryingRotation, FrequencyShift):
        with pytest.raises(ConfigInvalid, match="must be finite"):
            element(bad)


def test_mub_count_beyond_two_needs_prime_dimension():
    with pytest.raises(ConfigInvalid):
        run_session(SessionConfig(d=4, photons=10, seed=1, num_mubs=3))
    # d = 2 is prime: three bases work end to end
    stats, _ = run_session(SessionConfig(d=2, photons=3000, seed=1, num_mubs=3))
    assert stats.qber_estimate == 0.0


# ------------------------------------------------------------------- sifting


def _transcript(alice_basis, bob_basis, delivered=None, sym=None, out=None):
    """Hand-made transcript columns; by default every round is delivered
    with symbol 0 and outcome 0, and undelivered rounds have outcome -1."""
    n = len(alice_basis)
    delivered = np.ones(n, dtype=bool) if delivered is None else np.asarray(delivered)
    sym = np.zeros(n, dtype=int) if sym is None else np.asarray(sym)
    out = np.zeros(n, dtype=int) if out is None else np.asarray(out)
    return Transcript(
        t=np.zeros(n),
        alice_basis=np.asarray(alice_basis),
        alice_symbol=sym,
        delivered=delivered,
        bob_basis=np.asarray(bob_basis),
        bob_outcome=np.where(delivered, out, -1),
    )


def test_sift_matching_bases():
    records = _transcript([0, 1, 0], [0, 1, 0], delivered=[True, True, False])
    sift(records)
    assert records.sifted.tolist() == [True, True, False]


def test_sift_disjoint_bases():
    records = _transcript([0] * 5, [1] * 5)
    sift(records)
    assert not records.sifted.any()


def test_sift_expected_fraction():
    stats, records = run_session(noiseless_config(photons=40_000))
    frac = stats.sifted_count / stats.delivered
    assert abs(frac - 0.5) < 5 * math.sqrt(0.25 / stats.delivered)


# ------------------------------------------------------------ QBER estimation


def test_estimate_qber_noiseless():
    i = np.arange(200)
    records = sift(_transcript([0] * 200, [0] * 200, sym=i % 4, out=i % 4))
    est = estimate_qber(records, 0.5, np.random.default_rng(0))
    assert est == QberEstimate(0.0, est.sacrificed, False)
    assert 0 < est.sacrificed < 200


def test_estimate_qber_test_fraction_one_sacrifices_all():
    records = sift(_transcript([0] * 50, [0] * 50, sym=[1] * 50, out=[1] * 50))
    est = estimate_qber(records, 1.0, np.random.default_rng(0))
    assert est.sacrificed == 50
    stats, _ = run_session(noiseless_config(photons=2000, test_fraction=0.999))
    # nearly everything sacrificed; key accounting still exact
    assert stats.key_bits == (stats.sifted_count - stats.sacrificed_count) * 2.0


def test_estimate_qber_low_statistics_guard():
    records = sift(_transcript([0], [1]))  # nothing sifted
    est = estimate_qber(records, 0.5, np.random.default_rng(0))
    assert est == QberEstimate(0.0, 0, True)


def test_estimate_qber_counts_mismatches():
    i = np.arange(2000)
    records = sift(_transcript([0] * 2000, [0] * 2000, out=np.where(i % 2, 0, 1)))
    est = estimate_qber(records, 0.9, np.random.default_rng(1))
    assert est.qber == pytest.approx(0.5, abs=0.05)


# ------------------------------------------------------------------ sessions


def test_noiseless_session_correctness():
    stats, records = run_session(noiseless_config())
    assert stats.qber_estimate == 0.0
    assert not stats.aborted
    assert stats.delivered == stats.sent
    for r in records:
        if r.sifted:
            assert r.bob_outcome == r.alice_symbol
    assert stats.key_bits == (stats.sifted_count - stats.sacrificed_count) * math.log2(4)
    assert len(stats.key_symbols) == stats.sifted_count - stats.sacrificed_count
    assert stats.eve_mutual_information_estimate is None


def test_wrong_basis_outcomes_are_uniform():
    d = 4
    stats, records = run_session(noiseless_config(d=d, photons=40_000))
    wrong = [r.bob_outcome for r in records if r.delivered and r.alice_basis != r.bob_basis]
    counts = np.bincount(wrong, minlength=d)
    chi2 = float(((counts - len(wrong) / d) ** 2 / (len(wrong) / d)).sum())
    # 5-sigma two-sided quantile of a one-sided chi-square test
    threshold = scistats.chi2.isf(scistats.norm.sf(5.0), df=d - 1)
    assert len(wrong) >= 10_000
    assert chi2 < threshold


def test_reproducibility_identical_configs():
    cfg = noiseless_config(photons=5000, channel=ChannelSpec((RandomRotation(),)))
    stats_a, records_a = run_session(cfg)
    stats_b, records_b = run_session(cfg)
    assert records_a == records_b
    assert stats_without_wall_clock(stats_a) == stats_without_wall_clock(stats_b)


def test_rotation_invariance_l0_sessions():
    base_stats, base_records = run_session(noiseless_config(photons=8000))
    for spec in (ChannelSpec((Rotation(2.2),)), ChannelSpec((TimeVaryingRotation(1234.5),))):
        stats, records = run_session(noiseless_config(photons=8000, channel=spec))
        assert records == base_records  # rotations draw nothing and change nothing at l=0
        assert stats.qber_estimate == 0.0


def test_static_rotation_invisible_in_nonzero_sector():
    plain = run_session(noiseless_config(photons=8000, oam_sector=3))
    rotated = run_session(
        noiseless_config(photons=8000, oam_sector=3, channel=ChannelSpec((Rotation(1.234),)))
    )
    assert rotated[1] == plain[1]
    assert stats_without_wall_clock(rotated[0]) == stats_without_wall_clock(plain[0])


def test_global_phase_elements_leave_transcripts_unchanged():
    # detuning makes Bob's B2 outcomes random, so identical transcripts mean
    # identical draws and identical probabilities
    def session(*elements):
        return run_session(
            noiseless_config(
                photons=4000,
                oam_sector=2,
                device=DeviceConfig(d=4, detuning_epsilon=0.3),
                channel=ChannelSpec(elements),
            )
        )

    plain_stats, plain = session()
    assert plain_stats.qber_estimate > 0.0
    for element in (Rotation(1.1), TimeVaryingRotation(4321.0), FrequencyShift(987.0)):
        stats, records = session(element)
        assert records == plain
        assert stats_without_wall_clock(stats) == stats_without_wall_clock(plain_stats)
    # one uniform drawn per photon and no probability changed, as Loss(0.0)
    assert session(RandomRotation())[1] == session(Loss(0.0))[1]


def test_round_substreams_match_default_rng():
    # the engine computes the streams of a chunk of rounds as columns; they
    # must be the streams of the tuples (seed, 0, i), also where seed or i
    # needs two words
    rows = np.arange(4)
    for seed in (0, 7, 2**32 + 5, 10**15):
        for start in (0, 2**32 - 2):
            streams = Substreams(seed, protocol.ROUND_STREAM, start, start + 4)
            got = np.stack([streams.random(rows) for _ in range(3)], axis=1)
            for i, row in zip(range(start, start + 4), got):
                expected = np.random.default_rng((seed, 0, i)).random(3)
                assert row.tolist() == expected.tolist()


def test_chunk_and_slice_bounds_do_not_change_the_session():
    mub = build_mub_family(4, 2)
    channel = ChannelSpec((Loss(0.3), RandomRotation(), Eve(EveStrategy(mub)), Loss(0.1)))
    cfg = SessionConfig(d=4, photons=300, seed=2**33 + 1, oam_sector=1, channel=channel)
    stats, records = run_session(cfg)
    # chunks of 37 rounds, each played in slices of 5
    with mock.patch.multiple(protocol, CHUNK_ROUNDS=37, CHUNK_AMPLITUDES=5 * cfg.d):
        small_stats, small = run_session(cfg)
    assert small == records
    assert stats_without_wall_clock(small_stats) == stats_without_wall_clock(stats)


def test_photon_count_bounded_by_distinct_emission_times():
    SessionConfig(d=2, photons=2**53, seed=0)  # validated, not run
    for photons in (2**53 + 1, 10**20, 10**400):
        with pytest.raises(ConfigInvalid, match="photons"):
            SessionConfig(d=2, photons=photons, seed=0)


def test_eve_dimension_checked_by_the_config():
    eve = Eve(EveStrategy(build_mub_family(8, 2)))
    with pytest.raises(ConfigInvalid, match="eavesdropper basis dimension 8"):
        SessionConfig(d=4, photons=10, seed=0, channel=ChannelSpec((eve,)))


def test_random_rotation_keeps_l0_error_free():
    stats, records = run_session(
        noiseless_config(photons=8000, channel=ChannelSpec((RandomRotation(),)))
    )
    assert stats.qber_estimate == 0.0
    assert all(r.bob_outcome == r.alice_symbol for r in records if r.sifted)


def test_loss_discards_rounds():
    stats, records = run_session(
        noiseless_config(photons=40_000, channel=ChannelSpec((Loss(0.3),)))
    )
    assert stats.delivered < stats.sent
    frac_lost = 1.0 - stats.delivered / stats.sent
    assert abs(frac_lost - 0.3) < 5 * math.sqrt(0.3 * 0.7 / stats.sent)
    for r in records:
        if not r.delivered:
            assert r.bob_outcome is None and not r.sifted
    assert stats.qber_estimate == 0.0


def test_eve_random_basis_detected():
    d = 4
    mub = build_mub_family(d, 2)
    cfg = noiseless_config(
        d=d, photons=60_000, channel=ChannelSpec((Eve(EveStrategy(mub=mub)),))
    )
    stats, records = run_session(cfg)
    sifted = [r for r in records if r.sifted]
    errors = sum(r.bob_outcome != r.alice_symbol for r in sifted)
    q = 0.375
    assert abs(errors / len(sifted) - q) < 3 * math.sqrt(q * (1 - q) / len(sifted))
    assert stats.aborted
    assert stats.key_bits == 0.0 and stats.key_symbols == []
    assert stats.eve_mutual_information_estimate > 0.0


def test_eve_fixed_basis_also_detected():
    d = 4
    mub = build_mub_family(d, 2)
    cfg = noiseless_config(
        d=d, photons=30_000, channel=ChannelSpec((Eve(EveStrategy(mub=mub, fixed_basis=0)),))
    )
    stats, records = run_session(cfg)
    # wrong half the time, uniform outcome then: expected QBER (1/2)(d-1)/d
    sifted = [r for r in records if r.sifted]
    errors = sum(r.bob_outcome != r.alice_symbol for r in sifted)
    q = 0.5 * (d - 1) / d
    assert abs(errors / len(sifted) - q) < 5 * math.sqrt(q * (1 - q) / len(sifted))
    assert stats.aborted


def test_nothing_sacrificed_aborts():
    # 4 sifted rounds and none sacrificed: no error estimate, so no key,
    # although this Eve learns 1.5 bits per symbol
    mub = build_mub_family(4, 2)
    stats, _ = run_session(
        SessionConfig(d=4, photons=12, seed=0, channel=ChannelSpec((Eve(EveStrategy(mub)),)))
    )
    assert stats.sacrificed_count == 0 and stats.low_statistics
    assert stats.eve_mutual_information_estimate == pytest.approx(1.5)
    assert stats.aborted
    assert stats.key_bits == 0.0 and stats.key_symbols == []


def test_key_accounting_exact():
    stats, records = run_session(noiseless_config(d=8, photons=10_000))
    unsacrificed = [r for r in records if r.sifted and not r.sacrificed]
    assert stats.key_bits == len(unsacrificed) * math.log2(8)
    assert stats.key_symbols == [r.alice_symbol for r in unsacrificed]


def test_emission_timestamps():
    cfg = noiseless_config(photons=10, emission_rate=100.0)
    _, records = run_session(cfg)
    np.testing.assert_allclose([r.t for r in records], np.arange(10) / 100.0)


def test_round_record_invariants_hold():
    _, records = run_session(noiseless_config(photons=3000, channel=ChannelSpec((Loss(0.2),))))
    for r in records:
        if r.sifted:
            assert r.delivered and r.alice_basis == r.bob_basis
        if r.sacrificed:
            assert r.sifted
