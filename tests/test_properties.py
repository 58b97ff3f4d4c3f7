"""Property tests of the session engine over random channel compositions."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
from oamqkd.modes import default_geometry
from oamqkd.protocol import SessionConfig, run_session
from oamqkd.states import build_mub_family

GEOM = default_geometry()
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None)

angles = st.floats(-10.0, 10.0)
omegas = st.floats(-1e4, 1e4)
rotations = st.one_of(
    st.builds(Rotation, angles),
    st.just(RandomRotation()),
    st.builds(TimeVaryingRotation, omegas),
    st.builds(FrequencyShift, omegas),
)


def elements(d):
    mub = build_mub_family(d, 2)
    return st.one_of(
        rotations,
        st.builds(Gouy, st.floats(0.0, 5.0), st.just(GEOM)),
        st.builds(Loss, st.floats(0.0, 1.0)),
        st.builds(Eve, st.builds(EveStrategy, st.just(mub), st.sampled_from([None, 0, 1]))),
    )


@st.composite
def sessions(draw, max_photons=60, rotations_only=False):
    d = draw(st.sampled_from([2, 4, 8]))
    channel = draw(st.lists(rotations if rotations_only else elements(d), max_size=4))
    return SessionConfig(
        d=d,
        photons=draw(st.integers(1, max_photons)),
        seed=draw(st.integers(0, 2**40)),
        oam_sector=0 if rotations_only else draw(st.integers(0, 3)),
        channel=ChannelSpec(tuple(channel)),
        test_fraction=draw(st.floats(0.05, 0.95)),
    )


@PROPERTY_SETTINGS
@given(sessions())
def test_round_flags_nest(cfg):
    stats, records = run_session(cfg)
    assert len(records) == cfg.photons
    # sacrificed within sifted within delivered
    assert not (records.sacrificed & ~records.sifted).any()
    assert not (records.sifted & ~records.delivered).any()
    assert (records.bob_outcome[~records.delivered] == -1).all()
    assert stats.delivered == records.delivered.sum()
    assert stats.sifted_count == records.sifted.sum()
    assert stats.sacrificed_count == records.sacrificed.sum()


@PROPERTY_SETTINGS
@given(sessions())
def test_key_bits_accounting(cfg):
    stats, _ = run_session(cfg)
    if stats.aborted:
        assert stats.key_bits == 0.0 and stats.key_symbols == []
    else:
        kept = stats.sifted_count - stats.sacrificed_count
        assert stats.key_bits == kept * math.log2(cfg.d)
        assert len(stats.key_symbols) == kept


@PROPERTY_SETTINGS
@given(sessions(rotations_only=True))
def test_rotations_keep_l0_error_free(cfg):
    stats, records = run_session(cfg)
    assert stats.qber_estimate == 0.0
    sifted = records.sifted
    assert np.array_equal(records.bob_outcome[sifted], records.alice_symbol[sifted])


@PROPERTY_SETTINGS
@given(sessions(max_photons=80), st.integers(1, 9))
def test_chunk_size_does_not_change_the_session(cfg, chunk):
    with mock.patch.object(protocol, "CHUNK_ROUNDS", chunk):
        stats_chunked, chunked = run_session(cfg)
    with mock.patch.multiple(protocol, CHUNK_ROUNDS=cfg.photons, CHUNK_AMPLITUDES=cfg.photons * cfg.d):
        stats_whole, whole = run_session(cfg)
    assert chunked == whole
    for name in ("delivered", "sifted_count", "qber_estimate", "key_symbols", "aborted"):
        assert getattr(stats_chunked, name) == getattr(stats_whole, name)
    assert stats_chunked.eve_mutual_information_estimate == stats_whole.eve_mutual_information_estimate
