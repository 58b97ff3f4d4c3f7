"""The columnar substreams against numpy's own generators.

``Substreams`` repeats numpy's SeedSequence, PCG64 and Generator
algorithms on arrays; the engine's determinism contract (and every golden
digest) rests on it giving each row exactly the numbers of
``default_rng((seed, stream, i))``.  These tests compare the two directly,
so a numpy release that changed ``integers`` or ``random`` fails here by
name rather than as a digest mismatch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamqkd.channel import (
    ChannelSpec,
    Eve,
    EveStrategy,
    FrequencyShift,
    Loss,
    RandomRotation,
    Rotation,
)
from oamqkd.protocol import SessionConfig, _draw_rounds
from oamqkd.states import build_mub_family
from oamqkd.streams import Substreams

SEEDS = (0, 1, 7, 2**32 + 5, 2**70 + 3, 10**30)
# round ids of one word, across the one-to-two word boundary, and of two words
STARTS = (0, 2**32 - 3, 2**40 + 1)
NUMPY_CHANGED = (
    "numpy's Generator no longer matches the algorithms oamqkd.streams repeats; "
    "sessions would no longer reproduce their transcripts"
)


def generators(seed, stream, start, stop):
    return [np.random.default_rng((seed, stream, i)) for i in range(start, stop)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("stream", [0, 1])
def test_raw_outputs_match_numpy(seed, start, stream):
    rows = np.arange(6)
    streams = Substreams(seed, stream, start, start + 6)
    got = np.stack([streams.random_raw(rows) for _ in range(5)], axis=1)
    for row, rng in zip(got, generators(seed, stream, start, start + 6)):
        assert row.tolist() == rng.bit_generator.random_raw(5).tolist()


@pytest.mark.parametrize("seed", SEEDS[::2])
@pytest.mark.parametrize("start", STARTS)
def test_draws_on_row_subsets_match_numpy(seed, start):
    # each call draws on a different subset of rows; rows left out must not
    # move, and integers() must share the one-word buffer with nothing else
    size = 9
    streams = Substreams(seed, 0, start, start + size)
    rngs = generators(seed, 0, start, start + size)
    pick = np.random.default_rng(seed % 2**32)
    for _ in range(30):
        rows = np.flatnonzero(pick.random(size) < 0.7)
        if pick.random() < 0.5:
            n = int(pick.choice([1, 2, 3, 5, 8, 64, 1000, 2**31 + 1]))
            got, expected = streams.integers(n, rows), [rngs[r].integers(n) for r in rows]
        else:
            got, expected = streams.random(rows), [rngs[r].random() for r in rows]
        assert got.tolist() == expected, NUMPY_CHANGED


def substream_at(state, inc):
    """A one-row Substreams set to the PCG64 state (state, inc)."""
    streams = Substreams(0, 0, 0, 1)
    streams.state_hi[0], streams.state_lo[0] = state >> 64, state % 2**64
    streams.inc_hi[0], streams.inc_lo[0] = inc >> 64, inc % 2**64
    return streams


def test_forced_lemire_rejection_matches_numpy():
    # a state whose next output has low word 0: integers(3) takes that word,
    # rejects it (0 is below (2^32 - 3) mod 3 = 1) and redraws from the
    # buffered high word; natural rejections at n = 3 have p = 2^-32
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = (0x9E3779B97F4A7C15F39CC0605CEDC835 << 1 | 1) % 2**128
    output = 0xDEADBEEF_00000000
    hi = 0x1234_5678_9ABC_DEF0 | 37 << 58  # XSL-RR rotates by hi >> 58
    rot = hi >> 58
    lo = hi ^ ((output << rot | output >> (64 - rot)) % 2**64)
    state = ((hi << 64 | lo) - inc) * pow(mult, -1, 2**128) % 2**128
    rows = np.arange(1)
    assert substream_at(state, inc).random_raw(rows).tolist() == [output]

    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    generator = np.random.Generator(bit_generator)
    expected = generator.integers(3)
    # without the rejection the high word would still be buffered
    assert bit_generator.state["has_uint32"] == 0, NUMPY_CHANGED
    assert expected == (0xDEADBEEF * 3) >> 32, NUMPY_CHANGED
    streams = substream_at(state, inc)
    assert streams.integers(3, rows).tolist() == [expected], NUMPY_CHANGED
    assert streams.random(rows).tolist() == [generator.random()], NUMPY_CHANGED


def test_bounds():
    with pytest.raises(ValueError):
        Substreams(0, 0, 5, 4)
    with pytest.raises(ValueError):
        Substreams(0, 0, 0, 3).integers(2**32, np.arange(3))
    assert Substreams(0, 0, 7, 7).random(np.arange(0)).size == 0


def scalar_rounds(cfg, start, stop):
    """The documented draw order, one ``default_rng((seed, 0, i))`` per round."""
    rows = []
    for i in range(start, stop):
        rng = np.random.default_rng((cfg.seed, 0, i))
        alice = [rng.integers(cfg.num_mubs), rng.integers(cfg.d)]
        channel, delivered = [], True
        for el in cfg.channel.elements:
            if not delivered or not el.width:
                channel += [0.0] * el.width
            elif isinstance(el, Eve):
                fixed = el.strategy.fixed_basis
                basis = rng.integers(el.strategy.mub.num_bases) if fixed is None else fixed
                channel += [basis, rng.random()]
            else:
                channel.append(rng.random())
                delivered = not (isinstance(el, Loss) and channel[-1] < el.probability)
        bob = [rng.integers(cfg.num_mubs), rng.random() if delivered else 0.0]
        rows.append(alice + bob + channel)
    return np.array(rows, dtype=float).reshape(stop - start, 4 + cfg.channel.width)


@st.composite
def draw_configs(draw):
    d, num_mubs = draw(st.sampled_from([(2, 2), (2, 3), (4, 2), (8, 2)]))
    mub = build_mub_family(d, num_mubs)
    element = st.one_of(
        st.just(RandomRotation()),
        st.builds(Rotation, st.floats(-3.0, 3.0)),
        st.just(FrequencyShift(5.0)),
        st.builds(Loss, st.sampled_from([0.0, 0.3, 0.7, 1.0])),
        st.builds(
            Eve,
            st.builds(
                EveStrategy, st.just(mub), st.sampled_from([None, *range(num_mubs)])
            ),
        ),
    )
    cfg = SessionConfig(
        d=d,
        photons=1,
        seed=draw(st.one_of(st.integers(0, 2**32), st.integers(2**32, 2**80))),
        num_mubs=num_mubs,
        channel=ChannelSpec(tuple(draw(st.lists(element, max_size=5)))),
    )
    start = draw(
        st.one_of(st.integers(0, 50), st.integers(2**32 - 20, 2**32 + 5), st.integers(0, 2**53))
    )
    return cfg, start, start + draw(st.integers(0, 25))


@settings(max_examples=60, deadline=None, database=None)
@given(draw_configs())
def test_draw_rows_match_scalar_oracle(case):
    cfg, start, stop = case
    assert _draw_rounds(cfg, start, stop).tolist() == scalar_rounds(cfg, start, stop).tolist()
