import numpy as np
import pytest

from oamqkd.channel import ChannelSpec, Flight
from oamqkd.states import PureState
from oamqkd.streams import Substreams

SEED = 20240811


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def assert_counts_match(counts, probs, nsigma=5.0):
    """Per-outcome binomial check: |count - N p| <= nsigma * sqrt(N p (1-p)).

    Outcomes with p in {0, 1} get an absolute slack of 0 (they must be hit
    exactly), which is what deterministic-device tests rely on.
    """
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    n = counts.sum()
    bound = nsigma * np.sqrt(np.clip(n * probs * (1.0 - probs), 0.0, None))
    dev = np.abs(counts - n * probs)
    assert np.all(dev <= bound + 1e-9), (
        f"counts {counts} deviate from expectation {n * probs} beyond {nsigma} sigma"
    )


def fly(spec, amplitudes, oam_sector=0, t=0.0, seed=SEED):
    """Send photons through ``spec`` as one Flight and return the Flight.

    ``amplitudes`` is one state vector or an ``(n, d)`` array of rows and
    ``t`` one emission time or one per row.  Row i takes its draws from the
    substream ``default_rng((seed, 0, i))``, as round i of a session would.
    """
    amps = np.array(amplitudes, dtype=complex, ndmin=2)
    n = len(amps)
    draws = np.zeros((n, spec.width))
    spec.sample(Substreams(seed, 0, 0, n), np.arange(n), draws)
    flight = Flight(amps, np.broadcast_to(np.asarray(t, dtype=float), (n,)), oam_sector)
    spec.apply(flight, draws)
    return flight


def row_state(flight):
    """The first row of a Flight as a PureState."""
    return PureState(flight.amplitudes[0], oam_sector=flight.oam_sector)


def through(element, state, t=0.0, seed=SEED):
    """``state`` after the one-element channel ``element``, as a PureState."""
    return row_state(fly(ChannelSpec((element,)), state.amplitudes, state.oam_sector, t, seed))
