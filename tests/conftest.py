import numpy as np
import pytest

from oamqkd.channel import ChannelSpec, Flight
from oamqkd.states import PureState


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


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


def fly(spec, amplitudes, oam_sector=0, t=0.0, rng=None):
    """Send photons through ``spec`` as one Flight and return the Flight.

    ``amplitudes`` is one state vector or an ``(n, d)`` array of rows and
    ``t`` one emission time or one per row.  Each row takes its draws with
    ``spec.draw(rng)``, in row order; ``rng`` may be None when the spec
    draws nothing.
    """
    amps = np.array(amplitudes, dtype=complex, ndmin=2)
    n = len(amps)
    draws = np.array([spec.draw(rng)[0] for _ in range(n)], dtype=float).reshape(n, spec.width)
    flight = Flight(amps, np.broadcast_to(np.asarray(t, dtype=float), (n,)), oam_sector)
    spec.apply(flight, draws)
    return flight


def row_state(flight):
    """The first row of a Flight as a PureState."""
    return PureState(flight.amplitudes[0], oam_sector=flight.oam_sector)


def through(element, state, t=0.0, rng=None):
    """``state`` after the one-element channel ``element``, as a PureState."""
    return row_state(fly(ChannelSpec((element,)), state.amplitudes, state.oam_sector, t, rng))
