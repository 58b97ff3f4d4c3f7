"""Monte-Carlo session engine for the d-dimensional BB84 protocol.

One session: Alice draws a basis and symbol per photon and sends that
basis state of the MUB family, the channel acts in flight, and Bob
measures in his own random basis.  Public sifting keeps matching-basis
delivered rounds, a Bernoulli subsample of the sifted rounds is sacrificed
to estimate the symbol error rate, and the session aborts when that
estimate exceeds the configured threshold or when no round was sacrificed,
so that no estimate exists.

Determinism: round i consumes only the PRNG substream
``numpy.random.default_rng((seed, 0, i))`` — in order: Alice basis, Alice
symbol, the channel draws (element by element: one uniform per
RandomRotation and per Loss, a basis and a uniform per Eve; a photon
absorbed by a Loss draws nothing further in the channel), Bob basis, and
Bob's measurement uniform if the photon was delivered — and sacrifice
sampling uses the separate substream (seed, 1), one uniform per sifted
round in round order.  Identical configs therefore
produce identical transcripts regardless of processing order.

The engine runs the rounds in chunks of at most CHUNK_ROUNDS rounds, each
in two phases.  Phase 1, the draws, computes the substreams of the whole
chunk at once as columns (``streams.Substreams``, which repeats numpy's
SeedSequence, PCG64 and Generator algorithms on arrays) and takes every
round's draws in the order above; each round moves along its own stream, so
an absorbed photon or a fixed-basis Eve skips draws only in its own row.
Phase 2, the physics, plays the chunk in slices of at most CHUNK_AMPLITUDES
amplitudes as arrays: the sent basis states are gathered as rows, each
channel element acts on all rows at once (phase maps, a loss mask,
measure-and-resend per Eve basis), and Bob measures the rows of each basis
together.  Both phases use the draws exactly as a photon-by-photon loop
with one ``default_rng((seed, 0, i))`` per round would, so neither bound
changes any output.  Sifting and the sacrifice then work on the columns of
the Transcript.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng

from .channel import ChannelSpec, Eve, Flight
from .devices import DeviceConfig, measure_b1_rows, measure_b2_rows
from .exceptions import ConfigInvalid, require_finite, require_int
from .states import MubFamily, build_mub_family, check_mub_family, sample_rows
from .streams import Substreams

__all__ = [
    "RoundRecord",
    "Transcript",
    "SessionConfig",
    "SessionStats",
    "QberEstimate",
    "run_session",
    "sift",
    "estimate_qber",
]

ROUND_STREAM = 0
SIFT_STREAM = 1
# phase 1 draws a chunk of at most CHUNK_ROUNDS rounds at once, which bounds
# its per-row stream state; phase 2 plays it in slices of at most
# CHUNK_AMPLITUDES amplitudes, which bounds its (slice, d) arrays
CHUNK_ROUNDS = 16384
CHUNK_AMPLITUDES = 4096
# past 2^53 rounds the float emission times t = i * dt are no longer distinct
MAX_PHOTONS = 2**53


@dataclass
class RoundRecord:
    """Everything both parties (and the referee) know about one photon."""

    round_id: int
    t: float
    alice_basis: int
    alice_symbol: int
    delivered: bool
    bob_basis: int
    bob_outcome: int | None
    sifted: bool = False
    sacrificed: bool = False


@dataclass(eq=False)
class Transcript:
    """All rounds of a session as numpy columns, one entry per round in order.

    ``bob_outcome`` is -1 where the photon was not delivered.  Iterating
    yields RoundRecord rows (``bob_outcome`` None there); two transcripts
    are equal when every column is.
    """

    t: np.ndarray
    alice_basis: np.ndarray
    alice_symbol: np.ndarray
    delivered: np.ndarray
    bob_basis: np.ndarray
    bob_outcome: np.ndarray
    sifted: np.ndarray = None
    sacrificed: np.ndarray = None

    def __post_init__(self) -> None:
        for name in ("sifted", "sacrificed"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(len(self.t), dtype=bool))

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self):
        columns = [getattr(self, col.name).tolist() for col in fields(self)]
        for i, (t, ab, sym, dl, bb, out, sf, sc) in enumerate(zip(*columns)):
            yield RoundRecord(i, t, ab, sym, dl, bb, None if out < 0 else out, sf, sc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transcript):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, col.name), getattr(other, col.name))
            for col in fields(self)
        )


@dataclass(frozen=True)
class SessionConfig:
    """One protocol run: dimensions, channel, sampling, and seed."""

    d: int
    photons: int
    seed: int
    num_mubs: int = 2
    oam_sector: int = 0
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    test_fraction: float = 0.1
    qber_abort_threshold: float = 0.11
    emission_rate: float = 1e6
    device: DeviceConfig | None = None

    def __post_init__(self) -> None:
        for name in ("d", "photons", "seed", "num_mubs", "oam_sector"):
            require_int(name, getattr(self, name))
        if not 1 <= self.photons <= MAX_PHOTONS:
            raise ConfigInvalid(f"photons must be in [1, 2^53], got {self.photons}")
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigInvalid(
                f"test_fraction must lie strictly between 0 and 1, got {self.test_fraction}"
            )
        if not 0.0 <= self.qber_abort_threshold <= 1.0:
            raise ConfigInvalid(
                f"qber_abort_threshold must be in [0, 1], got {self.qber_abort_threshold}"
            )
        require_finite("emission_rate", self.emission_rate)
        if self.emission_rate <= 0:
            raise ConfigInvalid(f"emission_rate must be > 0, got {self.emission_rate}")
        # the emission time of the last round, computed as run_session does
        if not math.isfinite((self.photons - 1) * (1.0 / self.emission_rate)):
            raise ConfigInvalid(
                f"emission_rate {self.emission_rate!r} with {self.photons} photons puts "
                "the last emission time beyond the float range"
            )
        if self.oam_sector < 0:
            raise ConfigInvalid(f"oam_sector must be >= 0, got {self.oam_sector}")
        device = self.device if self.device is not None else DeviceConfig(d=self.d)
        if device.d != self.d:
            raise ConfigInvalid(f"device dimension {device.d} != session dimension {self.d}")
        object.__setattr__(self, "device", device)
        for el in self.channel.elements:
            if isinstance(el, Eve) and el.strategy.mub.d != self.d:
                raise ConfigInvalid(
                    f"eavesdropper basis dimension {el.strategy.mub.d} != "
                    f"session dimension {self.d}"
                )
        try:
            check_mub_family(self.d, self.num_mubs)
        except ValueError as exc:
            limit = (
                "; the devices need d = 2^s and extra bases need prime d, so a session "
                "with more than 2 bases runs only at d = 2"
                if self.num_mubs > 2
                else ""
            )
            raise ConfigInvalid(f"num_mubs = {self.num_mubs}: {exc}{limit}") from exc


@dataclass
class SessionStats:
    """Counts, sifted-key material, and error estimate for one session."""

    sent: int
    delivered: int
    sifted_count: int
    sacrificed_count: int
    qber_estimate: float
    low_statistics: bool
    aborted: bool
    key_symbols: list[int]
    key_bits: float
    eve_mutual_information_estimate: float | None
    elapsed_seconds: float
    rounds_per_second: float


class QberEstimate(NamedTuple):
    qber: float
    sacrificed: int
    low_statistics: bool


def sift(transcript: Transcript) -> Transcript:
    """Mark as sifted every delivered round where the bases agree.

    Public discussion only: no symbol values are consulted.  Returns the
    same transcript with its ``sifted`` column set.
    """
    transcript.sifted = transcript.delivered & (transcript.alice_basis == transcript.bob_basis)
    return transcript


def estimate_qber(
    transcript: Transcript, test_fraction: float, rng: np.random.Generator
) -> QberEstimate:
    """Sacrifice a Bernoulli(test_fraction) subsample of sifted rounds.

    One uniform per sifted round, in round order, decides its sacrifice.
    The error rate is the mismatch fraction on the sacrificed rounds.  With
    an empty subsample the estimate is reported as 0 with the
    low_statistics flag raised instead of failing.
    """
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError(f"test_fraction must be in [0, 1], got {test_fraction}")
    sifted = np.flatnonzero(transcript.sifted)
    chosen = sifted[rng.random(sifted.size) < test_fraction]
    transcript.sacrificed = np.zeros(len(transcript), dtype=bool)
    transcript.sacrificed[chosen] = True
    sacrificed = chosen.size
    if sacrificed == 0:
        return QberEstimate(qber=0.0, sacrificed=0, low_statistics=True)
    mismatches = int(
        np.count_nonzero(transcript.bob_outcome[chosen] != transcript.alice_symbol[chosen])
    )
    return QberEstimate(qber=mismatches / sacrificed, sacrificed=sacrificed, low_statistics=False)


def _plugin_mutual_information(pairs: list[tuple[int, tuple[int, int]]]) -> float:
    """Plug-in mutual information (bits) between symbols and Eve's records."""
    total = len(pairs)
    joint: dict[tuple[int, tuple[int, int]], int] = {}
    left: dict[int, int] = {}
    right: dict[tuple[int, int], int] = {}
    for a, e in pairs:
        joint[a, e] = joint.get((a, e), 0) + 1
        left[a] = left.get(a, 0) + 1
        right[e] = right.get(e, 0) + 1
    mi = 0.0
    for (a, e), n_ae in joint.items():
        p_ae = n_ae / total
        mi += p_ae * math.log2(p_ae * total * total / (left[a] * right[e]))
    return max(mi, 0.0)


def _draw_rounds(cfg: SessionConfig, start: int, stop: int) -> np.ndarray:
    """Phase 1: the draws of rounds [start, stop), one row per round.

    Columns: Alice basis, Alice symbol, Bob basis, Bob's measurement uniform
    (0 for an absorbed photon), then the channel's ``width`` draws (0 after
    an absorption).  Each round draws from its own substream in the order of
    the module docstring.
    """
    streams = Substreams(cfg.seed, ROUND_STREAM, start, stop)
    rows = np.arange(stop - start)
    draws = np.zeros((stop - start, 4 + cfg.channel.width))
    draws[:, 0] = streams.integers(cfg.num_mubs, rows)
    draws[:, 1] = streams.integers(cfg.d, rows)
    delivered = cfg.channel.sample(streams, rows, draws[:, 4:])
    draws[:, 2] = streams.integers(cfg.num_mubs, rows)
    draws[delivered, 3] = streams.random(delivered)
    return draws


def _play_rounds(
    cfg: SessionConfig, mub: MubFamily, flight_states: np.ndarray, draws: np.ndarray, t: np.ndarray
) -> tuple[Flight, np.ndarray]:
    """Phase 2: the physics of a slice of rounds given their draws.

    Returns the flight after the channel and Bob's outcome per round (-1
    where the photon was absorbed).  Bob measures the flight rows as they
    arrive.
    """
    alice_basis = draws[:, 0].astype(np.intp)
    alice_symbol = draws[:, 1].astype(np.intp)
    bob_basis, bob_u = draws[:, 2], draws[:, 3]
    flight = Flight(flight_states[alice_basis, alice_symbol], t, cfg.oam_sector)
    cfg.channel.apply(flight, draws[:, 4:])
    outcome = np.full(len(draws), -1, dtype=np.intp)
    for b in range(cfg.num_mubs):
        rows = np.flatnonzero(flight.delivered & (bob_basis == b))
        amps, u = flight.amplitudes[rows], bob_u[rows]
        if b == 0:
            outcome[rows] = measure_b1_rows(amps, cfg.device, u)
        elif b == 1:
            outcome[rows] = measure_b2_rows(amps, cfg.device, u)
        else:
            outcome[rows] = sample_rows(mub[b].probabilities(amps), u)
    return flight, outcome


def run_session(cfg: SessionConfig) -> tuple[SessionStats, Transcript]:
    """Run one full BB84 session; deterministic for a fixed config."""
    mub = build_mub_family(cfg.d, cfg.num_mubs)
    # row [b, k] is symbol k of basis b; the modal converter keeps the
    # logical amplitudes, so these are also the in-flight amplitudes
    flight_states = np.stack([basis.matrix.T for basis in mub.bases])
    n, dt = cfg.photons, 1.0 / cfg.emission_rate
    symbol_type = np.min_scalar_type(-cfg.d)  # signed, so -1 can mark "no outcome"
    transcript = Transcript(
        t=np.empty(n),
        alice_basis=np.empty(n, dtype=np.int8),
        alice_symbol=np.empty(n, dtype=symbol_type),
        delivered=np.empty(n, dtype=bool),
        bob_basis=np.empty(n, dtype=np.int8),
        bob_outcome=np.empty(n, dtype=symbol_type),
    )
    eve_basis = np.empty(n, dtype=np.int8)
    eve_outcome = np.empty(n, dtype=symbol_type)

    slice_rounds = max(1, CHUNK_AMPLITUDES // cfg.d)
    start = time.perf_counter()
    for chunk_lo in range(0, n, CHUNK_ROUNDS):
        chunk_hi = min(chunk_lo + CHUNK_ROUNDS, n)
        chunk_draws = _draw_rounds(cfg, chunk_lo, chunk_hi)
        for lo in range(chunk_lo, chunk_hi, slice_rounds):
            hi = min(lo + slice_rounds, chunk_hi)
            draws = chunk_draws[lo - chunk_lo : hi - chunk_lo]
            t = np.arange(lo, hi) * dt
            flight, outcome = _play_rounds(cfg, mub, flight_states, draws, t)
            transcript.t[lo:hi] = t
            transcript.alice_basis[lo:hi] = draws[:, 0]
            transcript.alice_symbol[lo:hi] = draws[:, 1]
            transcript.delivered[lo:hi] = flight.delivered
            transcript.bob_basis[lo:hi] = draws[:, 2]
            transcript.bob_outcome[lo:hi] = outcome
            eve_basis[lo:hi] = flight.eve_basis
            eve_outcome[lo:hi] = flight.eve_outcome

    sift(transcript)
    estimate = estimate_qber(
        transcript, cfg.test_fraction, default_rng((cfg.seed, SIFT_STREAM))
    )
    elapsed = time.perf_counter() - start

    # fail closed: with nothing sacrificed there is no error estimate to trust
    aborted = estimate.low_statistics or estimate.qber > cfg.qber_abort_threshold

    if aborted:
        key_symbols: list[int] = []
        key_bits = 0.0
    else:
        key_symbols = transcript.alice_symbol[transcript.sifted & ~transcript.sacrificed].tolist()
        key_bits = len(key_symbols) * math.log2(cfg.d)

    eve_mi = None
    if cfg.channel.has_eve():
        # round order: the plug-in estimate's float sum depends on it
        seen = transcript.sifted & (eve_basis >= 0)
        guesses = zip(eve_basis[seen].tolist(), eve_outcome[seen].tolist())
        pairs = list(zip(transcript.alice_symbol[seen].tolist(), guesses))
        eve_mi = _plugin_mutual_information(pairs) if pairs else 0.0

    stats = SessionStats(
        sent=n,
        delivered=int(np.count_nonzero(transcript.delivered)),
        sifted_count=int(np.count_nonzero(transcript.sifted)),
        sacrificed_count=estimate.sacrificed,
        qber_estimate=estimate.qber,
        low_statistics=estimate.low_statistics,
        aborted=aborted,
        key_symbols=key_symbols,
        key_bits=key_bits,
        eve_mutual_information_estimate=eve_mi,
        elapsed_seconds=elapsed,
        rounds_per_second=n / elapsed if elapsed > 0 else float("inf"),
    )
    return stats, transcript
