"""Monte-Carlo session engine for the d-dimensional BB84 protocol.

One session: Alice draws a basis and symbol per photon, prepares it with
the device models, runs it through the modal converter, the channel acts in
flight, Bob converts back and measures in his own random basis.  Public
sifting keeps matching-basis delivered rounds, a Bernoulli subsample of the
sifted rounds is sacrificed to estimate the symbol error rate, and the
session aborts when that estimate exceeds the configured threshold or when
no round was sacrificed, so that no estimate exists.

Determinism: round i consumes only the PRNG substream seeded by
(seed, 0, i) — in order: Alice basis, Alice symbol, channel draws, Bob
basis, Bob measurement — and sacrifice sampling uses the separate substream
(seed, 1).  Identical configs therefore produce identical transcripts
regardless of processing order, which is what would make parallel round
processing safe.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import ChannelSpec, apply_channel
from .devices import (
    ConvertDirection,
    DeviceConfig,
    measure_b1,
    measure_b2,
    modal_convert,
    prepare_b1,
    prepare_b2,
)
from .exceptions import ConfigInvalid
from .states import Frame, MubFamily, PureState, born_measure, build_mub_family, check_mub_family

__all__ = [
    "RoundRecord",
    "SessionConfig",
    "SessionStats",
    "QberEstimate",
    "run_session",
    "sift",
    "estimate_qber",
]

ROUND_STREAM = 0
SIFT_STREAM = 1


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
        if self.photons < 1:
            raise ConfigInvalid(f"photons must be >= 1, got {self.photons}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigInvalid(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigInvalid(
                f"test_fraction must lie strictly between 0 and 1, got {self.test_fraction}"
            )
        if not 0.0 <= self.qber_abort_threshold <= 1.0:
            raise ConfigInvalid(
                f"qber_abort_threshold must be in [0, 1], got {self.qber_abort_threshold}"
            )
        if self.emission_rate <= 0:
            raise ConfigInvalid(f"emission_rate must be > 0, got {self.emission_rate}")
        if self.oam_sector < 0:
            raise ConfigInvalid(f"oam_sector must be >= 0, got {self.oam_sector}")
        device = self.device if self.device is not None else DeviceConfig(d=self.d)
        if device.d != self.d:
            raise ConfigInvalid(f"device dimension {device.d} != session dimension {self.d}")
        object.__setattr__(self, "device", device)
        try:
            check_mub_family(self.d, self.num_mubs)
        except ValueError as exc:
            raise ConfigInvalid(f"num_mubs = {self.num_mubs}: {exc}") from exc


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


def sift(records: list[RoundRecord]) -> list[RoundRecord]:
    """Mark as sifted every delivered round where the bases agree.

    Public discussion only: no symbol values are consulted.  Returns the
    same list with flags set.
    """
    for rec in records:
        rec.sifted = rec.delivered and rec.alice_basis == rec.bob_basis
    return records


def estimate_qber(
    records: list[RoundRecord], test_fraction: float, rng: np.random.Generator
) -> QberEstimate:
    """Sacrifice a Bernoulli(test_fraction) subsample of sifted rounds.

    The error rate is the mismatch fraction on the sacrificed rounds.  With
    an empty subsample the estimate is reported as 0 with the
    low_statistics flag raised instead of failing.
    """
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError(f"test_fraction must be in [0, 1], got {test_fraction}")
    sacrificed = 0
    mismatches = 0
    for rec in records:
        if not rec.sifted:
            continue
        rec.sacrificed = rng.random() < test_fraction
        if rec.sacrificed:
            sacrificed += 1
            if rec.bob_outcome != rec.alice_symbol:
                mismatches += 1
    if sacrificed == 0:
        return QberEstimate(qber=0.0, sacrificed=0, low_statistics=True)
    return QberEstimate(qber=mismatches / sacrificed, sacrificed=sacrificed, low_statistics=False)


def _prepared_flight_states(
    cfg: SessionConfig, mub: MubFamily
) -> list[list[PureState]]:
    """LG-side state sent for every (basis, symbol); preparation is pure.

    Bases 0 and 1 go through the device models (MODAN source, reversed B2
    chain); any further MUB bases have no hardware model and are prepared at
    the logical level.
    """
    states: list[list[PureState]] = []
    for b in range(cfg.num_mubs):
        row = []
        for k in range(cfg.d):
            if b == 0:
                hg = prepare_b1(cfg.d, k, cfg.device, oam_sector=cfg.oam_sector)
            elif b == 1:
                hg = prepare_b2(cfg.d, k, cfg.device, oam_sector=cfg.oam_sector)
            else:
                hg = mub[b].state(k, oam_sector=cfg.oam_sector, frame=Frame.HG_SIDE)
            row.append(modal_convert(hg, ConvertDirection.HG_TO_LG))
        states.append(row)
    return states


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


def run_session(cfg: SessionConfig) -> tuple[SessionStats, list[RoundRecord]]:
    """Run one full BB84 session; deterministic for a fixed config."""
    mub = build_mub_family(cfg.d, cfg.num_mubs)
    flight = _prepared_flight_states(cfg, mub)
    device = cfg.device
    channel = cfg.channel
    d, num_mubs, seed = cfg.d, cfg.num_mubs, cfg.seed
    dt = 1.0 / cfg.emission_rate

    records: list[RoundRecord] = []
    eve_log: dict[int, tuple[int, int]] = {}
    start = time.perf_counter()
    for i in range(cfg.photons):
        rng = np.random.default_rng((seed, ROUND_STREAM, i))
        alice_basis = int(rng.integers(num_mubs))
        alice_symbol = int(rng.integers(d))
        t = i * dt
        state, guess = apply_channel(channel, flight[alice_basis][alice_symbol], t, rng)
        bob_basis = int(rng.integers(num_mubs))
        if state is None:
            outcome = None
        else:
            hg = modal_convert(state, ConvertDirection.LG_TO_HG)
            if bob_basis == 0:
                outcome = measure_b1(hg, device, rng)
            elif bob_basis == 1:
                outcome = measure_b2(hg, device, rng)
            else:
                outcome = born_measure(hg, mub[bob_basis], rng)
        records.append(
            RoundRecord(
                round_id=i,
                t=t,
                alice_basis=alice_basis,
                alice_symbol=alice_symbol,
                delivered=state is not None,
                bob_basis=bob_basis,
                bob_outcome=outcome,
            )
        )
        if guess is not None:
            eve_log[i] = (guess.basis, guess.outcome)

    sift(records)
    estimate = estimate_qber(
        records, cfg.test_fraction, np.random.default_rng((seed, SIFT_STREAM))
    )
    elapsed = time.perf_counter() - start

    delivered = sum(r.delivered for r in records)
    sifted_count = sum(r.sifted for r in records)
    # fail closed: with nothing sacrificed there is no error estimate to trust
    aborted = estimate.low_statistics or estimate.qber > cfg.qber_abort_threshold

    if aborted:
        key_symbols: list[int] = []
        key_bits = 0.0
    else:
        key_symbols = [r.alice_symbol for r in records if r.sifted and not r.sacrificed]
        key_bits = len(key_symbols) * math.log2(d)

    eve_mi = None
    if channel.has_eve():
        pairs = [
            (r.alice_symbol, eve_log[r.round_id])
            for r in records
            if r.sifted and r.round_id in eve_log
        ]
        eve_mi = _plugin_mutual_information(pairs) if pairs else 0.0

    stats = SessionStats(
        sent=cfg.photons,
        delivered=delivered,
        sifted_count=sifted_count,
        sacrificed_count=estimate.sacrificed,
        qber_estimate=estimate.qber,
        low_statistics=estimate.low_statistics,
        aborted=aborted,
        key_symbols=key_symbols,
        key_bits=key_bits,
        eve_mutual_information_estimate=eve_mi,
        elapsed_seconds=elapsed,
        rounds_per_second=cfg.photons / elapsed if elapsed > 0 else float("inf"),
    )
    return stats, records
