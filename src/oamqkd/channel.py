"""In-flight transformations between the two modal converters.

Transverse-frame rotation (static, per-photon random, or time-varying),
Gouy-phase accumulation over the link distance, photon loss, the rotational
frequency shift picked up by nonzero-OAM encodings, and intercept-resend
eavesdropping.  Elements compose in list order via ChannelSpec.

Every element acts on a Flight, a chunk of photons held as the rows of one
amplitude array, in two steps.  ``sample(streams, rows, out)`` takes the
PRNG draws of the listed in-flight rows from a ``Substreams`` cursor, as
``width`` columns of ``out`` (a uniform for RandomRotation and for Loss, a
basis and a uniform for Eve, nothing for the others), and returns the rows
still in flight: a Loss drops the rows it absorbs, so they draw nothing
further.  ``apply(flight, draws)`` then acts on all rows at once, given
those columns.  Apart from the draws every application is pure.  A single
photon is a Flight of one row.

The encoding's headline property lives here: an l = 0 state is bitwise
unchanged by any rotation of the transverse frame, and a fixed-l sector
only ever picks up the global phase e^{i l phi0}.  Rotation,
TimeVaryingRotation and FrequencyShift are global-phase-only elements: they
multiply all amplitudes of a photon by one unit-modulus factor, draw
nothing and change no probability, so at any l a session with them is
transcript-identical to the same session without them.  RandomRotation is
global-phase-only too but draws one uniform per photon, so a session with
it is transcript-identical to one with Loss(0.0), which draws one uniform
and never absorbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .exceptions import ConfigInvalid, DimensionMismatch, IndexOutOfRange, require_finite, require_int
from .modes import BeamGeometry, beam_params
from .states import MubFamily, physical_orders, sample_rows
from .streams import Substreams

__all__ = [
    "Flight",
    "Rotation",
    "RandomRotation",
    "TimeVaryingRotation",
    "Gouy",
    "Loss",
    "FrequencyShift",
    "Eve",
    "EveStrategy",
    "ChannelElement",
    "ChannelSpec",
]


@dataclass
class Flight:
    """Photons in flight, one row each.

    ``amplitudes`` holds the LG-side logical amplitudes, ``t`` the emission
    times, ``delivered`` whether each photon is still in flight (rows of
    absorbed photons are never read again), and ``eve_basis`` /
    ``eve_outcome`` the last intercept-resend record of each photon, -1
    where none was made.
    """

    amplitudes: np.ndarray
    t: np.ndarray
    oam_sector: int
    delivered: np.ndarray = field(init=False)
    eve_basis: np.ndarray = field(init=False)
    eve_outcome: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.amplitudes)
        self.delivered = np.ones(n, dtype=bool)
        self.eve_basis = np.full(n, -1, dtype=np.intp)
        self.eve_outcome = np.full(n, -1, dtype=np.intp)

    @property
    def d(self) -> int:
        return self.amplitudes.shape[1]


def _rotation_factors(l: int, angle) -> np.ndarray | None:
    """e^{i l angle} as one column per photon; None (the identity) at l = 0."""
    return None if l == 0 else np.reshape(np.exp(1j * l * angle), (-1, 1))


class _PhaseMap:
    """An element that multiplies the amplitudes by phase factors.

    ``factors(flight, draws)`` returns an array broadcastable against the
    amplitude rows, or None when the element is the identity.
    """

    width = 0

    def apply(self, flight: Flight, draws: np.ndarray) -> None:
        factors = self.factors(flight, draws)
        if factors is not None:
            flight.amplitudes *= factors


@dataclass(frozen=True)
class Rotation(_PhaseMap):
    """Static misalignment of the receiver's transverse frame, in radians."""

    angle: float

    def __post_init__(self) -> None:
        require_finite("rotation angle", self.angle)

    def factors(self, flight: Flight, draws: np.ndarray) -> np.ndarray | None:
        return _rotation_factors(flight.oam_sector, self.angle)


@dataclass(frozen=True)
class RandomRotation(_PhaseMap):
    """Fresh uniform angle in [0, 2pi) per photon; one PRNG draw each."""

    width = 1

    def sample(self, streams: Substreams, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        out[rows, 0] = streams.random(rows)
        return rows

    def factors(self, flight: Flight, draws: np.ndarray) -> np.ndarray | None:
        return _rotation_factors(flight.oam_sector, draws[:, 0] * 2.0 * math.pi)


@dataclass(frozen=True)
class TimeVaryingRotation(_PhaseMap):
    """Relative frame rotation at angular velocity omega (rad/s)."""

    omega: float

    def __post_init__(self) -> None:
        require_finite("rotation omega", self.omega)

    def factors(self, flight: Flight, draws: np.ndarray) -> np.ndarray | None:
        return _rotation_factors(flight.oam_sector, self.omega * flight.t)


@dataclass(frozen=True)
class Gouy(_PhaseMap):
    """Order-dependent propagation phase accumulated over distance z.

    Component n (physical order 2n + l) is multiplied by
    e^{-i(2n + l + 1) psi(z)}, the propagation-phase convention of the mode
    functions.  z = 0 is the identity; in the far field the relative factor
    between neighboring components approaches (-1).
    """

    z: float
    geom: BeamGeometry

    def __post_init__(self) -> None:
        require_finite("Gouy distance z", self.z)

    def factors(self, flight: Flight, draws: np.ndarray) -> np.ndarray | None:
        if self.z == 0.0:
            return None
        psi = beam_params(self.geom, self.z).psi
        return np.exp(-1j * (physical_orders(flight.d, flight.oam_sector) + 1) * psi)


@dataclass(frozen=True)
class FrequencyShift(_PhaseMap):
    """Rotational frequency shift of an l != 0 encoding (rad/s).

    Global phase e^{i l omega t}: unobservable on its own; its operational
    consequence is modeled through the measurement device's detuning knob.
    """

    omega: float

    def __post_init__(self) -> None:
        require_finite("frequency shift omega", self.omega)

    def factors(self, flight: Flight, draws: np.ndarray) -> np.ndarray | None:
        # Not _rotation_factors(l, omega * t): the product order 1j*l*omega*t
        # is the one the transcripts were first generated with, to the last bit.
        l = flight.oam_sector
        return None if l == 0 else np.reshape(np.exp(1j * l * self.omega * flight.t), (-1, 1))


@dataclass(frozen=True)
class Loss:
    """Photon absorption with the given probability; one PRNG draw."""

    probability: float

    width = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigInvalid(f"loss probability must be in [0, 1], got {self.probability}")

    def sample(self, streams: Substreams, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A uniform per row; a row whose uniform is below the probability is absorbed."""
        u = streams.random(rows)
        out[rows, 0] = u
        return rows[u >= self.probability]

    def apply(self, flight: Flight, draws: np.ndarray) -> None:
        flight.delivered &= draws[:, 0] >= self.probability


@dataclass(frozen=True)
class EveStrategy:
    """Intercept-resend policy: measure in a fixed MUB basis or a random one.

    ``fixed_basis = None`` draws a fresh uniform basis per photon.
    """

    mub: MubFamily
    fixed_basis: int | None = None

    def __post_init__(self) -> None:
        if self.fixed_basis is not None:
            require_int("fixed_basis", self.fixed_basis)
            if not 0 <= self.fixed_basis < self.mub.num_bases:
                raise IndexOutOfRange(
                    f"fixed basis {self.fixed_basis} outside 0..{self.mub.num_bases - 1}"
                )


@dataclass(frozen=True)
class Eve:
    """Intercept-resend: measure in a guessed basis, forward the eigenstate.

    Draws one uniform basis when the strategy is random (none when fixed),
    then one uniform for the measurement.  The forwarded photon keeps its
    OAM sector; the guess is recorded for information-leak accounting.
    """

    strategy: EveStrategy

    width = 2

    def sample(self, streams: Substreams, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        fixed = self.strategy.fixed_basis
        if fixed is None:
            out[rows, 0] = streams.integers(self.strategy.mub.num_bases, rows)
        else:
            out[rows, 0] = fixed
        out[rows, 1] = streams.random(rows)
        return rows

    def apply(self, flight: Flight, draws: np.ndarray) -> None:
        mub = self.strategy.mub
        if mub.d != flight.d:
            raise DimensionMismatch(
                f"state dimension {flight.d} != eavesdropper basis dimension {mub.d}"
            )
        rows = np.flatnonzero(flight.delivered)
        bases = draws[rows, 0]
        for b in range(mub.num_bases):
            sel = rows[bases == b]
            if sel.size:
                basis = mub[b]
                outcome = sample_rows(basis.probabilities(flight.amplitudes[sel]), draws[sel, 1])
                flight.amplitudes[sel] = basis.matrix.T[outcome]
                flight.eve_basis[sel] = b
                flight.eve_outcome[sel] = outcome


ChannelElement = Union[Rotation, RandomRotation, TimeVaryingRotation, Gouy, Loss, FrequencyShift, Eve]


@dataclass(frozen=True)
class ChannelSpec:
    """Ordered list of channel elements applied to each photon in flight."""

    elements: tuple[ChannelElement, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))

    def has_eve(self) -> bool:
        return any(isinstance(el, Eve) for el in self.elements)

    @property
    def width(self) -> int:
        """Draws per photon that reaches the end of the channel."""
        return sum(el.width for el in self.elements)

    def sample(self, streams: Substreams, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The draws of ``rows``, element by element in list order.

        Writes the ``width`` columns of ``out`` and returns the rows that got
        through.  A row's first absorption ends its draws; its entries after
        it are left as they were.
        """
        col = 0
        for el in self.elements:
            if el.width:
                rows = el.sample(streams, rows, out[:, col : col + el.width])
            col += el.width
        return rows

    def apply(self, flight: Flight, draws: np.ndarray) -> None:
        """Apply every element in order; ``draws`` has ``width`` columns.

        When several Eve elements are present the last guess is recorded.
        """
        col = 0
        for el in self.elements:
            el.apply(flight, draws[:, col : col + el.width])
            col += el.width
