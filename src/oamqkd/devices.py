"""Behavioral models of the measurement hardware.

* B1 measurement: a cascade of spatial modal interleavers (SMIs) sorting a
  photon into one detector port per ladder mode.  The cascade is modeled as
  an ideal binary splitter tree; its stage/port structure is explicit so the
  port-to-mode routing is testable.
* B2 measurement: the same sorter run coherently, a mode analyzer (MODAN)
  per path that erases the mode label while keeping the path amplitude,
  optional per-path Gouy-compensation and detuning phases, an inverse
  Fourier transform across paths, and a detector per output port.

The modal converters (cylindrical-lens pairs) between the HG-side devices
and the LG-side channel map mode (n, m) between the two families index-wise,
so they act as the identity on logical amplitudes and are not modeled.
Like the converters, preparation is not modeled: the ideal chain run
backwards from port k sends basis state k itself.

Devices are immutable after construction.  The measurement chains act on
rows: ``measure_b1_rows``/``measure_b2_rows`` take a ``(n, d)`` amplitude
array and one uniform per row (cumulative-probability inversion).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import ConfigInvalid, DimensionMismatch, require_finite, require_int
from .modes import BeamGeometry, beam_params, default_geometry
from .states import PureState, build_mub_family, sample_rows

__all__ = [
    "DeviceConfig",
    "sorter_cascade",
    "sorter_leaf_modes",
    "b1_probabilities",
    "b2_probabilities",
    "measure_b1_rows",
    "measure_b2_rows",
]


@dataclass(frozen=True)
class DeviceConfig:
    """Geometry and knobs shared by the measurement chains.

    ``d`` must be a power of two (the sorter is a binary cascade).
    ``propagation_z`` is the link distance whose Gouy dephasing the B2
    chain compensates when ``compensate_gouy`` is set.  ``detuning_epsilon``
    adds a per-path phase gradient n * epsilon modeling interferometer
    sensitivity to a rotational frequency shift; 0 disables it.
    """

    d: int
    geom: BeamGeometry | None = None
    compensate_gouy: bool = False
    propagation_z: float = 0.0
    detuning_epsilon: float = 0.0

    def __post_init__(self) -> None:
        require_int("d", self.d)
        if self.d < 2 or (self.d & (self.d - 1)) != 0:
            raise ConfigInvalid(
                f"d must be a power of 2 for the sorter-cascade device model, got {self.d}"
            )
        require_finite("propagation_z", self.propagation_z)
        require_finite("detuning_epsilon", self.detuning_epsilon)
        if self.detuning_epsilon < 0:
            raise ConfigInvalid(f"detuning_epsilon must be >= 0, got {self.detuning_epsilon}")
        if self.geom is None:
            object.__setattr__(self, "geom", default_geometry())

    def path_phases(self) -> np.ndarray:
        """Combined compensation + detuning phase applied to path n.

        Compensation is e^{+i(2n+1) psi(z)}, the inverse of the Gouy factor
        the l = 0 encoding accumulates over the link.
        """
        n = np.arange(self.d)
        phase = np.zeros(self.d)
        if self.compensate_gouy:
            psi = beam_params(self.geom, self.propagation_z).psi
            phase = phase + (2 * n + 1) * psi
        if self.detuning_epsilon != 0.0:
            phase = phase + n * self.detuning_epsilon
        return phase

    @cached_property
    def _path_phase_factors(self) -> np.ndarray | None:
        """exp(i * path_phases()), or None when every phase is zero."""
        phases = self.path_phases()
        return np.exp(1j * phases) if phases.any() else None


@lru_cache(maxsize=None)
def sorter_cascade(d: int) -> tuple[tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...], ...]:
    """Stage-by-stage routing of the binary SMI cascade for dimension d.

    Stage j (1-based) holds 2^(j-1) interleavers; each receives a group of
    mode indices and splits it on bit (j-1) of the index, so the first
    stage separates even-order from odd-order ladder modes.  Returned as
    ``stages[j-1] = ((input_modes, arm0_modes, arm1_modes), ...)``.
    """
    if d < 2 or (d & (d - 1)) != 0:
        raise ValueError(f"sorter cascade needs d = 2^s with s >= 1, got d={d}")
    stages = []
    groups: list[tuple[int, ...]] = [tuple(range(d))]
    for stage in range(d.bit_length() - 1):
        smis = []
        next_groups: list[tuple[int, ...]] = []
        for g in groups:
            arm0 = tuple(n for n in g if not (n >> stage) & 1)
            arm1 = tuple(n for n in g if (n >> stage) & 1)
            smis.append((g, arm0, arm1))
            next_groups.extend((arm0, arm1))
        stages.append(tuple(smis))
        groups = next_groups
    return tuple(stages)


@lru_cache(maxsize=None)
def sorter_leaf_modes(d: int) -> np.ndarray:
    """Mode index arriving at each physical output arm, in arm order.

    Every leaf holds exactly one mode; the detector sitting on a leaf is
    labeled by that mode, which is the port-to-mode map.
    """
    stages = sorter_cascade(d)
    leaves: list[tuple[int, ...]] = []
    for _, arm0, arm1 in stages[-1]:
        leaves.extend((arm0, arm1))
    if any(len(leaf) != 1 for leaf in leaves):
        raise AssertionError("sorter cascade did not terminate in singleton leaves")
    out = np.array([leaf[0] for leaf in leaves])
    out.setflags(write=False)
    return out


def _check_dimension(d: int, cfg: DeviceConfig) -> None:
    if d != cfg.d:
        raise DimensionMismatch(f"state dimension {d} != device dimension {cfg.d}")


def b1_probabilities(state: PureState, cfg: DeviceConfig) -> np.ndarray:
    """Detector-port distribution of the SMI cascade, in port (= mode) order."""
    _check_dimension(state.d, cfg)
    return np.abs(state.amplitudes) ** 2


def measure_b1_rows(amplitudes: np.ndarray, cfg: DeviceConfig, u: np.ndarray) -> np.ndarray:
    """Sort each photon row through the SMI cascade; report the clicked port.

    Ports are labeled by the ladder mode they receive, so the outcome is a
    projective B1 measurement.  The cumulative inversion runs over the
    ports in arm order, one uniform per row.
    """
    _check_dimension(amplitudes.shape[-1], cfg)
    leaf_modes = sorter_leaf_modes(cfg.d)
    leaf_probs = np.abs(amplitudes[..., leaf_modes]) ** 2
    return leaf_modes[sample_rows(leaf_probs, u)]


def _b2_distribution(amplitudes: np.ndarray, cfg: DeviceConfig) -> np.ndarray:
    """Outcome distribution of the B2 chain for amplitude rows (..., d)."""
    # (i) coherent sort: logical component n exits the cascade on path n,
    # still in its ladder mode (order 2n + l identifies the mode per path).
    # (ii) the MODAN on each path erases the mode label and keeps the path
    # amplitude, so only the logical amplitudes reach the interferometer.
    path_amps = amplitudes
    # (iii)+(iv) per-path compensation / detuning phases.
    factors = cfg._path_phase_factors
    if factors is not None:
        path_amps = path_amps * factors
    # (v) inverse Fourier transform across the d paths; (vi) detectors.
    return build_mub_family(cfg.d, 2)[1].probabilities(path_amps)


def b2_probabilities(state: PureState, cfg: DeviceConfig) -> np.ndarray:
    """Outcome distribution of the sorter + MODAN + inverse-Fourier chain."""
    _check_dimension(state.d, cfg)
    return _b2_distribution(state.amplitudes, cfg)


def measure_b2_rows(amplitudes: np.ndarray, cfg: DeviceConfig, u: np.ndarray) -> np.ndarray:
    """Projective B2 measurement of each row via mode erasure and path interference."""
    _check_dimension(amplitudes.shape[-1], cfg)
    return sample_rows(_b2_distribution(amplitudes, cfg), u)

