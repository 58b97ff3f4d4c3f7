"""Logical d-dimensional state algebra.

Pure states over the encoded subspace, mutually unbiased basis families,
and Born-rule measurement sampling.  ``build_mub_family`` is the one
construction of basis vectors: its basis 0 is the mode ladder B1 and its
basis 1 the discrete-Fourier conjugate B2, so every state the protocol
sends, resends or projects on is a column of one of its matrices.
Probabilities and sampling work on rows: a ``(..., d)`` amplitude array is
a batch of photons, and ``sample_rows`` turns one uniform per row into an
outcome.

States are compared via |<a|b>| so global phases are unobservable by
design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import DimensionMismatch, IndexOutOfRange, UnsupportedDimension

__all__ = [
    "PureState",
    "Basis",
    "MubFamily",
    "make_b1_state",
    "make_b2_state",
    "physical_orders",
    "check_mub_family",
    "build_mub_family",
    "born_probabilities",
    "sample_rows",
    "sample_counts",
]

NORM_TOL = 1e-12
ORTHO_TOL = 1e-12
UNBIASED_TOL = 1e-10


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over the d-dimensional logical subspace.

    ``oam_sector`` is the common OAM offset l of the encoding: logical index
    n occupies the physical mode with indices (n + l, n), an HG mode before
    the modal converter and an LG mode after it.  The converter maps the
    indices one to one, so the amplitudes are the same on both sides.
    Instances are immutable.
    """

    amplitudes: np.ndarray
    oam_sector: int = 0

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-D vector")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def d(self) -> int:
        return self.amplitudes.size

    def physical_orders(self) -> np.ndarray:
        """Mode order N = 2n + l for each logical component n."""
        return physical_orders(self.d, self.oam_sector)

    def fidelity(self, other: "PureState") -> float:
        """|<self|other>|, the phase-insensitive overlap."""
        if other.d != self.d:
            raise DimensionMismatch(f"dimensions differ: {self.d} vs {other.d}")
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)))


@lru_cache(maxsize=None)
def physical_orders(d: int, oam_sector: int) -> np.ndarray:
    """Mode order N = 2n + l of logical component n in sector l."""
    orders = 2 * np.arange(d) + oam_sector
    orders.setflags(write=False)
    return orders


@dataclass(frozen=True)
class Basis:
    """Orthonormal basis stored as the columns of a unitary matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"basis matrix must be square, got shape {mat.shape}")
        gram = mat.conj().T @ mat
        dev = float(np.max(np.abs(gram - np.eye(mat.shape[0]))))
        if dev > ORTHO_TOL:
            raise ValueError(f"basis columns are not orthonormal (max deviation {dev:.3g})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def adjoint(self) -> np.ndarray:
        """Conjugate transpose, materialized once for measurement loops."""
        adj = np.ascontiguousarray(self.matrix.conj().T)
        adj.setflags(write=False)
        return adj

    def probabilities(self, amplitudes: np.ndarray) -> np.ndarray:
        """Born distribution |<basis_j|psi>|^2 of each amplitude row (..., d).

        One stacked product of the adjoint with every row, which rounds
        exactly as the single-vector product does.
        """
        return np.abs(np.matmul(self.adjoint, amplitudes[..., None])[..., 0]) ** 2

    def vector(self, k: int) -> np.ndarray:
        if not 0 <= k < self.d:
            raise IndexOutOfRange(f"basis index {k} outside 0..{self.d - 1}")
        return self.matrix[:, k]

    def state(self, k: int, oam_sector: int = 0) -> PureState:
        return PureState(self.vector(k), oam_sector=oam_sector)


@dataclass(frozen=True)
class MubFamily:
    """An ordered family of pairwise mutually unbiased bases.

    Construction verifies |<psi_i|phi_j>|^2 = 1/d for every vector pair
    drawn from distinct bases, and M <= d + 1.
    """

    bases: tuple[Basis, ...]

    def __post_init__(self) -> None:
        bases = tuple(self.bases)
        if len(bases) < 2:
            raise ValueError(f"a MUB family needs at least 2 bases, got {len(bases)}")
        d = bases[0].d
        if any(b.d != d for b in bases):
            raise DimensionMismatch("all bases in a family must share one dimension")
        if len(bases) > d + 1:
            raise ValueError(f"at most d+1 = {d + 1} MUBs exist in dimension {d}, got {len(bases)}")
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                cross = np.abs(bases[i].matrix.conj().T @ bases[j].matrix) ** 2
                dev = float(np.max(np.abs(cross - 1.0 / d)))
                if dev > UNBIASED_TOL:
                    raise ValueError(
                        f"bases {i} and {j} are not mutually unbiased "
                        f"(max | |<.|.>|^2 - 1/d | = {dev:.3g})"
                    )
        object.__setattr__(self, "bases", bases)

    @property
    def d(self) -> int:
        return self.bases[0].d

    @property
    def num_bases(self) -> int:
        return len(self.bases)

    def __getitem__(self, b: int) -> Basis:
        return self.bases[b]


def make_b1_state(d: int, k: int, oam_sector: int = 0) -> PureState:
    """Basis-one state |k>: the photon occupies a single ladder mode."""
    return build_mub_family(d, 2)[0].state(k, oam_sector)


def make_b2_state(d: int, k: int, oam_sector: int = 0) -> PureState:
    """Basis-two state |k~>: equal-weight superposition with phases e^{i 2pi k n / d}."""
    return build_mub_family(d, 2)[1].state(k, oam_sector)


def _is_prime(d: int) -> bool:
    if d < 2:
        return False
    if d % 2 == 0:
        return d == 2
    f = 3
    while f * f <= d:
        if d % f == 0:
            return False
        f += 2
    return True


def _quadratic_phase_basis(d: int, b: int) -> Basis:
    """Basis b of the quadratic-phase family; b = 0 is the Fourier basis.

    Odd prime d: columns v^(b,k)[n] = omega^(b n^2 + k n) / sqrt(d) with
    omega = e^{i 2pi/d}.  For d = 2 the quadratic exponent degenerates
    (n^2 = n mod 2), so quarter phases are used instead:
    v^(b,k)[n] = i^(b n^2) (-1)^(k n) / sqrt(2), giving the X and Y bases.
    """
    n = np.arange(d)[:, None]
    k = np.arange(d)[None, :]
    if d == 2:
        exponent = (b * n * n + 2 * k * n) % 4
        mat = np.exp(2j * math.pi * exponent / 4) / math.sqrt(2)
    else:
        exponent = (b * n * n + k * n) % d
        mat = np.exp(2j * math.pi * exponent / d) / math.sqrt(d)
    return Basis(mat)


def check_mub_family(d: int, num_bases: int) -> None:
    """Raise unless build_mub_family(d, num_bases) can construct the family.

    Two bases exist in any dimension; asking for more requires d prime,
    otherwise UnsupportedDimension is raised.
    """
    if num_bases < 2:
        raise ValueError(f"num_bases must be >= 2, got {num_bases}")
    if num_bases > d + 1:
        raise ValueError(f"at most d+1 = {d + 1} MUBs exist in dimension {d}")
    if num_bases > 2 and not _is_prime(d):
        raise UnsupportedDimension(
            f"more than 2 mutually unbiased bases are only constructed for prime d, got d={d}"
        )


@lru_cache(maxsize=None)
def build_mub_family(d: int, num_bases: int) -> MubFamily:
    """B1, B2, and (for prime d) further quadratic-phase bases, M <= d + 1.

    Raises as check_mub_family does.  The returned family has passed the
    pairwise unbiasedness verifier; families are immutable, so each
    (d, num_bases) is built and verified once per process.
    """
    check_mub_family(d, num_bases)
    bases = [Basis(np.eye(d, dtype=complex))]
    bases.extend(_quadratic_phase_basis(d, b) for b in range(num_bases - 1))
    return MubFamily(tuple(bases))


def born_probabilities(state: PureState, basis: Basis) -> np.ndarray:
    """Outcome distribution p_j = |<basis_j | state>|^2."""
    if basis.d != state.d:
        raise DimensionMismatch(f"state dimension {state.d} != basis dimension {basis.d}")
    return basis.probabilities(state.amplitudes)


def sample_rows(probabilities: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Cumulative-probability inversion of one uniform per row.

    Outcome j of a row is the count of cumulative probabilities <= u (what
    ``searchsorted(u, side="right")`` returns), capped at d - 1 against
    rounding in the last partial sum.
    """
    cum = np.asarray(probabilities).cumsum(axis=-1)
    j = np.count_nonzero(cum <= np.asarray(u)[..., None], axis=-1)
    return np.minimum(j, cum.shape[-1] - 1)


def sample_counts(probabilities: np.ndarray, rng: np.random.Generator, shots: int) -> np.ndarray:
    """Outcome counts over ``shots`` draws of ``sample_rows``, one uniform each."""
    probabilities = np.asarray(probabilities)
    return np.bincount(sample_rows(probabilities, rng.random(shots)), minlength=probabilities.shape[-1])
