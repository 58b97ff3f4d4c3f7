"""Paraxial Hermite-Gauss and Laguerre-Gauss beam modes.

Closed-form mode functions on transverse planes, beam-geometry helpers
(spot size, wavefront curvature, Gouy phase), and midpoint-rule quadrature
used to check orthonormality and rotation invariance of the physical beams
that back the logical state space.

Conventions used throughout:

* ``u_HG(x,y,z) = C_HG (1/w) exp(-i[k(x^2+y^2)/(2R) + (n+m+1)psi])
  exp(-(x^2+y^2)/w^2) H_n(x sqrt2/w) H_m(y sqrt2/w)``
* ``u_LG(x,y,z) = C_LG (1/w) exp(-i[k r^2/(2R) + (n+m+1)psi] - r^2/w^2)
  exp(-i(n-m)phi) (-1)^min(n,m) (r sqrt2/w)^|n-m| L_min(n,m)^|n-m|(2r^2/w^2)``

with ``C_HG = sqrt(2/(pi n! m!)) 2^(-(n+m)/2)``,
``C_LG = sqrt(2/(pi n! m!)) min(n,m)!``, ``psi(z) = arctan(z/z_R)`` and
``w(z)^2 = 2(z_R^2+z^2)/(k z_R)``.  The propagation phase carries the
minus sign shown above; every compensator elsewhere in this package uses
the same sign so there is a single source of truth.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import ConfigInvalid, GridTooCoarse, require_finite

__all__ = [
    "ModeFamily",
    "ModeLabel",
    "BeamGeometry",
    "BeamParams",
    "SpatialGrid",
    "default_geometry",
    "hermite_poly",
    "laguerre_poly",
    "beam_params",
    "eval_mode",
    "mode_field",
    "overlap",
    "reference_grid",
]


class ModeFamily(enum.Enum):
    HG = "HG"
    LG = "LG"


@dataclass(frozen=True)
class ModeLabel:
    """A spatial mode: family plus the two non-negative indices (n, m)."""

    family: ModeFamily
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ValueError(f"mode indices must be non-negative, got ({self.n}, {self.m})")

    @property
    def order(self) -> int:
        """Mode order N = n + m; modes of equal order share the Gouy phase."""
        return self.n + self.m

    @property
    def oam(self) -> int:
        """Signed azimuthal index n - m (the e^{-i(n-m)phi} winding for LG)."""
        return self.n - self.m

    @property
    def oam_magnitude(self) -> int:
        """Orbital angular momentum magnitude |n - m|."""
        return abs(self.n - self.m)


@dataclass(frozen=True)
class BeamGeometry:
    """Fixes a beam by wavenumber k and Rayleigh range z_R (both > 0)."""

    wavenumber: float
    rayleigh_range: float

    def __post_init__(self) -> None:
        require_finite("wavenumber", self.wavenumber)
        require_finite("rayleigh_range", self.rayleigh_range)
        if self.wavenumber <= 0:
            raise ConfigInvalid(f"wavenumber must be > 0, got {self.wavenumber}")
        if self.rayleigh_range <= 0:
            raise ConfigInvalid(f"rayleigh_range must be > 0, got {self.rayleigh_range}")


def default_geometry() -> BeamGeometry:
    """Telecom-band beam: 1550 nm wavelength, 1 m Rayleigh range (~0.7 mm waist)."""
    return BeamGeometry(wavenumber=2.0 * math.pi / 1.55e-6, rayleigh_range=1.0)


class BeamParams(NamedTuple):
    """Beam parameters at a plane z.

    ``curvature`` is the inverse wavefront radius 1/R(z); it is exactly 0 at
    the waist, which removes the R(0) = infinity singularity without
    branching.
    """

    w: float
    curvature: float
    psi: float


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform Cartesian sampling of a transverse plane, centered on the axis.

    ``samples_per_axis`` midpoint cells cover [-half_width, half_width] on
    each axis, so quadrature sums use cell centers times the cell area.
    """

    half_width: float
    samples_per_axis: int

    def __post_init__(self) -> None:
        if self.half_width <= 0:
            raise ValueError(f"half_width must be > 0, got {self.half_width}")
        if self.samples_per_axis < 2:
            raise ValueError(f"samples_per_axis must be >= 2, got {self.samples_per_axis}")

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / self.samples_per_axis

    @property
    def cell_area(self) -> float:
        return self.step * self.step

    def axis(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        s = self.step
        return -self.half_width + s * (np.arange(self.samples_per_axis) + 0.5)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) cell-center meshes, indexed [iy, ix]."""
        ax = self.axis()
        return np.meshgrid(ax, ax)


def hermite_poly(n: int, x):
    """Physicists' Hermite polynomial H_n(x), by the three-term recurrence.

    H_{k+1} = 2x H_k - 2k H_{k-1}; stable to order ~20.  Accepts scalars or
    arrays.
    """
    if n < 0:
        raise ValueError(f"Hermite order must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


def laguerre_poly(p: int, alpha: int, x):
    """Generalized Laguerre polynomial L_p^alpha(x), by the stable recurrence.

    (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}.  Accepts scalars
    or arrays.
    """
    if p < 0:
        raise ValueError(f"Laguerre degree must be >= 0, got {p}")
    if alpha < 0:
        raise ValueError(f"Laguerre parameter alpha must be >= 0, got {alpha}")
    x = np.asarray(x, dtype=float)
    l_prev = np.ones_like(x)
    if p == 0:
        return l_prev if l_prev.ndim else float(l_prev)
    l = 1.0 + alpha - x
    for k in range(1, p):
        l, l_prev = ((2.0 * k + 1.0 + alpha - x) * l - (k + alpha) * l_prev) / (k + 1.0), l
    return l if l.ndim else float(l)


def beam_params(geom: BeamGeometry, z: float) -> BeamParams:
    """Spot size w(z), inverse curvature 1/R(z), and Gouy phase psi(z)."""
    z_r = geom.rayleigh_range
    hyp = z_r * z_r + z * z
    w = math.sqrt(2.0 * hyp / (geom.wavenumber * z_r))
    curvature = z / hyp
    psi = math.atan2(z, z_r)
    return BeamParams(w=w, curvature=curvature, psi=psi)


def _normalization(label: ModeLabel) -> float:
    base = math.sqrt(2.0 / (math.pi * math.factorial(label.n) * math.factorial(label.m)))
    if label.family is ModeFamily.HG:
        return base * 2.0 ** (-0.5 * label.order)
    return base * math.factorial(min(label.n, label.m))


def eval_mode(label: ModeLabel, geom: BeamGeometry, x, y, z: float):
    """Complex mode amplitude u(x, y, z).

    ``x`` and ``y`` may be scalars or broadcastable arrays; ``z`` selects the
    transverse plane.  The result carries the full propagation phase
    exp(-i[k r^2/(2R) + (N+1) psi]).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w, curvature, psi = beam_params(geom, z)
    r2 = x * x + y * y
    envelope = np.exp(-r2 / (w * w))
    phase = -(0.5 * geom.wavenumber * curvature * r2 + (label.order + 1) * psi)
    pre = _normalization(label) / w

    if label.family is ModeFamily.HG:
        u = (
            pre
            * envelope
            * hermite_poly(label.n, x * math.sqrt(2.0) / w)
            * hermite_poly(label.m, y * math.sqrt(2.0) / w)
            * np.exp(1j * phase)
        )
    else:
        p = min(label.n, label.m)
        abs_l = abs(label.n - label.m)
        phi = np.arctan2(y, x)
        arg = 2.0 * r2 / (w * w)
        u = (
            pre
            * envelope
            * (-1.0) ** p
            * np.sqrt(arg) ** abs_l
            * laguerre_poly(p, abs_l, arg)
            * np.exp(1j * (phase - (label.n - label.m) * phi))
        )
    return u if u.ndim else complex(u)


def mode_field(
    label: ModeLabel,
    geom: BeamGeometry,
    grid: SpatialGrid,
    z: float,
    rotation: float = 0.0,
) -> np.ndarray:
    """Sample a mode on a grid's cell centers; optionally rotate the frame.

    ``rotation`` rotates the sampling frame by the given angle about the
    beam axis, i.e. the mode is evaluated at the rotated coordinates.
    """
    xx, yy = grid.mesh()
    if rotation != 0.0:
        c, s = math.cos(rotation), math.sin(rotation)
        xx, yy = c * xx - s * yy, s * xx + c * yy
    return eval_mode(label, geom, xx, yy, z)


def _field_overlap(field_a: np.ndarray, field_b: np.ndarray, grid: SpatialGrid) -> complex:
    return complex(np.sum(np.conj(field_a) * field_b) * grid.cell_area)


def overlap(
    a: ModeLabel,
    b: ModeLabel,
    geom: BeamGeometry,
    z: float,
    grid: SpatialGrid,
    rotate_a: float = 0.0,
    self_check_tol: float | None = 1e-4,
) -> complex:
    """Midpoint-rule quadrature of the mode inner product at plane z.

    Returns the approximation of integral conj(u_a) u_b dx dy.  ``rotate_a``
    evaluates mode ``a`` in a frame rotated about the beam axis, which is how
    rotational invariance is probed.  When ``self_check_tol`` is not None,
    raises GridTooCoarse if either mode's self-overlap deviates from 1 by
    more than the tolerance (grid too narrow or too coarse for these modes).
    """
    field_a = mode_field(a, geom, grid, z, rotation=rotate_a)
    field_b = field_a if (b == a and rotate_a == 0.0) else mode_field(b, geom, grid, z)

    if self_check_tol is not None:
        unrotated_a = mode_field(a, geom, grid, z) if rotate_a != 0.0 else field_a
        for label, field in ((a, unrotated_a), (b, field_b)):
            norm = abs(_field_overlap(field, field, grid))
            if abs(norm - 1.0) > self_check_tol:
                raise GridTooCoarse(
                    f"self-overlap of {label.family.value}({label.n},{label.m}) is {norm:.6g}; "
                    f"grid half_width={grid.half_width:g}, {grid.samples_per_axis} samples/axis "
                    f"cannot resolve it to {self_check_tol:g}"
                )
    return _field_overlap(field_a, field_b, grid)


def reference_grid(geom: BeamGeometry, z: float, samples_per_axis: int = 512) -> SpatialGrid:
    """Grid spanning 6 spot radii at plane z; resolves modes up to order ~6."""
    return SpatialGrid(half_width=6.0 * beam_params(geom, z).w, samples_per_axis=samples_per_axis)
