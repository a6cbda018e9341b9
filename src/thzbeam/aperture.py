"""Radiating-aperture grids and phase/amplitude profile synthesis.

The aperture is modelled as a square grid of isotropic point sources with
half-wavelength (or configurable) pitch.  Every beam in the toolkit —
beamforming ramps, focusing lenses, conical (Bessel) profiles, caustic
(accelerating) profiles and spiral OAM overlays — is expressed as a
``PhaseMap`` on such a grid, optionally combined with an ``AmplitudeMask``.

Sign conventions follow the propagation module: an outgoing spherical wave
is ``exp(-1j*k*r)/r``, so a profile that *advances* the phase by the
propagation delay (``+k*(r - const)``) arrives co-phased at the target.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CausticDesignError, EvanescentDesignError, GeometryError

SPEED_OF_LIGHT = 299_792_458.0
TWO_PI = 2.0 * np.pi


def wrap_phase(values: np.ndarray) -> np.ndarray:
    """Wrap phase values into [0, 2*pi)."""
    wrapped = np.mod(np.asarray(values, dtype=float), TWO_PI)
    # mod can return 2*pi for inputs a hair below 0
    wrapped[wrapped >= TWO_PI] = 0.0
    return wrapped


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class ApertureGrid:
    """Square planar aperture: side length, element pitch and carrier.

    The wavelength is always derived from the frequency, so the two can
    never drift apart.  Element coordinates are centred on the array axis:
    ``x_i = (i - (n-1)/2) * pitch``.
    """

    side_length: float
    element_pitch: float
    frequency: float

    def __post_init__(self):
        if self.side_length <= 0:
            raise ValueError(f"side_length must be positive, got {self.side_length}")
        if self.element_pitch <= 0:
            raise ValueError(f"element_pitch must be positive, got {self.element_pitch}")
        if self.frequency <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        if self.elements_per_side < 1:
            raise ValueError(
                f"side_length {self.side_length} lt one pitch {self.element_pitch}: "
                "no elements fit"
            )

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency

    @property
    def wavenumber(self) -> float:
        return TWO_PI / self.wavelength

    @property
    def elements_per_side(self) -> int:
        return int(math.floor(self.side_length / self.element_pitch + 1e-9))

    @property
    def half_side(self) -> float:
        """Aperture half-side R_ap = side_length / 2."""
        return self.side_length / 2.0

    @property
    def extent(self) -> float:
        """Side of the aperture plane (the counterpart of ``FieldSlice.extent``)."""
        return self.side_length

    def axis_coordinates(self) -> np.ndarray:
        """Centred element coordinates along one axis."""
        n = self.elements_per_side
        return (np.arange(n) - (n - 1) / 2.0) * self.element_pitch

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.axis_coordinates()
        return np.meshgrid(x, x, indexing="xy")


def make_grid(side_length: float, frequency: float, pitch_fraction: float = 0.5) -> ApertureGrid:
    """Build a grid with pitch = pitch_fraction * wavelength.

    ``pitch_fraction`` is typically 0.5 (half-wavelength spacing).
    """
    if side_length <= 0:
        raise ValueError(f"side_length must be positive, got {side_length}")
    if frequency <= 0:
        raise ValueError(f"frequency must be positive, got {frequency}")
    if not 0 < pitch_fraction <= 1:
        raise ValueError(f"pitch_fraction must be in (0, 1], got {pitch_fraction}")
    pitch = pitch_fraction * SPEED_OF_LIGHT / frequency
    return ApertureGrid(side_length, pitch, frequency)


# ---------------------------------------------------------------------------
# layers


@dataclass(frozen=True)
class PhaseMap:
    """Per-element phase in radians, wrapped to [0, 2*pi)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("phase map contains non-finite values")
        object.__setattr__(self, "values", wrap_phase(arr))

    @property
    def shape(self):
        return self.values.shape

    def __add__(self, other: "PhaseMap") -> "PhaseMap":
        if self.shape != other.shape:
            raise ValueError(f"phase map shapes differ: {self.shape} vs {other.shape}")
        return PhaseMap(self.values + other.values)


@dataclass(frozen=True)
class AmplitudeMask:
    """Per-element transmission factors in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitude mask contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError(
                f"amplitude mask values must lie in [0, 1], got range "
                f"[{arr.min():g}, {arr.max():g}]"
            )
        object.__setattr__(self, "values", arr)

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class ApertureField:
    """Complex element weights on a grid: amplitude * exp(1j * phase)."""

    grid: ApertureGrid
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=complex)
        n = self.grid.elements_per_side
        if w.shape != (n, n):
            raise ValueError(f"weights shape {w.shape} does not match grid ({n}, {n})")
        object.__setattr__(self, "weights", w)

    @property
    def power(self) -> float:
        """Total radiated power surrogate sum(|w|^2)."""
        return float(np.sum(np.abs(self.weights) ** 2))

    @classmethod
    def uniform(cls, grid: ApertureGrid) -> "ApertureField":
        n = grid.elements_per_side
        return cls(grid, np.ones((n, n), dtype=complex))


# ---------------------------------------------------------------------------
# profile catalog


def _raw_planar(grid: ApertureGrid, steer_direction: Sequence[float]) -> np.ndarray:
    u = np.asarray(steer_direction, dtype=float)
    if u.shape != (3,):
        raise ValueError(f"steer_direction must be a 3-vector, got shape {u.shape}")
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"steer_direction must be a unit vector, got |u| = {norm:.9g}")
    x = grid.axis_coordinates()
    return -grid.wavenumber * (x[None, :] * u[0] + x[:, None] * u[1])


def phase_planar(grid: ApertureGrid, steer_direction: Sequence[float] = (0.0, 0.0, 1.0)) -> PhaseMap:
    """Linear (planar-wavefront) profile steering towards a unit vector.

    Broadside steering gives the all-zero map.
    """
    return PhaseMap(_raw_planar(grid, steer_direction))


def steer_vector(angle: float, azimuth: float = 0.0) -> tuple[float, float, float]:
    """Unit steering vector at ``angle`` off broadside, in the plane at ``azimuth``."""
    s = math.sin(angle)
    return (s * math.cos(azimuth), s * math.sin(azimuth), math.cos(angle))


def _raw_quadratic(grid: ApertureGrid, focal_length: float) -> np.ndarray:
    if focal_length <= 0:
        raise ValueError(f"focal_length must be positive, got {focal_length}")
    x_sq = grid.axis_coordinates() ** 2
    k = grid.wavenumber
    return k * (np.sqrt(focal_length**2 + x_sq[None, :] + x_sq[:, None]) - focal_length)


def phase_quadratic(grid: ApertureGrid, focal_length: float) -> PhaseMap:
    """Hyperbolic lens profile focusing on-axis at ``focal_length``.

    Uses the exact form ``k*(sqrt(F^2 + x^2 + y^2) - F)`` so that every
    element contribution arrives co-phased at (0, 0, F); it reduces to the
    paraxial quadratic for F much larger than the aperture.
    """
    return PhaseMap(_raw_quadratic(grid, focal_length))


def bessel_half_intensity_argument() -> float:
    """First positive root of J0(x)^2 = 1/2 (~1.1264).

    A pinned literal, so that importing the package needs no root finder;
    a test checks that it equals the bracketed root of J0(x)^2 - 1/2.
    """
    return 1.1263642393772584


def bessel_first_null_argument() -> float:
    """First zero of J0 (~2.4048).

    A pinned literal, checked by a test against the bracketed root of J0.
    It is one ulp above ``scipy.special.jn_zeros(0, 1)[0]``; artifacts
    depend on this exact value.
    """
    return 2.404825557695773


@dataclass(frozen=True)
class AxiconDesign:
    """Derived conical-profile parameters for a given central spot size."""

    radial_wavenumber: float
    cone_angle: float
    z_max: float
    ring_count_within_aperture: int


def axicon_design(grid: ApertureGrid, spot_fwhm: float, spot_convention: str = "fwhm") -> AxiconDesign:
    """Size the conical profile producing a given central spot diameter.

    ``spot_convention`` selects how the spot diameter maps onto the J0^2
    lobe: ``"fwhm"`` (intensity full width at half maximum, the default and
    the convention that reproduces the 23 m range of the reference design)
    or ``"first_null"`` (null-to-null width).
    """
    lam = grid.wavelength
    if spot_fwhm <= lam:
        raise EvanescentDesignError(
            f"spot diameter {spot_fwhm:g} m must exceed the wavelength {lam:g} m"
        )
    if spot_convention == "fwhm":
        x_c = bessel_half_intensity_argument()
    elif spot_convention == "first_null":
        x_c = bessel_first_null_argument()
    else:
        raise ValueError(f"unknown spot_convention {spot_convention!r}")
    k = grid.wavenumber
    k_r = 2.0 * x_c / spot_fwhm
    if k_r >= k:
        raise EvanescentDesignError(
            f"radial wavenumber {k_r:g} rad/m reaches the free-space wavenumber "
            f"{k:g} rad/m; the design would be evanescent"
        )
    theta = math.asin(k_r / k)
    z_max = grid.half_side / math.tan(theta)
    rings = int(math.floor(k_r * grid.half_side / TWO_PI))
    return AxiconDesign(k_r, theta, z_max, rings)


def _raw_conical(grid: ApertureGrid, design: AxiconDesign) -> np.ndarray:
    if design.radial_wavenumber >= grid.wavenumber:
        raise EvanescentDesignError(
            "axicon design is evanescent on this grid "
            f"(k_r = {design.radial_wavenumber:g} >= k = {grid.wavenumber:g})"
        )
    x = grid.axis_coordinates()
    return design.radial_wavenumber * np.hypot(x[None, :], x[:, None])


def phase_conical(grid: ApertureGrid, design: AxiconDesign) -> PhaseMap:
    """Radially linear (conical-wavefront) profile for a Bessel beam.

    The radial slope advances the phase outward (+k_r * rho) so that under
    the ``exp(-1j*k*r)`` propagation convention the cone converges on the
    axis and builds the J0^2 interference pattern out to ``design.z_max``.
    """
    return PhaseMap(_raw_conical(grid, design))


def _raw_spiral(grid: ApertureGrid, mode_l: int) -> np.ndarray:
    if int(mode_l) != mode_l:
        raise ValueError(f"OAM mode must be an integer, got {mode_l!r}")
    x = grid.axis_coordinates()
    return float(mode_l) * np.arctan2(x[:, None], x[None, :])


def phase_spiral(grid: ApertureGrid, mode_l: int) -> PhaseMap:
    """Spiral (helical-wavefront) overlay ``l * atan2(y, x)`` carrying OAM."""
    return PhaseMap(_raw_spiral(grid, mode_l))


# ---------------------------------------------------------------------------
# caustic (accelerating) profiles


@dataclass(frozen=True)
class CausticCurve:
    """Target transverse trajectory x_c(z) for an accelerating beam.

    ``x_of_z`` maps propagation distance to transverse offset over
    [0, z_end].  ``dx_dz`` may be omitted, in which case a central finite
    difference is used.  ``convexity`` is the sign of the (constant-sign)
    second derivative, 0 for a straight line; it is derived on creation.
    """

    x_of_z: Callable[[np.ndarray], np.ndarray]
    z_end: float
    dx_dz: Callable[[np.ndarray], np.ndarray] | None = None
    convexity: int = field(init=False)

    def __post_init__(self):
        if self.z_end <= 0:
            raise ValueError(f"z_end must be positive, got {self.z_end}")
        zs = np.linspace(0.0, self.z_end, 257)
        xs = np.asarray(self.x_of_z(zs), dtype=float)
        if not np.all(np.isfinite(xs)):
            raise ValueError("caustic curve evaluates to non-finite offsets")
        second = np.diff(xs, 2)
        scale = max(np.abs(xs).max(), self.z_end) * 1e-9 + 1e-15
        if np.all(np.abs(second) <= scale):
            conv = 0
        elif np.all(second >= -scale):
            conv = 1
        elif np.all(second <= scale):
            conv = -1
        else:
            raise CausticDesignError("curve curvature changes sign; not convex")
        object.__setattr__(self, "convexity", conv)

    def slope(self, z: np.ndarray) -> np.ndarray:
        if self.dx_dz is not None:
            return np.asarray(self.dx_dz(z), dtype=float)
        h = self.z_end * 1e-6
        return (np.asarray(self.x_of_z(z + h)) - np.asarray(self.x_of_z(z - h))) / (2 * h)

    @classmethod
    def parabola(cls, a: float, z_end: float, x_start: float = 0.0) -> "CausticCurve":
        """x_c(z) = x_start + a * z^2."""
        return cls(
            x_of_z=lambda z: x_start + a * np.asarray(z, dtype=float) ** 2,
            dx_dz=lambda z: 2.0 * a * np.asarray(z, dtype=float),
            z_end=z_end,
        )


def _raw_caustic(grid: ApertureGrid, curve: CausticCurve, samples: int = 8192) -> np.ndarray:
    x = grid.axis_coordinates()
    k = grid.wavenumber

    if curve.convexity == 0:
        # straight line: all tangents coincide with the line itself
        t = float(np.mean(curve.slope(np.linspace(curve.z_end * 0.25, curve.z_end * 0.75, 16))))
        dphidx = np.full_like(x, -k * t / math.hypot(1.0, t))
    else:
        zs = np.linspace(curve.z_end * 1e-6, curve.z_end, samples)
        xc = np.asarray(curve.x_of_z(zs), dtype=float)
        sl = curve.slope(zs)
        g = xc - zs * sl  # tangent intercept at the aperture plane
        dg = np.diff(g)
        if not (np.all(dg > 0) or np.all(dg < 0)):
            raise CausticDesignError("tangent intercepts are not monotone; curve not convex")
        lo, hi = (g[0], g[-1]) if g[0] < g[-1] else (g[-1], g[0])
        out = (x < lo - 1e-12) | (x > hi + 1e-12)
        if np.any(out):
            raise CausticDesignError(
                "aperture abscissa not reached by any tangent of the curve",
                aperture_x=float(x[out][0]),
            )
        if g[0] < g[-1]:
            z_star = np.interp(x, g, zs)
        else:
            z_star = np.interp(x, g[::-1], zs[::-1])
        s = curve.slope(z_star)
        dphidx = -k * s / np.sqrt(1.0 + s**2)

    # integrate the slope along x with phi(0) = 0
    phi = np.concatenate(([0.0], np.cumsum(0.5 * (dphidx[1:] + dphidx[:-1]) * np.diff(x))))
    phi -= np.interp(0.0, x, phi)
    return np.broadcast_to(phi[None, :], (x.size, x.size)).copy()


def phase_caustic(grid: ApertureGrid, curve: CausticCurve, samples: int = 8192) -> PhaseMap:
    """Tangent-construction profile whose intensity maximum follows ``curve``.

    For each aperture abscissa x0 the tangent of the curve that extends back
    to (x0, 0) is found; the local phase slope launches the ray along that
    tangent.  The profile is one-dimensional in x and extruded along y.
    Raises :class:`CausticDesignError` when some aperture abscissa is not
    reached by exactly one tangent.
    """
    return PhaseMap(_raw_caustic(grid, curve, samples))


# ---------------------------------------------------------------------------
# quantization, masks, composition


def quantize_phase(phase: PhaseMap, bits: int) -> PhaseMap:
    """Round each value to the nearest of 2**bits uniform levels in [0, 2*pi)."""
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    levels = 1 << bits
    step = TWO_PI / levels
    q = np.mod(np.round(phase.values / step), levels)
    return PhaseMap(q * step)


@dataclass(frozen=True)
class ObstacleSpec:
    """Opaque obstacle in a transverse plane.

    ``shape`` is one of ``disc``, ``square`` (size = diameter / edge) or
    ``half_plane`` (blocks x > center x-offset; size ignored).
    """

    shape: str
    size: float = 0.0
    center_offset: tuple[float, float] = (0.0, 0.0)
    plane_z: float = 0.0

    def __post_init__(self):
        if self.shape not in ("disc", "square", "half_plane"):
            raise ValueError(f"unknown obstacle shape {self.shape!r}")
        if self.shape != "half_plane" and self.size < 0:
            raise ValueError(f"obstacle size must be non-negative, got {self.size}")
        if self.plane_z <= 0:
            raise ValueError(f"obstacle plane_z must be positive, got {self.plane_z}")


def make_obstacle_mask(plane, spec: ObstacleSpec) -> AmplitudeMask:
    """Binary transmission mask of an obstacle on a sampled plane.

    ``plane`` is anything with ``axis_coordinates()`` and ``extent`` (an
    ``ApertureGrid`` or a ``FieldSlice``).  Transmission is 0 inside the
    footprint, 1 outside, with a hard edge.  The one footprint check (also
    for ``propagate_with_obstacles``): a disc or square must lie within
    +-extent/2, i.e. n*p/2 on a FieldSlice, side_length/2 on an ApertureGrid.
    """
    x = plane.axis_coordinates()
    X, Y = np.meshgrid(x, x, indexing="xy")
    cx, cy = spec.center_offset
    half_extent = plane.extent / 2.0

    if spec.shape == "half_plane":
        blocked = X > cx
    else:
        if abs(cx) + spec.size / 2.0 > half_extent or abs(cy) + spec.size / 2.0 > half_extent:
            raise GeometryError(
                f"{spec.shape} obstacle of size {spec.size:g} m at ({cx:g}, {cy:g}) "
                f"exceeds the plane extent +-{half_extent:g} m"
            )
        if spec.shape == "disc":
            blocked = (X - cx) ** 2 + (Y - cy) ** 2 <= (spec.size / 2.0) ** 2
        else:
            blocked = np.maximum(np.abs(X - cx), np.abs(Y - cy)) <= spec.size / 2.0

    values = np.where(blocked, 0.0, 1.0)
    if not values.any():
        warnings.warn("obstacle mask blocks the entire plane", stacklevel=2)
    return AmplitudeMask(values)


def circular_taper(grid: ApertureGrid, radius: float | None = None) -> AmplitudeMask:
    """Transmission mask keeping the inscribed disc (or a custom radius)."""
    r = grid.half_side if radius is None else radius
    if r <= 0:
        raise ValueError(f"taper radius must be positive, got {r}")
    x_sq = grid.axis_coordinates() ** 2
    return AmplitudeMask(np.where(x_sq[None, :] + x_sq[:, None] <= r * r, 1.0, 0.0))


def compose_aperture(
    grid: ApertureGrid,
    phase_maps: Sequence[PhaseMap],
    amplitude: AmplitudeMask | None = None,
) -> ApertureField:
    """Combine phase layers (added) and an amplitude mask into element weights."""
    n = grid.elements_per_side
    shape = (n, n)
    total = np.zeros(shape)
    for m in phase_maps:
        if m.shape != shape:
            raise ValueError(f"phase map shape {m.shape} does not match grid {shape}")
        total = total + m.values
    if amplitude is None:
        amp = np.ones(shape)
    else:
        if amplitude.shape != shape:
            raise ValueError(f"amplitude shape {amplitude.shape} does not match grid {shape}")
        amp = amplitude.values
    return ApertureField(grid, amp * np.exp(1j * total))


# ---------------------------------------------------------------------------
# wavefront catalog


@dataclass(frozen=True)
class WavefrontSpec:
    """Named wavefront recipe used by gain curves and scenario runs.

    ``kind`` is one of ``beamforming`` (planar), ``beamfocusing``
    (focal_length; None means "set at the Bessel gain peak"), ``bessel``
    (spot_fwhm, spot_convention) or ``caustic`` (curve).  ``oam_mode`` adds
    a spiral overlay, ``phase_bits`` quantizes the final map and
    ``circular`` applies the inscribed-disc taper.
    """

    kind: str
    steer_angle: float = 0.0
    focal_length: float | None = None
    spot_fwhm: float | None = None
    spot_convention: str = "fwhm"
    curve: CausticCurve | None = None
    oam_mode: int = 0
    phase_bits: int | None = None
    circular: bool = False

    def __post_init__(self):
        if self.kind not in ("beamforming", "beamfocusing", "bessel", "caustic"):
            raise ValueError(f"unknown wavefront kind {self.kind!r}")
        if self.phase_bits is not None and not 1 <= self.phase_bits <= 16:
            raise ValueError(f"phase_bits must be in [1, 16], got {self.phase_bits}")


def synthesize_applied_phase(grid: ApertureGrid, spec: WavefrontSpec) -> PhaseMap:
    """Phase map a wavefront spec applies.

    The kind's profile plus the steering ramp, wrapped; then the spiral
    overlay, wrapped again; then quantized.
    """
    if spec.kind == "beamforming":
        raw = _raw_planar(grid, steer_vector(spec.steer_angle))
    elif spec.kind == "beamfocusing":
        if spec.focal_length is None:
            raise ValueError("beamfocusing wavefront needs a focal_length")
        raw = _raw_quadratic(grid, spec.focal_length)
    elif spec.kind == "bessel":
        if spec.spot_fwhm is None:
            raise ValueError("bessel wavefront needs a spot_fwhm")
        design = axicon_design(grid, spec.spot_fwhm, spec.spot_convention)
        raw = _raw_conical(grid, design)
    else:  # caustic
        if spec.curve is None:
            raise ValueError("caustic wavefront needs a curve")
        raw = _raw_caustic(grid, spec.curve)
    if spec.steer_angle and spec.kind != "beamforming":  # beamforming's ramp is the steer
        raw = raw + _raw_planar(grid, steer_vector(spec.steer_angle))
    phase = PhaseMap(raw)
    if spec.oam_mode:
        phase = phase + phase_spiral(grid, spec.oam_mode)
    if spec.phase_bits is not None:
        phase = quantize_phase(phase, spec.phase_bits)
    return phase


def synthesize_field(grid: ApertureGrid, spec: WavefrontSpec) -> ApertureField:
    """Aperture field for a wavefront spec including overlays and taper."""
    amplitude = circular_taper(grid) if spec.circular else None
    return compose_aperture(grid, [synthesize_applied_phase(grid, spec)], amplitude)
