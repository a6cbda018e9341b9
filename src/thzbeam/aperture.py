"""Radiating-aperture grids and phase/amplitude profile synthesis.

The aperture is modelled as a square grid of isotropic point sources with
half-wavelength (or configurable) pitch.  Every beam in the toolkit —
beamforming ramps, focusing lenses, conical (Bessel) profiles, caustic
(accelerating) profiles and spiral OAM overlays — is expressed as a
``PhaseMap`` on such a grid, optionally combined with an ``AmplitudeMask``.

Sign conventions follow the propagation module: an outgoing spherical wave
is ``exp(-1j*k*r)/r``, so a profile that *advances* the phase by the
propagation delay (``+k*(r - const)``) arrives co-phased at the target.

``_Layout`` owns the centred axes of a grid or plane and its symmetry block,
the samples of non-negative coordinate along each axis it is even along:
even wavefronts are built on it, and ``propagation`` stores planes as it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

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
                f"side_length {self.side_length:g} m is less than one element pitch "
                f"({self.element_pitch:g} m): no elements fit"
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
        layout = _Layout(self.elements_per_side, self.element_pitch, (False, False))
        return layout.axis_coordinates()

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.axis_coordinates()
        return np.meshgrid(x, x, indexing="xy")


def make_grid(side_length: float, frequency: float, pitch_fraction: float = 0.5) -> ApertureGrid:
    """Build a grid with pitch = pitch_fraction * wavelength.

    ``pitch_fraction`` is typically 0.5 (half-wavelength spacing).
    """
    if frequency <= 0:  # before the pitch divides by it; ApertureGrid checks the rest
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
    """Complex element weights on a grid: amplitude * exp(1j * phase).

    The weights are read-only, so what the field derives from them once
    (its radial binning and its even axes) stays valid for its lifetime.  A
    complex array that owns its memory is taken as it is and left read-only;
    a view is copied, since what it views could still be written.
    """

    grid: ApertureGrid
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=complex)
        n = self.grid.elements_per_side
        if w.shape != (n, n):
            raise ValueError(f"weights shape {w.shape} does not match grid ({n}, {n})")
        if w.base is not None:
            w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def power(self) -> float:
        """Total radiated power surrogate sum(|w|^2)."""
        return float(np.sum(np.abs(self.weights) ** 2))

    @classmethod
    def uniform(cls, grid: ApertureGrid) -> "ApertureField":
        n = grid.elements_per_side
        return cls(grid, np.ones((n, n), dtype=complex))

    @functools.cached_property
    def _axial_binning(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(s, w_bins, abs_bins): the weights and their moduli summed per distinct s of
        ``_axial_bins``, built on first use and kept with the field."""
        s, inverse = _axial_bins(self.grid.elements_per_side)
        w = self.weights.ravel()
        w_bins = np.zeros(s.size, dtype=complex)
        np.add.at(w_bins, inverse, w)  # in element order, as bincount adds each component
        abs_bins = np.bincount(inverse, weights=np.abs(w), minlength=s.size)
        return s, w_bins, abs_bins

    @functools.cached_property
    def _even(self) -> tuple[bool, bool]:
        """(along y, along x): the axes along which the weights are even about their centre,
        bit for bit (``_even_axes``), tested on first use and kept with the field."""
        return _even_axes(self.weights)


@functools.lru_cache(maxsize=4)
def _axial_bins(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct s = (2i-(n-1))^2 + (2j-(n-1))^2 of an n-by-n grid, and each element's bin.

    Element (i, j) sits at squared distance s * pitch^2 / 4 from the array
    axis, so every on-axis distance depends on the element only through s.
    The bins come from a presence table over 0..2(n-1)^2, not a sort: the
    arrays equal ``np.unique(s, return_inverse=True)``.  They are shared by
    every caller and are therefore read-only.
    """
    u = (2 * np.arange(n, dtype=np.int64) - (n - 1)) ** 2
    s = (u[:, None] + u[None, :]).ravel()
    present = np.zeros(2 * (n - 1) ** 2 + 1, dtype=bool)
    present[s] = True
    values = np.flatnonzero(present)
    rank = np.cumsum(present, dtype=np.int64)
    rank -= 1
    inverse = rank[s]
    values.setflags(write=False)
    inverse.setflags(write=False)
    return values, inverse


# ---------------------------------------------------------------------------
# profile catalog


# The even profiles (planar, quadratic, conical) broadcast a 1-D axis ``x``: the grid's
# own by default, or its non-negative half, on which synthesize_field builds an even
# wavefront.
def _raw_planar(grid: ApertureGrid, steer_direction: Sequence[float],
                x: np.ndarray | None = None) -> np.ndarray:
    u = np.asarray(steer_direction, dtype=float)
    if u.shape != (3,):
        raise ValueError(f"steer_direction must be a 3-vector, got shape {u.shape}")
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"steer_direction must be a unit vector, got |u| = {norm:.9g}")
    x = grid.axis_coordinates() if x is None else x
    return -grid.wavenumber * (x[None, :] * u[0] + x[:, None] * u[1])


def phase_planar(grid: ApertureGrid, steer_direction: Sequence[float] = (0.0, 0.0, 1.0)) -> PhaseMap:
    """Linear (planar-wavefront) profile steering towards a unit vector.

    Broadside steering gives the all-zero map.
    """
    return PhaseMap(_raw_planar(grid, steer_direction))


def steer_vector(angle: float) -> tuple[float, float, float]:
    """Unit steering vector at ``angle`` off broadside, in the x-z plane."""
    return (math.sin(angle), 0.0, math.cos(angle))


def _raw_quadratic(grid: ApertureGrid, focal_length: float,
                   x: np.ndarray | None = None) -> np.ndarray:
    if focal_length <= 0:
        raise ValueError(f"focal_length must be positive, got {focal_length}")
    try:
        f_sq = focal_length**2
    except OverflowError:
        raise ValueError(f"focal_length {focal_length:g} m is too large: "
                         "its square leaves the float range") from None
    x_sq = (grid.axis_coordinates() if x is None else x) ** 2
    k = grid.wavenumber
    return k * (np.sqrt(f_sq + x_sq[None, :] + x_sq[:, None]) - focal_length)


def phase_quadratic(grid: ApertureGrid, focal_length: float) -> PhaseMap:
    """Hyperbolic lens profile focusing on-axis at ``focal_length``.

    Uses the exact form ``k*(sqrt(F^2 + x^2 + y^2) - F)`` so that every
    element contribution arrives co-phased at (0, 0, F); it reduces to the
    paraxial quadratic for F much larger than the aperture.
    """
    return PhaseMap(_raw_quadratic(grid, focal_length))


@dataclass(frozen=True)
class AxiconDesign:
    """Derived conical-profile parameters for a given central spot size."""

    radial_wavenumber: float
    cone_angle: float
    z_max: float
    ring_count_within_aperture: int


# each spot convention's J0 argument at the spot edge: the first root of J0(x)^2 = 1/2 (FWHM)
# or of J0 (null to null).  Pinned, so import needs no root finder; a test checks both against
# their bracketed roots (the null is one ulp above scipy's jn_zeros), and artifacts rest on them
_SPOT_CONVENTIONS = {"fwhm": 1.1263642393772584, "first_null": 2.404825557695773}


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
    if spot_convention not in _SPOT_CONVENTIONS:
        raise ValueError(f"unknown spot_convention {spot_convention!r}")
    k = grid.wavenumber
    k_r = 2.0 * _SPOT_CONVENTIONS[spot_convention] / spot_fwhm
    if k_r >= k:
        raise EvanescentDesignError(
            f"radial wavenumber {k_r:g} rad/m reaches the free-space wavenumber "
            f"{k:g} rad/m; the design would be evanescent"
        )
    theta = math.asin(k_r / k)
    z_max = grid.half_side / math.tan(theta)
    rings = int(math.floor(k_r * grid.half_side / TWO_PI))
    return AxiconDesign(k_r, theta, z_max, rings)


def _raw_conical(grid: ApertureGrid, design: AxiconDesign,
                 x: np.ndarray | None = None) -> np.ndarray:
    if design.radial_wavenumber >= grid.wavenumber:
        raise EvanescentDesignError(
            "axicon design is evanescent on this grid "
            f"(k_r = {design.radial_wavenumber:g} >= k = {grid.wavenumber:g})"
        )
    x = grid.axis_coordinates() if x is None else x
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
    """Parabolic trajectory x_c(z) = x_start + a * z^2 over (0, z_end] of an
    accelerating beam; ``a`` is nonzero and ``z_end`` positive."""

    a: float
    z_end: float
    x_start: float

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("curvature a must be nonzero: a straight line has no caustic")
        if self.z_end <= 0:
            raise ValueError(f"z_end must be positive, got {self.z_end}")


def _tangent_depths(curve: CausticCurve, x: np.ndarray) -> np.ndarray:
    """u = (x_start - x)/a: the z^2 at which the tangent from aperture abscissa x touches
    the curve.  Raises :class:`CausticDesignError` at the first x with u outside
    [0, z_end^2], which no tangent of the curve reaches."""
    u = (curve.x_start - x) / curve.a
    out = (u < 0.0) | (u > curve.z_end * curve.z_end)  # a square past the float range is inf
    if np.any(out):
        raise CausticDesignError("aperture abscissa not reached by any tangent of the curve",
                                 aperture_x=float(x[out][0]))
    return u


def _caustic_row(grid: ApertureGrid, curve: CausticCurve) -> np.ndarray:
    """The caustic phase along x, relative to x = 0.  Raises :class:`CausticDesignError`
    where the curve reaches an abscissa with no tangent (``_tangent_depths``) or the
    phase leaves the float range."""
    x = grid.axis_coordinates()
    a = abs(curve.a)

    def phi(u):
        # k/(4|a|) * (s*sqrt(1 + s^2) - asinh(s)) at the tangent slope s = 2|a|*sqrt(u), as
        # (k*sqrt(u)/2) * (hypot(1, s) - asinh(s)/s): neither s^2 nor k/|a| can overflow
        root = np.sqrt(u)
        s = 2.0 * (a * root)
        ratio = np.divide(np.arcsinh(s), s, out=np.ones_like(s), where=s > 0.0)  # 1 at s = 0
        return grid.wavenumber * root / 2.0 * (np.hypot(1.0, s) - ratio)

    # x = 0 lies between the grid's abscissas, which the rule has passed
    with np.errstate(over="ignore", invalid="ignore"):
        row = phi(_tangent_depths(curve, x)) - phi(np.array([curve.x_start / curve.a]))
    if not np.all(np.isfinite(row)):
        raise CausticDesignError("the caustic phase leaves the float range",
                                 aperture_x=float(x[~np.isfinite(row)][0]))
    return row


def _raw_caustic(grid: ApertureGrid, curve: CausticCurve) -> np.ndarray:
    row = _caustic_row(grid, curve)
    return np.broadcast_to(row[None, :], (row.size, row.size)).copy()


def phase_caustic(grid: ApertureGrid, curve: CausticCurve) -> PhaseMap:
    """Tangent-construction profile whose intensity maximum follows ``curve``.

    Each aperture abscissa x launches its ray along the tangent of the
    parabola that passes through (x, 0): the one touching it at the depth z
    with z^2 = u = (x_start - x)/a, of slope s = 2a*z (Froehly et al., Opt.
    Express 19(17):16455, 2011).  The phase slope dphi/dx = -k*s/sqrt(1 + s^2)
    integrates in closed form to k/(4|a|) * (|s|*sqrt(1 + s^2) - asinh|s|),
    taken relative to x = 0; its paraxial limit is the Airy beam's
    3/2-power phase.
    The profile is one-dimensional in x and extruded along y.  Raises
    :class:`CausticDesignError` when an aperture abscissa is reached by no
    tangent within z_end.
    """
    return PhaseMap(_raw_caustic(grid, curve))


# ---------------------------------------------------------------------------
# quantization, masks, composition


def _checked_phase_bits(bits: int) -> int:
    """``bits``, refused unless it lies in [1, 16]."""
    if not 1 <= bits <= 16:
        raise ValueError(f"phase_bits must be in [1, 16], got {bits}")
    return bits


def quantize_phase(phase: PhaseMap, bits: int) -> PhaseMap:
    """Round each value to the nearest of 2**bits uniform levels in [0, 2*pi)."""
    levels = 1 << _checked_phase_bits(bits)
    step = TWO_PI / levels
    q = np.mod(np.round(phase.values / step), levels)
    return PhaseMap(q * step)


@dataclass(frozen=True)
class ObstacleSpec:
    """Opaque obstacle in a transverse plane.

    ``shape`` is ``disc`` (size = diameter) or ``half_plane``, a knife edge
    (blocks x > center x-offset; size ignored).
    """

    shape: str
    size: float
    center_offset: tuple[float, float]
    plane_z: float

    def __post_init__(self):
        if self.shape not in ("disc", "half_plane"):
            raise ValueError(f"unknown obstacle shape {self.shape!r}")
        if self.shape == "disc" and self.size < 0:
            raise ValueError(f"obstacle size must be non-negative, got {self.size}")
        if self.plane_z <= 0:
            raise ValueError(f"obstacle plane_z must be positive, got {self.plane_z}")


def make_obstacle_mask(plane, spec: ObstacleSpec) -> AmplitudeMask:
    """Binary transmission mask of an obstacle on a sampled plane.

    ``plane`` is anything with ``axis_coordinates()`` and ``extent``: an
    ``ApertureGrid``, a ``FieldSlice``, or the ``_Layout`` that
    ``propagate_with_obstacles`` passes.  On a plane with ``block_axes()``
    (the latter two) the mask covers the block it stores, whose (y, x) axes
    those are.  Transmission is 0 inside the footprint, 1 outside, with a
    hard edge.  The one footprint check (``_check_footprint``, also for
    ``propagate_with_obstacles`` and the scenario parse): a disc must lie
    within +-extent/2, i.e. n*p/2 on a FieldSlice or a _Layout,
    side_length/2 on an ApertureGrid, and a half plane's edge strictly
    inside it.
    """
    if hasattr(plane, "block_axes"):
        y, x = plane.block_axes()
    else:
        y = x = plane.axis_coordinates()
    _check_footprint(spec, plane.extent)
    cx, cy = spec.center_offset

    # x runs along axis 1 and y along axis 0
    values = np.ones((y.size, x.size))
    if spec.shape == "half_plane":
        values[:, x > cx] = 0.0
    else:
        u, v, limit = (x - cx) ** 2, (y - cy) ** 2, (spec.size / 2.0) ** 2
        # a sample is blocked only where its column's term and its row's term add up to
        # within the limit, so each is within it: only the disc's bounding box is computed
        cols, rows = _span(u <= limit), _span(v <= limit)
        box = values[rows, cols]
        box[u[cols][None, :] + v[rows][:, None] <= limit] = 0.0
    if not values.any():
        warnings.warn("obstacle mask blocks the entire plane", stacklevel=2)
    return AmplitudeMask(values)


def _check_footprint(spec: ObstacleSpec, extent: float) -> None:
    """Raise GeometryError unless the disc ``spec`` lies within +-extent/2, or the edge of
    the half plane ``spec`` strictly inside it."""
    cx, cy = spec.center_offset
    if spec.shape == "half_plane":
        if abs(cx) >= extent / 2.0:
            raise GeometryError(f"half_plane edge at x = {cx:g} m lies on or beyond the plane "
                                f"extent +-{extent / 2.0:g} m, so it would block all of the "
                                "plane or none of it")
    elif max(abs(cx), abs(cy)) + spec.size / 2.0 > extent / 2.0:
        raise GeometryError(f"disc obstacle of size {spec.size:g} m at ({cx:g}, {cy:g}) "
                            f"exceeds the plane extent +-{extent / 2.0:g} m")


def _span(inside: np.ndarray) -> slice:
    """The slice from the first True of ``inside`` to its last, or an empty one."""
    where = np.flatnonzero(inside)
    return slice(where[0], where[-1] + 1) if where.size else slice(0, 0)


def _raw_disc(x: np.ndarray, radius: float) -> np.ndarray:
    x_sq = x**2
    return np.where(x_sq[None, :] + x_sq[:, None] <= radius * radius, 1.0, 0.0)


def circular_taper(grid: ApertureGrid) -> AmplitudeMask:
    """Transmission mask keeping the disc inscribed in the aperture, of radius half_side."""
    return AmplitudeMask(_raw_disc(grid.axis_coordinates(), grid.half_side))


def _compose(phases: Sequence[np.ndarray], amplitude: np.ndarray | None) -> np.ndarray:
    """``amplitude * exp(1j * sum(phases))``, built in place.

    The sum starts from the first map: a wrapped phase is never -0.0 (``np.mod``
    returns +0.0), so adding it to zeros would give the same bits.
    """
    total, *rest = phases
    for values in rest:
        total = total + values
    w = 1j * total
    np.exp(w, out=w)
    if amplitude is not None:
        np.multiply(amplitude, w, out=w)
    return w


def compose_aperture(
    grid: ApertureGrid,
    phase_maps: Sequence[PhaseMap],
    amplitude: AmplitudeMask | None = None,
) -> ApertureField:
    """Combine phase layers (added) and an amplitude mask into element weights."""
    n = grid.elements_per_side
    shape = (n, n)
    for m in phase_maps:
        if m.shape != shape:
            raise ValueError(f"phase map shape {m.shape} does not match grid {shape}")
    if amplitude is not None and amplitude.shape != shape:
        raise ValueError(f"amplitude shape {amplitude.shape} does not match grid {shape}")
    phases = [m.values for m in phase_maps] or [np.zeros(shape)]
    return ApertureField(grid, _compose(phases, None if amplitude is None else amplitude.values))


# ---------------------------------------------------------------------------
# wavefront catalog


_WAVEFRONT_KINDS = ("beamforming", "beamfocusing", "bessel", "caustic")


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
        if self.kind not in _WAVEFRONT_KINDS:
            raise ValueError(f"unknown wavefront kind {self.kind!r}")
        if self.phase_bits is not None:
            _checked_phase_bits(self.phase_bits)


def _is_even(spec: WavefrontSpec) -> bool:
    """Whether the spec's weights are even in x and in y: an unsteered beamforming,
    beamfocusing or Bessel wavefront without a spiral."""
    return spec.kind != "caustic" and not spec.steer_angle and not spec.oam_mode


def _applied_phase(grid: ApertureGrid, spec: WavefrontSpec, x: np.ndarray) -> PhaseMap:
    """The applied phase on the square of axis ``x``: the grid's axis, or for an even
    spec its non-negative half.  The caustic, the steering ramp of a non-planar kind
    and the spiral are odd, and read the grid's full axis."""
    if spec.kind == "beamforming":
        raw = _raw_planar(grid, steer_vector(spec.steer_angle), x)
    elif spec.kind == "beamfocusing":
        if spec.focal_length is None:
            raise ValueError("beamfocusing wavefront needs a focal_length")
        raw = _raw_quadratic(grid, spec.focal_length, x)
    elif spec.kind == "bessel":
        if spec.spot_fwhm is None:
            raise ValueError("bessel wavefront needs a spot_fwhm")
        design = axicon_design(grid, spec.spot_fwhm, spec.spot_convention)
        raw = _raw_conical(grid, design, x)
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


def _even_axes(a: np.ndarray) -> tuple[bool, bool]:
    """(along y, along x): whether complex square ``a`` is even about its centre along
    axis 0 and along axis 1, bit for bit.

    The samples are compared as ``uint64`` words, so +0.0 and -0.0 differ.
    Each axis is first tested on the one line through the centre across it
    (column n//2 for y, row n//2 for x), which rejects a steered or spiral
    field at the cost of n words; only a field that passes that line is
    compared whole, n^2 words per axis.
    """
    n = a.shape[0]
    bits = np.ascontiguousarray(a).view(np.uint64).reshape(n, n, 2)
    s = n // 2

    def even(b: np.ndarray) -> bool:  # along b's first axis
        return (np.array_equal(b[:s, s], b[::-1][:s, s])
                and np.array_equal(b[:s], b[::-1][:s]))

    return even(bits), even(bits.swapaxes(0, 1))


@dataclass(frozen=True)
class _Layout:
    """How a plane of ``side`` samples a side at ``pitch`` is stored: along each axis that
    ``even`` (along y, along x) names, the plane is even about its centre bit for bit and
    only its indices side//2 .. side-1, of non-negative coordinate, are kept; along the
    others every index is.  Both even, the block kept is a quadrant."""

    side: int
    pitch: float
    even: tuple[bool, bool]

    @property
    def extent(self) -> float:
        return self.side * self.pitch

    def axis_coordinates(self) -> np.ndarray:
        n = self.side
        return (np.arange(n) - (n - 1) / 2.0) * self.pitch

    def block_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The coordinates of the block's rows (y) and columns (x)."""
        x = self.axis_coordinates()
        return tuple(x[self.side // 2 :] if e else x for e in self.even)

    def multiplicity(self) -> np.ndarray:
        """How many samples of the plane each block sample stands for, 1, 2 or 4, as the
        array of the block's shape."""
        n = self.side
        counts = []
        for e in self.even:
            m = np.full(n - n // 2, 2.0) if e else np.ones(n)
            if e and n % 2:
                m[0] = 1.0  # the line through the centre of an odd plane stands for itself
            counts.append(m)
        return counts[0][:, None] * counts[1][None, :]

    def crop(self, plane: np.ndarray) -> np.ndarray:
        """The block (a view) of the whole ``plane``."""
        h = self.side // 2
        return plane[tuple(slice(h, None) if e else slice(None) for e in self.even)]

    def unfold(self, block: np.ndarray, keep: tuple[bool, bool] = (False, False)) -> np.ndarray:
        """The whole plane of an array laid out as the block (``block`` itself when no axis
        is even); along an axis that ``keep`` names, the block's half is kept.  Index j <
        side//2 takes index side-1-j, at exactly -x_j; no mirror overlaps what it reads."""
        ey, ex = (e and not k for e, k in zip(self.even, keep))
        if not (ey or ex):
            return block
        n, h = self.side, self.side // 2
        out = np.empty((n if ey else block.shape[0], n if ex else block.shape[1]),
                       dtype=block.dtype)
        rows = out[h:] if ey else out
        if ex:
            rows[:, h:] = block
            rows[:, :h] = block[:, ::-1][:, :h]
        else:
            rows[...] = block
        if ey:
            out[:h] = out[::-1][:h]
        return out

    def window(self, block: np.ndarray, lo: int, size: int) -> np.ndarray:
        """The plane's square ``[lo : lo + size, lo : lo + size]``, read off the block."""
        idx = np.arange(lo, lo + size)
        mirrored = np.maximum(idx, self.side - 1 - idx) - self.side // 2
        return block[np.ix_(*(mirrored if e else idx for e in self.even))]


def synthesize_applied_phase(grid: ApertureGrid, spec: WavefrontSpec) -> PhaseMap:
    """Phase map a wavefront spec applies.

    The kind's profile plus the steering ramp, wrapped; then the spiral
    overlay, wrapped again; then quantized.
    """
    return _applied_phase(grid, spec, grid.axis_coordinates())


def synthesize_field(grid: ApertureGrid, spec: WavefrontSpec) -> ApertureField:
    """Aperture field for a wavefront spec including overlays and taper.

    The weights are ``compose_aperture`` of the applied phase and, with
    ``circular``, of ``circular_taper(grid)``, bit for bit, except that a
    spiral overlay gives the element on the axis of an odd grid, where its
    phase is undefined, zero amplitude.  An even spec
    (kind beamforming, beamfocusing or bessel, with no steer and no spiral)
    is built on its ``_Layout`` quadrant of non-negative coordinates,
    (n+1)//2 elements a side, and unfolded: x_{n-1-i} = -x_i exactly, each
    step reads x only through x^2 or |x|, and broadside planar's signed
    zeros all wrap to +0.
    """
    n = grid.elements_per_side
    layout = _Layout(n, grid.element_pitch, (_is_even(spec),) * 2)
    x = layout.block_axes()[1]
    phase = _applied_phase(grid, spec, x)
    w = layout.unfold(_compose([phase.values],
                               _raw_disc(x, grid.half_side) if spec.circular else None))
    if spec.oam_mode and n % 2:
        w[n // 2, n // 2] = 0.0  # the helix has no phase on the axis, so no amplitude
    return ApertureField(grid, w)
