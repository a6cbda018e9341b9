"""Scalar figures of merit: radiation gain, range limits, beam statistics.

The normalized radiation gain is the coherence factor

    G = |sum w_n exp(-1j*k*r_n)/r_n|^2 / (sum |w_n|/r_n)^2

which is 1 exactly when every element contribution arrives co-phased (a
focusing profile at its own focus) and degrades towards 0 as the arrival
phases spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .aperture import ApertureGrid, WavefrontSpec, _span, synthesize_field
from .errors import NoBeamError
from .propagation import FieldSlice, _axial_sums, _element_distances

__all__ = [
    "GainCurve",
    "BeamStats",
    "normalized_gain",
    "gain_curve",
    "fraunhofer_distance",
    "aperture_gain_dbi",
    "beam_profile_stats",
    "self_healing_correlation",
]

def normalized_gain(field, point: Sequence[float]) -> float:
    """Coherence factor of the element contributions at a point, in [0, 1].

    On the array axis (px == py == 0) the sums run over the distinct element
    distances from the axis, with the weights binned by radius; they equal
    the element-wise sums up to summation order.
    """
    px, py, pz = (float(v) for v in point)
    if pz <= 0:
        raise ValueError(f"evaluation point must have z > 0, got {pz}")
    if px == 0.0 and py == 0.0:
        coherent, incoherent = _axial_sums(field, [pz])
        num = abs(coherent[0]) ** 2
        den = incoherent[0] ** 2
    else:
        r = _element_distances(*field.grid.meshgrid(), (px, py, pz))
        w = field.weights
        num = np.abs(np.sum(w * np.exp(-1j * field.grid.wavenumber * r) / r)) ** 2
        den = np.sum(np.abs(w) / r) ** 2
    if den == 0.0:
        raise ValueError("aperture field carries no power")
    return float(num / den)


# the three roles of a gain curve, one wavefront of each kind, in its CSV column order
GAIN_CURVE_KINDS = ("beamforming", "beamfocusing", "bessel")


def _check_one_of_each_kind(wavefronts: Sequence[WavefrontSpec]) -> None:
    """Refuse wavefronts that are not one of each kind of ``GAIN_CURVE_KINDS``."""
    kinds = sorted(s.kind for s in wavefronts)
    if kinds != sorted(GAIN_CURVE_KINDS):
        raise ValueError(f"a gain curve takes exactly one wavefront of each kind "
                         f"{', '.join(GAIN_CURVE_KINDS)}; got {', '.join(kinds)}")


def _check_no_spiral(wavefronts: Sequence[WavefrontSpec]) -> None:
    """Refuse a spiral overlay, which nulls the axis, the only place a gain curve looks."""
    if any(s.oam_mode != 0 for s in wavefronts):
        raise ValueError("a spiral overlay nulls the axis: the axial gain is not defined")


@dataclass(frozen=True)
class GainCurve:
    """Per-wavefront normalized gain along the axis.

    ``gain`` holds the curves as plotted: each wavefront is referred to its
    attainable coherence maximum, so the beamfocusing and beamforming
    curves are the raw coherence factor (their maximum, 1, is attained at
    the focus and in the far field respectively) while the Bessel curve is
    scaled by its peak over the sweep.  ``raw_gain`` keeps the unscaled
    coherence factors.
    """

    distances: np.ndarray
    gain: dict[str, np.ndarray]
    raw_gain: dict[str, np.ndarray]
    focal_length: float
    bessel_peak_distance: float

    def __post_init__(self):
        for label, values in self.gain.items():
            if not np.all((values >= 0) & (values <= 1 + 1e-9)):  # NaN fails both
                raise ValueError(f"{label} gain leaves [0, 1]: range "
                                 f"[{values.min():g}, {values.max():g}]")


def gain_curve(
    grid: ApertureGrid,
    wavefronts: Sequence[WavefrontSpec],
    distances: Sequence[float],
) -> GainCurve:
    """Axial normalized-gain curves of one broadside wavefront of each kind in
    ``GAIN_CURVE_KINDS``.

    Each curve is that of ``synthesize_field(grid, spec)``, so a spec's
    taper and quantization act on its own curve.  A spiral overlay nulls the
    axis, so a spec with a nonzero ``oam_mode`` is refused.  A
    ``beamfocusing`` spec with ``focal_length=None`` is focused at the
    distance where the Bessel curve peaks, which makes the two curves meet
    there.
    """
    zs = np.asarray(distances, dtype=float)
    if zs.size == 0:
        raise ValueError("distances must not be empty")
    if np.any(zs <= 0) or np.any(np.diff(zs) <= 0):
        raise ValueError("distances must be positive and strictly increasing")
    _check_no_spiral(wavefronts)
    _check_one_of_each_kind(wavefronts)
    specs = {s.kind: s for s in wavefronts}

    def curve_for(spec: WavefrontSpec) -> np.ndarray:
        fld = synthesize_field(grid, spec)
        return np.array([normalized_gain(fld, (0.0, 0.0, z)) for z in zs])

    raw = {"bessel": curve_for(specs["bessel"])}
    bessel_peak_z = float(zs[int(np.argmax(raw["bessel"]))])
    focal = specs["beamfocusing"].focal_length
    focal = bessel_peak_z if focal is None else focal
    raw["beamfocusing"] = curve_for(replace(specs["beamfocusing"], focal_length=focal))
    raw["beamforming"] = curve_for(specs["beamforming"])

    # beamfocusing and beamforming attain 1 (at the focus, in the far field); the
    # Bessel curve is scaled by its peak
    gain = {label: values.copy() for label, values in raw.items()}
    if raw["bessel"].max() > 0:
        gain["bessel"] = raw["bessel"] / raw["bessel"].max()

    return GainCurve(zs, gain, raw, focal, bessel_peak_z)


def fraunhofer_distance(aperture_extent: float, wavelength: float) -> float:
    """Conventional near/far-field boundary 2*D^2/lambda."""
    if aperture_extent <= 0 or wavelength <= 0:
        raise ValueError("aperture extent and wavelength must be positive")
    return 2.0 * aperture_extent**2 / wavelength


def aperture_gain_dbi(area: float, wavelength: float) -> float:
    """Nominal aperture gain 10*log10(4*pi*A/lambda^2)."""
    if area <= 0 or wavelength <= 0:
        raise ValueError("area and wavelength must be positive")
    return 10.0 * math.log10(4.0 * math.pi * area / wavelength**2)


@dataclass(frozen=True)
class BeamStats:
    """Peak position/intensity, FWHM and ring count of a transverse slice."""

    peak_position: tuple[float, float]
    peak_intensity: float
    fwhm: float
    ring_count: int


def _cut_fwhm(coords: np.ndarray, intensity: np.ndarray, peak_idx: int) -> float | None:
    """Half-max width around a peak along one cut, by linear interpolation."""
    half = intensity[peak_idx] / 2.0
    left = None
    for i in range(peak_idx, 0, -1):
        if intensity[i - 1] <= half <= intensity[i]:
            frac = (intensity[i] - half) / (intensity[i] - intensity[i - 1])
            left = coords[i] - frac * (coords[i] - coords[i - 1])
            break
    right = None
    for i in range(peak_idx, intensity.size - 1):
        if intensity[i + 1] <= half <= intensity[i]:
            frac = (intensity[i] - half) / (intensity[i] - intensity[i + 1])
            right = coords[i] + frac * (coords[i + 1] - coords[i])
            break
    if left is None or right is None:
        return None
    return float(right - left)


# a ring counts only above this level relative to the peak, which keeps numerical ripple out
_RING_FLOOR_DB = -20.0


def beam_profile_stats(slice_: FieldSlice) -> BeamStats:
    """Peak, interpolated FWHM and ring count of a slice.

    The FWHM averages the two principal cuts through the peak.  Rings are
    local maxima along the +x cut from the peak, at or above
    ``_RING_FLOOR_DB`` (-20 dB) relative to the peak.
    """
    intensity = slice_.layout.unfold(slice_.intensity())
    if intensity.size == 0 or intensity.max() <= 0.0:
        raise NoBeamError("slice carries no power")
    iy, ix = np.unravel_index(int(np.argmax(intensity)), intensity.shape)
    coords = slice_.axis_coordinates()
    peak_val = float(intensity[iy, ix])

    widths = []
    for cut, idx in ((intensity[iy, :], ix), (intensity[:, ix], iy)):
        w = _cut_fwhm(coords, cut, idx)
        if w is not None:
            widths.append(w)
    if not widths:
        raise NoBeamError("no half-maximum crossing found; slice has no isolated peak")

    floor = peak_val * 10.0 ** (_RING_FLOOR_DB / 10.0)
    cut = intensity[iy, ix:]
    rings = 0
    for i in range(1, cut.size - 1):
        if cut[i] > cut[i - 1] and cut[i] > cut[i + 1] and cut[i] >= floor:
            rings += 1
    return BeamStats(
        peak_position=(float(coords[ix]), float(coords[iy])),
        peak_intensity=peak_val,
        fwhm=float(np.mean(widths)),
        ring_count=rings,
    )


def self_healing_correlation(blocked: FieldSlice, reference: FieldSlice) -> float:
    """Normalized cross-correlation of two intensity patterns, in [0, 1]."""
    if blocked.layout.side != reference.layout.side:
        raise ValueError(f"slice sides differ: {blocked.layout.side} vs {reference.layout.side}")
    if abs(blocked.z - reference.z) > 1e-9 * max(1.0, abs(reference.z)):
        raise ValueError(f"slices lie at different planes: {blocked.z} vs {reference.z}")
    # both as blocks of the axes along which both are even
    even = tuple(b and r for b, r in zip(blocked.even, reference.even))
    ib, ir = (s._widened(even).intensity() for s in (blocked, reference))
    return _intensity_correlation(ib, ir, replace(reference.layout, even=even).multiplicity())


def _intensity_correlation(ib: np.ndarray, ir: np.ndarray, weights) -> float:
    """``self_healing_correlation`` of two planes given as the intensities of their blocks,
    each block sample standing for ``weights`` samples of the plane (1, 2 or 4, exact
    factors)."""
    wb, wr = (np.multiply(i, weights).ravel() for i in (ib, ir))
    ib, ir = ib.ravel(), ir.ravel()
    # einsum, not np.dot or np.linalg.norm: a BLAS dot splits its sum by the BLAS thread count
    denom = np.sqrt(np.einsum("i,i->", wb, ib)) * np.sqrt(np.einsum("i,i->", wr, ir))
    if denom == 0.0:
        raise NoBeamError("cannot correlate empty intensity patterns")
    return float(np.einsum("i,i->", wb, ir) / denom)


def _disc_correlation(ib: np.ndarray, ir: np.ndarray, layout, radius: float) -> float:
    """``_intensity_correlation`` of two intensity blocks laid out as ``layout`` over the
    centred disc of ``radius``.

    A sample lies in the disc when x^2 + y^2 <= radius^2, and only the disc's
    bounding box is read; the samples outside the disc count as zero.
    """
    y_sq, x_sq = (c**2 for c in layout.block_axes())
    rows, cols = _span(y_sq <= radius**2), _span(x_sq <= radius**2)  # the lines reaching it
    inside = x_sq[cols][None, :] + y_sq[rows][:, None] <= radius**2
    return _intensity_correlation(np.where(inside, ib[rows, cols], 0.0),
                                  np.where(inside, ir[rows, cols], 0.0),
                                  layout.multiplicity()[rows, cols])
