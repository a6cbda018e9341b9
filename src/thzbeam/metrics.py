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

from .aperture import ApertureGrid, WavefrontSpec, synthesize_field
from .errors import NoBeamError
from .propagation import FieldSlice, _axial_sums

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
        X, Y = field.grid.meshgrid()
        r = np.sqrt((X - px) ** 2 + (Y - py) ** 2 + pz * pz)
        if np.any(r == 0.0):
            raise ValueError(f"evaluation point {(px, py, pz)} coincides with an element")
        w = field.weights
        num = np.abs(np.sum(w * np.exp(-1j * field.grid.wavenumber * r) / r)) ** 2
        den = np.sum(np.abs(w) / r) ** 2
    if den == 0.0:
        raise ValueError("aperture field carries no power")
    return float(num / den)


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
    focal_length: float | None = None
    bessel_peak_distance: float | None = None

    def __post_init__(self):
        for label, values in self.gain.items():
            if np.any(values < 0) or np.any(values > 1 + 1e-9):
                raise ValueError(f"{label} gain leaves [0, 1]: range "
                                 f"[{values.min():g}, {values.max():g}]")


def gain_curve(
    grid: ApertureGrid,
    wavefronts: Sequence[WavefrontSpec],
    distances: Sequence[float],
) -> GainCurve:
    """Axial normalized-gain curves for a set of broadside wavefronts.

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

    specs = {s.kind: s for s in wavefronts}
    if len(specs) != len(wavefronts):
        raise ValueError("duplicate wavefront kinds in gain curve request")
    if any(s.oam_mode != 0 for s in wavefronts):
        raise ValueError("a spiral overlay nulls the axis: the axial gain is not defined")

    def curve_for(spec: WavefrontSpec) -> np.ndarray:
        fld = synthesize_field(grid, spec)
        return np.array([normalized_gain(fld, (0.0, 0.0, z)) for z in zs])

    raw: dict[str, np.ndarray] = {}
    bessel_peak_z = None
    if "bessel" in specs:
        raw["bessel"] = curve_for(specs["bessel"])
        bessel_peak_z = float(zs[int(np.argmax(raw["bessel"]))])

    focal = None
    if "beamfocusing" in specs:
        focal = specs["beamfocusing"].focal_length
        if focal is None and bessel_peak_z is None:
            raise ValueError(
                "beamfocusing focal_length=None requires a bessel wavefront to peak against"
            )
        focal = bessel_peak_z if focal is None else focal
        raw["beamfocusing"] = curve_for(replace(specs["beamfocusing"], focal_length=focal))
    if "beamforming" in specs:
        raw["beamforming"] = curve_for(specs["beamforming"])

    # beamfocusing and beamforming attain 1 (at the focus, in the far field); the
    # Bessel curve is scaled by its peak
    gain = {label: values.copy() for label, values in raw.items()}
    if bessel_peak_z is not None and raw["bessel"].max() > 0:
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


def beam_profile_stats(slice_: FieldSlice, ring_floor_db: float = -20.0) -> BeamStats:
    """Peak, interpolated FWHM and ring count of a slice.

    The FWHM averages the two principal cuts through the peak.  Rings are
    local maxima along the +x cut from the peak, above ``ring_floor_db``
    relative to the peak (the floor keeps numerical ripple out).
    """
    intensity = slice_.intensity()
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

    floor = peak_val * 10.0 ** (ring_floor_db / 10.0)
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
    if blocked.samples.shape != reference.samples.shape:
        raise ValueError(
            f"slice shapes differ: {blocked.samples.shape} vs {reference.samples.shape}"
        )
    if abs(blocked.z - reference.z) > 1e-9 * max(1.0, abs(reference.z)):
        raise ValueError(f"slices lie at different planes: {blocked.z} vs {reference.z}")
    ib = blocked.intensity().ravel()
    ir = reference.intensity().ravel()
    denom = np.linalg.norm(ib) * np.linalg.norm(ir)
    if denom == 0.0:
        raise NoBeamError("cannot correlate empty intensity patterns")
    return float(np.dot(ib, ir) / denom)
