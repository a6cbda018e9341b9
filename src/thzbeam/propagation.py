"""Scalar near-field propagation of aperture fields.

Two engines share one convention (outgoing waves ``exp(-1j*k*r)/r``):

* ``propagate_direct`` — brute-force Huygens summation over every element,
  exact by construction; it is the oracle every other path is tested
  against.
* ``propagate_asm`` — spectral propagation on a zero-padded grid.  From an
  ``ApertureField`` (discrete point sources) the transfer function is the
  FFT of the sampled spherical-wave kernel, which reproduces the direct
  summation on the padded plane; from a ``FieldSlice`` (sampled continuum
  field) the analytic angular-spectrum transfer function
  ``exp(-1j*z*sqrt(k^2-kx^2-ky^2))`` is used, band-limited against
  wrap-around and with evanescent components zeroed.

Results are order-stable: identical inputs give bit-identical outputs.  The
FFTs run on ``numpy.fft`` (pocketfft, the code ``scipy.fft`` runs), one
axis at a time in the order ``scipy.fft.fft2`` and ``ifft2`` take and with
their scaling step, so every transform equals scipy's bit for bit; the
tests keep scipy as the reference.  Inside an ``fft_workers(n)`` block
(``--threads`` on the command line) each axis pass is split into line
blocks on up to n threads, which does not change a single bit either.

Inside a ``reuse_spectra()`` block each kernel spectrum and transfer
function is built once and shared, read-only, by every hop that needs it;
outside one, every hop builds its own.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import numpy.fft  # numpy loads it lazily; here it is paid at import, not in the first hop

from .aperture import ApertureField, ObstacleSpec, make_obstacle_mask
from .errors import SamplingError

__all__ = [
    "FieldSlice",
    "PropagationPlan",
    "propagate_asm",
    "propagate_slice",
    "propagate_direct",
    "propagate_with_obstacles",
    "reuse_spectra",
    "fft_workers",
]


@dataclass(frozen=True)
class FieldSlice:
    """Complex field samples on a transverse plane at distance z."""

    z: float
    samples: np.ndarray
    sample_pitch: float

    def __post_init__(self):
        if self.sample_pitch <= 0:
            raise ValueError(f"sample_pitch must be positive, got {self.sample_pitch}")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))

    @property
    def power(self) -> float:
        """sum(|s|^2) * pitch^2."""
        return float(np.sum(np.abs(self.samples) ** 2) * self.sample_pitch**2)

    @property
    def extent(self) -> float:
        return self.samples.shape[0] * self.sample_pitch

    def axis_coordinates(self) -> np.ndarray:
        n = self.samples.shape[0]
        return (np.arange(n) - (n - 1) / 2.0) * self.sample_pitch

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.axis_coordinates()
        return np.meshgrid(x, x, indexing="xy")

    def intensity(self) -> np.ndarray:
        return np.abs(self.samples) ** 2


@dataclass(frozen=True)
class PropagationPlan:
    """Knobs for spectral propagation."""

    pad_factor: float = 2.0
    band_limit: bool = True

    def __post_init__(self):
        if not 1.0 <= self.pad_factor <= 8.0:
            raise ValueError(f"pad_factor must be in [1, 8], got {self.pad_factor}")


DEFAULT_PLAN = PropagationPlan()


# ---------------------------------------------------------------------------
# FFTs


_WORKERS: contextvars.ContextVar[int] = contextvars.ContextVar("fft_workers", default=1)


@contextlib.contextmanager
def fft_workers(n: int):
    """Run the FFTs inside the block on up to n threads.

    Each axis pass is split into contiguous blocks of lines, one per
    thread; numpy releases the GIL while it transforms them.  Every line
    gets the same transform, so the output is bit-identical for every n.
    No pass starts more threads than ``os.cpu_count()`` or than it has
    lines.
    """
    if n < 1:
        raise ValueError(f"fft_workers needs at least 1 worker, got {n}")
    token = _WORKERS.set(n)
    try:
        yield
    finally:
        _WORKERS.reset(token)


def _line_blocks(lines: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) blocks of ``lines``, one per thread a pass may start."""
    count = min(workers, os.cpu_count() or 1, lines)
    bounds = [lines * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _fft_pass(a: np.ndarray, axis: int, inverse: bool = False) -> None:
    """Unscaled in-place FFT (or inverse FFT) of every line of 2-D ``a`` along ``axis``."""
    transform = functools.partial(np.fft.ifft if inverse else np.fft.fft, axis=axis,
                                  norm="forward" if inverse else "backward")
    blocks = _line_blocks(a.shape[1 - axis], _WORKERS.get())
    if len(blocks) == 1:
        transform(a, out=a)
        return
    from concurrent.futures import ThreadPoolExecutor

    def run(block):
        part = a[:, block[0] : block[1]] if axis == 0 else a[block[0] : block[1]]
        transform(part, out=part)

    with ThreadPoolExecutor(len(blocks)) as pool:
        list(pool.map(run, blocks))  # reads every result, so a failed block raises


def _fft2(a: np.ndarray) -> np.ndarray:
    """``scipy.fft.fft2(a, overwrite_x=True)``, bit for bit: axis 0, then axis 1, in place."""
    _fft_pass(a, 0)
    _fft_pass(a, 1)
    return a


def _ifft2(a: np.ndarray) -> np.ndarray:
    """``scipy.fft.ifft2(a, overwrite_x=True)``, bit for bit, in place.

    pocketfft scales by 1/(n0*n1) after the first pass, multiplying each
    real and imaginary part by the real factor; a complex multiply would
    flip the sign of some zeros.
    """
    _fft_pass(a, 0, inverse=True)
    parts = a.view(np.float64)
    np.multiply(parts, 1.0 / a.size, out=parts)
    _fft_pass(a, 1, inverse=True)
    return a


def _next_fast_len(target: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= target, as ``scipy.fft.next_fast_len``."""
    best = 1 << (target - 1).bit_length()  # the power of two
    odd = [1]  # the odd 11-smooth numbers below it
    for p in (3, 5, 7, 11):
        for m in odd[:]:
            m *= p
            while m < best:
                odd.append(m)
                m *= p
    return min(m << ((target - 1) // m).bit_length() for m in odd)


def _padded_size(n: int, pad_factor: float) -> int:
    """FFT-friendly padded size with the same parity as n.

    Matching parity keeps the aperture exactly centred on the padded grid,
    which preserves the inversion symmetry that centred masks and OAM
    receivers rely on.
    """
    m = _next_fast_len(int(math.ceil(n * pad_factor)))
    while (m - n) % 2:
        m = _next_fast_len(m + 1)
    return m


def _padded_fft2(samples: np.ndarray, npad: int) -> np.ndarray:
    """``scipy.fft.fft2`` of ``samples`` centred on an npad-square zero grid, bit for bit.

    The columns the padding adds are all zero, and so is their transform,
    so the axis-0 pass runs on the n sample columns only.
    """
    n = samples.shape[0]
    out = np.zeros((npad, npad), dtype=complex)
    lo = (npad - n) // 2
    out[lo : lo + n, lo : lo + n] = samples
    _fft_pass(out[:, lo : lo + n], 0)
    _fft_pass(out, 1)
    return out


def _mirror(q: np.ndarray, npad: int) -> np.ndarray:
    """FFT-ordered npad-by-npad grid of an even function from its quadrant.

    ``q`` holds the (npad//2+1)-square block of non-negative indices; entry
    m > npad//2 of either axis takes the value at npad - m.
    """
    h = npad // 2
    tail = slice(npad - h - 1, 0, -1)  # npad - m for m = h+1 .. npad-1
    out = np.empty((npad, npad), dtype=q.dtype)
    out[: h + 1, : h + 1] = q
    out[: h + 1, h + 1 :] = q[:, tail]
    out[h + 1 :] = out[tail]
    return out


def _kernel_spectrum(npad: int, pitch: float, k: float, z: float) -> np.ndarray:
    """FFT of the sampled spherical-wave kernel exp(-1j*k*r)/r at hop z.

    The kernel depends on the sample offsets only through dx^2 and dy^2, so
    one quadrant is evaluated and mirrored.
    """
    d_sq = (np.arange(npad // 2 + 1) * pitch) ** 2
    r = np.sqrt(d_sq[None, :] + d_sq[:, None] + z * z)
    return _fft2(_mirror(np.exp(-1j * k * r) / r, npad))


def _check_window_supports_distance(npad: int, pitch: float, lam: float, z: float) -> float:
    """The band limit f_limit [cycles/m] of a hop; reject it if it collapses on this window."""
    extent = npad * pitch
    f_limit = 1.0 / (lam * math.sqrt((2.0 * z / extent) ** 2 + 1.0))
    if f_limit < 1.0 / extent:
        grow = math.ceil(4.0 * math.sqrt(2.0 * z * lam) / extent)
        raise SamplingError(
            f"padded window {extent:g} m cannot carry the field to z = {z:g} m "
            f"(band limit {f_limit:g} cycles/m below one bin {1.0 / extent:g})",
            required_pad_factor=max(2, grow),
        )
    return f_limit


def _analytic_transfer(npad: int, pitch: float, k: float, dz: float, plan: PropagationPlan) -> np.ndarray:
    """Band-limited angular-spectrum transfer function for a field hop.

    H and its band-limit mask depend on kx^2 and ky^2 only, so one quadrant
    of non-negative frequencies is evaluated and mirrored.
    """
    if plan.band_limit:
        f_limit = _check_window_supports_distance(npad, pitch, 2.0 * np.pi / k, dz)
    kx = 2.0 * np.pi * np.abs(np.fft.fftfreq(npad, d=pitch)[: npad // 2 + 1])
    kx_sq = kx * kx
    kz_sq = k * k - kx_sq[None, :] - kx_sq[:, None]
    prop = kz_sq > 0.0
    kz = np.sqrt(np.where(prop, kz_sq, 0.0))
    H = np.where(prop, np.exp(-1j * dz * kz), 0.0 + 0.0j)
    if plan.band_limit:
        inside = kx <= 2.0 * np.pi * f_limit
        H = H * (inside[None, :] & inside[:, None])
    return _mirror(H, npad)


_SPECTRA: contextvars.ContextVar[dict | None] = contextvars.ContextVar("spectra", default=None)


@contextlib.contextmanager
def reuse_spectra():
    """Build each kernel spectrum and transfer function once within the block.

    Every hop inside the block that needs a spectrum already built in it
    (same kind, padded size, pitch, wavenumber, distance and, for transfer
    functions, the band-limit flag) shares that array, which is read-only.
    A nested block shares the outer block's spectra.  They are released
    when the outermost block ends; the scope is kept to one study block
    because one spectrum takes 16 * npad^2 bytes (182 MB at npad 3375).
    """
    if _SPECTRA.get() is not None:
        yield
        return
    token = _SPECTRA.set({})
    try:
        yield
    finally:
        _SPECTRA.reset(token)


def _spectrum(key: tuple, build) -> np.ndarray:
    """``build()``, or inside ``reuse_spectra`` the array already built for ``key``."""
    memo = _SPECTRA.get()
    if memo is None:
        return build()
    spectrum = memo.get(key)
    if spectrum is None:
        spectrum = build()
        spectrum.setflags(write=False)
        memo[key] = spectrum
    return spectrum


def _apply(spectrum: np.ndarray, samples: np.ndarray, npad: int) -> np.ndarray:
    """ifft2(spectrum * fft2(samples zero-padded to npad)).

    The product is formed in the operand order spectrum * field spectrum:
    numpy's complex multiply is not bitwise commutative, and the artifacts
    are pinned to this order.
    """
    spec = _padded_fft2(samples, npad)
    np.multiply(spectrum, spec, out=spec)
    return _ifft2(spec)


def propagate_slice(field: FieldSlice, dz: float, plan: PropagationPlan | None = None,
                    wavelength: float | None = None) -> FieldSlice:
    """Propagate a sampled continuum field by dz with the analytic transfer.

    ``wavelength`` must be supplied (slices do not carry the carrier).
    """
    plan = plan or DEFAULT_PLAN
    if wavelength is None or wavelength <= 0:
        raise ValueError("propagate_slice needs the positive carrier wavelength")
    if dz < 0:
        raise ValueError(f"propagation step must be non-negative, got {dz}")
    n = field.samples.shape[0]
    npad = _padded_size(n, plan.pad_factor)
    k = 2.0 * np.pi / wavelength
    pitch = field.sample_pitch
    H = _spectrum(("transfer", npad, pitch, k, dz, plan.band_limit),
                  lambda: _analytic_transfer(npad, pitch, k, dz, plan))
    return FieldSlice(field.z + dz, _apply(H, field.samples, npad), pitch)


def propagate_asm(field: ApertureField, z: float, plan: PropagationPlan | None = None) -> FieldSlice:
    """Propagate an aperture of point sources to the plane at distance z.

    The returned slice covers the padded plane (pad_factor times the
    aperture) in the oracle's physical units: a single unit element yields
    ``exp(-1j*k*r)/r`` samples.
    """
    plan = plan or DEFAULT_PLAN
    if not (z > 0 and math.isfinite(z)):
        raise ValueError(f"propagation distance must be positive and finite, got {z}")
    n = field.grid.elements_per_side
    pitch = field.grid.element_pitch
    npad = _padded_size(n, plan.pad_factor)
    if plan.band_limit:
        _check_window_supports_distance(npad, pitch, field.grid.wavelength, z)
    k = field.grid.wavenumber
    K = _spectrum(("kernel", npad, pitch, k, z), lambda: _kernel_spectrum(npad, pitch, k, z))
    return FieldSlice(z, _apply(K, field.weights, npad), pitch)


def propagate_direct(field: ApertureField, points: Sequence[Sequence[float]]) -> np.ndarray:
    """Exact spherical-wave sum at arbitrary points: E = sum w*exp(-1j*k*r)/r.

    Serves as the oracle for every other propagator.
    """
    X, Y = field.grid.meshgrid()
    k = field.grid.wavenumber
    w = field.weights
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ValueError(f"points must be (x, y, z) triples, got shape {pts.shape}")
    if np.any(pts[:, 2] <= 0):
        raise ValueError("all evaluation points must have z > 0")
    out = np.empty(pts.shape[0], dtype=complex)
    for i, (px, py, pz) in enumerate(pts):
        r = np.sqrt((X - px) ** 2 + (Y - py) ** 2 + pz * pz)
        if np.any(r == 0.0):
            raise ValueError(f"evaluation point {(px, py, pz)} coincides with an element")
        out[i] = np.sum(w * np.exp(-1j * k * r) / r)
    return out


def _is_identity_mask(values: np.ndarray) -> bool:
    return bool(np.all(values == 1.0))


def propagate_with_obstacles(
    field: ApertureField,
    obstacles: Sequence[ObstacleSpec],
    z_target: float,
    plan: PropagationPlan | None = None,
) -> FieldSlice:
    """Hop the field through opaque obstacle planes to z_target.

    The aperture hop uses the point-source kernel; hops between obstacle
    planes propagate the masked continuum field with the analytic transfer
    function.  Obstacles whose mask is the identity are skipped; a
    footprint beyond the propagated plane raises GeometryError from
    ``make_obstacle_mask``.
    """
    plan = plan or DEFAULT_PLAN
    if z_target <= 0:
        raise ValueError(f"z_target must be positive, got {z_target}")
    obs = list(obstacles)
    zs = [o.plane_z for o in obs]
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError(f"obstacle planes must be strictly increasing, got {zs}")
    if any(z >= z_target for z in zs):
        raise ValueError(f"obstacle planes {zs} must lie before z_target {z_target}")

    lam = field.grid.wavelength
    # the aperture hop pads once; later hops stay on that grid
    hop_plan = replace(plan, pad_factor=1.0)
    current: FieldSlice | None = None
    for ob in obs:
        if current is None:
            candidate = propagate_asm(field, ob.plane_z, plan)
        else:
            candidate = propagate_slice(current, ob.plane_z - current.z, hop_plan, wavelength=lam)
        mask = make_obstacle_mask(candidate, ob)
        if _is_identity_mask(mask.values):
            continue
        current = FieldSlice(candidate.z, candidate.samples * mask.values, candidate.sample_pitch)
    if current is None:
        return propagate_asm(field, z_target, plan)
    return propagate_slice(current, z_target - current.z, hop_plan, wavelength=lam)


@functools.lru_cache(maxsize=4)
def _axial_bins(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct s = (2i-(n-1))^2 + (2j-(n-1))^2 of an n-by-n grid, and each element's bin.

    Element (i, j) sits at squared distance s * pitch^2 / 4 from the array
    axis, so every on-axis distance depends on the element only through s.
    The arrays are shared by every caller and are therefore read-only.
    """
    u = (2 * np.arange(n, dtype=np.int64) - (n - 1)) ** 2
    values, inverse = np.unique(u[:, None] + u[None, :], return_inverse=True)
    inverse = inverse.ravel()
    values.setflags(write=False)
    inverse.setflags(write=False)
    return values, inverse


def _axial_sums(field: ApertureField, z_values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Exact on-axis sums, sum w*exp(-1j*k*r)/r and sum |w|/r, at each z > 0.

    The weights are binned by their element's distance from the axis first,
    so each distance costs one sum over the distinct radii (36,358 at
    n = 667) instead of one over every element (444,889).
    """
    s, inverse = _axial_bins(field.grid.elements_per_side)
    w = field.weights.ravel()
    w_bins = np.zeros(s.size, dtype=complex)
    np.add.at(w_bins, inverse, w)  # in element order, as bincount adds each component
    abs_bins = np.bincount(inverse, weights=np.abs(w), minlength=s.size)
    rho_sq = s * (field.grid.element_pitch**2 / 4.0)
    k = field.grid.wavenumber
    coherent = np.empty(len(z_values), dtype=complex)
    incoherent = np.empty(len(z_values))
    for i, z in enumerate(z_values):
        r = np.sqrt(rho_sq + z * z)
        coherent[i] = np.sum(w_bins * np.exp(-1j * k * r) / r)
        incoherent[i] = np.sum(abs_bins / r)
    return coherent, incoherent
