"""Scalar near-field propagation of aperture fields.

Two engines share one convention (outgoing waves ``exp(-1j*k*r)/r``):

* ``propagate_direct`` — brute-force Huygens summation over every element,
  exact by construction; it is the oracle every other path is tested
  against.
* ``propagate_asm`` and ``propagate_slice`` — spectral propagation on a
  zero-padded grid whose side is ``pad_factor`` (1 to 8, by default 2)
  times the field's.  ``propagate_asm`` hops an ``ApertureField`` (discrete
  point sources) by the FFT of the sampled spherical-wave kernel.  The
  convolution is circular on the npad-square padded plane, so a sample
  at d samples from its centre along each axis reproduces the direct
  summation only where |d| <= (npad - n)/2: at pad 2, the central n-by-n
  window.  Beyond it the kernel wraps round.  ``propagate_slice`` hops a
  ``FieldSlice`` (sampled continuum field) by the analytic angular-spectrum
  transfer function ``exp(-1j*z*sqrt(k^2-kx^2-ky^2))``, always
  band-limited against wrap-around (Matsushima & Shimobaba, Opt. Express
  17(22), 2009) and with evanescent components zeroed.

Results are order-stable: identical inputs give bit-identical outputs.  The
FFTs run on ``numpy.fft`` (pocketfft, the code ``scipy.fft`` runs), one
axis at a time in the order ``scipy.fft.fft2`` and ``ifft2`` take and with
their scaling step, so every transform equals scipy's bit for bit; the
tests keep scipy as the reference.  Work runs on threads through one map,
``_thread_map``: one thread per CPU this process may run on, never more
than it has tasks, and the bits of one thread, as every task makes the
same numpy calls on the same arrays.  An FFT pass over
``_THREADED_SAMPLES`` samples or more (the full-scale planes) maps blocks
of its lines; ``metrics.gain_curve`` maps its distances, at any size.

Both transfer functions are even in kx and ky, so each is built and kept
as its quadrant of non-negative frequencies, (npad//2+1)^2 values, and
applied to the field spectrum through mirrored views of it.  The mirror of
a quadrant is the FFT-ordered npad-square grid whose entry m > npad//2 on
either axis takes the value at npad - m; the mirrored kernel quadrant
differs from the kernel's full-grid FFT by round-off only.
Inside a ``reuse_spectra()`` block each quadrant is built once and shared,
read-only, by every hop that needs it; outside one, every hop builds its
own.

A field even about its centre along an axis, bit for bit, needs about
half the transform work along it, the idea of FFTW's real-even
transforms.  Aperture weights are tested per axis once per field, which
keeps the result (``ApertureField._even``): the unsteered beamforming,
beamfocusing and Bessel wavefronts are even along both, the caustic and
a beam steered in x along y.  Along an even axis the
forward transform runs on the distinct lines and keeps the spectrum
entries 0..npad//2; the inverse rebuilds the others from F[npad-m] =
exp(-2 pi i m/npad) F[m] and keeps the entries of non-negative
coordinate.  Each line still gets its whole length, staged a few lines at
a time, so the hop's buffers hold about npad * (npad//2 + 1) samples.  The
plane is even along that axis bit for bit and agrees with the full
transform to round-off, and the ``FieldSlice`` returned stores only its
block of non-negative coordinates: a quadrant when both axes are even.
How a block is laid out, cropped and mirrored back to its plane is
``aperture._Layout``, which this module imports.
``propagate_with_obstacles`` keeps the even axes its obstacle's mask keeps: a
disc keeps each axis its centre lies on, and a knife edge keeps y.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import numpy.fft  # numpy loads it lazily; here it is paid at import, not in the first hop

from .aperture import ApertureField, ObstacleSpec, _Layout, make_obstacle_mask
from .errors import SamplingError

__all__ = [
    "FieldSlice",
    "propagate_asm",
    "propagate_slice",
    "propagate_direct",
    "propagate_with_obstacles",
    "reuse_spectra",
]


@dataclass(frozen=True, init=False)
class FieldSlice:
    """Complex field samples on a transverse plane at distance z.

    ``FieldSlice(z, samples, sample_pitch)`` holds the square plane
    ``samples`` whole.  A hop whose plane is even about its centre along an
    axis, bit for bit, returns a slice that stores only its ``block`` of
    non-negative coordinates along each such axis (``_Layout``): a quadrant,
    or a half when one axis is even.  ``even`` (along y, along x) names those
    axes, and every study reads the block.  ``samples`` is the whole plane:
    the block itself when no axis is even, otherwise mirrored from it on
    first read, kept, and read-only.
    """

    z: float
    block: np.ndarray
    layout: _Layout

    def __init__(self, z: float, samples: np.ndarray, sample_pitch: float):
        if sample_pitch <= 0:
            raise ValueError(f"sample_pitch must be positive, got {sample_pitch}")
        samples = np.asarray(samples, dtype=complex)
        self._store(z, samples, _Layout(samples.shape[0], sample_pitch, (False, False)))

    @classmethod
    def _of_block(cls, z: float, block: np.ndarray, layout: _Layout) -> "FieldSlice":
        """The slice at z whose plane, laid out as ``layout``, has the block ``block``."""
        slice_ = cls.__new__(cls)
        slice_._store(z, block, layout)
        return slice_

    def _store(self, z: float, block: np.ndarray, layout: _Layout) -> None:
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "layout", layout)

    @property
    def sample_pitch(self) -> float:
        return self.layout.pitch

    @property
    def even(self) -> tuple[bool, bool]:
        return self.layout.even

    @functools.cached_property
    def samples(self) -> np.ndarray:
        """The whole plane."""
        plane = self.layout.unfold(self.block)
        if plane is not self.block:
            plane.setflags(write=False)  # a copy: writing it would not reach the block
        return plane

    @property
    def power(self) -> float:
        """sum(|s|^2) * pitch^2 over the whole plane."""
        intensity = self.intensity()
        np.multiply(intensity, self.layout.multiplicity(), out=intensity)
        return float(np.sum(intensity) * self.sample_pitch**2)

    @property
    def extent(self) -> float:
        return self.layout.extent

    def axis_coordinates(self) -> np.ndarray:
        return self.layout.axis_coordinates()

    def block_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The coordinates of the block's rows (y) and columns (x)."""
        return self.layout.block_axes()

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.axis_coordinates()
        return np.meshgrid(x, x, indexing="xy")

    def intensity(self) -> np.ndarray:
        """|s|^2 of the block."""
        return np.abs(self.block) ** 2

    def _widened(self, even: tuple[bool, bool]) -> "FieldSlice":
        """The slice laid out as even along ``even`` only, each axis of which it is even
        along: the block mirrored along the axes dropped."""
        if even == self.even:
            return self
        return FieldSlice._of_block(self.z, self.layout.unfold(self.block, keep=even),
                                    replace(self.layout, even=even))


# the pad factors a hop takes are [1, _MAX_PAD_FACTOR]; a window check hints at none above it
_MAX_PAD_FACTOR = 8
# the pad factor of a hop that names none: the central n-by-n window equals the direct sum
_DEFAULT_PAD_FACTOR = 2.0


def _checked_pad_factor(pad_factor: float) -> float:
    """``pad_factor``, refused unless it lies in [1, 8] (NaN too)."""
    if not 1.0 <= pad_factor <= _MAX_PAD_FACTOR:
        raise ValueError(f"pad_factor must be in [1, {_MAX_PAD_FACTOR}], got {pad_factor}")
    return pad_factor


def _check_distance(z: float) -> None:
    """Refuse a hop distance that is not positive and finite (NaN too)."""
    if not (z > 0 and math.isfinite(z)):
        raise ValueError(f"propagation distance must be positive and finite, got {z}")


# ---------------------------------------------------------------------------
# FFTs


# An FFT pass over fewer samples runs as one block.  On a 2-core host an _fft2 + _ifft2
# pair took 0.97-1.13 times its one-thread time on two threads at npad 1125, and 0.54-0.65
# times at npad 2250 and 3375; the passes of full-scale fig4 hold 5.6 M to 11.4 M samples.
_THREADED_SAMPLES = 2048 * 2048


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _line_blocks(lines: int, samples: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) blocks of ``lines``, one per thread a pass of ``samples`` starts.

    Every line gets the same transform, so the output is bit-identical for
    every split.
    """
    count = min(_cpus(), lines) if samples >= _THREADED_SAMPLES else 1
    bounds = [lines * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _thread_map(fn, items: Sequence) -> list:
    """``[fn(x) for x in items]``, in item order, on ``min(_cpus(), len(items))`` threads;
    with one CPU or one item, in the calling thread.  A task that raises raises here, once
    every thread has ended."""
    threads = min(_cpus(), len(items))
    if threads <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # numpy releases the GIL in its loops

    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, items))


def _in_blocks(lines: int, samples: int, run) -> None:
    """``run(start, stop)`` on each block of ``_line_blocks(lines, samples)``, one thread
    per block when there are several; a failed block raises."""
    _thread_map(lambda block: run(*block), _line_blocks(lines, samples))


def _transform(a: np.ndarray, axis: int, inverse: bool = False) -> None:
    """Unscaled in-place FFT (or inverse FFT) of every line of 2-D ``a`` along ``axis``, on
    the calling thread."""
    if inverse:
        np.fft.ifft(a, axis=axis, norm="forward", out=a)
    else:
        np.fft.fft(a, axis=axis, out=a)


def _fft_pass(a: np.ndarray, axis: int, inverse: bool = False) -> None:
    """``_transform`` of ``a``, its lines split into ``_line_blocks``."""
    def run(start, stop):
        _transform(a[:, start:stop] if axis == 0 else a[start:stop], axis, inverse)

    _in_blocks(a.shape[1 - axis], a.size, run)


# an even pass stages its lines, full length, through arrays of about this many samples
_STAGED_SAMPLES = 1 << 15


def _even_pass(src: np.ndarray, dst: np.ndarray, npad: int, axis: int, inverse: bool = False,
               centred: bool = True) -> None:
    """Transform the lines along ``axis`` of a plane npad long there and even along it,
    holding only the entries each line keeps.

    Forward, each line of ``src`` holds its entries npad//2, npad//2 + 1, ...
    of non-negative coordinate (even about the centre), zero-padded to
    npad - npad//2; or, not ``centred``, its entries 0..npad//2 in FFT order,
    entry m > npad//2 being entry npad - m.  The line is mirrored to its
    full length, and ``dst`` gets its spectrum entries 0..npad//2.  Inverse,
    ``src`` holds spectrum entries 0..npad//2, the rest are rebuilt
    (``_rebuild_tail``), and ``dst`` gets entries npad//2 .. npad-1 of the
    line.  The lines go through staging arrays a few at a time, each line
    contiguous and whole, so every transform sees the line it would see in
    the full plane; ``dst`` may be ``src`` or a part of it, as each group of
    lines is read before it is written.
    """
    h = npad // 2
    src, dst = (src, dst) if axis == 0 else (src.T, dst.T)  # lines along axis 0
    per_stage = max(1, _STAGED_SAMPLES // npad)

    def run(start, stop):
        for lo in range(start, stop, per_stage):
            hi = min(lo + per_stage, stop)
            stage = np.empty((hi - lo, npad), dtype=complex)
            lines = stage.T  # line j of the group is the contiguous row stage[j]
            part = src[:, lo:hi]
            if inverse or not centred:
                lines[: h + 1] = part
                if inverse:
                    _rebuild_tail(lines)
                else:
                    lines[h + 1 :] = part[_mirror_tail(npad)]
            else:  # entry m < npad//2 is entry npad-1-m, part's npad-1-h-m if it holds one
                pad = npad - h - part.shape[0]
                lines[h : npad - pad] = part
                lines[pad:h] = part[npad - 2 * h :][::-1]
                lines[npad - pad :] = lines[:pad] = 0.0
            _transform(stage, 1, inverse)
            dst[:, lo:hi] = lines[h:] if inverse else lines[: h + 1]

    _in_blocks(src.shape[1], npad * src.shape[1], run)


def _mirror_tail(npad: int) -> slice:
    """Indices npad - m for m = npad//2+1 .. npad-1, in that order: entry m of an
    FFT-ordered axis of npad entries mirrors entry npad - m."""
    return slice(npad - npad // 2 - 1, 0, -1)


@functools.lru_cache(maxsize=8)
def _twiddles(npad: int) -> np.ndarray:
    """omega^(npad-m), omega = exp(-2 pi i / npad), for m = npad//2+1 .. npad-1.

    A field even about the centre (npad-1)/2 of an axis has a spectrum with
    F[m] = omega^(npad-m) F[npad-m] along it.  Shared, so read-only.
    """
    w = np.exp(-2j * np.pi / npad * np.arange(npad)[_mirror_tail(npad)])
    w.setflags(write=False)
    return w


def _rebuild_tail(lines: np.ndarray) -> None:
    """Fill entries m > npad//2 along axis 0 of ``lines`` (npad long), the spectra of lines
    even about their centre, from the entries they mirror, times the twiddles.

    Where source and target share memory rows numpy copies the source
    first; ``lines`` is a staging group, so that copy is small.
    """
    npad = lines.shape[0]
    h = npad // 2
    np.multiply(_twiddles(npad)[:, None], lines[_mirror_tail(npad)], out=lines[h + 1 :])


def _fft2(block: np.ndarray, npad: int, even: tuple[bool, bool] = (False, False),
          n: int | None = None, overwrite: bool = False) -> np.ndarray:
    """The spectrum of the npad-square plane that holds an n-square field (n = npad by
    default) at its centre and zeros around it, the field given as its ``block`` laid out
    as ``_Layout`` does for ``even`` (along y, along x).

    Without an even axis this is ``scipy.fft.fft2`` of the plane, bit for bit:
    axis 0, then axis 1.  The axis-0 pass runs on the columns that hold the
    field only.  Along an even axis only the spectrum entries 0..npad//2
    are formed (``_even_pass``); ``_ifft2`` with the same flags reads no
    other.  Every entry formed equals the full transform's, bit for bit.  The
    spectrum is a new array, (npad//2 + 1 or npad) by (npad//2 + 1 or npad);
    with ``overwrite`` a C-contiguous block of the spectrum's shape is
    transformed in place instead.
    """
    n = npad if n is None else n
    h, lo = npad // 2, (npad - n) // 2
    ey, ex = even
    shape = (h + 1 if ey else npad, h + 1 if ex else npad)
    first = 2 * h + 1 - npad if ex else lo  # the spectrum column of the block's first column
    cols = slice(first, first + block.shape[1])
    if overwrite and n == npad and block.shape == shape and block.flags.c_contiguous:
        spec = block
    else:
        spec = np.zeros(shape, dtype=complex)
        if not ey:
            spec[lo : lo + n, cols] = block
    if ey:
        _even_pass(block, spec[:, cols], npad, 0, False)
    else:
        _fft_pass(spec[:, cols], 0)
    if ex:
        _even_pass(spec[:, 2 * h + 1 - npad :], spec, npad, 1, False)
    else:
        _fft_pass(spec, 1)
    return spec


def _ifft2(spec: np.ndarray, npad: int, even: tuple[bool, bool] = (False, False)) -> np.ndarray:
    """``scipy.fft.ifft2(spec, overwrite_x=True)`` of the npad-square spectrum ``_fft2``
    forms for ``even``, in place in ``spec``: the block of the plane, a view of ``spec``.
    Without flags bit for bit.

    pocketfft scales by 1/(n0*n1) after the first pass, multiplying each
    real and imaginary part by the real factor; a complex multiply would
    flip the sign of some zeros.  Along an even axis the spectrum entries
    npad//2+1.. follow from F[m] = omega^(npad-m) F[npad-m] (``_twiddles``),
    and the plane is kept from entry npad//2 on (``_even_pass``); that agrees
    with the full transform to round-off.
    """
    h = npad // 2
    ey, ex = even
    kept = spec[: npad - h] if ey else spec
    if ey:
        _even_pass(spec, kept, npad, 0, True)
    else:
        _fft_pass(spec, 0, inverse=True)
    parts = kept.view(np.float64)
    np.multiply(parts, 1.0 / (npad * npad), out=parts)
    block = kept[:, 2 * h + 1 - npad :] if ex else kept
    if ex:
        _even_pass(kept, block, npad, 1, True)
    else:
        _fft_pass(kept, 1, inverse=True)
    return block


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
    m = _next_fast_len(int(math.ceil(n * _checked_pad_factor(pad_factor))))
    while (m - n) % 2:
        m = _next_fast_len(m + 1)
    return m


def _kernel_spectrum(npad: int, pitch: float, k: float, z: float) -> np.ndarray:
    """Quadrant of the FFT of the sampled spherical-wave kernel exp(-1j*k*r)/r at hop z.

    The kernel depends on the sample offsets only through dx^2 and dy^2, so
    its FFT-ordered grid is the mirror of the quadrant q of non-negative
    offsets.  The (npad//2+1)-square block returned is the crop of the
    ``_fft2`` of that mirror, bit for bit, and every line gets
    the transform it gets there; but the full grid is never built.  Columns
    m and npad - m of that grid are equal, so the axis-0 pass runs on the
    h+1 distinct columns, and the axis-1 pass on the h+1 rows that are kept,
    each in place in the quadrant (``_even_pass``).

    pocketfft's transform of an even input is not bitwise even: the mirror
    of this quadrant differs from the full-grid spectrum by round-off, at
    most 8.1e-16 of its largest magnitude up to npad 1125.
    """
    h = npad // 2
    d_sq = (np.arange(h + 1) * pitch) ** 2
    r = np.sqrt(d_sq[None, :] + d_sq[:, None] + z * z)
    q = np.exp(-1j * k * r) / r
    del r
    _even_pass(q, q, npad, 0, centred=False)
    _even_pass(q, q, npad, 1, centred=False)
    return q


def _f_limit(extent: float, lam: float, z: float) -> float:
    """The band limit f_limit [cycles/m] of a hop to z on a window of side ``extent``."""
    try:
        return 1.0 / (lam * math.sqrt((2.0 * z / extent) ** 2 + 1.0))
    except OverflowError:  # (2z/extent)^2 beyond the float range: no window carries it
        return 0.0


def _window_refusal(extent: float, lam: float, z: float) -> str | None:
    """Why a padded window of side ``extent`` cannot carry a hop to z, or None if it can."""
    f_limit = _f_limit(extent, lam, z)
    if not f_limit >= 1.0 / extent:  # the band limit falls below one frequency bin
        return (f"padded window {extent:g} m cannot carry the field to z = {z:g} m "
                f"(band limit {f_limit:g} cycles/m below one bin {1.0 / extent:g})")
    return None


def _check_window_supports_distance(n: int, npad: int, pitch: float, lam: float, z: float) -> None:
    """Reject a hop of n samples a side, padded to npad, that its window does not carry.

    The rejection hints at a pad factor to retry with: the estimate
    4 sqrt(2 z lambda) / window, raised to the smallest whole pad factor
    whose window carries the hop and capped at ``_MAX_PAD_FACTOR``.  When
    not even that carries it, the message says so and gives no hint.
    """
    message = _window_refusal(npad * pitch, lam, z)
    if message is None:
        return
    least = next((p for p in range(2, _MAX_PAD_FACTOR + 1)
                  if _window_refusal(_padded_size(n, p) * pitch, lam, z) is None), None)
    if least is None:
        raise SamplingError(f"{message}; no pad_factor up to {_MAX_PAD_FACTOR} carries it")
    estimate = math.ceil(4.0 * math.sqrt(2.0 * z * lam) / (npad * pitch))
    raise SamplingError(message, required_pad_factor=min(max(least, estimate), _MAX_PAD_FACTOR))


def _analytic_transfer(npad: int, pitch: float, k: float, dz: float) -> np.ndarray:
    """Quadrant of the band-limited angular-spectrum transfer function of a hop.

    H and its band-limit mask depend on kx^2 and ky^2 only, so the
    (npad//2+1)-square block of non-negative frequency indices holds all of
    H exactly: its mirror is the FFT-ordered full grid.
    ``_apply_quadrant`` applies it without building that grid.
    """
    kx = 2.0 * np.pi * np.abs(np.fft.fftfreq(npad, d=pitch)[: npad // 2 + 1])
    kx_sq = kx * kx
    kz_sq = k * k - kx_sq[None, :] - kx_sq[:, None]
    prop = kz_sq > 0.0
    kz_sq[~prop] = 0.0  # evanescent: H is zeroed there below
    H = -1j * dz * np.sqrt(kz_sq)
    del kz_sq
    np.exp(H, out=H)
    H[~prop] = 0.0
    inside = kx <= 2.0 * np.pi * _f_limit(npad * pitch, 2.0 * np.pi / k, dz)
    np.multiply(H, inside[None, :] & inside[:, None], out=H)
    return H


_SPECTRA: contextvars.ContextVar[dict | None] = contextvars.ContextVar("spectra", default=None)


@contextlib.contextmanager
def reuse_spectra():
    """Build each kernel spectrum and transfer function once within the block.

    Every hop inside the block that needs a spectrum already built in it
    (same kind, padded size, pitch, wavenumber and distance) shares that
    array, which is read-only.
    A nested block shares the outer block's spectra.  They are released
    when the outermost block ends; the scope is kept to one study block
    because each spectrum takes 16 * (npad//2+1)^2 bytes, its quadrant
    (46 MB at npad 3375).
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
        spectrum = memo[key] = build()
        spectrum.setflags(write=False)  # every hop in the block shares it
    return spectrum


def _apply_quadrant(quadrant: np.ndarray, block: np.ndarray, n: int, npad: int,
                    even: tuple[bool, bool], overwrite: bool = False) -> np.ndarray:
    """ifft2(mirror of quadrant * fft2(the n-square field of ``block`` zero-padded to
    npad)): the block of the padded plane, laid out as the field's, for ``even``.

    The field spectrum is multiplied in place by mirrored views of the
    quadrant, block by block, so the full-grid spectrum is never built.  The
    product is formed in the operand order quadrant * field spectrum: numpy's
    complex multiply is not bitwise commutative, and the artifacts are pinned
    to this order.  ``overwrite`` is ``_fft2``'s.

    Along an even axis the forward transform forms, and the product covers,
    only the frequencies 0..npad//2, and the inverse rebuilds the others
    (``_ifft2``); every buffer is about npad * (npad//2 + 1) samples or
    less, and the plane is even along that axis, bit for bit.  Without an
    even axis the plane is the full transform's, bit for bit; with one it
    agrees with it to round-off.
    """
    spec = _fft2(block, npad, even, n, overwrite)
    h = npad // 2
    halves = ((slice(0, h + 1), slice(None)), (slice(h + 1, None), _mirror_tail(npad)))
    for rows, q_rows in halves[: 1 if even[0] else 2]:
        for cols, q_cols in halves[: 1 if even[1] else 2]:
            part = spec[rows, cols]
            np.multiply(quadrant[q_rows, q_cols], part, out=part)
    return _ifft2(spec, npad, even)


def propagate_slice(field: FieldSlice, dz: float, pad_factor: float = _DEFAULT_PAD_FACTOR, *,
                    wavelength: float) -> FieldSlice:
    """Propagate a sampled continuum field by dz with the band-limited analytic transfer.

    The field is zero-padded to ``pad_factor`` (in [1, 8]) times its side.
    ``wavelength`` is the positive carrier wavelength, which slices do not
    carry.  The transfer function is built, and kept inside
    ``reuse_spectra``, as its quadrant of non-negative frequencies, and
    applied through mirrored views of it.  The slice returned is even along
    the axes ``field`` is, and stored as its block.  ``field`` is left
    untouched.
    """
    return _hop_slice(field, dz, pad_factor, wavelength)


def _hop_slice(field: FieldSlice, dz: float, pad_factor: float,
               wavelength: float, overwrite: bool = False) -> FieldSlice:
    """``propagate_slice``; with ``overwrite`` the hop may transform the field's block in
    place (``_fft2``) and the slice returned then holds it."""
    if not wavelength > 0:  # NaN too
        raise ValueError(f"propagate_slice needs the positive carrier wavelength, not {wavelength}")
    if dz != 0:  # a step of 0 is taken too
        _check_distance(dz)
    n = field.layout.side
    npad = _padded_size(n, pad_factor)
    k = 2.0 * np.pi / wavelength
    pitch = field.sample_pitch
    _check_window_supports_distance(n, npad, pitch, wavelength, dz)
    H = _spectrum(("transfer", npad, pitch, k, dz), lambda: _analytic_transfer(npad, pitch, k, dz))
    block = _apply_quadrant(H, field.block, n, npad, field.even, overwrite)
    return FieldSlice._of_block(field.z + dz, block, _Layout(npad, pitch, field.even))


def propagate_asm(field: ApertureField, z: float,
                  pad_factor: float = _DEFAULT_PAD_FACTOR) -> FieldSlice:
    """Propagate an aperture of point sources to the plane at distance z.

    The returned slice covers the padded plane (``pad_factor``, in [1, 8],
    times the aperture) in the oracle's physical units: a single unit
    element yields ``exp(-1j*k*r)/r`` samples.  Only the samples within (npad - n)/2 of
    the centre along each axis equal the direct sum (at pad 2, the central
    n-by-n window); the circular convolution wraps round beyond them.  The
    kernel spectrum is built, and kept inside ``reuse_spectra``, as its
    quadrant, and applied through mirrored views of it.  Along each axis
    in which the weights are even about their centre bit for bit (signed
    zeros included), the hop transforms about half the lines and returns a
    plane even along it, bit for bit, stored as its block (``_apply_quadrant``).
    The weights are tested once per field, and the field keeps the result.
    """
    # before the spectrum is built, so that the first test's temporaries do not add to its peak
    even = field._even
    _check_distance(z)
    _check_nearest_distance(z * z, z)  # the kernel at offset 0
    n = field.grid.elements_per_side
    pitch = field.grid.element_pitch
    npad = _padded_size(n, pad_factor)
    _check_window_supports_distance(n, npad, pitch, field.grid.wavelength, z)
    k = field.grid.wavenumber
    K = _spectrum(("kernel", npad, pitch, k, z), lambda: _kernel_spectrum(npad, pitch, k, z))
    block = _apply_quadrant(K, _Layout(n, pitch, even).crop(field.weights), n, npad, even)
    return FieldSlice._of_block(z, block, _Layout(npad, pitch, even))


def _check_nearest_distance(r_sq: float, z: float) -> None:
    """Reject a hop or sum to z whose nearest r^2 is not a normal float: 1/r^2 overflows."""
    if r_sq < sys.float_info.min:
        raise ValueError(f"distance z = {z:g} m is too short: the squared distance to the "
                         f"nearest element, {r_sq:g} m^2, underflows below {sys.float_info.min:g}")


def _check_point(r_sq: float, point: Sequence[float]) -> None:
    """Reject a sum at ``point`` (x, y, z) whose z is not > 0 (NaN too), or whose nearest
    r^2 is not finite (a coordinate that is not, or a square past the float range) or not a
    normal float."""
    at = f"cannot sum at the point ({', '.join(f'{v:g}' for v in point)}) m"
    if not point[2] > 0:
        raise ValueError(f"{at}: z must be > 0")
    if not math.isfinite(r_sq):
        raise ValueError(f"{at}: the squared distance to the nearest element is {r_sq:g} m^2")
    _check_nearest_distance(r_sq, point[2])


def _element_distances(X: np.ndarray, Y: np.ndarray, point: Sequence[float]) -> np.ndarray:
    """r from each element at (X, Y) to ``point`` (x, y, z), refusing a point whose z is not
    > 0 or whose nearest r^2 is not finite or not a normal float (``_check_point``)."""
    px, py, pz = point
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        r_sq = (X - px) ** 2 + (Y - py) ** 2 + pz * pz
    _check_point(float(r_sq.min()), point)
    return np.sqrt(r_sq)


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
    out = np.empty(pts.shape[0], dtype=complex)
    for i, point in enumerate(pts):
        r = _element_distances(X, Y, point)
        out[i] = np.sum(w * np.exp(-1j * k * r) / r)
    return out


def propagate_with_obstacles(
    field: ApertureField,
    obstacle: ObstacleSpec,
    z_target: float,
    pad_factor: float = _DEFAULT_PAD_FACTOR,
) -> FieldSlice:
    """Hop the field past one opaque obstacle, a disc or a knife edge, to z_target.

    The hop to the obstacle plane uses the point-source kernel on a plane
    padded by ``pad_factor``; the hop beyond it propagates the masked
    continuum field on that plane, unpadded, with the analytic transfer
    function, transforming the masked block in place where it has the shape
    of the hop's spectrum (no even axis, or an odd plane side).  The masked
    plane is stored as its block along the axes the mask keeps even
    (``_even_behind``); a knife edge first mirrors a quadrant to its half.
    An obstacle whose mask is the identity is skipped; a footprint beyond
    the propagated plane raises GeometryError from ``make_obstacle_mask``.
    """
    _check_distance(z_target)
    if obstacle.plane_z >= z_target:
        raise ValueError(f"obstacle plane {obstacle.plane_z} must lie before z_target {z_target}")

    npad = _padded_size(field.grid.elements_per_side, pad_factor)
    # a pad-1 hop keeps the grid of a plane already padded, so the mask is built before the
    # hop to it, on the block of the plane behind it: an obstacle that masks nothing is
    # skipped without a hop, and otherwise nothing reads the plane before the hop beyond
    # it, so that hop may transform it in place
    behind = _even_behind(obstacle, field._even)
    mask = make_obstacle_mask(_Layout(npad, field.grid.element_pitch, behind), obstacle).values
    if np.all(mask == 1.0):
        return propagate_asm(field, z_target, pad_factor)
    plane = propagate_asm(field, obstacle.plane_z, pad_factor)._widened(behind)
    # the plane is this function's own: mask it in place, not in a copy
    np.multiply(plane.block, mask, out=plane.block)
    del mask  # before the hop beyond it
    return _hop_slice(plane, z_target - plane.z, 1.0, field.grid.wavelength, True)


def _even_behind(ob: ObstacleSpec, even: tuple[bool, bool]) -> tuple[bool, bool]:
    """The axes (y, x) along which a plane even along ``even`` stays even, bit for bit,
    once masked by ``ob``: a disc keeps an axis its centre lies on, and a half plane,
    whose edge runs along y, keeps y only."""
    cx, cy = ob.center_offset
    if ob.shape == "half_plane":
        return even[0], False
    return even[0] and cy == 0.0, even[1] and cx == 0.0


def _axial_sums(field: ApertureField, z_values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Exact on-axis sums, sum w*exp(-1j*k*r)/r and sum |w|/r, at each z > 0 at which r^2
    to the nearest element is a finite normal float (``_check_point``).

    The weights are binned by their element's distance from the axis first,
    so each distance costs one sum over the distinct radii (36,358 at
    n = 667) instead of one over every element (444,889).  The field bins
    once and keeps the binning (``ApertureField._axial_binning``).
    """
    s, w_bins, abs_bins = field._axial_binning
    rho_sq = s * (field.grid.element_pitch**2 / 4.0)
    k = field.grid.wavenumber
    coherent = np.empty(len(z_values), dtype=complex)
    incoherent = np.empty(len(z_values))
    for i, z in enumerate(z_values):
        _check_point(rho_sq[0] + z * z, (0.0, 0.0, z))  # rho_sq[0] is 0 on an odd grid
        r = np.sqrt(rho_sq + z * z)
        coherent[i] = np.sum(w_bins * np.exp(-1j * k * r) / r)
        incoherent[i] = np.sum(abs_bins / r)
    return coherent, incoherent
