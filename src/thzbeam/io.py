"""Deterministic artifact writers: CSV tables, 16-bit PGM and PNG images.

All CSV output is UTF-8 with LF line endings, '.' decimal separator and 9
significant digits.  The phase-map and field-slice CSVs are formatted and
written in blocks of rows, one ``%`` operation per block; their bytes are
those of formatting each value with ``format_number``.  The field-slice
coordinates are formatted once per axis value, not once per sample, and
the samples of a plane that is even about its centre along an axis are
formatted once per sample of the block the slice stores: each block row
is formatted once and spliced, mirrored along an even x, into the one or
two rows that hold it.
Images are 16-bit grayscale; phase maps span [0, 2*pi) onto [0, 65535] and
intensity maps are linear or dB-scaled with a floor.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .aperture import TWO_PI, PhaseMap, WavefrontSpec
from .metrics import GAIN_CURVE_KINDS, GainCurve
from .propagation import FieldSlice

__all__ = [
    "format_number",
    "write_csv",
    "gain_curve_rows",
    "phase_map_csv",
    "field_slice_csv",
    "phase_to_levels",
    "intensity_to_levels",
    "write_pgm16",
    "write_png16",
]


def format_number(x: float) -> str:
    """Format with 9 significant digits."""
    return f"{x:.9g}"


def write_csv(path: Path, header: str, rows: Iterable[Sequence]) -> None:
    """Write rows of numbers/strings under a fixed header, LF line endings."""
    lines = [header]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else format_number(v) for v in row))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def gain_curve_rows(curve: GainCurve,
                    wavefronts: dict[str, WavefrontSpec]) -> tuple[str, list[list[float]]]:
    """Bit-exact gain-curve CSV schema: z_m, then the curve of each kind in
    ``GAIN_CURVE_KINDS`` order, each column named after the section of
    ``wavefronts`` (section name -> spec) of its kind."""
    names = {spec.kind: name for name, spec in wavefronts.items()}
    header = ",".join(["z_m"] + [names[kind] for kind in GAIN_CURVE_KINDS])
    return header, [[float(z)] + [float(curve.gain[kind][i]) for kind in GAIN_CURVE_KINDS]
                    for i, z in enumerate(curve.distances)]


# rows formatted and written per block: peak memory is one block, not the table
_CSV_BLOCK_ROWS = 32


def _table_lines(table: np.ndarray) -> bytes:
    """Lines of a float64 (rows, cols) table, each value as ``format_number``.

    ``"%.9g" % x`` and ``f"{x:.9g}"`` give the same text for every float.
    """
    rows, cols = table.shape
    line = ",".join(["%.9g"] * cols) + "\n"
    return ((line * rows) % tuple(table.ravel().tolist())).encode("utf-8")


def phase_map_csv(path: Path, phase: PhaseMap) -> None:
    """Row-major phase values in radians, 9 significant digits."""
    values = phase.values
    with open(path, "wb") as fh:
        for lo in range(0, values.shape[0], _CSV_BLOCK_ROWS):
            fh.write(_table_lines(values[lo : lo + _CSV_BLOCK_ROWS]))


def _sample_intensity(samples: np.ndarray) -> np.ndarray:
    """``abs(v) ** 2`` of each complex128 sample, bit for bit."""
    # libm hypot then libm pow, as scalar abs and ** do; np.abs and **2 can differ in the last ulp
    return np.float_power(np.hypot(samples.real, samples.imag), 2)


def _sample_values(samples: np.ndarray) -> list[float]:
    """re, im and intensity of each sample, in row-major sample order."""
    cols = np.empty(samples.shape + (3,))
    cols[..., 0] = samples.real
    cols[..., 1] = samples.imag
    cols[..., 2] = _sample_intensity(samples)
    return cols.ravel().tolist()


def field_slice_csv(path: Path, slice_: FieldSlice) -> None:
    """Sample table with columns x, y, re, im, intensity, written from the slice's block."""
    s = slice_.block
    # npad distinct values, x and y alike: formatted once, then spliced into each row's format
    axis = [format_number(v) for v in slice_.axis_coordinates().tolist()]
    with open(path, "wb") as fh:
        fh.write(b"x_m,y_m,re,im,intensity\n")
        if any(slice_.even):
            _write_even_rows(fh, s, slice_.even, axis)
            return
        for lo in range(0, s.shape[0], _CSV_BLOCK_ROWS):
            blk = s[lo : lo + _CSV_BLOCK_ROWS]
            rows = []
            for y in axis[lo : lo + blk.shape[0]]:
                sfx = "," + y + ",%.9g,%.9g,%.9g\n"  # follows each x: "x,y,re,im,intensity"
                rows.append(sfx.join(axis) + sfx)
            fh.write(("".join(rows) % tuple(_sample_values(blk))).encode("utf-8"))


def _write_even_rows(fh, block: np.ndarray, even: tuple[bool, bool], axis: list[str]) -> None:
    """The rows of ``field_slice_csv`` for a plane even about its centre along y and x as
    ``even`` says, from its block of non-negative coordinates along those axes.

    Along an even y, row r and row n-1-r hold the same samples, and so, along
    an even x, do columns c and n-1-c, so each block sample is formatted
    once: each block row into one "re,im,intensity" text per sample, kept
    from the row that first needs it to the row that needs it again.
    """
    n = len(axis)
    h = n // 2
    kept: dict[int, str] = {}
    for lo in range(0, n, _CSV_BLOCK_ROWS):
        rows = []
        for r in range(lo, min(lo + _CSV_BLOCK_ROWS, n)):
            i = max(r, n - 1 - r) - h if even[0] else r  # the block row with these samples
            text = kept.pop(i, None)
            if text is None:
                text = ("%.9g,%.9g,%.9g\n" * block.shape[1]) % tuple(_sample_values(block[i]))
                if even[0] and i != r - h:
                    kept[i] = text
            cells = text.split("\n")
            cells.pop()  # the empty text after the last newline
            if even[1]:
                cells = cells[::-1][:h] + cells
            sfx = "," + axis[r] + ",%s\n"  # follows each x: "x,y,re,im,intensity"
            rows.append((sfx.join(axis) + sfx) % tuple(cells))
        fh.write("".join(rows).encode("utf-8"))


def phase_to_levels(phase: PhaseMap) -> np.ndarray:
    """Map [0, 2*pi) phase onto uint16 gray levels."""
    return np.round(phase.values / TWO_PI * 65535.0).astype(np.uint16)


_SCALES = ("db", "linear")


def intensity_to_levels(intensity: np.ndarray, scale: str, db_floor: float) -> np.ndarray:
    """Map a plane's intensity, which is only read, onto uint16 levels, linear or dB
    with a floor.

    The mapping runs in place on one working array, ``intensity / peak``.
    Its steps are those of the whole-array expression, in its order (dB:
    ``(10*log10(max(i/peak, floor)) - floor) / -floor``; then ``* 65535``,
    rounded), so the levels are the bits that expression gives.
    """
    if scale not in _SCALES:
        raise ValueError(f"unknown intensity scale {scale!r}")
    if db_floor >= 0:
        raise ValueError(f"db_floor must be negative, got {db_floor}")
    peak = intensity.max()
    if peak <= 0.0:
        return np.zeros(intensity.shape, dtype=np.uint16)
    unit = intensity / peak
    if scale == "db":
        np.maximum(unit, 10.0 ** (db_floor / 10.0), out=unit)
        np.log10(unit, out=unit)
        np.multiply(10.0, unit, out=unit)
        np.subtract(unit, db_floor, out=unit)
        np.divide(unit, -db_floor, out=unit)
    np.multiply(unit, 65535.0, out=unit)
    np.round(unit, out=unit)
    return unit.astype(np.uint16)


def write_pgm16(path: Path, levels: np.ndarray) -> None:
    """Binary (P5) 16-bit PGM, big-endian sample order."""
    arr = np.asarray(levels, dtype=np.uint16)
    h, w = arr.shape
    header = f"P5\n{w} {h}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + arr.astype(">u2").tobytes())


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def write_png16(path: Path, levels: np.ndarray) -> None:
    """Minimal 16-bit grayscale PNG writer (fixed zlib level, deterministic)."""
    arr = np.asarray(levels, dtype=np.uint16)
    h, w = arr.shape
    raw = arr.astype(">u2").tobytes()
    stride = w * 2
    scanlines = b"".join(b"\x00" + raw[y * stride : (y + 1) * stride] for y in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 16, 0, 0, 0, 0)  # bit depth 16, grayscale
    data = (
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(scanlines, 6))
        + _png_chunk(b"IEND", b"")
    )
    Path(path).write_bytes(data)

