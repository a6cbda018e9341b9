"""Deterministic artifact writers: CSV tables, 16-bit PGM and PNG images.

All CSV output is UTF-8 with LF line endings, '.' decimal separator and 9
significant digits.  The phase-map and field-slice CSVs are formatted and
written in blocks of rows, one ``%`` operation per block; their bytes are
those of formatting each value with ``format_number``.  The field-slice
coordinates are formatted once per axis value, not once per sample.
Images are 16-bit grayscale; phase maps span [0, 2*pi) onto [0, 65535] and
intensity maps are linear or dB-scaled with a floor.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .aperture import TWO_PI, PhaseMap
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
    "write_images",
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


# wavefront kinds of the gain-curve CSV, in column order
GAIN_CURVE_COLUMNS = ("beamforming", "beamfocusing", "bessel")


def gain_curve_rows(curve) -> tuple[str, list[list[float]]]:
    """Bit-exact gain-curve CSV schema: z_m,beamforming,beamfocusing,bessel."""
    header = ",".join(("z_m",) + GAIN_CURVE_COLUMNS)
    rows = []
    for i, z in enumerate(curve.distances):
        rows.append([float(z)] + [float(curve.gain[kind][i]) for kind in GAIN_CURVE_COLUMNS])
    return header, rows


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


def field_slice_csv(path: Path, slice_: FieldSlice) -> None:
    """Sample table with columns x, y, re, im, intensity."""
    s = slice_.samples
    x = slice_.axis_coordinates()
    # npad distinct values per axis: formatted once, then spliced into each row's format
    xs = [format_number(v) for v in (x + slice_.origin_offset[0]).tolist()]
    ys = [format_number(v) for v in (x + slice_.origin_offset[1]).tolist()]
    with open(path, "wb") as fh:
        fh.write(b"x_m,y_m,re,im,intensity\n")
        for lo in range(0, s.shape[0], _CSV_BLOCK_ROWS):
            blk = s[lo : lo + _CSV_BLOCK_ROWS]
            cols = np.empty(blk.shape + (3,))
            cols[..., 0] = blk.real
            cols[..., 1] = blk.imag
            cols[..., 2] = _sample_intensity(blk)
            rows = []
            for y in ys[lo : lo + blk.shape[0]]:
                sfx = "," + y + ",%.9g,%.9g,%.9g\n"  # follows each x: "x,y,re,im,intensity"
                rows.append(sfx.join(xs) + sfx)
            fh.write(("".join(rows) % tuple(cols.ravel().tolist())).encode("utf-8"))


def phase_to_levels(phase: PhaseMap) -> np.ndarray:
    """Map [0, 2*pi) phase onto uint16 gray levels."""
    return np.round(phase.values / TWO_PI * 65535.0).astype(np.uint16)


def intensity_to_levels(slice_: FieldSlice, scale: str = "db", db_floor: float = -60.0) -> np.ndarray:
    """Map slice intensity onto uint16 levels, linear or dB with a floor."""
    if scale not in ("db", "linear"):
        raise ValueError(f"unknown intensity scale {scale!r}")
    if db_floor >= 0:
        raise ValueError(f"db_floor must be negative, got {db_floor}")
    intensity = slice_.intensity()
    peak = intensity.max()
    if peak <= 0.0:
        return np.zeros(intensity.shape, dtype=np.uint16)
    if scale == "linear":
        unit = intensity / peak
    else:
        floor_lin = 10.0 ** (db_floor / 10.0)
        db = 10.0 * np.log10(np.maximum(intensity / peak, floor_lin))
        unit = (db - db_floor) / (-db_floor)
    return np.round(unit * 65535.0).astype(np.uint16)


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


def write_images(stem: str | Path, formats: Iterable[str],
                 levels_of: Callable[[], np.ndarray]) -> list[Path]:
    """Write ``<stem>.pgm`` and ``<stem>.png`` where ``formats`` lists them.

    ``levels_of()`` runs once, and only if an image format is listed, so a
    CSV-only call maps no levels.  Returns the paths written.
    """
    paths = [Path(f"{stem}.{fmt}") for fmt in ("pgm", "png") if fmt in formats]
    if paths:
        levels = levels_of()
        for path in paths:
            (write_pgm16 if path.suffix == ".pgm" else write_png16)(path, levels)
    return paths
