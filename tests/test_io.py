"""The row-block CSV writers against the per-value writers they replaced."""

import numpy as np
import pytest

from thzbeam import FieldSlice, PhaseMap
from thzbeam.io import (
    _CSV_BLOCK_ROWS,
    _sample_intensity,
    field_slice_csv,
    format_number,
    phase_map_csv,
)


def _field_slice_csv_per_sample(path, slice_):
    """Byte reference: one ``format_number`` call per value, ``abs(v) ** 2`` per sample."""
    X, Y = slice_.meshgrid()
    s = slice_.samples
    lines = ["x_m,y_m,re,im,intensity"]
    for iy in range(s.shape[0]):
        for ix in range(s.shape[1]):
            v = s[iy, ix]
            lines.append(
                ",".join(
                    format_number(val)
                    for val in (X[iy, ix], Y[iy, ix], v.real, v.imag, abs(v) ** 2)
                )
            )
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _phase_map_csv_per_element(path, phase):
    """Byte reference: one ``format_number`` call per element."""
    lines = [",".join(format_number(v) for v in row) for row in phase.values]
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _random_phasors(rng, n, decades):
    amplitude = 10.0 ** rng.uniform(-decades, decades, (n, n))
    return amplitude * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, n)))


def _special_values(rng, n):
    """Exact zeros, signed zeros, subnormals, nan and inf among ordinary samples."""
    s = _random_phasors(rng, n, 3).ravel()
    specials = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                complex(5e-324, 0.0), complex(-2.5e-320, 3e-310), complex(0.0, 1e-308),
                complex(float("nan"), 1.0), complex(float("inf"), -2.0)]
    s[: len(specials)] = specials
    return s.reshape(n, n)


def _straddle(rng, count=400, ulps=40):
    """Samples whose |s|^2 sits within ulps of a 9-digit rounding midpoint.

    For each midpoint m, re runs over +-``ulps`` ulps around
    sqrt(m / (1 + r^2)) and im = r * re, so the last ulp of the intensity
    decides its 9th digit.
    """
    mantissa = rng.integers(10**8, 10**9, count)
    exponent = rng.integers(-30, 30, count)
    m = (mantissa + 0.5) * 10.0 ** (exponent - 8)
    r = rng.uniform(0.1, 10.0, count)
    centre = np.sqrt(m / (1.0 + r * r))
    re = (centre.view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)).view(np.float64)
    return (re + 1j * (r[:, None] * re)).reshape(180, 180)


SLICES = {
    # odd n, rows not a multiple of the block
    "decades-odd": lambda rng: FieldSlice(0.5, _random_phasors(rng, 45, 150), 1e-3,
                                          (2.5e-3, -7.0e-2)),
    # even n, rows a multiple of the block
    "decades-even": lambda rng: FieldSlice(0.5, _random_phasors(rng, 2 * _CSV_BLOCK_ROWS, 150),
                                           3.7e-4),
    # fewer rows than one block
    "specials-odd": lambda rng: FieldSlice(1.0, _special_values(rng, 7), 1.25e-4, (-1e-3, 0.0)),
    "specials-even": lambda rng: FieldSlice(1.0, _special_values(rng, 6), 2e-3),
    "straddle": lambda rng: FieldSlice(0.2, _straddle(rng), 1.5e-4, (0.0, 3.3e-3)),
    # coordinates in exponent notation, one exactly 0 per axis with both signs around it;
    # even n, rows not a multiple of the block
    "tiny-pitch": lambda rng: FieldSlice(1e-6, _random_phasors(rng, 40, 3), 5e-8,
                                         (2.5e-8, -2.5e-8)),
}


@pytest.mark.parametrize("name", sorted(SLICES))
def test_field_slice_csv_matches_per_sample_writer(tmp_path, name):
    slice_ = SLICES[name](np.random.default_rng(sorted(SLICES).index(name)))
    field_slice_csv(tmp_path / "blocks.csv", slice_)
    _field_slice_csv_per_sample(tmp_path / "per_sample.csv", slice_)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "per_sample.csv").read_bytes()


def test_tiny_pitch_slice_covers_exponents_and_zero(tmp_path):
    slice_ = SLICES["tiny-pitch"](np.random.default_rng(0))
    assert slice_.samples.shape[0] % _CSV_BLOCK_ROWS
    X, Y = slice_.meshgrid()
    for axis in (X[0], Y[:, 0]):
        assert 0.0 in axis and axis.min() < 0.0 < axis.max()
    field_slice_csv(tmp_path / "tiny.csv", slice_)
    xs = {line.split(",")[0] for line in (tmp_path / "tiny.csv").read_text().splitlines()[1:]}
    assert {"0", "5e-08", "-5e-08"} <= xs


@pytest.mark.parametrize("side", [0.02, 0.0205], ids=["even-n", "odd-n"])
def test_cli_propagate_csv_matches_per_sample_writer(tmp_path, side):
    from thzbeam import PropagationPlan, WavefrontSpec, make_grid, propagate_asm, synthesize_field
    from thzbeam.cli import main

    grid = make_grid(side, 3e11)
    field = synthesize_field(grid, WavefrontSpec(kind="bessel", spot_fwhm=0.004))
    _field_slice_csv_per_sample(tmp_path / "per_sample.csv",
                                propagate_asm(field, 0.1, PropagationPlan(pad_factor=2.0)))
    assert main(["propagate", "--side-length", str(side), "--frequency", "3e11",
                 "--kind", "bessel", "--spot-fwhm", "0.004", "--z", "0.1",
                 "--format", "csv", "--out", str(tmp_path / "cli")]) == 0
    written = (tmp_path / "cli" / "slice_bessel_z0.1.csv").read_bytes()
    assert written == (tmp_path / "per_sample.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(SLICES))
def test_sample_intensity_is_scalar_abs_squared(name):
    samples = SLICES[name](np.random.default_rng(sorted(SLICES).index(name))).samples
    scalar = np.array([abs(v) ** 2 for v in samples.flat]).reshape(samples.shape)
    assert np.array_equal(_sample_intensity(samples), scalar, equal_nan=True)


@pytest.mark.parametrize("n", [7, 45, 2 * _CSV_BLOCK_ROWS])
def test_phase_map_csv_matches_per_element_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    values = rng.uniform(0.0, 2.0 * np.pi, (n, n))
    values.flat[:4] = [0.0, 5e-324, 1e-300, np.nextafter(2.0 * np.pi, 0.0)]
    phase = PhaseMap(values)
    phase_map_csv(tmp_path / "blocks.csv", phase)
    _phase_map_csv_per_element(tmp_path / "per_element.csv", phase)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "per_element.csv").read_bytes()
