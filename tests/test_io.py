"""The row-block CSV writers against the per-value writers they replaced."""

import numpy as np
import pytest

from thzbeam import FieldSlice, PhaseMap
from thzbeam.aperture import _even_axes, _Layout
from thzbeam.io import (
    _CSV_BLOCK_ROWS,
    _sample_intensity,
    field_slice_csv,
    format_number,
    intensity_to_levels,
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


def _even_phasors(rng, n, even=(True, True)):
    """Phasors mirrored about the centre along y and x as ``even`` says, so the plane is even
    along those axes bit for bit."""
    block = _random_phasors(rng, n, 150)[tuple(slice(n // 2, None) if e else slice(None)
                                               for e in even)]
    return _Layout(n, 1.0, even).unfold(block)


def _block_slice(rng, n, pitch, even=(True, True)):
    """A slice of ``_even_phasors`` stored, as a hop stores its plane, as the block of its
    even axes."""
    layout = _Layout(n, pitch, even)
    return FieldSlice._of_block(0.5, layout.crop(_even_phasors(rng, n, even)), layout)


def _signed_zero_pair(rng, n=45):
    """Even under ``==`` but not bit for bit: one mirrored pair of the centre row holds
    +0.0 and -0.0 as its real part."""
    s = _even_phasors(rng, n)
    s[n // 2, 3] = complex(0.0, 2.5)
    s[n // 2, n - 4] = complex(-0.0, 2.5)
    return s


def _one_ulp_off(rng, n=40):
    """Even but for one sample, whose real part is one ulp above its mirror's."""
    s = _even_phasors(rng, n)
    s[5, 7] = complex(np.nextafter(s[5, 7].real, np.inf), s[5, 7].imag)
    return s


SLICES = {
    # odd n, rows not a multiple of the block
    "decades-odd": lambda rng: FieldSlice(0.5, _random_phasors(rng, 45, 150), 1e-3),
    # even n, rows a multiple of the block
    "decades-even": lambda rng: FieldSlice(0.5, _random_phasors(rng, 2 * _CSV_BLOCK_ROWS, 150),
                                           3.7e-4),
    # fewer rows than one block
    "specials-odd": lambda rng: FieldSlice(1.0, _special_values(rng, 7), 1.25e-4),
    "specials-even": lambda rng: FieldSlice(1.0, _special_values(rng, 6), 2e-3),
    # even n, rows not a multiple of the block
    "straddle": lambda rng: FieldSlice(0.2, _straddle(rng), 1.5e-4),
    # coordinates in exponent notation, one exactly 0 per axis (odd n) with both signs
    # around it; rows not a multiple of the block
    "tiny-pitch": lambda rng: FieldSlice(1e-6, _random_phasors(rng, 41, 3), 5e-8),
    # bitwise even, stored and written as one quadrant: odd and even n, fewer rows than
    # one block and rows not a multiple of it
    "even-odd-small": lambda rng: _block_slice(rng, 21, 1e-3),
    "even-even-small": lambda rng: _block_slice(rng, 20, 1e-3),
    "even-odd-ragged": lambda rng: _block_slice(rng, 2 * _CSV_BLOCK_ROWS + 11, 3.7e-4),
    "even-even-ragged": lambda rng: _block_slice(rng, 2 * _CSV_BLOCK_ROWS + 10, 3.7e-4),
    # bitwise even along one axis, stored and written as that half
    "even-y-odd": lambda rng: _block_slice(rng, 2 * _CSV_BLOCK_ROWS + 11, 3.7e-4, (True, False)),
    "even-x-even": lambda rng: _block_slice(rng, 2 * _CSV_BLOCK_ROWS + 10, 3.7e-4, (False, True)),
    # even under == only, and even but for one ulp: stored and written whole
    "signed-zero-pair": lambda rng: FieldSlice(0.5, _signed_zero_pair(rng), 1e-3),
    "one-ulp-off": lambda rng: FieldSlice(0.5, _one_ulp_off(rng), 1e-3),
}


@pytest.mark.parametrize("name", sorted(SLICES))
def test_field_slice_csv_matches_per_sample_writer(tmp_path, name):
    slice_ = SLICES[name](np.random.default_rng(sorted(SLICES).index(name)))
    field_slice_csv(tmp_path / "blocks.csv", slice_)
    _field_slice_csv_per_sample(tmp_path / "per_sample.csv", slice_)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "per_sample.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(SLICES))
def test_only_bitwise_even_slices_take_the_quadrant_path(tmp_path, name):
    """A slice is stored, and written, as its block only along axes its samples are even
    along bit for bit; one built from a whole plane is stored whole."""
    slice_ = SLICES[name](np.random.default_rng(sorted(SLICES).index(name)))
    s = slice_.samples
    assert _even_axes(s)[0] >= slice_.even[0] and _even_axes(s)[1] >= slice_.even[1]
    assert any(slice_.even) == name.startswith("even-")
    assert FieldSlice(slice_.z, s, slice_.sample_pitch).even == (False, False)
    if name == "signed-zero-pair":
        assert np.array_equal(s, s[::-1]) and np.array_equal(s, s[:, ::-1])
        field_slice_csv(tmp_path / "zero.csv", slice_)
        n = s.shape[0]
        y = format_number(slice_.axis_coordinates()[n // 2])
        text = (tmp_path / "zero.csv").read_text()
        assert f",{y},0,2.5," in text and f",{y},-0,2.5," in text


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
    from thzbeam import WavefrontSpec, make_grid, propagate_asm, synthesize_field
    from thzbeam.cli import main

    grid = make_grid(side, 3e11)
    field = synthesize_field(grid, WavefrontSpec(kind="bessel", spot_fwhm=0.004))
    _field_slice_csv_per_sample(tmp_path / "per_sample.csv",
                                propagate_asm(field, 0.1, pad_factor=2.0))
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


def _levels_by_copies(intensity, scale, db_floor):
    """Reference: the level mapping as whole-array expressions, one new array per step."""
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


@pytest.mark.parametrize("scale", ["db", "linear"])
@pytest.mark.parametrize("db_floor", [-60.0, -37.3, -1.0])
def test_in_place_levels_equal_the_copying_expression(scale, db_floor):
    rng = np.random.default_rng(11)
    samples = _random_phasors(rng, 64, 4)
    samples[:3, :3] = 0.0  # below every floor
    slice_ = FieldSlice(0.5, samples, 1e-3)
    intensity = slice_.intensity()
    kept = intensity.copy()
    expected = _levels_by_copies(intensity, scale, db_floor)
    np.testing.assert_array_equal(intensity_to_levels(intensity, scale, db_floor), expected)
    np.testing.assert_array_equal(intensity, kept)  # the intensity is only read
    dark = np.zeros((8, 8))
    np.testing.assert_array_equal(intensity_to_levels(dark, scale, db_floor),
                                  _levels_by_copies(dark, scale, db_floor))

