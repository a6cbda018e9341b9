import inspect
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thzbeam import (
    ApertureField,
    FieldSlice,
    GainCurve,
    NoBeamError,
    WavefrontSpec,
    aperture_gain_dbi,
    beam_profile_stats,
    circular_taper,
    compose_aperture,
    fraunhofer_distance,
    gain_curve,
    make_grid,
    normalized_gain,
    phase_quadratic,
    propagate_asm,
    propagate_direct,
    quantize_phase,
    self_healing_correlation,
    synthesize_field,
)
from thzbeam import aperture, metrics
from thzbeam.metrics import _disc_correlation, _intensity_correlation

RNG = np.random.default_rng(99)


# ---------------------------------------------------------------------------
# normalized gain


def test_gain_is_one_at_own_focus():
    grid = make_grid(0.05, 3e11)
    F = 0.3
    field = compose_aperture(grid, [phase_quadratic(grid, F)])
    assert normalized_gain(field, (0.0, 0.0, F)) == pytest.approx(1.0, abs=1e-9)


def test_gain_single_element_is_one():
    f = 3e11
    lam = 299792458.0 / f
    grid = make_grid(lam / 2, f, 0.5)
    field = ApertureField(grid, np.array([[1.5 + 0.5j]]))
    assert normalized_gain(field, (0.01, -0.02, 0.5)) == pytest.approx(1.0, abs=1e-12)


def test_gain_planar_small_in_deep_near_field():
    grid = make_grid(0.05, 3e11)
    field = ApertureField.uniform(grid)
    # Fresnel number ~5 at this range: the broadside plane wave is badly dephased
    z = grid.half_side**2 / (5 * grid.wavelength)
    assert normalized_gain(field, (0.0, 0.0, z)) < 0.5


def test_gain_invariant_under_complex_scaling():
    grid = make_grid(0.02, 3e11)
    n = grid.elements_per_side
    weights = np.exp(2j * np.pi * RNG.random((n, n)))
    a = normalized_gain(ApertureField(grid, weights), (0.001, 0.0, 0.2))
    b = normalized_gain(ApertureField(grid, (2.0 - 3.0j) * weights), (0.001, 0.0, 0.2))
    assert a == pytest.approx(b, rel=1e-12)


def test_gain_one_at_any_conjugation_point():
    grid = make_grid(0.02, 3e11)
    X, Y = grid.meshgrid()
    px, py, pz = 0.004, -0.003, 0.17
    r = np.sqrt((X - px) ** 2 + (Y - py) ** 2 + pz**2)
    field = ApertureField(grid, np.exp(1j * grid.wavenumber * r))
    assert normalized_gain(field, (px, py, pz)) == pytest.approx(1.0, abs=1e-12)


def _random_weights_field(grid, seed):
    # non-radial weights: amplitude in [0.2, 1] times a random phase
    rng = np.random.default_rng(seed)
    n = grid.elements_per_side
    amplitude = rng.uniform(0.2, 1.0, (n, n))
    return ApertureField(grid, amplitude * np.exp(2j * np.pi * rng.random((n, n))))


def _elementwise_gain(field, point):
    X, Y = field.grid.meshgrid()
    px, py, pz = point
    r = np.sqrt((X - px) ** 2 + (Y - py) ** 2 + pz * pz)
    w = field.weights
    num = np.abs(np.sum(w * np.exp(-1j * field.grid.wavenumber * r) / r)) ** 2
    return float(num / np.sum(np.abs(w) / r) ** 2)


@pytest.mark.parametrize("side", [0.03, 0.0305], ids=["even-n", "odd-n"])
def test_gain_on_axis_matches_elementwise_sum(side):
    grid = make_grid(side, 3e11)
    field = _random_weights_field(grid, seed=11)
    for z in (0.01, 0.05, 0.2, 1.5):
        expected = _elementwise_gain(field, (0.0, 0.0, z))
        assert normalized_gain(field, (0.0, 0.0, z)) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("side", [0.03, 0.0305], ids=["even-n", "odd-n"])
def test_gain_off_axis_keeps_elementwise_sum(side):
    grid = make_grid(side, 3e11)
    field = _random_weights_field(grid, seed=12)
    point = (grid.element_pitch / 2.0, 0.0, 0.05)
    assert normalized_gain(field, point) == _elementwise_gain(field, point)


def test_gain_validates_point():
    grid = make_grid(0.02, 3e11)
    field = ApertureField.uniform(grid)
    with pytest.raises(ValueError):
        normalized_gain(field, (0.0, 0.0, -0.1))


def test_oracle_and_off_axis_gain_refuse_an_underflowing_distance():
    # 41 elements a side: at z = 1e-158 over an element, r^2 = 1e-316 is no normal float
    # and 1/r^2 overflows; at z = 1e-150 it is 1e-300
    grid = make_grid(0.0205, 3e11)
    field = ApertureField.uniform(grid)
    x0 = grid.axis_coordinates()[0]
    with pytest.raises(ValueError, match="underflows"):
        normalized_gain(field, (x0, x0, 1e-158))
    with pytest.raises(ValueError, match="underflows"):
        propagate_direct(field, [(0.0, 0.0, 1e-158)])
    assert math.isfinite(normalized_gain(field, (x0, x0, 1e-150)))
    assert np.all(np.isfinite(propagate_direct(field, [(0.0, 0.0, 1e-150)])))
    # a coordinate that is not finite, or z = 1e200, whose square overflows, is refused too
    for z in (math.nan, math.inf, 1e200):
        for point in ((0.0, 0.0, z), (x0, x0, z), (z, 0.0, 0.01)):
            with pytest.raises(ValueError, match=r"cannot sum at the point \("):
                normalized_gain(field, point)
            with pytest.raises(ValueError, match=r"cannot sum at the point \("):
                propagate_direct(field, [point])


# ---------------------------------------------------------------------------
# gain curves (CI scale)


@pytest.fixture(scope="module")
def ci_curve():
    grid = make_grid(0.05, 3e11)
    wavefronts = [
        WavefrontSpec(kind="beamforming", circular=True),
        WavefrontSpec(kind="beamfocusing", circular=True),
        WavefrontSpec(kind="bessel", spot_fwhm=0.008, circular=True),
    ]
    distances = np.arange(0.05, 0.701, 0.01)
    return gain_curve(grid, wavefronts, distances)


def test_gain_curve_focal_set_at_bessel_peak(ci_curve):
    i = int(np.argmax(ci_curve.gain["bessel"]))
    assert ci_curve.distances[i] == pytest.approx(ci_curve.bessel_peak_distance)
    assert ci_curve.focal_length == pytest.approx(ci_curve.bessel_peak_distance)
    # curves meet there: both normalized values are 1
    assert ci_curve.gain["bessel"][i] == pytest.approx(1.0, abs=1e-12)
    assert ci_curve.gain["beamfocusing"][i] == pytest.approx(1.0, abs=1e-6)


def test_gain_curve_bessel_beats_beamforming_in_near_field(ci_curve):
    zs = ci_curve.distances
    sel = (zs >= 0.08) & (zs <= 0.48)  # scaled counterpart of the 2..20 m band
    assert np.all(ci_curve.gain["bessel"][sel] > ci_curve.gain["beamforming"][sel])


def test_gain_curve_values_in_unit_interval(ci_curve):
    for label, values in ci_curve.gain.items():
        assert values.min() >= 0.0 and values.max() <= 1.0 + 1e-9, label


def test_gain_curve_focusing_drops_faster_than_bessel(ci_curve):
    zs = ci_curve.distances
    F = ci_curve.focal_length
    i = int(np.argmin(np.abs(zs - (F - 0.08))))
    assert ci_curve.gain["beamfocusing"][i] < ci_curve.gain["bessel"][i]


def test_gain_curve_beamforming_monotone_past_near_field():
    grid = make_grid(0.02, 3e11)
    wavefronts = [
        WavefrontSpec(kind="beamforming"),
        WavefrontSpec(kind="beamfocusing", focal_length=0.1),
        WavefrontSpec(kind="bessel", spot_fwhm=0.004),
    ]
    boundary = grid.side_length**2 / (2 * grid.wavelength)
    distances = np.linspace(boundary, 4 * boundary, 40)
    curve = gain_curve(grid, wavefronts, distances)
    diffs = np.diff(curve.raw_gain["beamforming"])
    assert np.all(diffs > -1e-9)


def test_gain_curve_validates_input(ci_curve):
    grid = make_grid(0.02, 3e11)
    with pytest.raises(ValueError):
        gain_curve(grid, [WavefrontSpec(kind="beamforming")], [])
    # exactly one wavefront of each kind: none missing, none repeated, no other
    for specs in ([WavefrontSpec(kind="beamfocusing")], _gain_specs() * 2,
                  _gain_specs()[:2] + [WavefrontSpec(kind="beamforming")],
                  _gain_specs() + [WavefrontSpec(kind="caustic")]):
        with pytest.raises(ValueError, match="exactly one wavefront of each kind"):
            gain_curve(grid, specs, [0.1, 0.2])
    # a spiral nulls the axis: no curve of rounding noise
    with pytest.raises(ValueError, match="spiral"):
        gain_curve(grid, [WavefrontSpec(kind="bessel", spot_fwhm=0.004, oam_mode=1)], [0.1, 0.2])


@pytest.mark.parametrize("value", [-0.1, 1.1, math.nan])
def test_gain_curve_rejects_values_outside_the_unit_interval(value):
    zs = np.array([0.1, 0.2])
    with pytest.raises(ValueError, match="leaves"):
        GainCurve(zs, {"bessel": np.array([0.5, value])}, {"bessel": np.array([0.5, value])},
                  0.2, 0.2)


def _gain_specs(circular=True, bits=None):
    return [WavefrontSpec(kind="beamforming", circular=circular, phase_bits=bits),
            WavefrontSpec(kind="beamfocusing", circular=circular, phase_bits=bits),
            WavefrontSpec(kind="bessel", spot_fwhm=0.004, circular=circular, phase_bits=bits)]


def _column_fields(grid, curve, specs):
    """Each column's field, built as the curve builds it (the auto focus resolved)."""
    return {s.kind: synthesize_field(grid, replace(s, focal_length=curve.focal_length)
                                     if s.kind == "beamfocusing" else s) for s in specs}


@pytest.mark.parametrize("bits", [None, 2])
@pytest.mark.parametrize("circular", [False, True])
@pytest.mark.parametrize("side", [0.02, 0.0205], ids=["even-n", "odd-n"])
def test_gain_curve_equals_per_distance_calls_bitwise(side, circular, bits):
    grid = make_grid(side, 3e11)
    specs = _gain_specs(circular, bits)
    zs = np.linspace(0.02, 0.3, 9)
    curve = gain_curve(grid, specs, zs)
    for kind, field in _column_fields(grid, curve, specs).items():
        alone = np.array([normalized_gain(field, (0.0, 0.0, z)) for z in zs])
        assert curve.raw_gain[kind].view(np.uint64).tobytes() == alone.view(np.uint64).tobytes()


def test_gain_curve_calls_normalized_gain_once_per_distance(monkeypatch):
    """One call per distance and column, with the column's field and (0, 0, z).

    perfbench's ``GainProbe`` samples these calls by their bound arguments.
    """
    calls = []

    def recorded(*args, **kwargs):
        bound = inspect.signature(normalized_gain).bind(*args, **kwargs).arguments
        calls.append((bound["field"], tuple(bound["point"])))
        return normalized_gain(*args, **kwargs)

    monkeypatch.setattr(metrics, "normalized_gain", recorded)
    grid = make_grid(0.02, 3e11)
    specs = _gain_specs()
    zs = np.linspace(0.02, 0.3, 9)
    curve = gain_curve(grid, specs, zs)
    assert len(calls) == len(specs) * zs.size
    expected = _column_fields(grid, curve, specs)
    kinds = []
    for start in range(0, len(calls), zs.size):
        column = calls[start:start + zs.size]
        field = column[0][0]
        assert all(f is field for f, _ in column)
        assert [p for _, p in column] == [(0.0, 0.0, z) for z in zs]
        kinds += [k for k, f in expected.items() if np.array_equal(f.weights, field.weights)]
    assert sorted(kinds) == sorted(expected)


def test_each_field_bins_its_read_only_weights_once(monkeypatch):
    bins, binned = aperture._axial_bins, []

    def counted(n):
        binned.append(n)
        return bins(n)

    monkeypatch.setattr(aperture, "_axial_bins", counted)
    grid = make_grid(0.02, 3e11)
    gain_curve(grid, _gain_specs(), np.linspace(0.02, 0.3, 9))
    assert len(binned) == 3  # once per column, not once per distance
    a = _random_weights_field(grid, seed=21)
    b = ApertureField(grid, a.weights.copy())  # equal weights, a field of its own
    point = (0.0, 0.0, 0.07)
    binned.clear()
    assert normalized_gain(a, point) == normalized_gain(a, point) == normalized_gain(b, point)
    assert len(binned) == 2
    with pytest.raises(ValueError, match="read-only"):
        a.weights[0, 0] = 0
    n = grid.elements_per_side
    given = np.ones((n, n), dtype=complex)
    assert ApertureField(grid, given).weights is given and not given.flags.writeable
    wider = np.ones((n, n + 1), dtype=complex)  # a view of it is copied: wider stays writable
    viewed = ApertureField(grid, wider[:, :n])
    wider[0, 0] = 0
    assert viewed.weights[0, 0] == 1


# ---------------------------------------------------------------------------
# closed forms


def test_fraunhofer_reference_array():
    lam = 299792458.0 / 1e12
    assert fraunhofer_distance(0.25, lam) == pytest.approx(417.0, rel=0.01)


def test_fraunhofer_scaling_laws():
    assert fraunhofer_distance(1e-3, 1e-3) == pytest.approx(2e-3, rel=1e-12)
    assert fraunhofer_distance(0.5, 1e-3) == pytest.approx(4 * fraunhofer_distance(0.25, 1e-3))


def test_aperture_gain_reference_array():
    lam = 299792458.0 / 1e12
    assert aperture_gain_dbi(0.0625, lam) == pytest.approx(70.0, abs=0.7)


def test_aperture_gain_scaling_laws():
    lam = 3e-4
    assert aperture_gain_dbi(lam**2 / (4 * math.pi), lam) == pytest.approx(0.0, abs=1e-12)
    assert aperture_gain_dbi(0.1, lam) - aperture_gain_dbi(0.01, lam) == pytest.approx(10.0, abs=1e-12)


def test_measured_focal_spot_near_abbe_prediction():
    grid = make_grid(0.05, 3e11)
    F = 0.3
    field = compose_aperture(grid, [phase_quadratic(grid, F)], circular_taper(grid))
    slice_ = propagate_asm(field, F, pad_factor=2.0)
    stats = beam_profile_stats(slice_)
    numeric_aperture = math.sin(math.atan2(grid.half_side, F))
    predicted = grid.wavelength / (2.0 * numeric_aperture)  # Abbe: lambda / (2 NA)
    assert predicted / 1.5 <= stats.fwhm <= predicted * 1.5


# ---------------------------------------------------------------------------
# beam statistics


def _synthetic_slice(profile, pitch):
    return FieldSlice(1.0, profile.astype(complex), pitch)


def test_stats_j0_squared_fwhm():
    from scipy.special import j0

    k_r = 112.5
    pitch = 5e-4
    n = 401
    x = (np.arange(n) - (n - 1) / 2.0) * pitch
    X, Y = np.meshgrid(x, x, indexing="xy")
    amplitude = j0(k_r * np.hypot(X, Y))
    stats = beam_profile_stats(_synthetic_slice(amplitude, pitch))
    assert stats.fwhm == pytest.approx(0.020, rel=0.02)
    assert stats.peak_position == pytest.approx((0.0, 0.0), abs=pitch)
    assert stats.ring_count >= 3


def test_stats_gaussian_fwhm():
    sigma = 3e-3
    pitch = 2e-4
    n = 301
    x = (np.arange(n) - (n - 1) / 2.0) * pitch
    X, Y = np.meshgrid(x, x, indexing="xy")
    intensity_profile = np.exp(-(X**2 + Y**2) / (2 * sigma**2))
    stats = beam_profile_stats(_synthetic_slice(np.sqrt(intensity_profile), pitch))
    assert stats.fwhm == pytest.approx(2.355 * sigma, rel=0.01)


def test_stats_uniform_slice_is_no_beam():
    with pytest.raises(NoBeamError):
        beam_profile_stats(_synthetic_slice(np.ones((64, 64)), 1e-3))
    with pytest.raises(NoBeamError):
        beam_profile_stats(_synthetic_slice(np.zeros((64, 64)), 1e-3))


# ---------------------------------------------------------------------------
# self-healing correlation


def test_correlation_identical_slices():
    n = 64
    samples = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    a = FieldSlice(1.0, samples, 1e-3)
    assert self_healing_correlation(a, a) == pytest.approx(1.0, abs=1e-12)


def test_correlation_independent_noise_near_half():
    rng = np.random.default_rng(2024)
    n = 128
    a = FieldSlice(1.0, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1e-3)
    b = FieldSlice(1.0, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1e-3)
    value = self_healing_correlation(a, b)
    # uncorrelated exponential intensities give the mean-offset baseline ~0.5
    assert 0.3 < value < 0.5


def test_correlation_validates_slices():
    a = FieldSlice(1.0, np.ones((8, 8)), 1e-3)
    b = FieldSlice(1.0, np.ones((4, 4)), 1e-3)
    with pytest.raises(ValueError):
        self_healing_correlation(a, b)
    c = FieldSlice(2.0, np.ones((8, 8)), 1e-3)
    with pytest.raises(ValueError):
        self_healing_correlation(a, c)


def _windowed(slice_, window):
    """Reference: the slice with every sample outside ``window`` zeroed, as a copy."""
    return FieldSlice(slice_.z, slice_.samples * window, slice_.sample_pitch)


def _noise_slices(rng, n):
    return [FieldSlice(0.5, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1.5e-4)
            for _ in range(2)]


@pytest.mark.parametrize("n", [17, 64, 65])
def test_intensity_correlation_equals_the_slice_form(n):
    rng = np.random.default_rng(n)
    blocked, reference = _noise_slices(rng, n)
    xs_sq = reference.axis_coordinates() ** 2
    window = xs_sq[None, :] + xs_sq[:, None] <= (0.3 * n * 1.5e-4) ** 2
    weights = reference.layout.multiplicity()  # ones: the slices are stored whole
    assert (_intensity_correlation(blocked.intensity(), reference.intensity(), weights)
            == self_healing_correlation(blocked, reference))
    # the masked slices' intensities are the intensities masked, bit for bit
    assert (_intensity_correlation(np.where(window, blocked.intensity(), 0.0),
                                   np.where(window, reference.intensity(), 0.0), weights)
            == self_healing_correlation(_windowed(blocked, window), _windowed(reference, window)))


def test_intensity_correlation_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot over 705,600 floats by its thread count, and the last digit moved
    # (0.3592183082419058 on 1 thread, ...061 on 2); einsum adds in one order
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import numpy as np\n"
            "from thzbeam.metrics import _intensity_correlation\n"
            "rng = np.random.default_rng(7)\n"
            "ib, ir = rng.random((840, 840)), rng.random((840, 840))\n"
            "print(repr(_intensity_correlation(ib ** 4, ir ** 4, 1.0)))")
    reprs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        reprs.append(done.stdout.strip())
    assert reprs[0] == reprs[1]


@pytest.mark.parametrize("n, radius", [(17, 3e-4), (64, 1.2e-3), (65, 1.2e-3), (840, 3.15e-3),
                                       (841, 3.15e-3), (65, 1.0), (64, 1e-6)])
def test_disc_correlation_on_the_bounding_box_equals_the_full_plane_form(n, radius):
    """The windowed correlation read on the disc's bounding box, as against masked copies.

    Both read the same window samples.  The sums add the shorter
    vectors of the box in another order, so the correlation may move by a
    few ulps (4e-16 relative seen at n = 840); a window that covers the plane
    reads every sample in the old order and agrees exactly.
    """
    rng = np.random.default_rng(n)
    blocked, reference = _noise_slices(rng, n)
    coords = reference.axis_coordinates()
    xs_sq = coords**2
    window = xs_sq[None, :] + xs_sq[:, None] <= radius**2
    ib, ir = blocked.intensity(), reference.intensity()
    if not window.any():
        with pytest.raises(NoBeamError):
            _disc_correlation(ib, ir, reference.layout, radius)
        return
    expected = self_healing_correlation(_windowed(blocked, window), _windowed(reference, window))
    got = _disc_correlation(ib, ir, reference.layout, radius)
    if window.all():
        assert got == expected
    assert got == pytest.approx(expected, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# quantization interplay


def test_four_bit_quantization_loss_tracks_sinc_model():
    grid = make_grid(0.05, 3e11)
    F = 0.25
    phase = phase_quadratic(grid, F)
    exact = compose_aperture(grid, [phase])
    coarse = compose_aperture(grid, [quantize_phase(phase, 4)])
    g0 = normalized_gain(exact, (0.0, 0.0, F))
    g4 = normalized_gain(coarse, (0.0, 0.0, F))
    loss_db = 10 * math.log10(g0 / g4)
    model_db = -10 * math.log10(np.sinc(1.0 / 16.0) ** 2)  # sin(pi/16)/(pi/16)
    assert loss_db < 0.1
    assert loss_db == pytest.approx(model_db, abs=0.02)


def test_full_scale_reference_points():
    # the 25 cm / 1 THz array: conjugate focusing at 13.5 m coheres exactly,
    # while the broadside plane wave at 10 m is badly dephased
    grid = make_grid(0.25, 1e12, 0.5)
    focused = compose_aperture(grid, [phase_quadratic(grid, 13.5)])
    assert normalized_gain(focused, (0.0, 0.0, 13.5)) == pytest.approx(1.0, abs=1e-9)
    planar = ApertureField.uniform(grid)
    assert normalized_gain(planar, (0.0, 0.0, 10.0)) < 0.5
