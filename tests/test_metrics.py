import math

import numpy as np
import pytest

from thzbeam import (
    ApertureField,
    FieldSlice,
    NoBeamError,
    WavefrontSpec,
    abbe_spot,
    aperture_gain_dbi,
    beam_profile_stats,
    circular_taper,
    compose_aperture,
    fraunhofer_distance,
    gain_curve,
    make_grid,
    normalized_gain,
    numeric_aperture,
    phase_quadratic,
    propagate_asm,
    quantize_phase,
    self_healing_correlation,
)
from thzbeam.propagation import PropagationPlan

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


# ---------------------------------------------------------------------------
# gain curves (CI scale)


@pytest.fixture(scope="module")
def ci_curve():
    grid = make_grid(0.05, 3e11)
    wavefronts = [
        WavefrontSpec(kind="beamforming"),
        WavefrontSpec(kind="beamfocusing"),
        WavefrontSpec(kind="bessel", spot_fwhm=0.008),
    ]
    distances = np.arange(0.05, 0.701, 0.01)
    return gain_curve(grid, wavefronts, distances, taper=circular_taper(grid))


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
    with pytest.raises(ValueError):
        gain_curve(grid, [WavefrontSpec(kind="beamfocusing")], [0.1, 0.2])


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


def test_abbe_limit_cases():
    lam = 3e-4
    assert abbe_spot(1.0, lam) == pytest.approx(lam / 2)
    na = numeric_aperture(0.125, 13.5)
    assert na == pytest.approx(9.26e-3, rel=1e-3)
    assert abbe_spot(na, lam) == pytest.approx(0.0162, rel=0.01)
    with pytest.raises(ValueError):
        abbe_spot(1.5, lam)


def test_measured_focal_spot_near_abbe_prediction():
    grid = make_grid(0.05, 3e11)
    F = 0.3
    field = compose_aperture(grid, [phase_quadratic(grid, F)], circular_taper(grid))
    slice_ = propagate_asm(field, F, PropagationPlan(pad_factor=2.0))
    stats = beam_profile_stats(slice_)
    predicted = abbe_spot(numeric_aperture(grid.half_side, F), grid.wavelength)
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
