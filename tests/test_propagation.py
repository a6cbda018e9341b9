import math
import threading
import time

import numpy as np
import pytest
import scipy.fft

import thzbeam.propagation as propagation
from thzbeam import (
    ApertureField,
    ApertureGrid,
    FieldSlice,
    ObstacleSpec,
    SamplingError,
    WavefrontSpec,
    axicon_design,
    circular_taper,
    compose_aperture,
    crosstalk_matrix,
    gain_curve,
    make_grid,
    make_obstacle_mask,
    phase_conical,
    phase_planar,
    phase_quadratic,
    preset,
    propagate_asm,
    propagate_direct,
    propagate_slice,
    propagate_with_obstacles,
    reuse_spectra,
    synthesize_field,
)
from thzbeam.aperture import CausticCurve, _axial_bins, _even_axes, _Layout, steer_vector

RNG = np.random.default_rng(7)


def _random_phase_field(grid):
    n = grid.elements_per_side
    return ApertureField(grid, np.exp(2j * np.pi * RNG.random((n, n))))


def _gaussian_slice(grid, waist):
    X, Y = grid.meshgrid()
    return FieldSlice(0.0, np.exp(-(X**2 + Y**2) / waist**2), grid.element_pitch)


# ---------------------------------------------------------------------------
# direct summation (the oracle itself)


def test_direct_single_element_is_spherical_wave():
    f = 3e11
    lam = 299792458.0 / f
    grid = make_grid(lam / 2, f, 0.5)  # a single element
    assert grid.elements_per_side == 1
    field = ApertureField(grid, np.array([[2.0 - 1.0j]]))
    r = 0.123
    value = propagate_direct(field, [(0.0, 0.0, r)])[0]
    k = grid.wavenumber
    assert value == pytest.approx((2.0 - 1.0j) * np.exp(-1j * k * r) / r, rel=1e-12)


def test_direct_symmetric_pair_adds_in_phase():
    f = 3e11
    lam = 299792458.0 / f
    grid = make_grid(2 * (lam / 2), f, 0.5)
    n = grid.elements_per_side
    assert n == 2
    pair = ApertureField(grid, np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
    single = ApertureField(grid, np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    z = 0.1
    # both live elements sit symmetric about the y axis; on-axis amplitudes add
    e_pair = abs(propagate_direct(pair, [(0.0, grid.axis_coordinates()[0], z)])[0])
    e_single = abs(propagate_direct(single, [(0.0, grid.axis_coordinates()[0], z)])[0])
    assert e_pair == pytest.approx(2.0 * e_single, rel=1e-12)


def test_direct_focus_beats_defocus():
    # high Fresnel number, where the |E| peak sits at the geometric focus
    grid = make_grid(0.05, 3e11)
    F = 0.05
    field = compose_aperture(grid, [phase_quadratic(grid, F)])
    at_focus, off_focus = np.abs(propagate_direct(field, [(0, 0, F), (0, 0, 0.889 * F)]))
    assert at_focus > off_focus


def test_direct_rejects_coincident_point():
    grid = make_grid(0.02, 3e11)
    field = ApertureField.uniform(grid)
    x0 = grid.axis_coordinates()[0]
    # a point in the aperture plane lands on an element, and one behind it is refused too
    for point in ((x0, x0, 0.0), (0.0, 0.0, -1.0), (0.0, 0.0, math.nan)):
        with pytest.raises(ValueError, match=r"cannot sum at the point \(.*\) m: z must be > 0"):
            propagate_direct(field, [(0.0, 0.0, 0.5), point])


# ---------------------------------------------------------------------------
# spectral propagation vs the oracle


@pytest.mark.parametrize("z_wavelengths", [50, 200, 500, 5000])
def test_asm_matches_direct_summation(z_wavelengths):
    grid = make_grid(0.032, 3e11)  # 64x64 at half-wavelength pitch
    assert grid.elements_per_side == 64
    field = _random_phase_field(grid)
    z = z_wavelengths * grid.wavelength
    slice_ = propagate_asm(field, z, pad_factor=4.0)
    xs = slice_.axis_coordinates()
    npad = xs.size
    # 32x32 probe grid across the central quarter
    q = npad // 4
    idx = np.linspace(npad // 2 - q // 2, npad // 2 + q // 2 - 1, 32).astype(int)
    probes = [(xs[ix], xs[iy], z) for iy in idx for ix in idx]
    direct = propagate_direct(field, probes)
    asm = np.array([slice_.samples[iy, ix] for iy in idx for ix in idx])
    rel = np.sqrt(np.mean(np.abs(asm - direct) ** 2) / np.mean(np.abs(direct) ** 2))
    assert rel < 1e-3


def _readme_propagate_plane():
    """README's ``thzbeam propagate`` example: n = 100, npad 200."""
    field = synthesize_field(make_grid(0.05, 3e11), WavefrontSpec(kind="bessel", spot_fwhm=0.004))
    return field, propagate_asm(field, 0.14)


def _fig4_ci_reference_plane():
    """The Bessel reference hop of the ``fig4-ci`` blockage study: n = 420, npad 840."""
    config = preset("fig4-ci")
    grid, b, spec = config.grid, config.blockage, config.wavefronts["bessel"]
    design = axicon_design(grid, spec.spot_fwhm, spec.spot_convention)
    z_eval = b.obstacle_z_m + 2.0 * (b.obstacle_size_m / 2.0) / math.tan(design.cone_angle)
    field = synthesize_field(grid, spec)
    return field, propagate_asm(field, z_eval, b.pad_factor)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="propagate_asm convolves circularly on the padded plane, so a sample "
                          "more than (npad - n)/2 from the centre wraps round, yet the plane "
                          "and blockage studies write the whole plane")
@pytest.mark.parametrize("make_plane", [_readme_propagate_plane, _fig4_ci_reference_plane],
                         ids=["readme-propagate", "fig4-ci-reference"])
def test_every_written_sample_agrees_with_the_oracle(make_plane):
    field, plane = make_plane()
    npad = plane.samples.shape[0]
    rows, cols = np.random.default_rng(13).integers(0, npad, size=(2, 16))
    xs = plane.axis_coordinates()
    direct = propagate_direct(field, [(xs[ix], xs[iy], plane.z) for iy, ix in zip(rows, cols)])
    error = np.max(np.abs(plane.samples[rows, cols] - direct))
    assert error <= 1e-12 * np.max(np.abs(plane.samples))


# the fig4-ci knife-edge advantage from a pipeline whose central window is exact: the
# study's knife hops at pad_factor=8, npad 3360, with each wavefront's
# peak read over the central 840 x 840 samples, the plane the study writes at pad 2
# (10*log10(1.180916e9 / 4.366092e6); 3.5 s and 367 MB on a 2-core host, so pinned here)
KNIFE_ADVANTAGE_PAD8_DB = 24.3212621


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at the study's pad 2 the knife hops wrap round the padded plane, "
                          "so the peaks they give differ from those of a wider pad")
def test_knife_advantage_matches_the_exact_window_pipeline(fig4_ci_run):
    """The ``advantage_db`` that fig4-ci writes to ``caustic_blockage.csv`` equals, within
    0.1 dB, the one the pad-8 knife pipeline gives, ``KNIFE_ADVANTAGE_PAD8_DB``."""
    out, _ = fig4_ci_run
    advantage = float((out / "caustic_blockage.csv").read_text().splitlines()[1].split(",")[-1])
    assert abs(advantage - KNIFE_ADVANTAGE_PAD8_DB) <= 0.1


def test_slice_propagation_identity_at_zero_distance():
    grid = make_grid(0.05, 3e11)
    slice_ = _gaussian_slice(grid, 0.01)
    pad = 1.0

    def residual(dz):
        out = propagate_slice(slice_, dz, pad, wavelength=grid.wavelength)
        expected = slice_.samples * np.exp(-1j * grid.wavenumber * dz)
        return np.linalg.norm(out.samples - expected) / np.linalg.norm(expected)

    assert residual(grid.wavelength / 1e4) < 1e-6
    # over a full pitch the residual is genuine diffraction, still tiny
    assert residual(grid.element_pitch) < 5e-3


def test_gaussian_waist_evolution():
    # 1/e^2 radius of a Gaussian-apodized aperture follows w0*sqrt(1+(z/zR)^2)
    f = 3e11
    grid = make_grid(0.12, f)
    lam = grid.wavelength
    w0 = 30 * lam
    X, Y = grid.meshgrid()
    field = ApertureField(grid, np.exp(-(X**2 + Y**2) / w0**2).astype(complex))
    z_rayleigh = math.pi * w0**2 / lam

    def measured_radius(z):
        slice_ = propagate_asm(field, z, pad_factor=4.0)
        intensity = np.abs(slice_.samples) ** 2  # the whole plane, not the block it stores
        iy, ix = np.unravel_index(np.argmax(intensity), intensity.shape)
        cut = intensity[iy, :]
        xs = slice_.axis_coordinates()
        target = intensity[iy, ix] / math.e**2
        above = np.where(cut >= target)[0]
        lo, hi = above[0], above[-1]
        # linear interpolation at both crossings
        def cross(i0, i1):
            f0, f1 = cut[i0], cut[i1]
            t = (f0 - target) / (f0 - f1)
            return xs[i0] + t * (xs[i1] - xs[i0])
        return (cross(hi, hi + 1) - cross(lo, lo - 1)) / 2.0

    for z in (0.5 * z_rayleigh, z_rayleigh, 2.0 * z_rayleigh):
        expected = w0 * math.sqrt(1.0 + (z / z_rayleigh) ** 2)
        assert measured_radius(z) == pytest.approx(expected, rel=0.01)


# ---------------------------------------------------------------------------
# obstacles


def test_zero_size_obstacle_equals_unobstructed():
    grid = make_grid(0.02, 3e11)
    field = _random_phase_field(grid)
    clear = propagate_asm(field, 0.2)
    masked = propagate_with_obstacles(field, ObstacleSpec("disc", 0.0, (0.0, 0.0), 0.1), 0.2)
    # no sample lies inside a zero-size disc, so its plane is skipped: the bits are the same
    np.testing.assert_array_equal(_bits(masked.samples), _bits(clear.samples))


def test_bessel_heals_behind_ten_percent_disc():
    grid = make_grid(0.05, 3e11)
    design = axicon_design(grid, 0.008)
    field = compose_aperture(grid, [phase_conical(grid, design)], circular_taper(grid))
    r_obs = 0.1 * grid.side_length / 2.0
    z_heal = r_obs / math.tan(design.cone_angle)
    z_obs = 0.15
    z_eval = z_obs + 2.0 * z_heal
    assert z_eval < design.z_max
    pad = 4.0
    blocked = propagate_with_obstacles(
        field, ObstacleSpec("disc", 2 * r_obs, (0.0, 0.0), z_obs), z_eval, pad
    )
    reference = propagate_asm(field, z_eval, pad)
    from thzbeam import self_healing_correlation

    assert self_healing_correlation(blocked, reference) >= 0.9


def test_obstacle_plane_ordering_enforced():
    grid = make_grid(0.02, 3e11)
    field = ApertureField.uniform(grid)
    with pytest.raises(ValueError, match="before"):
        propagate_with_obstacles(field, ObstacleSpec("disc", 0.002, (0, 0), 0.4), 0.3)


def test_obstacle_bigger_than_plane_is_geometry_error():
    from thzbeam import GeometryError

    grid = make_grid(0.02, 3e11)
    field = ApertureField.uniform(grid)
    with pytest.raises(GeometryError):
        propagate_with_obstacles(field, ObstacleSpec("disc", 1.0, (0.0, 0.0), 0.1), 0.2)


def test_obstacle_footprint_bound_is_the_plane_extent():
    from thzbeam import GeometryError, make_obstacle_mask

    grid = make_grid(0.02, 3e11)
    field = ApertureField.uniform(grid)
    plane = propagate_asm(field, 0.1)
    n, pitch = plane.samples.shape[0], plane.sample_pitch
    # the disc edge lies between n*p/2 and ((n-1)/2 + 1)*p, half a pitch looser
    size = 2 * (n / 2.0 + 0.25) * pitch
    disc = ObstacleSpec("disc", size, (0.0, 0.0), 0.1)
    with pytest.raises(GeometryError):
        make_obstacle_mask(plane, disc)
    with pytest.raises(GeometryError):
        propagate_with_obstacles(field, disc, 0.2)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_knife_edge_on_the_padded_planes_border_is_geometry_error(sign):
    """The knife's rule holds at the padded plane the hop masks, not the aperture's."""
    from thzbeam import GeometryError

    grid = make_grid(0.02, 3e11)
    field = ApertureField.uniform(grid)
    pad = 2.0
    half = propagation._padded_size(grid.elements_per_side, pad) * grid.element_pitch / 2.0
    assert half > grid.extent / 2.0
    for edge in (sign * half, 2.0 * sign * half):
        knife = ObstacleSpec("half_plane", 0.0, (edge, 0.0), 0.1)
        with pytest.raises(GeometryError, match="block all of the plane or none of it"):
            propagate_with_obstacles(field, knife, 0.2, pad)
    # an edge beyond the aperture but inside the padded plane is a knife like any other
    inside = ObstacleSpec("half_plane", 0.0, (sign * (grid.extent / 2.0 + grid.element_pitch), 0.0),
                          0.1)
    assert np.isfinite(propagate_with_obstacles(field, inside, 0.2, pad).samples).all()


# ---------------------------------------------------------------------------
# axial scans


def test_axial_scan_axicon_grows_like_sqrt_z():
    # square aperture: the azimuth-smeared edge wave leaves the sqrt(z) trend clean
    grid = make_grid(0.05, 3e11)
    design = axicon_design(grid, 0.002)
    field = compose_aperture(grid, [phase_conical(grid, design)])
    zs = np.linspace(0.1 * design.z_max, 0.5 * design.z_max, 25)
    amplitude = np.abs(propagation._axial_sums(field, zs)[0])
    r = np.corrcoef(amplitude, np.sqrt(zs))[0, 1]
    assert r > 0.95


def test_axial_scan_focus_location():
    grid = make_grid(0.05, 3e11)
    F = 0.05  # deep-focus regime: |E| argmax coincides with the geometric focus
    field = compose_aperture(grid, [phase_quadratic(grid, F)])
    zs = np.linspace(0.5 * F, 1.5 * F, 101)
    peak_z = zs[int(np.argmax(np.abs(propagation._axial_sums(field, zs)[0])))]
    assert 0.95 * F <= peak_z <= 1.05 * F


def test_axial_scan_inversion_symmetry():
    grid = make_grid(0.02, 3e11)
    field = _random_phase_field(grid)
    sym = ApertureField(grid, (field.weights + field.weights[::-1, ::-1]) / 2.0)
    flipped = ApertureField(grid, sym.weights[::-1, ::-1])
    zs = [0.1, 0.2, 0.4]
    np.testing.assert_allclose(propagation._axial_sums(sym, zs)[0],
                               propagation._axial_sums(flipped, zs)[0], rtol=1e-12)


@pytest.mark.parametrize("side", [0.03, 0.0305], ids=["even-n", "odd-n"])
def test_axial_scan_matches_direct_sum(side):
    grid = make_grid(side, 3e11)
    n = grid.elements_per_side
    rng = np.random.default_rng(13)
    # non-radial weights: amplitude in [0.2, 1] times a random phase
    weights = rng.uniform(0.2, 1.0, (n, n)) * np.exp(2j * np.pi * rng.random((n, n)))
    field = ApertureField(grid, weights)
    zs = [0.01, 0.05, 0.2, 1.5]
    expected = propagate_direct(field, [(0.0, 0.0, z) for z in zs])
    np.testing.assert_allclose(propagation._axial_sums(field, zs)[0], expected, rtol=1e-10, atol=0.0)


def _axial_sums_two_bincounts(field, z_values):
    """Reference: the complex weights binned by one ``bincount`` per component."""
    s, inverse = _axial_bins(field.grid.elements_per_side)
    w = field.weights.ravel()
    w_bins = (np.bincount(inverse, weights=w.real, minlength=s.size)
              + 1j * np.bincount(inverse, weights=w.imag, minlength=s.size))
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


@pytest.mark.parametrize("sizes", [range(1, 65), [333], [334], [667], [1667]],
                         ids=["1-64", "333", "334", "667", "1667"])
def test_axial_bins_equal_the_sorting_form(sizes):
    for n in sizes:
        u = (2 * np.arange(n, dtype=np.int64) - (n - 1)) ** 2
        values, inverse = np.unique(u[:, None] + u[None, :], return_inverse=True)
        got_values, got_inverse = _axial_bins.__wrapped__(n)  # bypass the cache
        for got, want in ((got_values, values), (got_inverse, inverse.ravel())):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def _axial_weights(grid, case):
    n = grid.elements_per_side
    rng = np.random.default_rng(n)
    phasors = rng.uniform(0.2, 1.0, (n, n)) * np.exp(2j * np.pi * rng.random((n, n)))
    if case == "random":
        return phasors
    if case == "signed-zero-imag":  # real weights of both signs, imaginary parts +0.0 and -0.0
        w = rng.uniform(-1.0, 1.0, (n, n)) + 0j
        w.imag[rng.random((n, n)) < 0.5] = -0.0
        return w
    return phasors * circular_taper(grid).values  # zeroed elements outside the disc


@pytest.mark.parametrize("case", ["random", "signed-zero-imag", "tapered"])
@pytest.mark.parametrize("side", [0.03, 0.0305], ids=["even-n", "odd-n"])
def test_axial_sums_bit_identical_to_two_bincounts(side, case):
    grid = make_grid(side, 3e11)
    field = ApertureField(grid, _axial_weights(grid, case))
    zs = [0.01, 0.05, 0.2, 1.5]
    for got, want in zip(propagation._axial_sums(field, zs), _axial_sums_two_bincounts(field, zs)):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# spectral-domain properties


def test_semigroup_two_hops_equal_one():
    grid = make_grid(0.05, 3e11)
    lam = grid.wavelength
    slice_ = _gaussian_slice(grid, 0.006)
    # adequate padding keeps the hop band limits clear of the beam spectrum
    one = propagate_slice(slice_, 0.3, pad_factor=4.0, wavelength=lam)
    half = propagate_slice(slice_, 0.15, pad_factor=4.0, wavelength=lam)
    two = propagate_slice(half, 0.15, pad_factor=1.0, wavelength=lam)
    rel = np.sqrt(np.mean(np.abs(two.samples - one.samples) ** 2)
                  / np.mean(np.abs(one.samples) ** 2))
    assert rel < 1e-6


def test_semigroup_exact_inside_the_band_limit():
    """H(z1) H(z2) = H(z1 + z2) wherever the longer hop passes, and it passes nothing that
    the two shorter hops stop: its band limit is the narrower."""
    grid = make_grid(0.02, 3e11)
    npad = propagation._padded_size(grid.elements_per_side, 2.0)
    pitch, k = grid.element_pitch, grid.wavenumber
    one = propagation._analytic_transfer(npad, pitch, k, 0.2)
    two = (propagation._analytic_transfer(npad, pitch, k, 0.08)
           * propagation._analytic_transfer(npad, pitch, k, 0.12))
    passed = one != 0.0
    assert 0 < np.count_nonzero(passed) < np.count_nonzero(two)
    assert np.max(np.abs(two[passed] - one[passed])) < 1e-12
    assert not np.any(one[two == 0.0])


def test_parseval_power_conserved():
    grid = make_grid(0.02, 3e11)
    n, pitch = grid.elements_per_side, grid.element_pitch
    slice_ = FieldSlice(0.0, RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)),
                        pitch)
    out = propagate_slice(slice_, 0.25, pad_factor=2.0,
                          wavelength=grid.wavelength)
    # reference: the power of the input spectrum inside the hop's pass band, where |H| = 1
    npad = out.samples.shape[0]
    band = _mirror(propagation._analytic_transfer(npad, pitch, grid.wavenumber, 0.25), npad) != 0
    spectrum = scipy.fft.fft2(_padded(slice_.samples, npad))
    assert np.count_nonzero(band) < band.size  # the band limit stops some of it
    passed = np.sum(np.abs(spectrum[band]) ** 2) * pitch**2 / npad**2
    assert out.power == pytest.approx(passed, rel=1e-12)


def test_propagation_deterministic():
    grid = make_grid(0.02, 3e11)
    field = _random_phase_field(grid)
    a = propagate_asm(field, 0.2)
    b = propagate_asm(field, 0.2)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_band_limit_collapse_raises_sampling_error():
    grid = make_grid(0.01, 3e11)
    slice_ = _gaussian_slice(grid, 0.002)
    with pytest.raises(SamplingError) as err:
        propagate_slice(slice_, 1.0, pad_factor=1.0,
                        wavelength=grid.wavelength)
    # the hint is a pad factor a hop takes, and the hop runs with it
    propagate_slice(slice_, 1.0, pad_factor=err.value.required_pad_factor,
                    wavelength=grid.wavelength)
    # a failed build leaves nothing behind for a repeated hop to reuse
    with reuse_spectra():
        for _ in range(2):
            with pytest.raises(SamplingError):
                propagate_slice(slice_, 1.0, pad_factor=1.0,
                                wavelength=grid.wavelength)


def test_hops_refuse_a_pad_factor_outside_1_to_8_and_a_bad_distance():
    grid = make_grid(0.02, 3e11)
    field = ApertureField.uniform(grid)
    slice_ = _gaussian_slice(grid, 0.002)
    disc = ObstacleSpec("disc", 0.0, (0.0, 0.0), 0.05)
    for pad in (0.5, 8.5, math.nan):
        for hop in (lambda: propagate_asm(field, 0.1, pad),
                    lambda: propagate_slice(slice_, 0.1, pad, wavelength=grid.wavelength),
                    lambda: propagate_with_obstacles(field, disc, 0.1, pad)):
            with pytest.raises(ValueError, match=r"pad_factor must be in \[1, 8\]"):
                hop()
    for z in (-0.1, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            propagate_asm(field, z)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_hops_refuse_a_distance_that_is_not_finite_before_any_spectrum(monkeypatch, z):
    """One distance rule serves every hop; ``propagate_slice`` also takes a step of 0."""
    grid = make_grid(0.02, 3e11)
    field = ApertureField.uniform(grid)
    slice_ = _gaussian_slice(grid, 0.002)
    disc = ObstacleSpec("disc", 0.002, (0.0, 0.0), 0.05)
    assert propagate_slice(slice_, 0.0, wavelength=grid.wavelength).z == 0.0

    def no_spectrum(key, build):
        raise AssertionError(f"a {key[0]} spectrum was built")

    monkeypatch.setattr(propagation, "_spectrum", no_spectrum)
    for hop in (lambda: propagate_asm(field, z),
                lambda: propagate_slice(slice_, z, wavelength=grid.wavelength),
                lambda: propagate_with_obstacles(field, disc, z),
                lambda: crosstalk_matrix(field, (0, 1), z)):
        with pytest.raises(ValueError, match="propagation distance must be positive and finite"):
            hop()


# ---------------------------------------------------------------------------
# beam squint


def test_fixed_phase_beam_squint_matches_formula():
    grid = make_grid(0.02, 3e11)
    f_c = 3e11
    angle = math.radians(30.0)
    f = f_c + 0.05 * f_c
    R = 50.0
    angles = np.radians(np.linspace(26.0, 32.0, 241))

    # the centre-frequency phase map, applied verbatim to the same hardware at f
    phase = phase_planar(grid, steer_vector(angle))
    fld = ApertureField(ApertureGrid(grid.side_length, grid.element_pitch, f),
                        np.exp(1j * phase.values))
    amps = np.abs(
        propagate_direct(fld, [(R * math.sin(a), 0.0, R * math.cos(a)) for a in angles])
    )
    measured = float(angles[int(np.argmax(amps))])
    predicted = math.asin((f_c / f) * math.sin(angle))
    assert abs(math.degrees(angle) - math.degrees(measured)) > 0.1  # squint is real
    assert measured == pytest.approx(predicted, abs=math.radians(0.1))


def test_aperture_propagation_window_guard():
    grid = make_grid(0.01, 3e11)
    field = ApertureField.uniform(grid)
    with pytest.raises(SamplingError) as err:
        propagate_asm(field, 1.0, pad_factor=1.0)
    propagate_asm(field, 1.0, pad_factor=err.value.required_pad_factor)


# ---------------------------------------------------------------------------
# spectrum builds and their reuse


def _reference_kernel(npad, pitch, k, z):
    """The full FFT-ordered grid of the sampled kernel, at signed offsets; not mirrored."""
    d = np.arange(npad)
    d = np.where(d <= npad // 2, d, d - npad) * pitch
    DX, DY = np.meshgrid(d, d, indexing="xy")
    r = np.sqrt(DX * DX + DY * DY + z * z)
    return np.exp(-1j * k * r) / r


def _mirror(q, npad):
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


# pocketfft's transform of an exactly even grid is not bitwise even, so a mirrored kernel
# quadrant differs from scipy's full-grid spectrum by round-off: at most 7.4e-16 of the
# spectrum's largest magnitude at npad 17-841 here, and 8.1e-16 at npad 1125
KERNEL_MIRROR_TOL = 1e-15
# and a hop through it moves by about as much: 6.2e-16 and 5.8e-16 of the plane's largest
# magnitude at n = 40 and 41 here
HOP_MIRROR_TOL = 1e-15


def _reference_transfer(npad, pitch, k, dz):
    """Full-grid construction of the band-limited transfer function."""
    kx = 2.0 * np.pi * scipy.fft.fftfreq(npad, d=pitch)
    KX, KY = np.meshgrid(kx, kx, indexing="xy")
    kz_sq = k * k - KX * KX - KY * KY
    prop = kz_sq > 0.0
    kz = np.sqrt(np.where(prop, kz_sq, 0.0))
    H = np.where(prop, np.exp(-1j * dz * kz), 0.0 + 0.0j)
    lam = 2.0 * np.pi / k
    extent = npad * pitch
    f_limit = 1.0 / (lam * math.sqrt((2.0 * dz / extent) ** 2 + 1.0))
    k_limit = 2.0 * np.pi * f_limit
    return H * ((np.abs(KX) <= k_limit) & (np.abs(KY) <= k_limit))


@pytest.mark.parametrize("npad", [17, 18, 840, 841])
def test_quadrant_builds_equal_full_grid_builds(npad):
    pitch = 1.5e-4
    k = 2.0 * np.pi / 3e-4
    h = npad // 2
    kernel = _reference_kernel(npad, pitch, k, 0.125)
    q = kernel[: h + 1, : h + 1]
    np.testing.assert_array_equal(_bits(_mirror(q, npad)), _bits(kernel))
    got = propagation._kernel_spectrum(npad, pitch, k, 0.125)
    assert got.shape == (h + 1, h + 1) and got.flags.c_contiguous
    # bit for bit: the crop of the transform of the explicitly mirrored quadrant
    np.testing.assert_array_equal(
        _bits(got), _bits(scipy.fft.fft2(_mirror(q, npad))[: h + 1, : h + 1]))
    # within round-off: the mirrored quadrant against the full-grid spectrum
    full = scipy.fft.fft2(kernel)
    error = np.max(np.abs(_mirror(got, npad) - full)) / np.max(np.abs(full))
    assert error <= KERNEL_MIRROR_TOL
    dz = 0.5 * npad * pitch
    quadrant = propagation._analytic_transfer(npad, pitch, k, dz)
    assert quadrant.shape == (h + 1, h + 1)
    np.testing.assert_array_equal(_mirror(quadrant, npad), _reference_transfer(npad, pitch, k, dz))


def _padded(samples, npad):
    n = samples.shape[0]
    out = np.zeros((npad, npad), dtype=complex)
    lo = (npad - n) // 2
    out[lo : lo + n, lo : lo + n] = samples
    return out


@pytest.mark.parametrize("npad", [17, 18, 840, 841])
def test_quadrant_application_equals_the_full_grid_apply(npad):
    pitch = 1.5e-4
    k = 2.0 * np.pi / 3e-4
    n = npad - 6  # the padding keeps n's parity
    samples = np.exp(2j * np.pi * RNG.random((n, n))) * RNG.random((n, n))
    quadrant = propagation._analytic_transfer(npad, pitch, k, 0.5 * npad * pitch)
    # operand order quadrant * field spectrum, as the artifacts are pinned to it
    full = scipy.fft.ifft2(np.multiply(_mirror(quadrant, npad),
                                       scipy.fft.fft2(_padded(samples, npad))))
    got = propagation._apply_quadrant(quadrant, samples, n, npad, (False, False))
    np.testing.assert_array_equal(_bits(got), _bits(full))


@pytest.mark.parametrize("side, n", [(0.02, 40), (0.0205, 41)])
def test_owned_hop_in_place_equals_propagate_slice(side, n):
    """The unpadded hop of an obstacle plane transforms the plane it owns in place."""
    grid = make_grid(side, 3e11)
    assert grid.elements_per_side == n
    lam = grid.wavelength
    plane = propagate_asm(_random_phase_field(grid), 0.05, pad_factor=1.5)
    hop_pad = 1.0
    before = plane.samples.copy()
    expected = propagate_slice(plane, 0.03, hop_pad, wavelength=lam)
    np.testing.assert_array_equal(_bits(plane.samples), _bits(before))  # left untouched
    got = propagation._hop_slice(plane, 0.03, hop_pad, lam, overwrite=True)
    assert got.samples is plane.samples and got.z == expected.z
    np.testing.assert_array_equal(_bits(got.samples), _bits(expected.samples))


def _full_apply(quadrant, samples, npad):
    """A hop through full 2-D transforms: scipy's ``ifft2`` of the mirrored quadrant times
    ``fft2`` of the padded samples, in that operand order."""
    return scipy.fft.ifft2(np.multiply(_mirror(quadrant, npad),
                                       scipy.fft.fft2(_padded(samples, npad))))


def _full_hop(field, z, pad_factor=2.0):
    """``propagate_asm``'s samples through full 2-D transforms, for any weights."""
    n, pitch, k = field.grid.elements_per_side, field.grid.element_pitch, field.grid.wavenumber
    npad = propagation._padded_size(n, pad_factor)
    return _full_apply(propagation._kernel_spectrum(npad, pitch, k, z), field.weights, npad)


def _full_slice_hop(samples, dz, pitch, lam, pad_factor):
    """A ``FieldSlice`` hop of ``samples`` by dz through full 2-D transforms."""
    npad = propagation._padded_size(samples.shape[0], pad_factor)
    transfer = propagation._analytic_transfer(npad, pitch, 2.0 * np.pi / lam, dz)
    return _full_apply(transfer, samples, npad)


def _assert_close(got, full, tol):
    assert np.max(np.abs(got - full)) <= tol * np.max(np.abs(full))


# a hop with an even axis agrees with the full transforms to round-off: 2.9e-16 to 8.2e-16
# of the plane's largest magnitude over the cases below, obstacle hops included
EVEN_HOP_TOL = 2e-15
# inside the exact window the seeded samples below agree with the direct sum to 1.8e-15
# to 1.6e-14 of the plane's largest magnitude
ORACLE_TOL = 1e-12


def _assert_matches_the_oracle(field, plane, z, seed, count=6):
    """Seeded samples of ``plane`` inside its exact window against ``propagate_direct``."""
    n, npad = field.grid.elements_per_side, plane.shape[0]
    lo = (npad - n) // 2
    iy, ix = np.random.default_rng(seed).integers(lo, lo + n, size=(2, count))
    x = FieldSlice(z, plane, field.grid.element_pitch).axis_coordinates()
    exact = propagate_direct(field, np.column_stack([x[ix], x[iy], np.full(count, z)]))
    assert np.max(np.abs(plane[iy, ix] - exact)) <= ORACLE_TOL * np.max(np.abs(plane))


# (side at 1 THz, elements per side, spec): n = 266 pads to 540 and n = 333 to 675
EVEN_APERTURES = {
    "bessel-even-n": (0.0399, 266, WavefrontSpec(kind="bessel", spot_fwhm=0.002)),
    "bessel-odd-n": (0.04995, 333, WavefrontSpec(kind="bessel", spot_fwhm=0.002)),
    "broadside-planar": (0.03, 200, WavefrontSpec(kind="beamforming")),
}


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("name", sorted(EVEN_APERTURES))
def test_even_aperture_hops_to_a_bitwise_even_plane(name, cpus, split_ffts):
    side, n, spec = EVEN_APERTURES[name]
    field = synthesize_field(make_grid(side, 1e12), spec)
    assert field.grid.elements_per_side == n and _even_axes(field.weights) == (True, True)
    one_block = propagate_asm(field, 0.1).samples
    split_ffts(cpus)
    plane = propagate_asm(field, 0.1).samples
    np.testing.assert_array_equal(_bits(plane), _bits(one_block))  # a split moves no bit
    assert _even_axes(plane) == (True, True)
    _assert_close(plane, _full_hop(field, 0.1), EVEN_HOP_TOL)
    _assert_matches_the_oracle(field, plane, 0.1, seed=n)


def _oam_disc_helix(grid, l):
    """The receive disc times ``exp(-1j*l*phi)``, the field of a crosstalk adjoint hop."""
    X, Y = grid.meshgrid()
    return np.where(X * X + Y * Y <= grid.half_side**2, np.exp(-1j * l * np.arctan2(Y, X)), 0.0)


@pytest.mark.parametrize("name", ["steered-planar", "oam-disc-helix"])
def test_uneven_apertures_keep_the_full_inverse(name):
    """Along an uneven axis the hop keeps the full transforms: the helix, uneven in both,
    bit for bit; the planar ramp steered in x, whose rows are equal, to round-off."""
    grid = make_grid(0.0399, 1e12)
    if name == "steered-planar":
        field, even = synthesize_field(grid, WavefrontSpec(kind="beamforming",
                                                           steer_angle=0.01)), (True, False)
    else:
        field, even = ApertureField(grid, _oam_disc_helix(grid, 2)), (False, False)
    assert _even_axes(field.weights) == even
    plane = propagate_asm(field, 0.1).samples
    full = _full_hop(field, 0.1)
    assert _even_axes(plane) == even
    if even == (False, False):
        np.testing.assert_array_equal(_bits(plane), _bits(full))
    else:
        _assert_close(plane, full, EVEN_HOP_TOL)
    _assert_matches_the_oracle(field, plane, 0.1, seed=7)


def _even_along(a, even):
    """``a`` made even about its centre along y (axis 0) and x (axis 1) as ``even`` says:
    along such an axis, m long, index j < m//2 takes ``np.flip``'s entry there, m-1-j."""
    for axis, e in enumerate(even):
        if e:
            m = a.shape[axis]
            lower = (np.arange(m) < m // 2).reshape((m, 1) if axis == 0 else (1, m))
            a = np.where(lower, np.flip(a, axis), a)
    return a


AXIS_PAIRS = [(True, True), (True, False), (False, True), (False, False)]


@pytest.mark.parametrize("dtype", [np.complex128, np.uint16], ids=["complex128", "uint16"])
@pytest.mark.parametrize("keep", AXIS_PAIRS, ids=["keep-yx", "keep-y", "keep-x", "keep-none"])
@pytest.mark.parametrize("even", AXIS_PAIRS, ids=["yx", "y", "x", "none"])
@pytest.mark.parametrize("n", [7, 8])
def test_unfold_equals_the_flip_mirror(n, even, keep, dtype):
    """``_Layout.unfold`` of the block of a plane even along ``even`` is the plane, bit for
    bit, but along the axes ``keep`` names, where it is the block's half."""
    rng = np.random.default_rng(n)
    if dtype is np.uint16:
        plane = rng.integers(0, 1 << 16, (n, n), dtype=np.uint16)
    else:
        plane = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        plane.real[::3] = -0.0  # signed zeros on both sides of the centre
        plane.imag[:, 1::3] = 0.0
        plane.imag[:, 2::3] *= -0.0
    whole = _even_along(plane, even)
    layout = _Layout(n, 1.0, even)
    block = layout.crop(whole)
    got = layout.unfold(block, keep)
    # the reference is the flip mirror of the whole plane, cropped by index
    h = n // 2
    expected = whole[tuple(slice(h, None) if e and k else slice(None) for e, k in zip(even, keep))]
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("even", AXIS_PAIRS, ids=["yx", "y", "x", "none"])
@pytest.mark.parametrize("side, n", [(0.02, 40), (0.0205, 41)])
def test_each_axis_pair_hops_as_the_full_transforms(side, n, even, cpus, split_ffts):
    """The aperture hop and the in-place slice hop after it, for each pair of even axes
    at even and odd n: bit for bit the full transforms with no even axis, within
    round-off and bitwise even along each even axis otherwise; no split moves a bit."""
    grid = make_grid(side, 3e11)
    field = ApertureField(grid, _even_along(_random_phase_field(grid).weights, even))
    assert grid.elements_per_side == n and _even_axes(field.weights) == even
    hop_pad = 1.0
    planes = []
    for blocks in (1, cpus):
        split_ffts(blocks)
        plane = propagate_asm(field, 0.05)
        planes.append(plane.samples.copy())
        planes.append(propagation._hop_slice(plane, 0.03, hop_pad, grid.wavelength,
                                             True).samples)
    for got, split in zip(planes[:2], planes[2:]):
        np.testing.assert_array_equal(_bits(split), _bits(got))
    aperture_plane, next_plane = planes[:2]
    expected = [_full_hop(field, 0.05), _full_slice_hop(aperture_plane, 0.03, grid.element_pitch,
                                                        grid.wavelength, hop_pad)]
    for got, full in zip((aperture_plane, next_plane), expected):
        assert _even_axes(got) == even
        if any(even):
            _assert_close(got, full, EVEN_HOP_TOL)
        else:
            np.testing.assert_array_equal(_bits(got), _bits(full))
    _assert_matches_the_oracle(field, aperture_plane, 0.05, seed=n)


def test_even_axes_compare_every_word():
    """The centre lines only reject early: a sample off them breaks evenness, and so does
    a -0.0 mirrored by a +0.0."""
    grid = make_grid(0.0205, 3e11)
    n = grid.elements_per_side
    even = _even_along(_random_phase_field(grid).weights, (True, True))
    assert _even_axes(even) == (True, True)
    w = even.copy()
    w[3, 5] *= 1j
    assert _even_axes(w) == (False, False)
    w = even.copy()
    w[2, [7, n - 8]] = complex(0.0, 0.0)
    w[n - 3, [7, n - 8]] = complex(-0.0, 0.0)
    assert _even_axes(w) == (False, True)


def _block_planes(side, even):
    """Two planes, even along ``even``, that a hop returns as blocks: npad 80 at side 0.02
    and 99 at side 0.0205."""
    grid = make_grid(side, 3e11)
    return [propagate_asm(ApertureField(grid, _even_along(_random_phase_field(grid).weights,
                                                          even)), 0.05) for _ in range(2)]


@pytest.mark.parametrize("even", AXIS_PAIRS, ids=["yx", "y", "x", "none"])
@pytest.mark.parametrize("side", [0.02, 0.0205], ids=["even-npad", "odd-npad"])
def test_block_slices_read_as_their_whole_planes(side, even):
    """A hop stores its plane as the block of non-negative coordinates along each even
    axis; ``samples`` mirrors it once, bit for bit, and keeps it."""
    plane, _ = _block_planes(side, even)
    npad = plane.layout.side
    assert plane.even == even and npad % 2 == (side == 0.0205)
    h = npad // 2
    assert plane.block.shape == tuple(npad - h if e else npad for e in even)
    embedded = np.zeros((npad, npad), dtype=complex)
    embedded[h if even[0] else 0 :, h if even[1] else 0 :] = plane.block
    samples = plane.samples
    assert samples is plane.samples  # kept
    np.testing.assert_array_equal(_bits(samples), _bits(_even_along(embedded, even)))
    assert _even_axes(samples) == even
    assert (samples is plane.block) == (even == (False, False))
    # the block is the crop of the whole plane
    np.testing.assert_array_equal(_bits(plane.layout.crop(samples)), _bits(plane.block))


# the block sums add the same terms, times their exact multiplicities, in another order
BLOCK_SUM_RTOL = 1e-14


@pytest.mark.parametrize("even", AXIS_PAIRS, ids=["yx", "y", "x", "none"])
@pytest.mark.parametrize("side", [0.02, 0.0205], ids=["even-npad", "odd-npad"])
def test_block_sums_equal_the_whole_plane_sums(side, even):
    from thzbeam import self_healing_correlation
    from thzbeam.metrics import _disc_correlation, _intensity_correlation

    blocked, reference = _block_planes(side, even)
    whole = [FieldSlice(s.z, s.samples, s.sample_pitch) for s in (blocked, reference)]
    # the block's intensity is the crop of the plane's, bit for bit
    np.testing.assert_array_equal(_bits(reference.intensity()),
                                  _bits(reference.layout.crop(whole[1].intensity())))
    assert reference.power == pytest.approx(whole[1].power, rel=BLOCK_SUM_RTOL, abs=0.0)
    full = _intensity_correlation(whole[0].intensity(), whole[1].intensity(), 1.0)
    assert _intensity_correlation(blocked.intensity(), reference.intensity(),
                                  reference.layout.multiplicity()) == pytest.approx(
        full, rel=BLOCK_SUM_RTOL, abs=0.0)
    assert self_healing_correlation(blocked, reference) == pytest.approx(
        full, rel=BLOCK_SUM_RTOL, abs=0.0)
    radius = 0.3 * reference.extent
    assert _disc_correlation(blocked.intensity(), reference.intensity(), reference.layout,
                             radius) == pytest.approx(
        _disc_correlation(whole[0].intensity(), whole[1].intensity(), whole[1].layout, radius),
        rel=BLOCK_SUM_RTOL, abs=0.0)


def test_correlation_of_slices_even_along_different_axes():
    """Each slice is read as the block of the axes along which both are even."""
    from thzbeam import self_healing_correlation

    a, _ = _block_planes(0.0205, (True, True))
    b, _ = _block_planes(0.0205, (True, False))
    b = FieldSlice._of_block(a.z, b.block, b.layout)
    expected = self_healing_correlation(FieldSlice(a.z, a.samples, a.sample_pitch),
                                        FieldSlice(b.z, b.samples, b.sample_pitch))
    assert self_healing_correlation(a, b) == pytest.approx(expected, rel=BLOCK_SUM_RTOL, abs=0.0)


def test_caustic_hops_on_its_even_rows():
    """The caustic profile runs along x only, so its rows are equal: the hop is even in y."""
    grid = make_grid(0.05, 3e11)
    curve = CausticCurve(-2.2 * grid.half_side / 0.36, 0.6, x_start=-grid.half_side)
    field = synthesize_field(grid, WavefrontSpec(kind="caustic", curve=curve))
    assert _even_axes(field.weights) == (True, False)
    plane = propagate_asm(field, 0.2).samples
    assert _even_axes(plane) == (True, False)
    _assert_close(plane, _full_hop(field, 0.2), EVEN_HOP_TOL)
    _assert_matches_the_oracle(field, plane, 0.2, seed=1)


# (obstacle, the axes along which an even plane stays even behind it)
EVEN_BEHIND = {
    "centred-disc": (ObstacleSpec("disc", 0.004, (0.0, 0.0), 0.05), (True, True)),
    "disc-offset-in-x": (ObstacleSpec("disc", 0.004, (1e-3, 0.0), 0.05), (True, False)),
    "disc-offset-in-y": (ObstacleSpec("disc", 0.004, (0.0, -1e-3), 0.05), (False, True)),
    "disc-offset-in-both": (ObstacleSpec("disc", 0.004, (1e-3, -1e-3), 0.05), (False, False)),
    "knife-edge": (ObstacleSpec("half_plane", 0.0, (0.004, 0.0), 0.05), (True, False)),
}


@pytest.mark.parametrize("side", [0.02, 0.0205])
@pytest.mark.parametrize("name", sorted(EVEN_BEHIND))
def test_obstacle_hops_carry_the_axes_the_mask_keeps_even(name, side):
    """An even field masked at one obstacle, against full transforms and the copying form."""
    ob, even = EVEN_BEHIND[name]
    assert propagation._even_behind(ob, (True, True)) == even
    grid = make_grid(side, 3e11)
    field = ApertureField(grid, _even_along(_random_phase_field(grid).weights, (True, True)))
    pad, hop_pad = 1.5, 1.0
    pitch = grid.element_pitch
    plane = _full_hop(field, ob.plane_z, pad)
    plane *= make_obstacle_mask(FieldSlice(ob.plane_z, plane, pitch), ob).values
    full = _full_slice_hop(plane, 0.12 - ob.plane_z, pitch, grid.wavelength, hop_pad)
    got = propagate_with_obstacles(field, ob, 0.12, pad).samples
    assert _even_axes(got) == even
    _assert_close(got, full, EVEN_HOP_TOL)


def test_in_place_mask_multiply_equals_the_copy():
    samples = np.exp(2j * np.pi * RNG.random((41, 41))) * RNG.standard_normal((41, 41))
    samples.real[::5] = -0.0  # signed zeros: the complex product may flip their sign
    samples.imag[::3] = 0.0
    mask = make_obstacle_mask(FieldSlice(1.0, samples, 1e-3),
                              ObstacleSpec("disc", 0.012, (1e-3, 0.0), 1.0)).values
    expected = samples * mask
    np.multiply(samples, mask, out=samples)
    assert np.array_equal(samples.view(np.float64), expected.view(np.float64))
    assert np.array_equal(np.signbit(samples.view(np.float64)),
                          np.signbit(expected.view(np.float64)))


@pytest.mark.parametrize("ob", [ObstacleSpec("disc", 0.004, (5e-4, -1e-3), 0.05),
                                ObstacleSpec("half_plane", 0.0, (0.004, 0.0), 0.08)],
                         ids=["disc", "knife-edge"])
@pytest.mark.parametrize("side", [0.02, 0.0205])
def test_obstacle_hops_equal_the_copying_form(side, ob):
    """The plane masked in place, as against ``FieldSlice(samples * mask.values)``."""
    grid = make_grid(side, 3e11)
    field = _random_phase_field(grid)
    pad = 1.5
    plane = propagate_asm(field, ob.plane_z, pad)
    masked = FieldSlice(plane.z, plane.samples * make_obstacle_mask(plane, ob).values,
                        plane.sample_pitch)
    expected = propagate_slice(masked, 0.12 - masked.z, 1.0, wavelength=grid.wavelength)

    got = propagate_with_obstacles(field, ob, 0.12, pad)
    assert got.z == expected.z
    np.testing.assert_array_equal(got.samples, expected.samples)


@pytest.mark.parametrize("z", [1e200, 1e308])
def test_window_check_rejects_distances_beyond_the_float_range(z):
    # (2z/extent)^2 overflows at both, and no window a hop takes carries the hop
    with pytest.raises(SamplingError, match="no pad_factor up to 8 carries it") as err:
        propagation._check_window_supports_distance(420, 840, 1.5e-4, 3e-4, z)
    assert err.value.required_pad_factor is None


@pytest.mark.parametrize("side, n", [(0.02, 40), (0.0205, 41)])
@pytest.mark.parametrize("pad", [1.0, 3.5, 6.0])
@pytest.mark.parametrize("z", [0.3, 3.0, 10.0, 30.0])
def test_window_check_hints_only_at_pad_factors_that_carry_the_hop(side, n, pad, z):
    grid = make_grid(side, 3e11)
    assert grid.elements_per_side == n
    field = ApertureField.uniform(grid)
    try:
        propagate_asm(field, z, pad_factor=pad)
    except SamplingError as exc:
        hint = exc.required_pad_factor
    else:
        return
    # whole pad factors that a hop takes and that carry the hop; at pad 6 and 10 m the
    # estimate (5) falls below the smallest of them (8 at n = 40, 7 at n = 41)
    carrying = []
    for p in range(1, 9):
        try:
            propagate_asm(field, z, pad_factor=p)
            carrying.append(p)
        except SamplingError:
            pass
    if not carrying:
        assert hint is None
        return
    assert max(carrying[0], 2) <= hint <= 8
    propagate_asm(field, z, pad_factor=hint)


class _BuildCounter:
    """Counts the kernel and transfer builds made while installed."""

    def __init__(self, monkeypatch):
        self.kernel = self.transfer = 0
        kernel, transfer = propagation._kernel_spectrum, propagation._analytic_transfer

        def count_kernel(*args):
            self.kernel += 1
            return kernel(*args)

        def count_transfer(*args):
            self.transfer += 1
            return transfer(*args)

        monkeypatch.setattr(propagation, "_kernel_spectrum", count_kernel)
        monkeypatch.setattr(propagation, "_analytic_transfer", count_transfer)


@pytest.mark.parametrize("side, n", [(0.02, 40), (0.0205, 41)])
def test_reused_spectra_give_identical_hops(side, n, monkeypatch):
    grid = make_grid(side, 3e11)
    assert grid.elements_per_side == n  # the padded grid keeps n's parity
    field = _random_phase_field(grid)
    lam = grid.wavelength
    pad = 1.5
    fresh_asm = propagate_asm(field, 0.2, pad)
    fresh_slice = propagate_slice(fresh_asm, 0.05, pad, wavelength=lam)
    # bit for bit against the kernel quadrant explicitly mirrored, in the operand order
    # kernel * field spectrum: numpy's complex multiply is not bitwise commutative, and
    # the artifacts are pinned to this order
    npad = fresh_asm.samples.shape[0]
    h = npad // 2
    kernel = scipy.fft.fft2(_reference_kernel(npad, grid.element_pitch, grid.wavenumber, 0.2))
    field_spectrum = scipy.fft.fft2(_padded(field.weights, npad))
    mirrored = _mirror(kernel[: h + 1, : h + 1], npad)
    np.testing.assert_array_equal(
        _bits(fresh_asm.samples), _bits(scipy.fft.ifft2(np.multiply(mirrored, field_spectrum))))
    # within round-off of the unmirrored full-grid kernel
    full = scipy.fft.ifft2(np.multiply(kernel, field_spectrum))
    error = np.max(np.abs(fresh_asm.samples - full)) / np.max(np.abs(full))
    assert error <= HOP_MIRROR_TOL
    builds = _BuildCounter(monkeypatch)
    with reuse_spectra():
        for _ in range(2):
            asm = propagate_asm(field, 0.2, pad)
            np.testing.assert_array_equal(asm.samples, fresh_asm.samples)
            np.testing.assert_array_equal(
                propagate_slice(asm, 0.05, pad, wavelength=lam).samples, fresh_slice.samples)
    assert (builds.kernel, builds.transfer) == (1, 1)


def test_reuse_spectra_scope(monkeypatch):
    grid = make_grid(0.02, 3e11)
    field = _random_phase_field(grid)
    builds = _BuildCounter(monkeypatch)
    with reuse_spectra():
        propagate_asm(field, 0.2)
        with reuse_spectra():
            propagate_asm(field, 0.2)  # the nested block shares the outer spectra
        propagate_asm(field, 0.3)
        memo = propagation._SPECTRA.get()
        assert len(memo) == 2
        assert not any(spectrum.flags.writeable for spectrum in memo.values())
    assert builds.kernel == 2
    assert propagation._SPECTRA.get() is None
    propagate_asm(field, 0.2)  # outside any block every hop builds its own
    assert builds.kernel == 3


# ---------------------------------------------------------------------------
# FFTs on numpy.fft, pinned bit for bit to scipy.fft


def _bits(a):
    return a.view(np.uint64)  # signed zeros and every last bit compare


def _complex_grid(n, seed=7):
    rng = np.random.default_rng(seed + n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a[0] = 0.0  # a zeroed line
    return a


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 64, 101, 333, 540, 675, 841])
def test_fft2_and_ifft2_equal_scipy_bitwise(n, cpus, split_ffts):
    split_ffts(cpus)
    # an all -0.0 grid too: scaling by a complex factor would flip its zeros' signs
    for a in (_complex_grid(n), np.full((n, n), complex(-0.0, -0.0))):
        np.testing.assert_array_equal(_bits(propagation._fft2(a.copy(), n)),
                                      _bits(scipy.fft.fft2(a)))
        np.testing.assert_array_equal(_bits(propagation._ifft2(a.copy(), n)),
                                      _bits(scipy.fft.ifft2(a)))


WEIGHT_CASES = ["random", "half-zero", "first-row-zero"]


@pytest.mark.parametrize("cpus", [2, 3, 8])
@pytest.mark.parametrize("case", WEIGHT_CASES)
@pytest.mark.parametrize("n, pad", [(9, 2.0), (40, 1.5), (41, 2.0), (101, 1.0), (333, 2.0),
                                    (420, 2.0), (675, 2.0)])
def test_padded_fft2_equals_scipy_fft2_of_embedded_array(n, pad, case, cpus, split_ffts):
    weights = _complex_grid(n, seed=11)
    if case == "half-zero":
        weights[: n // 2] = 0.0
    elif case == "first-row-zero":
        weights[0] = 0.0
    npad = propagation._padded_size(n, pad)
    lo = (npad - n) // 2
    embedded = np.zeros((npad, npad), dtype=complex)
    embedded[lo : lo + n, lo : lo + n] = weights
    split_ffts(cpus)
    np.testing.assert_array_equal(_bits(propagation._fft2(weights, npad, n=n)),
                                  _bits(scipy.fft.fft2(embedded)))


def test_next_fast_len_equals_scipy():
    assert [propagation._next_fast_len(t) for t in range(1, 20_001)] == [
        scipy.fft.next_fast_len(t) for t in range(1, 20_001)]


@pytest.mark.parametrize("npad", [840, 841, 3375])  # fig4-ci and fig4 pad to 840 and 3375
def test_fftfreq_equals_scipy(npad):
    pitch = 1.49896229e-4
    np.testing.assert_array_equal(_bits(np.fft.fftfreq(npad, d=pitch)),
                                  _bits(scipy.fft.fftfreq(npad, d=pitch)))


def test_fft_line_blocks_bounded_by_cpus_and_lines(monkeypatch):
    monkeypatch.setattr(propagation, "_THREADED_SAMPLES", 100)
    for cpus in (1, 4, 64):  # below the threshold, one block at any CPU count
        monkeypatch.setattr(propagation, "_cpus", lambda: cpus)
        assert propagation._line_blocks(10, 99) == [(0, 10)]
    monkeypatch.setattr(propagation, "_cpus", lambda: 4)
    assert propagation._line_blocks(3, 100) == [(0, 1), (1, 2), (2, 3)]
    assert propagation._line_blocks(10, 100) == [(0, 2), (2, 5), (5, 7), (7, 10)]
    monkeypatch.setattr(propagation, "_cpus", lambda: 1)
    assert propagation._line_blocks(10, 10**9) == [(0, 10)]


def test_only_full_scale_passes_split(monkeypatch):
    monkeypatch.setattr(propagation, "_cpus", lambda: 8)
    # the benchmark pads to 540, 675 and 840; nothing below full scale splits
    for npad in (540, 675, 840, 1125):
        assert propagation._line_blocks(npad, npad * npad) == [(0, npad)], npad
    # full-scale fig4 pads 1667 elements to 3375: its narrowest pass (the aperture
    # columns of the forward transform) splits
    assert len(propagation._line_blocks(1667, 3375 * 1667)) == 8


def test_cpus_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(propagation.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert propagation._cpus() == 2
    monkeypatch.delattr(propagation.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(propagation.os, "cpu_count", lambda: 3)
    assert propagation._cpus() == 3
    monkeypatch.setattr(propagation.os, "cpu_count", lambda: None)
    assert propagation._cpus() == 1


@pytest.mark.parametrize("work", ["fft-passes", "gain-curve"])
def test_maps_start_no_more_threads_than_items(monkeypatch, split_ffts, work):
    import concurrent.futures

    pools = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    split_ffts(64)
    if work == "fft-passes":  # 3 lines a pass
        a = _complex_grid(3)
        np.testing.assert_array_equal(_bits(propagation._fft2(a.copy(), 3)),
                                      _bits(scipy.fft.fft2(a)))
        assert pools == [3, 3]
    else:  # 5 distances a column
        specs = [WavefrontSpec(kind="beamforming"), WavefrontSpec(kind="beamfocusing"),
                 WavefrontSpec(kind="bessel", spot_fwhm=0.004)]
        gain_curve(make_grid(0.02, 3e11), specs, np.linspace(0.02, 0.3, 5))
        assert pools == [5, 5, 5]


def test_thread_map_keeps_item_order_and_raises_a_failed_task(monkeypatch):
    monkeypatch.setattr(propagation, "_cpus", lambda: 1)
    assert propagation._thread_map(lambda _: threading.current_thread(), range(3)) == [
        threading.current_thread()] * 3
    monkeypatch.setattr(propagation, "_cpus", lambda: 4)
    assert propagation._thread_map(lambda _: threading.current_thread(), [0]) == [
        threading.current_thread()]
    before = threading.active_count()

    def task(i):
        time.sleep(0.002 * (6 - i))  # the later items finish first
        if i == 2:
            raise ArithmeticError(f"task {i}")
        return i * i

    assert propagation._thread_map(task, [0, 1, 3, 4, 5]) == [0, 1, 9, 16, 25]
    with pytest.raises(ArithmeticError, match="task 2"):
        propagation._thread_map(task, range(6))
    assert threading.active_count() == before  # no worker outlives its map


def test_fig4_ci_transforms_half_the_lines_of_its_even_hops(monkeypatch, tmp_path):
    """The line transforms of one fig4-ci run: 10 of its 13 hops are even in y and x and
    3 in y only.  With every hop on the full transforms the run makes 39,906; a fall back
    to them on any even hop raises the count.  The run makes 58 transform passes, each
    over a whole plane (``_fft_pass``) or over the lines an even axis keeps
    (``_even_pass``), which hands them to ``_transform`` a staging group at a time."""
    passes, lines = [], []

    def counting(name):
        pass_ = getattr(propagation, name)

        def run(*args, **kwargs):
            passes.append(name)
            pass_(*args, **kwargs)

        monkeypatch.setattr(propagation, name, run)

    for name in ("_fft_pass", "_even_pass"):
        counting(name)
    transform = propagation._transform

    def transform_counting(a, axis, inverse=False):
        lines.append(a.shape[1 - axis])
        transform(a, axis, inverse)

    monkeypatch.setattr(propagation, "_transform", transform_counting)
    from thzbeam import run_scenario

    run_scenario(preset("fig4-ci"), tmp_path)
    assert (len(passes), sum(lines)) == (58, 25_019)


def test_fig4_ci_tests_each_field_once(monkeypatch, tmp_path):
    """A fig4-ci run makes 8 aperture hops from 5 fields; each field is tested for its
    even axes once, and each of the 5 aperture hops of ``propagate_with_obstacles`` is a
    ``propagate_asm`` call."""
    from thzbeam import aperture, run_scenario

    tested, hops = [], []
    even_axes, asm = aperture._even_axes, propagation.propagate_asm
    monkeypatch.setattr(aperture, "_even_axes", lambda a: tested.append(a) or even_axes(a))
    monkeypatch.setattr(propagation, "propagate_asm",
                        lambda field, *args: hops.append(field) or asm(field, *args))
    run_scenario(preset("fig4-ci"), tmp_path)
    assert (len(tested), len(hops), len({id(f) for f in hops})) == (5, 5, 5)
