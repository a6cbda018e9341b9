import math

import numpy as np
import pytest
import scipy.fft

import thzbeam.propagation as propagation
from thzbeam import (
    ApertureField,
    ApertureGrid,
    FieldSlice,
    ObstacleSpec,
    PropagationPlan,
    SamplingError,
    axicon_design,
    circular_taper,
    compose_aperture,
    make_grid,
    phase_conical,
    phase_planar,
    phase_quadratic,
    propagate_asm,
    propagate_direct,
    propagate_slice,
    propagate_with_obstacles,
    reuse_spectra,
)
from thzbeam.aperture import steer_vector

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
    # a point in the aperture plane lands on an element; both guards reject it
    with pytest.raises(ValueError):
        propagate_direct(field, [(x0, x0, 0.0)])
    with pytest.raises(ValueError):
        propagate_direct(field, [(0.0, 0.0, -1.0)])


# ---------------------------------------------------------------------------
# spectral propagation vs the oracle


@pytest.mark.parametrize("z_wavelengths", [50, 200, 500, 5000])
def test_asm_matches_direct_summation(z_wavelengths):
    grid = make_grid(0.032, 3e11)  # 64x64 at half-wavelength pitch
    assert grid.elements_per_side == 64
    field = _random_phase_field(grid)
    z = z_wavelengths * grid.wavelength
    slice_ = propagate_asm(field, z, PropagationPlan(pad_factor=4.0))
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


def test_slice_propagation_identity_at_zero_distance():
    grid = make_grid(0.05, 3e11)
    slice_ = _gaussian_slice(grid, 0.01)
    plan = PropagationPlan(pad_factor=1.0)

    def residual(dz):
        out = propagate_slice(slice_, dz, plan, wavelength=grid.wavelength)
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
        slice_ = propagate_asm(field, z, PropagationPlan(pad_factor=4.0))
        intensity = slice_.intensity()
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


def test_empty_obstacle_list_bit_identical():
    grid = make_grid(0.02, 3e11)
    field = _random_phase_field(grid)
    a = propagate_asm(field, 0.2)
    b = propagate_with_obstacles(field, [], 0.2)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_zero_size_obstacle_equals_unobstructed():
    grid = make_grid(0.02, 3e11)
    field = _random_phase_field(grid)
    plan = PropagationPlan(band_limit=False)
    clear = propagate_asm(field, 0.2, plan)
    masked = propagate_with_obstacles(
        field, [ObstacleSpec("disc", 0.0, (0.0, 0.0), 0.1)], 0.2, plan
    )
    rel = np.linalg.norm(masked.samples - clear.samples) / np.linalg.norm(clear.samples)
    assert rel < 1e-12


def test_bessel_heals_behind_ten_percent_disc():
    grid = make_grid(0.05, 3e11)
    design = axicon_design(grid, 0.008)
    field = compose_aperture(grid, [phase_conical(grid, design)], circular_taper(grid))
    r_obs = 0.1 * grid.side_length / 2.0
    z_heal = r_obs / math.tan(design.cone_angle)
    z_obs = 0.15
    z_eval = z_obs + 2.0 * z_heal
    assert z_eval < design.z_max
    plan = PropagationPlan(pad_factor=4.0)
    blocked = propagate_with_obstacles(
        field, [ObstacleSpec("disc", 2 * r_obs, (0.0, 0.0), z_obs)], z_eval, plan
    )
    reference = propagate_asm(field, z_eval, plan)
    from thzbeam import self_healing_correlation

    assert self_healing_correlation(blocked, reference) >= 0.9


def test_obstacle_plane_ordering_enforced():
    grid = make_grid(0.02, 3e11)
    field = ApertureField.uniform(grid)
    bad = [ObstacleSpec("disc", 0.002, (0, 0), 0.2), ObstacleSpec("disc", 0.002, (0, 0), 0.1)]
    with pytest.raises(ValueError, match="increasing"):
        propagate_with_obstacles(field, bad, 0.3)
    with pytest.raises(ValueError, match="before"):
        propagate_with_obstacles(field, [ObstacleSpec("disc", 0.002, (0, 0), 0.4)], 0.3)


def test_obstacle_bigger_than_plane_is_geometry_error():
    from thzbeam import GeometryError

    grid = make_grid(0.02, 3e11)
    field = ApertureField.uniform(grid)
    with pytest.raises(GeometryError):
        propagate_with_obstacles(
            field, [ObstacleSpec("disc", 1.0, (0.0, 0.0), 0.1)], 0.2
        )


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
        propagate_with_obstacles(field, [disc], 0.2)


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
    s, inverse = propagation._axial_bins(field.grid.elements_per_side)
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
    one = propagate_slice(slice_, 0.3, PropagationPlan(pad_factor=4.0), wavelength=lam)
    half = propagate_slice(slice_, 0.15, PropagationPlan(pad_factor=4.0), wavelength=lam)
    two = propagate_slice(half, 0.15, PropagationPlan(pad_factor=1.0), wavelength=lam)
    rel = np.sqrt(np.mean(np.abs(two.samples - one.samples) ** 2)
                  / np.mean(np.abs(one.samples) ** 2))
    assert rel < 1e-6


def test_semigroup_exact_without_band_limit():
    grid = make_grid(0.02, 3e11)
    lam = grid.wavelength
    n = grid.elements_per_side
    slice_ = FieldSlice(0.0, RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)),
                        grid.element_pitch)
    plan = PropagationPlan(pad_factor=2.0, band_limit=False)
    hop = PropagationPlan(pad_factor=1.0, band_limit=False)
    one = propagate_slice(slice_, 0.2, plan, wavelength=lam)
    two = propagate_slice(propagate_slice(slice_, 0.08, plan, wavelength=lam),
                          0.12, hop, wavelength=lam)
    rel = np.linalg.norm(two.samples - one.samples) / np.linalg.norm(one.samples)
    assert rel < 1e-12


def test_parseval_power_conserved():
    grid = make_grid(0.02, 3e11)
    n = grid.elements_per_side
    slice_ = FieldSlice(0.0, RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)),
                        grid.element_pitch)
    plan = PropagationPlan(pad_factor=2.0, band_limit=False)
    out = propagate_slice(slice_, 0.25, plan, wavelength=grid.wavelength)
    # reference: power in the propagating part of the input spectrum
    filtered = propagate_slice(slice_, 0.0, plan, wavelength=grid.wavelength)
    assert out.power == pytest.approx(filtered.power, rel=1e-6)


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
        propagate_slice(slice_, 500.0, PropagationPlan(pad_factor=1.0),
                        wavelength=grid.wavelength)
    assert err.value.required_pad_factor is not None
    # a failed build leaves nothing behind for a repeated hop to reuse
    with reuse_spectra():
        for _ in range(2):
            with pytest.raises(SamplingError):
                propagate_slice(slice_, 500.0, PropagationPlan(pad_factor=1.0),
                                wavelength=grid.wavelength)


def test_plan_validation():
    with pytest.raises(ValueError):
        PropagationPlan(pad_factor=0.5)
    grid = make_grid(0.02, 3e11)
    for z in (-0.1, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            propagate_asm(ApertureField.uniform(grid), z)


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
        propagate_asm(field, 500.0, PropagationPlan(pad_factor=1.0))
    assert err.value.required_pad_factor is not None
    # disabling the band limit opts out of the guard
    propagate_asm(field, 500.0, PropagationPlan(pad_factor=1.0, band_limit=False))


# ---------------------------------------------------------------------------
# spectrum builds and their reuse


def _reference_kernel_spectrum(npad, pitch, k, z):
    """Full-grid construction of the kernel spectrum, sampled at signed offsets."""
    d = np.arange(npad)
    d = np.where(d <= npad // 2, d, d - npad) * pitch
    DX, DY = np.meshgrid(d, d, indexing="xy")
    r = np.sqrt(DX * DX + DY * DY + z * z)
    return scipy.fft.fft2(np.exp(-1j * k * r) / r)


def _reference_transfer(npad, pitch, k, dz, plan):
    """Full-grid construction of the band-limited transfer function."""
    kx = 2.0 * np.pi * scipy.fft.fftfreq(npad, d=pitch)
    KX, KY = np.meshgrid(kx, kx, indexing="xy")
    kz_sq = k * k - KX * KX - KY * KY
    prop = kz_sq > 0.0
    kz = np.sqrt(np.where(prop, kz_sq, 0.0))
    H = np.where(prop, np.exp(-1j * dz * kz), 0.0 + 0.0j)
    if plan.band_limit:
        lam = 2.0 * np.pi / k
        extent = npad * pitch
        f_limit = 1.0 / (lam * math.sqrt((2.0 * dz / extent) ** 2 + 1.0))
        k_limit = 2.0 * np.pi * f_limit
        H = H * ((np.abs(KX) <= k_limit) & (np.abs(KY) <= k_limit))
    return H


@pytest.mark.parametrize("npad", [17, 18, 840, 841])
def test_quadrant_builds_equal_full_grid_builds(npad):
    pitch = 1.5e-4
    k = 2.0 * np.pi / 3e-4
    np.testing.assert_array_equal(propagation._kernel_spectrum(npad, pitch, k, 0.125),
                                  _reference_kernel_spectrum(npad, pitch, k, 0.125))
    dz = 0.5 * npad * pitch
    for band_limit in (True, False):
        plan = PropagationPlan(band_limit=band_limit)
        np.testing.assert_array_equal(propagation._analytic_transfer(npad, pitch, k, dz, plan),
                                      _reference_transfer(npad, pitch, k, dz, plan))


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
    plan = PropagationPlan(pad_factor=1.5)
    fresh_asm = propagate_asm(field, 0.2, plan)
    fresh_slice = propagate_slice(fresh_asm, 0.05, plan, wavelength=lam)
    # operand order kernel * field spectrum: numpy's complex multiply is not
    # bitwise commutative, and the artifacts are pinned to this order
    npad = fresh_asm.samples.shape[0]
    padded = np.zeros((npad, npad), dtype=complex)
    lo = (npad - n) // 2
    padded[lo : lo + n, lo : lo + n] = field.weights
    kernel = _reference_kernel_spectrum(npad, grid.element_pitch, grid.wavenumber, 0.2)
    np.testing.assert_array_equal(fresh_asm.samples,
                                  scipy.fft.ifft2(np.multiply(kernel, scipy.fft.fft2(padded))))
    builds = _BuildCounter(monkeypatch)
    with reuse_spectra():
        for _ in range(2):
            asm = propagate_asm(field, 0.2, plan)
            np.testing.assert_array_equal(asm.samples, fresh_asm.samples)
            np.testing.assert_array_equal(
                propagate_slice(asm, 0.05, plan, wavelength=lam).samples, fresh_slice.samples)
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


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 64, 101, 333, 540, 675, 841])
def test_fft2_and_ifft2_equal_scipy_bitwise(n, workers, monkeypatch):
    monkeypatch.setattr(propagation.os, "cpu_count", lambda: 8)  # let 3 workers split
    # an all -0.0 grid too: scaling by a complex factor would flip its zeros' signs
    for a in (_complex_grid(n), np.full((n, n), complex(-0.0, -0.0))):
        with propagation.fft_workers(workers):
            np.testing.assert_array_equal(_bits(propagation._fft2(a.copy())),
                                          _bits(scipy.fft.fft2(a)))
            np.testing.assert_array_equal(_bits(propagation._ifft2(a.copy())),
                                          _bits(scipy.fft.ifft2(a)))


WEIGHT_CASES = ["random", "half-zero", "first-row-zero"]


@pytest.mark.parametrize("case", WEIGHT_CASES)
@pytest.mark.parametrize("n, pad", [(9, 2.0), (40, 1.5), (41, 2.0), (101, 1.0), (333, 2.0),
                                    (420, 2.0), (675, 2.0)])
def test_padded_fft2_equals_scipy_fft2_of_embedded_array(n, pad, case):
    weights = _complex_grid(n, seed=11)
    if case == "half-zero":
        weights[: n // 2] = 0.0
    elif case == "first-row-zero":
        weights[0] = 0.0
    npad = propagation._padded_size(n, pad)
    lo = (npad - n) // 2
    embedded = np.zeros((npad, npad), dtype=complex)
    embedded[lo : lo + n, lo : lo + n] = weights
    with propagation.fft_workers(2):
        np.testing.assert_array_equal(_bits(propagation._padded_fft2(weights, npad)),
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
    monkeypatch.setattr(propagation.os, "cpu_count", lambda: 4)
    assert propagation._line_blocks(3, 10**9) == [(0, 1), (1, 2), (2, 3)]
    assert propagation._line_blocks(10, 10**9) == [(0, 2), (2, 5), (5, 7), (7, 10)]
    assert propagation._line_blocks(10, 1) == [(0, 10)]
    monkeypatch.setattr(propagation.os, "cpu_count", lambda: None)
    assert propagation._line_blocks(10, 10**9) == [(0, 10)]


def test_fft_workers_start_no_more_threads_than_lines(monkeypatch):
    import concurrent.futures

    pools = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(propagation.os, "cpu_count", lambda: 64)
    a = _complex_grid(3)
    with propagation.fft_workers(10**6):
        np.testing.assert_array_equal(_bits(propagation._fft2(a.copy())),
                                      _bits(scipy.fft.fft2(a)))
    assert pools == [3, 3]
    with pytest.raises(ValueError):
        with propagation.fft_workers(0):
            pass
    assert propagation._WORKERS.get() == 1
