import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thzbeam import (
    SPEED_OF_LIGHT,
    AmplitudeMask,
    ApertureGrid,
    CausticCurve,
    CausticDesignError,
    EvanescentDesignError,
    GeometryError,
    ObstacleSpec,
    PhaseMap,
    WavefrontSpec,
    axicon_design,
    circular_taper,
    compose_aperture,
    make_grid,
    make_obstacle_mask,
    phase_caustic,
    phase_conical,
    phase_planar,
    phase_quadratic,
    phase_spiral,
    propagate_direct,
    quantize_phase,
    synthesize_applied_phase,
    synthesize_field,
    wrap_phase,
)
from thzbeam.aperture import (
    TWO_PI,
    _raw_conical,
    _raw_planar,
    _raw_quadratic,
    _raw_spiral,
    bessel_first_null_argument,
    bessel_half_intensity_argument,
    steer_vector,
)

RNG = np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# grids


def test_make_grid_paper_array():
    grid = make_grid(0.25, 1e12, 0.5)
    assert grid.element_pitch == pytest.approx(0.5 * SPEED_OF_LIGHT / 1e12)
    assert grid.element_pitch == pytest.approx(1.4990e-4, rel=1e-3)
    assert grid.elements_per_side == 1667


def test_make_grid_full_wavelength_pitch():
    f = 3e11
    lam = SPEED_OF_LIGHT / f
    grid = make_grid(3 * lam, f, 1.0)
    assert grid.elements_per_side == 3


def test_make_grid_300ghz():
    # floor(0.25 / (0.5 * c / 3e11)) by hand
    grid = make_grid(0.25, 3e11, 0.5)
    assert grid.elements_per_side == 500


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_grid(-0.1, 1e12)
    with pytest.raises(ValueError):
        make_grid(0.25, 0.0)
    with pytest.raises(ValueError):
        make_grid(0.25, 1e12, 1.5)


def test_wavelength_consistency():
    grid = make_grid(0.05, 3e11)
    assert abs(grid.wavelength * grid.frequency / SPEED_OF_LIGHT - 1.0) < 1e-12


def test_grid_coordinates_centred():
    grid = make_grid(0.05, 3e11)
    x = grid.axis_coordinates()
    assert x.size == grid.elements_per_side
    np.testing.assert_allclose(x + x[::-1], 0.0, atol=1e-18)


# ---------------------------------------------------------------------------
# wrapping


def test_wrap_phase_preserves_phasor():
    values = RNG.normal(scale=50.0, size=4096)
    wrapped = wrap_phase(values)
    assert wrapped.min() >= 0.0 and wrapped.max() < TWO_PI
    np.testing.assert_allclose(np.exp(1j * wrapped), np.exp(1j * values), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# planar


def test_planar_broadside_is_zero():
    grid = make_grid(0.02, 3e11)
    assert np.all(phase_planar(grid).values == 0.0)


def test_planar_ramp_slope_matches_geometry():
    grid = make_grid(0.02, 3e11)
    angle = math.radians(10.0)
    phase = phase_planar(grid, steer_vector(angle))
    x = grid.axis_coordinates()
    # unwrapped slope along a row equals -k*sin(10 deg)
    row = np.unwrap(phase.values[0, :])
    slope = np.polyfit(x, row, 1)[0]
    assert slope == pytest.approx(-grid.wavenumber * math.sin(angle), rel=1e-9)


def test_planar_endfire_half_wavelength_pair():
    f = 3e11
    lam = SPEED_OF_LIGHT / f
    grid = make_grid(2 * (lam / 2), f, 0.5)  # two elements, lambda/2 apart
    assert grid.elements_per_side == 2
    phase = phase_planar(grid, steer_vector(math.pi / 2))
    diff = abs(phase.values[0, 1] - phase.values[0, 0])
    assert min(diff, TWO_PI - diff) == pytest.approx(math.pi, rel=1e-9)


def test_planar_rejects_non_unit_vector():
    grid = make_grid(0.02, 3e11)
    with pytest.raises(ValueError, match="unit vector"):
        phase_planar(grid, (0.0, 0.0, 1.1))


# ---------------------------------------------------------------------------
# quadratic (focusing)


def test_quadratic_center_element_zero():
    grid = make_grid(0.0205, 3e11)  # odd element count -> centre element at origin
    assert grid.elements_per_side % 2 == 1
    phase = phase_quadratic(grid, 0.5)
    c = grid.elements_per_side // 2
    assert phase.values[c, c] == pytest.approx(0.0, abs=1e-12)


def test_quadratic_far_focus_approaches_planar():
    grid = make_grid(0.02, 3e11)
    phase = phase_quadratic(grid, 1e9)
    assert np.max(np.minimum(phase.values, TWO_PI - phase.values)) < 1e-6


def test_quadratic_focus_arrivals_cophased():
    grid = make_grid(0.02, 3e11)
    F = 0.35
    field = compose_aperture(grid, [phase_quadratic(grid, F)])
    X, Y = grid.meshgrid()
    r = np.sqrt(X**2 + Y**2 + F**2)
    arrival = np.angle(field.weights * np.exp(-1j * grid.wavenumber * r))
    arrival = np.unwrap(np.sort(arrival.ravel()))
    assert np.std(arrival) < 1e-9


def test_quadratic_rejects_bad_focal_length():
    grid = make_grid(0.02, 3e11)
    with pytest.raises(ValueError):
        phase_quadratic(grid, 0.0)


# ---------------------------------------------------------------------------
# axicon / conical


def _series_j0(x: float, terms: int = 40) -> float:
    # independent power-series evaluation of J0
    total, term = 0.0, 1.0
    for m in range(terms):
        if m:
            term *= -((x / 2.0) ** 2) / m**2
        total += term
    return total


def test_half_intensity_root_against_series_bisection():
    lo, hi = 0.5, 2.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if _series_j0(mid) ** 2 > 0.5:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2.0
    assert _series_j0(root) ** 2 == pytest.approx(0.5, abs=1e-4)
    design = axicon_design(make_grid(0.25, 1e12), 0.02)
    assert design.radial_wavenumber == pytest.approx(2.0 * root / 0.02, rel=1e-6)


def test_bessel_root_literals_equal_their_bracketed_roots():
    # the literals are the exact roots the bracketing search returns, so every
    # design (and artifact) built on them is unchanged
    from scipy.optimize import brentq
    from scipy.special import j0

    half = brentq(lambda x: j0(x) ** 2 - 0.5, 0.5, 2.0, xtol=1e-14)
    null = brentq(j0, 2.0, 3.0, xtol=1e-14)
    assert bessel_half_intensity_argument() == half
    assert bessel_first_null_argument() == null


def test_package_import_loads_no_root_finder():
    # no scipy module at all: scipy.fft alone pulls in scipy.special, numpy.f2py
    # and numpy.testing; the FFTs run on numpy.fft, loaded at import so the
    # first hop does not pay for it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, thzbeam, thzbeam.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'numpy.fft' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[] True"


def test_axicon_design_reproduces_reference_range():
    grid = make_grid(0.25, 1e12, 0.5)
    design = axicon_design(grid, 0.02)
    assert design.z_max == pytest.approx(23.0, rel=0.05)
    assert design.ring_count_within_aperture == 2


def test_axicon_design_roundtrip():
    grid = make_grid(0.05, 3e11)
    design = axicon_design(grid, 0.004)
    recovered = grid.wavenumber * math.sin(math.asin(design.radial_wavenumber / grid.wavenumber))
    assert abs(recovered / design.radial_wavenumber - 1.0) < 1e-12


def test_axicon_wide_spot_degenerates_to_plane_wave():
    grid = make_grid(0.05, 3e11)
    design = axicon_design(grid, 10.0)
    assert design.cone_angle < 1e-3
    assert design.z_max > 1e2


def test_axicon_rejects_evanescent_spot():
    grid = make_grid(0.05, 3e11)
    with pytest.raises(EvanescentDesignError):
        axicon_design(grid, grid.wavelength * 0.5)


def test_conical_center_zero_and_period():
    f = 3e11
    grid = make_grid(0.0205, f)
    assert grid.elements_per_side % 2 == 1
    pitch = grid.element_pitch
    design = axicon_design(grid, 0.004)
    # synthesise a map with the ramp period exactly at 10 pitches
    from dataclasses import replace

    design = replace(design, radial_wavenumber=TWO_PI / (10 * pitch))
    phase = phase_conical(grid, design)
    c = grid.elements_per_side // 2
    assert phase.values[c, c] == 0.0
    wrapped = phase.values[c, c + 10]  # element exactly one period out
    assert min(wrapped, TWO_PI - wrapped) < 1e-9


def test_conical_profile_builds_j0_squared_beam():
    # radial cut against J0^2 via the exact Huygens oracle
    from scipy.special import j0, jn_zeros

    grid = make_grid(0.05, 3e11)
    design = axicon_design(grid, 0.004)
    field = compose_aperture(grid, [phase_conical(grid, design)], circular_taper(grid))
    z = design.z_max / 2.0
    radii = np.linspace(0.0, jn_zeros(0, 5)[-1] / design.radial_wavenumber, 60)
    values = propagate_direct(field, [(r, 0.0, z) for r in radii])
    measured = np.abs(values) ** 2
    model = j0(design.radial_wavenumber * radii) ** 2
    r = np.corrcoef(measured, model)[0, 1]
    assert r > 0.98


# ---------------------------------------------------------------------------
# spiral


def test_spiral_zero_mode_is_flat():
    grid = make_grid(0.02, 3e11)
    assert np.all(phase_spiral(grid, 0).values == 0.0)


def test_spiral_winding_accumulates_two_pi():
    grid = make_grid(0.02, 3e11)
    phase = phase_spiral(grid, 1)
    n = grid.elements_per_side
    c = n // 2
    ring = 8
    # walk a square loop of elements around the centre
    path = (
        [(c + ring, c + i) for i in range(-ring, ring)]
        + [(c - i, c + ring) for i in range(-ring, ring)]
        + [(c - ring, c - i) for i in range(-ring, ring)]
        + [(c + i, c - ring) for i in range(-ring, ring)]
    )
    values = np.array([phase.values[iy, ix] for ix, iy in path])
    steps = np.angle(np.exp(1j * np.diff(np.append(values, values[0]))))
    assert np.sum(steps) == pytest.approx(TWO_PI, rel=1e-9)


def test_spiral_vortex_null_on_axis():
    grid = make_grid(0.02, 3e11)
    field = compose_aperture(grid, [phase_spiral(grid, 3)], circular_taper(grid))
    z = 0.3
    on_axis = abs(propagate_direct(field, [(0.0, 0.0, z)])[0]) ** 2
    ring = max(
        abs(propagate_direct(field, [(r, 0.0, z)])[0]) ** 2
        for r in np.linspace(0.002, 0.012, 12)
    )
    assert on_axis < 1e-4 * ring


def test_spiral_rejects_fractional_mode():
    grid = make_grid(0.02, 3e11)
    with pytest.raises(ValueError):
        phase_spiral(grid, 1.5)


# ---------------------------------------------------------------------------
# caustic


def _line(angle, z_end):
    """Straight ray x(z) = z * tan(angle), the curve_a = 0 case of the caustic profile."""
    t = math.tan(angle)
    return CausticCurve(x_of_z=lambda z: t * np.asarray(z, dtype=float),
                        dx_dz=lambda z: np.full_like(np.asarray(z, dtype=float), t), z_end=z_end)


def test_caustic_line_reduces_to_planar():
    grid = make_grid(0.02, 3e11)
    angle = math.radians(6.0)
    caustic = phase_caustic(grid, _line(angle, z_end=1.0))
    planar = phase_planar(grid, steer_vector(angle))
    delta = np.angle(np.exp(1j * (caustic.values - planar.values)))
    assert np.max(np.abs(delta)) < 1e-6


def test_caustic_parabola_trajectory_tracked():
    from thzbeam import PropagationPlan, beam_profile_stats, propagate_asm

    grid = make_grid(0.05, 3e11)
    R = grid.half_side
    z_end = 0.6
    a = -2.2 * R / z_end**2
    curve = CausticCurve.parabola(a, z_end, x_start=-R)
    field = compose_aperture(grid, [phase_caustic(grid, curve)])
    plan = PropagationPlan(pad_factor=3.0)
    for z in (0.15, 0.25, 0.3):
        stats = beam_profile_stats(propagate_asm(field, z, plan))
        expected = -R + a * z**2
        assert abs(stats.peak_position[0] - expected) < max(stats.fwhm, 2 * grid.element_pitch)


def test_caustic_unreachable_abscissa_reports_offender():
    grid = make_grid(0.05, 3e11)
    curve = CausticCurve.parabola(0.5, 0.6, x_start=0.0)  # tangents reach x <= 0 only
    with pytest.raises(CausticDesignError) as err:
        phase_caustic(grid, curve)
    assert err.value.aperture_x is not None


def test_caustic_rejects_wiggly_curve():
    with pytest.raises(CausticDesignError):
        CausticCurve(x_of_z=lambda z: 0.01 * np.sin(40 * np.asarray(z)), z_end=1.0)


def test_caustic_convexity_flag():
    up = CausticCurve.parabola(0.5, 1.0)
    down = CausticCurve.parabola(-0.5, 1.0)
    line = _line(0.1, 1.0)
    assert up.convexity == 1 and down.convexity == -1 and line.convexity == 0


def test_caustic_convexity_is_not_an_argument():
    # it is derived from x_of_z; a passed value could only be overwritten
    with pytest.raises(TypeError, match="convexity"):
        CausticCurve(x_of_z=lambda z: 0.01 * np.asarray(z) ** 2, z_end=1.0, convexity=-1)


# ---------------------------------------------------------------------------
# quantization


def test_quantize_one_bit_levels():
    grid = make_grid(0.02, 3e11)
    q = quantize_phase(phase_quadratic(grid, 0.3), 1)
    assert set(np.unique(q.values)) <= {0.0, math.pi}


def test_quantize_idempotent():
    grid = make_grid(0.02, 3e11)
    q1 = quantize_phase(phase_quadratic(grid, 0.3), 4)
    q2 = quantize_phase(q1, 4)
    np.testing.assert_array_equal(q1.values, q2.values)


def test_quantize_error_bound():
    phase = PhaseMap(RNG.uniform(0, TWO_PI, size=(64, 64)))
    for bits in (1, 2, 4, 8):
        q = quantize_phase(phase, bits)
        delta = np.abs(np.angle(np.exp(1j * (q.values - phase.values))))
        assert delta.max() <= math.pi / 2**bits + 1e-12


def test_quantize_rejects_bad_bits():
    phase = PhaseMap(np.zeros((4, 4)))
    for bits in (0, 17):
        with pytest.raises(ValueError):
            quantize_phase(phase, bits)


def test_wavefront_spec_range_checks_phase_bits():
    for bits in (0, 17):
        with pytest.raises(ValueError, match="phase_bits"):
            WavefrontSpec(kind="beamforming", phase_bits=bits)
    assert WavefrontSpec(kind="beamforming", phase_bits=16).phase_bits == 16


# ---------------------------------------------------------------------------
# the applied phase map


def test_applied_phase_without_overlays_is_the_base_map():
    grid = make_grid(0.02, 3e11)
    spec = WavefrontSpec(kind="bessel", spot_fwhm=0.004)
    np.testing.assert_array_equal(synthesize_applied_phase(grid, spec).values,
                                  phase_conical(grid, axicon_design(grid, 0.004)).values)


def test_applied_phase_adds_the_spiral_then_quantizes():
    grid = make_grid(0.02, 3e11)
    steer = math.radians(5.0)
    curve = CausticCurve.parabola(-2.2 * grid.half_side / 0.6**2, 0.6, x_start=-grid.half_side)
    cases = [
        (WavefrontSpec(kind="bessel", spot_fwhm=0.004, oam_mode=2, phase_bits=2),
         phase_conical(grid, axicon_design(grid, 0.004))),
        # the steer ramp joins the lens before the one wrap
        (WavefrontSpec(kind="beamfocusing", focal_length=0.1, steer_angle=steer, oam_mode=2,
                       phase_bits=3),
         PhaseMap(_raw_quadratic(grid, 0.1) + _raw_planar(grid, steer_vector(steer)))),
        (WavefrontSpec(kind="caustic", curve=curve, oam_mode=-1), phase_caustic(grid, curve)),
    ]
    for spec, base in cases:
        expected = base + phase_spiral(grid, spec.oam_mode)
        if spec.phase_bits is not None:
            expected = quantize_phase(expected, spec.phase_bits)
        applied = synthesize_applied_phase(grid, spec)
        np.testing.assert_array_equal(applied.values, expected.values)
        if spec.phase_bits is not None:
            levels = 1 << spec.phase_bits
            assert set(np.unique(applied.values)) <= {j * (TWO_PI / levels) for j in range(levels)}


@pytest.mark.parametrize("n", [40, 41])
def test_raw_profiles_equal_their_meshgrid_forms(n):
    grid = ApertureGrid((n + 0.5) * 5e-4, 5e-4, 3e11)
    assert grid.elements_per_side == n
    X, Y = grid.meshgrid()
    k = grid.wavenumber
    design = axicon_design(grid, 0.004)
    u = steer_vector(math.radians(20.0), math.radians(30.0))
    pairs = [
        (_raw_planar(grid, u), -k * (X * u[0] + Y * u[1])),
        (_raw_planar(grid, (0.0, 0.0, 1.0)), -k * (X * 0.0 + Y * 0.0)),
        (_raw_quadratic(grid, 0.1), k * (np.sqrt(0.1**2 + X**2 + Y**2) - 0.1)),
        (_raw_conical(grid, design), design.radial_wavenumber * np.hypot(X, Y)),
        (_raw_spiral(grid, -3), -3.0 * np.arctan2(Y, X)),
    ]
    for got, want in pairs:
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_synthesize_field_applies_the_applied_phase():
    grid = make_grid(0.02, 3e11)
    spec = WavefrontSpec(kind="beamfocusing", focal_length=0.1, oam_mode=1, phase_bits=1,
                         circular=True)
    field = synthesize_field(grid, spec)
    expected = compose_aperture(grid, [synthesize_applied_phase(grid, spec)],
                                circular_taper(grid))
    np.testing.assert_array_equal(field.weights, expected.weights)


# ---------------------------------------------------------------------------
# masks


def test_disc_mask_blocked_fraction():
    grid = make_grid(0.25, 1e12, 0.5)  # 25 cm plane at 0.15 mm sampling
    mask = make_obstacle_mask(grid, ObstacleSpec("disc", 0.025, (0.0, 0.0), 3.0))
    blocked = 1.0 - mask.values.mean()
    expected = math.pi * 0.0125**2 / 0.0625
    assert blocked == pytest.approx(expected, rel=0.02)


def test_zero_size_disc_is_identity():
    grid = make_grid(0.02, 3e11)
    mask = make_obstacle_mask(grid, ObstacleSpec("disc", 0.0, (0.0, 0.0), 1.0))
    assert np.all(mask.values == 1.0)


def test_half_plane_masks_positive_x():
    grid = make_grid(0.02, 3e11)
    mask = make_obstacle_mask(grid, ObstacleSpec("half_plane", 0.0, (0.0, 0.0), 1.0))
    X, _ = grid.meshgrid()
    np.testing.assert_array_equal(mask.values == 0.0, X > 0.0)


def test_full_cover_mask_warns():
    grid = make_grid(0.02, 3e11)
    with pytest.warns(UserWarning, match="entire plane"):
        mask = make_obstacle_mask(grid, ObstacleSpec("square", 0.02, (0.0, 0.0), 1.0))
    assert not mask.values.any()


def test_oversized_obstacle_rejected():
    grid = make_grid(0.02, 3e11)
    with pytest.raises(GeometryError):
        make_obstacle_mask(grid, ObstacleSpec("disc", 0.2, (0.0, 0.0), 1.0))


def test_obstacle_spec_validation():
    with pytest.raises(ValueError):
        ObstacleSpec("blob", 0.01, (0, 0), 1.0)
    with pytest.raises(ValueError):
        ObstacleSpec("disc", 0.01, (0, 0), -1.0)


# ---------------------------------------------------------------------------
# composition


def test_compose_order_independent_bitwise():
    grid = make_grid(0.02, 3e11)
    a = phase_planar(grid, steer_vector(math.radians(4.0)))
    b = phase_spiral(grid, 2)
    f1 = compose_aperture(grid, [a, b])
    f2 = compose_aperture(grid, [b, a])
    np.testing.assert_array_equal(f1.weights, f2.weights)


def test_compose_uniform_gives_unit_weights():
    grid = make_grid(0.02, 3e11)
    field = compose_aperture(grid, [PhaseMap(np.zeros((grid.elements_per_side,) * 2))])
    np.testing.assert_array_equal(field.weights, np.ones_like(field.weights))


def test_compose_conical_plus_spiral_has_axial_null():
    grid = make_grid(0.05, 3e11)
    design = axicon_design(grid, 0.008)
    field = compose_aperture(
        grid,
        [phase_conical(grid, design), phase_spiral(grid, 2)],
        circular_taper(grid),
    )
    z = design.z_max / 3.0
    on_axis = abs(propagate_direct(field, [(0.0, 0.0, z)])[0]) ** 2
    lobe = abs(propagate_direct(field, [(0.004, 0.0, z)])[0]) ** 2
    assert on_axis < 1e-4 * lobe


def test_compose_shape_mismatch_rejected():
    grid = make_grid(0.02, 3e11)
    with pytest.raises(ValueError):
        compose_aperture(grid, [PhaseMap(np.zeros((3, 3)))])


def test_compose_power_set_by_amplitude_only():
    grid = make_grid(0.02, 3e11)
    n = grid.elements_per_side
    amp = AmplitudeMask(RNG.uniform(0.0, 1.0, size=(n, n)))
    phase = PhaseMap(RNG.uniform(0.0, TWO_PI, size=(n, n)))
    field = compose_aperture(grid, [phase], amp)
    assert field.power == pytest.approx(float(np.sum(amp.values**2)), rel=1e-12)


def test_amplitude_mask_range_checked():
    with pytest.raises(ValueError):
        AmplitudeMask(np.array([[0.5, 1.2]]))
