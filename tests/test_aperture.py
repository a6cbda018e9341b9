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
    FieldSlice,
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
    _SPOT_CONVENTIONS,
    TWO_PI,
    _is_even,
    _raw_caustic,
    _raw_conical,
    _raw_planar,
    _raw_quadratic,
    _raw_spiral,
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
    assert _SPOT_CONVENTIONS == {"fwhm": half, "first_null": null}


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


def test_caustic_parabola_trajectory_tracked():
    from thzbeam import beam_profile_stats, propagate_asm

    grid = make_grid(0.05, 3e11)
    R = grid.half_side
    z_end = 0.6
    a = -2.2 * R / z_end**2
    curve = CausticCurve(a, z_end, x_start=-R)
    field = compose_aperture(grid, [phase_caustic(grid, curve)])
    pad = 3.0
    for z in (0.15, 0.25, 0.3):
        stats = beam_profile_stats(propagate_asm(field, z, pad))
        expected = -R + a * z**2
        assert abs(stats.peak_position[0] - expected) < max(stats.fwhm, 2 * grid.element_pitch)


def test_caustic_unreachable_abscissa_reports_offender():
    grid = make_grid(0.05, 3e11)
    curve = CausticCurve(0.5, 0.6, x_start=0.0)  # tangents reach x <= 0 only
    with pytest.raises(CausticDesignError) as err:
        phase_caustic(grid, curve)
    assert err.value.aperture_x is not None


def test_caustic_curve_refuses_a_line_and_an_empty_range():
    with pytest.raises(ValueError, match="nonzero"):
        CausticCurve(0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="z_end"):
        CausticCurve(0.5, 0.0, 0.0)


def _quadrature_phase(grid, curve, x):
    """The caustic phase at ``x``: dphi/dx = -k*s/sqrt(1 + s^2), with s = 2a*sqrt(u) the
    slope of the tangent through (x, 0), integrated from 0 by adaptive quadrature."""
    from scipy.integrate import quad

    k = grid.wavenumber

    def slope(t):
        s = 2.0 * curve.a * math.sqrt(max((curve.x_start - t) / curve.a, 0.0))
        return -k * s / math.sqrt(1.0 + s * s)

    return quad(slope, 0.0, x, epsabs=1e-13, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("preset,mirrored", [("fig4-ci", False), ("fig4", False),
                                             ("fig4-ci", True)],
                         ids=["fig4-ci", "fig4-full-scale", "fig4-ci-mirrored"])
def test_caustic_phase_equals_adaptive_quadrature(preset, mirrored):
    from thzbeam.scenarios import parse_config, preset_text

    config = parse_config(preset_text(preset))
    grid, curve = config.grid, config.wavefronts["caustic"].curve
    if mirrored:  # a > 0: the parabola bends towards +x from the aperture's other edge
        curve = CausticCurve(-curve.a, curve.z_end, -curve.x_start)
    x = grid.axis_coordinates()
    picks = np.linspace(0, x.size - 1, 40).astype(int)
    # unwrapped: the row of the profile before PhaseMap wraps it
    row = _raw_caustic(grid, curve)[0]
    expected = [_quadrature_phase(grid, curve, x[i]) for i in picks]
    np.testing.assert_allclose(row[picks], expected, rtol=0, atol=1e-9)


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
    curve = CausticCurve(-2.2 * grid.half_side / 0.6**2, 0.6, x_start=-grid.half_side)
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
    s = math.sin(math.radians(20.0))  # an oblique unit vector: 20 deg off axis, 30 deg azimuth
    u = (s * math.cos(math.radians(30.0)), s * math.sin(math.radians(30.0)),
         math.cos(math.radians(20.0)))
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


def _bits(a: np.ndarray) -> bytes:
    return a.view(np.uint64).tobytes()


def _grid_of(n: int) -> ApertureGrid:
    grid = ApertureGrid((n + 0.5) * 5e-4, 5e-4, 3e11)  # half-wavelength pitch
    assert grid.elements_per_side == n
    return grid


def _full_grid_weights(grid: ApertureGrid, base: PhaseMap, spec: WavefrontSpec) -> np.ndarray:
    """Reference: the public catalog's full-grid map, quantized and composed with the taper;
    a spiral's element on the axis of an odd grid, where its phase is undefined, is 0."""
    phase = base if spec.phase_bits is None else quantize_phase(base, spec.phase_bits)
    w = compose_aperture(grid, [phase], circular_taper(grid) if spec.circular else None).weights
    n = grid.elements_per_side
    if spec.oam_mode and n % 2:
        w = w.copy()
        w[n // 2, n // 2] = 0.0
    return w


EVEN_KINDS = {
    "beamforming": (dict(kind="beamforming"), lambda g: phase_planar(g)),
    "beamfocusing": (dict(kind="beamfocusing", focal_length=0.1),
                     lambda g: phase_quadratic(g, 0.1)),
    "bessel-fwhm": (dict(kind="bessel", spot_fwhm=0.004),
                    lambda g: phase_conical(g, axicon_design(g, 0.004))),
    "bessel-first_null": (dict(kind="bessel", spot_fwhm=0.004, spot_convention="first_null"),
                          lambda g: phase_conical(g, axicon_design(g, 0.004, "first_null"))),
}


@pytest.mark.parametrize("kind", EVEN_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 41, 40])
def test_even_wavefronts_built_on_a_quadrant_match_the_full_grid_bitwise(n, kind):
    grid = _grid_of(n)
    keys, base_of = EVEN_KINDS[kind]
    base = base_of(grid)
    for circular in (False, True):
        for bits in (None, 1, 2, 16):
            spec = WavefrontSpec(**keys, circular=circular, phase_bits=bits)
            assert _is_even(spec)
            w = synthesize_field(grid, spec).weights
            assert _bits(w) == _bits(_full_grid_weights(grid, base, spec)), (circular, bits)
            # even in x and in y, signed zeros included
            assert _bits(w) == _bits(w[::-1].copy()) == _bits(w[:, ::-1].copy())


def test_odd_wavefronts_keep_the_bits_of_the_full_grid():
    grid = _grid_of(41)
    steer = math.radians(5.0)
    design = axicon_design(grid, 0.004)
    curve = CausticCurve(-2.2 * grid.half_side / 0.6**2, 0.6, x_start=-grid.half_side)
    cases = [
        (WavefrontSpec(kind="beamforming", steer_angle=steer, circular=True),
         phase_planar(grid, steer_vector(steer))),
        (WavefrontSpec(kind="beamfocusing", focal_length=0.1, steer_angle=-steer, phase_bits=2),
         PhaseMap(_raw_quadratic(grid, 0.1) + _raw_planar(grid, steer_vector(-steer)))),
        (WavefrontSpec(kind="bessel", spot_fwhm=0.004, oam_mode=2, circular=True, phase_bits=3),
         phase_conical(grid, design) + phase_spiral(grid, 2)),
        (WavefrontSpec(kind="beamforming", oam_mode=-1), phase_planar(grid) + phase_spiral(grid, -1)),
        (WavefrontSpec(kind="caustic", curve=curve, circular=True), phase_caustic(grid, curve)),
    ]
    for spec, base in cases:
        assert not _is_even(spec)
        w = synthesize_field(grid, spec).weights
        assert _bits(w) == _bits(_full_grid_weights(grid, base, spec)), spec
        assert (w[20, 20] == 0.0) == bool(spec.oam_mode)  # the axis element of n = 41


@pytest.mark.parametrize("n", [40, 41])
def test_a_spiral_gives_the_axis_element_no_amplitude(n):
    """On an odd grid one element sits on the axis, where a helix has no phase: for l != 0
    it radiates nothing, so no mode leaks into l = 0 through it; an even grid has none."""
    grid = _grid_of(n)
    for mode in (-2, 0, 1):
        w = synthesize_field(grid, WavefrontSpec(kind="beamforming", oam_mode=mode)).weights
        assert np.count_nonzero(w == 0.0) == (1 if mode and n % 2 else 0)


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


def _meshgrid_obstacle_mask(plane, spec):
    """Reference: the obstacle mask built on full coordinate planes."""
    x = plane.axis_coordinates()
    X, Y = np.meshgrid(x, x, indexing="xy")
    cx, cy = spec.center_offset
    if spec.shape == "half_plane":
        blocked = X > cx
    else:
        blocked = (X - cx) ** 2 + (Y - cy) ** 2 <= (spec.size / 2.0) ** 2
    return np.where(blocked, 0.0, 1.0)


@pytest.mark.parametrize("shape", ["disc", "half_plane"])
@pytest.mark.parametrize("side", [0.02, 0.0205])  # n = 40 and 41
def test_obstacle_mask_from_broadcast_axes_equals_the_meshgrid_form(shape, side):
    grid = make_grid(side, 3e11)
    for offset in [(0.0, 0.0), (1.3e-3, -2.1e-3), (-0.7e-3, 0.45e-3)]:
        spec = ObstacleSpec(shape, 0.006, offset, 1.0)
        mask = make_obstacle_mask(grid, spec).values
        assert mask.shape == (grid.elements_per_side,) * 2
        np.testing.assert_array_equal(mask, _meshgrid_obstacle_mask(grid, spec))


def _broadcast_obstacle_mask(plane, spec):
    """Reference: the disc mask built on the whole plane from broadcast 1-D terms."""
    x = plane.axis_coordinates()
    cx, cy = spec.center_offset
    blocked = ((x - cx) ** 2)[None, :] + ((x - cy) ** 2)[:, None] <= (spec.size / 2.0) ** 2
    return np.where(blocked, 0.0, 1.0)


@pytest.mark.parametrize("side", [0.02, 0.0205])  # n = 40 and 41
def test_obstacle_mask_on_its_bounding_box_equals_the_whole_plane_form(side):
    """Bit for bit, for a centred, an offset and an edge-touching footprint and size 0."""
    grid = make_grid(side, 3e11)
    edge = grid.extent / 2.0 - 0.002  # a footprint of size 0.004 here reaches the edge
    cases = [(0.004, (0.0, 0.0)), (0.004, (1.3e-3, -2.1e-3)), (0.004, (edge, 0.0)),
             (0.004, (-edge, edge)), (0.0, (0.0, 0.0)), (0.0, (1.3e-3, 0.0))]
    for plane in (grid, FieldSlice(1.0, np.zeros((45, 45)), grid.element_pitch)):
        for size, offset in cases:
            spec = ObstacleSpec("disc", size, offset, 1.0)
            mask = make_obstacle_mask(plane, spec).values
            np.testing.assert_array_equal(mask.view(np.uint64),
                                          _broadcast_obstacle_mask(plane, spec).view(np.uint64))


def test_full_cover_mask_warns():
    grid = make_grid(0.02, 3e11)
    # the edge lies inside the plane's extent but left of its first column
    edge = (grid.axis_coordinates()[0] - grid.extent / 2.0) / 2.0
    with pytest.warns(UserWarning, match="entire plane"):
        mask = make_obstacle_mask(grid, ObstacleSpec("half_plane", 0.0, (edge, 0.0), 1.0))
    assert not mask.values.any()


def test_oversized_obstacle_rejected():
    grid = make_grid(0.02, 3e11)
    with pytest.raises(GeometryError):
        make_obstacle_mask(grid, ObstacleSpec("disc", 0.2, (0.0, 0.0), 1.0))


@pytest.mark.parametrize("kind", ["grid", "slice"])
def test_half_plane_edge_must_lie_strictly_inside_the_extent(kind):
    """An edge at or beyond +-extent/2 would block all of the plane or none of it."""
    grid = make_grid(0.02, 3e11)
    plane = grid if kind == "grid" else FieldSlice(1.0, np.zeros((45, 45)), grid.element_pitch)
    half = plane.extent / 2.0
    for border in (-half, half):
        for edge in (border, 2.0 * border):
            with pytest.raises(GeometryError, match="block all of the plane or none of it"):
                make_obstacle_mask(plane, ObstacleSpec("half_plane", 0.0, (edge, 0.0), 1.0))
    # one float inside the right border lies right of every column and blocks nothing
    inside = math.nextafter(half, 0.0)
    assert make_obstacle_mask(plane, ObstacleSpec("half_plane", 0.0, (inside, 0.0), 1.0)).values.all()


def test_obstacle_spec_validation():
    for shape in ("blob", "square"):
        with pytest.raises(ValueError, match="unknown obstacle shape"):
            ObstacleSpec(shape, 0.01, (0, 0), 1.0)
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


@pytest.mark.parametrize("masked", [False, True], ids=["no-amplitude", "amplitude"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("side", [0.02, 0.0205], ids=["even-n", "odd-n"])
def test_compose_in_place_equals_the_expression_bitwise(side, layers, masked):
    """The weights built in place equal amp * np.exp(1j * total), signed zeros included."""
    grid = make_grid(side, 3e11)
    n = grid.elements_per_side
    rng = np.random.default_rng(n + layers)
    maps = [PhaseMap(rng.uniform(0.0, TWO_PI, (n, n))) for _ in range(layers)]
    amplitude = None
    if masked:
        values = rng.uniform(0.0, 1.0, (n, n))
        values[rng.random((n, n)) < 0.2] = 0.0  # elements switched off
        amplitude = AmplitudeMask(values)
    total = np.zeros((n, n))
    for m in maps:
        total = total + m.values
    amp = np.ones((n, n)) if amplitude is None else amplitude.values
    expected = amp * np.exp(1j * total)
    got = compose_aperture(grid, maps, amplitude).weights
    assert got.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()


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
