"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4 and 7 run the full-scale 25 cm / 1 THz geometry (roughly a
minute each); everything else is fast.  Run with ``pytest
tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from thzbeam import (
    ApertureField,
    LinkBudgetSpec,
    ObstacleSpec,
    WavefrontSpec,
    aperture_gain_dbi,
    axicon_design,
    circular_taper,
    compose_aperture,
    crosstalk_matrix,
    fraunhofer_distance,
    gain_curve,
    make_grid,
    normalized_gain,
    phase_conical,
    phase_quadratic,
    preset,
    propagate_asm,
    propagate_direct,
    propagate_with_obstacles,
    quantize_phase,
    required_bandwidth,
    reuse_spectra,
    run_scenario,
    self_healing_correlation,
    synthesize_field,
)
from thzbeam.propagation import FieldSlice


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    grid = make_grid(0.032, 3e11)
    assert grid.elements_per_side == 64
    rng = np.random.default_rng(42)
    n = grid.elements_per_side
    field = ApertureField(grid, np.exp(2j * np.pi * rng.random((n, n))))
    worst = 0.0
    for z_wavelengths in (50, 500, 5000):
        z = z_wavelengths * grid.wavelength
        slice_ = propagate_asm(field, z, pad_factor=4.0)
        xs = slice_.axis_coordinates()
        npad = xs.size
        quarter = npad // 4
        idx = np.linspace(npad // 2 - quarter // 2, npad // 2 + quarter // 2 - 1, 32).astype(int)
        probes = [(xs[ix], xs[iy], z) for iy in idx for ix in idx]
        direct = propagate_direct(field, probes)
        spectral = np.array([slice_.samples[iy, ix] for iy in idx for ix in idx])
        rel = float(np.sqrt(np.mean(np.abs(spectral - direct) ** 2)
                            / np.mean(np.abs(direct) ** 2)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-3 and elapsed < 10.0
    _report(1, ok, f"ASM vs direct summation worst rel RMS {worst:.2e} "
                   f"(< 1e-3), runtime {elapsed:.1f} s (< 10 s)")
    assert worst < 1e-3
    assert elapsed < 10.0


def test_criterion_02_gaussian_waist_evolution():
    started = time.perf_counter()
    grid = make_grid(0.12, 3e11)
    lam = grid.wavelength
    w0 = 30 * lam
    X, Y = grid.meshgrid()
    field = ApertureField(grid, np.exp(-(X**2 + Y**2) / w0**2).astype(complex))
    z_rayleigh = math.pi * w0**2 / lam
    worst = 0.0
    for z in (0.5 * z_rayleigh, z_rayleigh, 2.0 * z_rayleigh):
        slice_ = propagate_asm(field, z, pad_factor=4.0)
        intensity = np.abs(slice_.samples) ** 2  # the whole plane, not the block it stores
        iy, ix = np.unravel_index(np.argmax(intensity), intensity.shape)
        cut = intensity[iy, :]
        xs = slice_.axis_coordinates()
        target = intensity[iy, ix] / math.e**2
        above = np.where(cut >= target)[0]
        lo, hi = above[0], above[-1]

        def cross(i0, i1):
            t = (cut[i0] - target) / (cut[i0] - cut[i1])
            return xs[i0] + t * (xs[i1] - xs[i0])

        measured = (cross(hi, hi + 1) - cross(lo, lo - 1)) / 2.0
        expected = w0 * math.sqrt(1.0 + (z / z_rayleigh) ** 2)
        worst = max(worst, abs(measured / expected - 1.0))
    elapsed = time.perf_counter() - started
    ok = worst < 0.01 and elapsed < 10.0
    _report(2, ok, f"Gaussian 1/e^2 radius worst deviation {100*worst:.2f}% "
                   f"(< 1%), runtime {elapsed:.1f} s (< 10 s)")
    assert worst < 0.01
    assert elapsed < 10.0


def test_criterion_03_bessel_design_and_profile():
    # full-scale design range
    grid_full = make_grid(0.25, 1e12, 0.5)
    design_full = axicon_design(grid_full, 0.02)
    range_ok = abs(design_full.z_max / 23.0 - 1.0) <= 0.05

    # CI-scale propagated profile against J0^2 over the central five lobes
    from scipy.special import j0, jn_zeros

    grid = make_grid(0.05, 3e11)
    design = axicon_design(grid, 0.004)
    field = compose_aperture(grid, [phase_conical(grid, design)], circular_taper(grid))
    slice_ = propagate_asm(field, design.z_max / 2.0, pad_factor=4.0)
    xs = slice_.axis_coordinates()
    row = (np.abs(slice_.samples) ** 2)[int(np.argmin(np.abs(xs))), :]  # the whole plane
    sel = np.abs(xs) <= jn_zeros(0, 5)[-1] / design.radial_wavenumber
    pearson = float(np.corrcoef(row[sel], j0(design.radial_wavenumber * np.abs(xs[sel])) ** 2)[0, 1])
    profile_ok = pearson > 0.98

    ok = range_ok and profile_ok
    _report(3, ok, f"z_max {design_full.z_max:.2f} m (23 m +- 5%), "
                   f"J0^2 correlation {pearson:.4f} (> 0.98)")
    assert range_ok
    assert profile_ok


@pytest.fixture(scope="module")
def full_scale_curve():
    config = preset("fig3")  # every wavefront circular = true
    return gain_curve(config.grid, list(config.wavefronts.values()), config.distances)


def test_criterion_04_gain_curve_reproduction(full_scale_curve):
    curve = full_scale_curve
    zs = curve.distances
    bessel = curve.gain["bessel"]
    focusing = curve.gain["beamfocusing"]
    planar = curve.gain["beamforming"]

    band = (zs >= 2.0) & (zs <= 20.0)
    a_ok = bool(np.all(bessel[band] > planar[band]))

    ipk = int(np.argmax(bessel))
    z_peak = float(zs[ipk])
    b_ok = (abs(bessel[ipk] - 1.0) < 1e-12
            and abs(focusing[ipk] - 1.0) < 1e-6
            and curve.focal_length == z_peak)

    c_ok = abs(z_peak / 13.5 - 1.0) <= 0.20

    near = int(np.argmin(np.abs(zs - (z_peak - 2.0))))
    d_ok = bool(focusing[near] < bessel[near])

    ok = a_ok and b_ok and c_ok and d_ok
    _report(4, ok,
            f"(a) bessel>beamforming on [2,20] m: {a_ok}; "
            f"(b) curves meet at {z_peak:g} m with focusing gain {focusing[ipk]:.9f}: {b_ok}; "
            f"(c) peak {z_peak:g} m in 13.5 m +- 20%: {c_ok}; "
            f"(d) focusing {focusing[near]:.3f} < bessel {bessel[near]:.3f} at "
            f"{zs[near]:g} m: {d_ok}")
    assert a_ok and b_ok and c_ok and d_ok


def test_criterion_05_aperture_gain():
    lam = 299792458.0 / 1e12
    gain = aperture_gain_dbi(0.25 * 0.25, lam)
    ok = abs(gain - 70.0) <= 0.7
    _report(5, ok, f"aperture gain {gain:.2f} dBi (70 +- 0.7 dBi)")
    assert ok


def test_criterion_06_fraunhofer_distance():
    lam = 299792458.0 / 1e12
    distance = fraunhofer_distance(0.25, lam)
    ok = distance > 100.0 and abs(distance / 417.0 - 1.0) <= 0.01
    _report(6, ok, f"Fraunhofer distance {distance:.1f} m (> 100 m, 417 m +- 1%)")
    assert ok


def test_criterion_07_blockage_reproduction():
    config = preset("fig4")
    grid = config.grid
    p = config.blockage
    pad = p.pad_factor

    bessel_spec = config.wavefronts["bessel"]
    design = axicon_design(grid, bessel_spec.spot_fwhm)
    r_obs = p.obstacle_size_m / 2.0
    z_heal = r_obs / math.tan(design.cone_angle)
    z_eval = p.obstacle_z_m + 2.0 * z_heal
    disc = ObstacleSpec("disc", p.obstacle_size_m, (0.0, 0.0), p.obstacle_z_m)

    def shadow_correlation(spec):
        fld = synthesize_field(grid, spec)
        reference = propagate_asm(fld, z_eval, pad)
        blocked = propagate_with_obstacles(fld, disc, z_eval, pad)
        xs = reference.axis_coordinates()
        X, Y = np.meshgrid(xs, xs, indexing="xy")
        window = (X**2 + Y**2 <= r_obs**2).astype(float)
        return self_healing_correlation(
            FieldSlice(blocked.z, blocked.samples * window, blocked.sample_pitch),
            FieldSlice(reference.z, reference.samples * window, reference.sample_pitch),
        )

    # as the blockage study, each group of hops shares its spectra
    with reuse_spectra():
        corr_bessel = shadow_correlation(bessel_spec)
        corr_planar = shadow_correlation(config.wavefronts["beamforming"])
    healing_ok = corr_bessel >= 0.9 and corr_bessel > corr_planar

    knife = ObstacleSpec("half_plane", 0.0, (p.knife_x_edge_m, 0.0), p.knife_z_m)
    z_t = p.caustic_eval_z_m
    with reuse_spectra():
        caustic_peak = float(
            propagate_with_obstacles(
                synthesize_field(grid, config.wavefronts["caustic"]), knife, z_t, pad
            ).intensity().max()
        )
        planar_peak = float(
            propagate_with_obstacles(
                synthesize_field(grid, config.wavefronts["beamforming"]), knife, z_t, pad
            ).intensity().max()
        )
    advantage_db = 10.0 * math.log10(caustic_peak / planar_peak)
    caustic_ok = advantage_db >= 10.0

    ok = healing_ok and caustic_ok
    _report(7, ok,
            f"self-healing corr: bessel {corr_bessel:.4f} (>= 0.9) vs "
            f"beamforming {corr_planar:.4f}; knife-edge advantage "
            f"{advantage_db:.1f} dB (>= 10 dB)")
    assert healing_ok
    assert caustic_ok


def test_criterion_08_bandwidth_reproduction(tmp_path):
    run_scenario(preset("fig5"), tmp_path)
    lines = (tmp_path / "bandwidth.csv").read_text().splitlines()
    table = {(float(a), float(b)): float(c) for a, b, c in (r.split(",") for r in lines[1:])}
    exact_ok = table[(32.0, 16.0)] == 7.8125e9 and table[(32.0, 1024.0)] == 3.125e9

    b = required_bandwidth(LinkBudgetSpec(1e12, 4, 16))
    scaling_ok = (required_bandwidth(LinkBudgetSpec(1e12, 8, 16)) == b / 2
                  and required_bandwidth(LinkBudgetSpec(1e12, 4, 256)) == b / 2)
    ok = exact_ok and scaling_ok
    _report(8, ok, f"bandwidth.csv rows (32,16) -> {table[(32.0, 16.0)]:.6g} Hz, "
                   f"(32,1024) -> {table[(32.0, 1024.0)]:.6g} Hz; exact scaling: {scaling_ok}")
    assert ok


def test_criterion_09_phase_quantization():
    grid = make_grid(0.05, 3e11)
    focal = 0.25
    phase = phase_quadratic(grid, focal)
    g_exact = normalized_gain(compose_aperture(grid, [phase]), (0.0, 0.0, focal))
    g_coarse = normalized_gain(
        compose_aperture(grid, [quantize_phase(phase, 4)]), (0.0, 0.0, focal)
    )
    loss_db = 10.0 * math.log10(g_exact / g_coarse)
    ok = loss_db < 0.1
    _report(9, ok, f"4-bit quantization focal gain loss {loss_db:.4f} dB (< 0.1 dB)")
    assert ok


def test_criterion_10_oam_orthogonality_and_spillover():
    grid = make_grid(0.05, 3e11)
    base = synthesize_field(grid, WavefrontSpec(kind="bessel", spot_fwhm=0.008, circular=True))
    [coax] = crosstalk_matrix(base, (0, 1, 2), 0.25)
    coax_ok = coax.off_diagonal_max_db() < -30.0

    link = make_grid(0.008, 1e12)
    disc = synthesize_field(link, WavefrontSpec(kind="beamforming", circular=True))
    spill_db = []
    angles = [math.radians(degrees) for degrees in (0.0, 0.5, 1.0, 1.5, 2.0)]
    for matrix in crosstalk_matrix(disc, (0, 1, 2), 0.05, angles):
        row = matrix.power_coupling_db[1]
        spill_db.append(10.0 * math.log10(10 ** (row[0] / 10) + 10 ** (row[2] / 10)))
    monotone_ok = bool(np.all(np.diff(spill_db) >= -1e-9))

    ok = coax_ok and monotone_ok
    _report(10, ok, f"co-axial off-diagonal max {coax.off_diagonal_max_db():.1f} dB "
                    f"(< -30 dB); spillover over 0..2 deg {np.round(spill_db, 1)} dB "
                    f"non-decreasing: {monotone_ok}")
    assert ok


def test_criterion_11_deterministic_presets(tmp_path, fig4_ci_run):
    def run(name, tag):
        out = tmp_path / tag / name
        return out, run_scenario(preset(name), out)

    # each preset runs twice; fig4-ci's first run is the session's shared one
    pairs = {"fig4-ci": (fig4_ci_run, run("fig4-ci", "b")),
             "fig5": (run("fig5", "a"), run("fig5", "b"))}
    identical = True
    for (out_a, m_a), (out_b, m_b) in pairs.values():
        identical &= m_a.checksums() == m_b.checksums()
        for artifact in m_a.artifacts:
            a = (out_a / artifact["path"]).read_bytes()
            b = (out_b / artifact["path"]).read_bytes()
            identical &= a == b
    _report(11, identical, "repeated preset runs byte-identical "
                           f"({sum(len(m.artifacts) for (_, m), _ in pairs.values())} artifacts compared)")
    assert identical
