import math

import numpy as np
import pytest

from thzbeam import (
    ApertureField,
    GeometryError,
    LinkBudgetSpec,
    OamModeSet,
    WavefrontSpec,
    crosstalk_matrix,
    demultiplex,
    make_grid,
    multiplex,
    propagate_asm,
    required_bandwidth,
    synthesize_field,
)
from thzbeam.propagation import PropagationPlan


def _disc_base(grid):
    return synthesize_field(grid, WavefrontSpec(kind="beamforming", circular=True))


# ---------------------------------------------------------------------------
# multiplexing


def test_single_zero_mode_is_base():
    grid = make_grid(0.02, 3e11)
    base = _disc_base(grid)
    out = multiplex(base, OamModeSet((0,)))
    np.testing.assert_array_equal(out.weights, base.weights)


def test_opposite_modes_make_two_petals():
    grid = make_grid(0.05, 3e11)
    base = _disc_base(grid)
    out = multiplex(base, OamModeSet((1, -1)))
    X, Y = grid.meshgrid()
    phi = np.arctan2(Y, X)
    live = np.abs(base.weights) > 0
    intensity = np.abs(out.weights[live]) ** 2
    model = 4.0 * np.cos(phi[live]) ** 2
    np.testing.assert_allclose(intensity, model, atol=1e-12)


def test_multiplex_power_additivity_on_disc():
    grid = make_grid(0.05, 3e11)
    base = _disc_base(grid)
    amplitudes = (0.7, 1.0 - 0.5j, -0.3)
    out = multiplex(base, OamModeSet((0, 1, 2), amplitudes))
    expected = sum(abs(a) ** 2 for a in amplitudes) * base.power
    assert out.power == pytest.approx(expected, rel=1e-12)


def test_multiplex_rejects_duplicates():
    with pytest.raises(ValueError):
        OamModeSet((1, 1))
    with pytest.raises(ValueError):
        OamModeSet(())


# ---------------------------------------------------------------------------
# demultiplexing


def test_demux_orthogonality_after_propagation():
    grid = make_grid(0.05, 3e11)
    base = _disc_base(grid)
    tx = multiplex(base, OamModeSet((1,)))
    slice_ = propagate_asm(tx, 0.25, PropagationPlan(pad_factor=4.0))
    matched = abs(demultiplex(slice_, 1, grid.half_side)) ** 2
    for other in (0, 2, 3):
        cross = abs(demultiplex(slice_, other, grid.half_side)) ** 2
        # -30 dB or better (symmetric grids cancel cross terms exactly)
        assert cross < matched * 1e-3


def test_demux_mode_zero_is_disc_integral():
    grid = make_grid(0.05, 3e11)
    base = _disc_base(grid)
    slice_ = propagate_asm(base, 0.2)
    r = 0.01
    X, Y = slice_.meshgrid()
    sel = X**2 + Y**2 <= r * r
    plain = np.sum(slice_.samples[sel]) * slice_.sample_pitch**2
    assert demultiplex(slice_, 0, r) == pytest.approx(plain, rel=1e-12)


def test_demux_conjugation_symmetry():
    grid = make_grid(0.05, 3e11)
    tx = multiplex(_disc_base(grid), OamModeSet((2,)))
    slice_ = propagate_asm(tx, 0.2)
    conj = type(slice_)(slice_.z, np.conj(slice_.samples), slice_.sample_pitch)
    a = demultiplex(slice_, 2, grid.half_side)
    b = demultiplex(conj, -2, grid.half_side)
    assert b == pytest.approx(np.conj(a), rel=1e-12)


def test_demux_radius_bounds():
    grid = make_grid(0.02, 3e11)
    slice_ = propagate_asm(_disc_base(grid), 0.1)
    with pytest.raises(GeometryError):
        demultiplex(slice_, 0, slice_.extent)
    with pytest.raises(ValueError):
        demultiplex(slice_, 0, -0.01)


def test_azimuthal_orthogonality_on_disc():
    # discrete conjugate-helix overlaps vanish for |l - m| <= 8
    n = 257
    pitch = 1e-3
    x = (np.arange(n) - (n - 1) / 2.0) * pitch
    X, Y = np.meshgrid(x, x, indexing="xy")
    sel = X**2 + Y**2 <= (0.12) ** 2  # >= 64 samples per ring at this pitch
    phi = np.arctan2(Y[sel], X[sel])
    for l in range(-4, 5):
        matched = abs(np.sum(np.exp(1j * l * phi) * np.exp(-1j * l * phi)))
        for m in range(-4, 5):
            if m == l:
                continue
            cross = abs(np.sum(np.exp(1j * l * phi) * np.exp(-1j * m * phi)))
            assert cross / matched < 1e-3


# ---------------------------------------------------------------------------
# round trip


def test_mux_demux_round_trip_recovers_amplitudes():
    grid = make_grid(0.05, 3e11)
    base = _disc_base(grid)
    amplitudes = (1.0, 0.6 - 0.2j, -0.4 + 0.1j)
    modes = (0, 1, 2)
    tx = multiplex(base, OamModeSet(modes, amplitudes))
    slice_ = propagate_asm(tx, 4 * grid.element_pitch, PropagationPlan(pad_factor=2.0))
    received = np.array([demultiplex(slice_, l, grid.half_side) for l in modes])
    # coefficients proportional to the sent amplitudes
    ratios = received / received[0] * amplitudes[0]
    np.testing.assert_allclose(ratios, amplitudes, rtol=0.02)
    # an unused mode stays 30 dB below the weakest used one
    unused = abs(demultiplex(slice_, 4, grid.half_side)) ** 2
    weakest = min(abs(v) ** 2 for v in received)
    assert 10 * math.log10(weakest / unused) > 30.0


# ---------------------------------------------------------------------------
# crosstalk matrices


def test_crosstalk_coaxial_bessel_base():
    grid = make_grid(0.05, 3e11)
    base = synthesize_field(grid, WavefrontSpec(kind="bessel", spot_fwhm=0.008, circular=True))
    matrix = crosstalk_matrix(base, (0, 1, 2), 0.25)
    for i in range(3):
        assert matrix.power_coupling_db[i, i] == 0.0
    assert matrix.off_diagonal_max_db() < -30.0


def test_crosstalk_mode_shift_invariance_loose():
    grid = make_grid(0.05, 3e11)
    # annular base: a ring of transmission between 60% and 100% of the half side
    X, Y = grid.meshgrid()
    rho = np.hypot(X, Y)
    ring = ((rho <= grid.half_side) & (rho >= 0.6 * grid.half_side)).astype(complex)
    base = ApertureField(grid, ring)
    low = crosstalk_matrix(base, (0, 1, 2), 0.25)
    high = crosstalk_matrix(base, (1, 2, 3), 0.25)
    assert low.off_diagonal_max_db() < -25.0
    assert high.off_diagonal_max_db() < -25.0


def test_crosstalk_steering_spillover_monotone():
    # compact link where a 2 degree ramp stays perturbative
    grid = make_grid(0.008, 1e12)
    base = _disc_base(grid)
    modes = (0, 1, 2)
    previous = -math.inf
    for degrees in (0.0, 0.5, 1.0, 1.5, 2.0):
        matrix = crosstalk_matrix(base, modes, 0.05, steer_angle=math.radians(degrees))
        row = matrix.power_coupling_db[1]  # transmit l = 1
        spill = 10 * math.log10(10 ** (row[0] / 10) + 10 ** (row[2] / 10))
        assert spill >= previous - 1e-9
        previous = spill


def test_crosstalk_matches_per_plane_demultiplex():
    grid = make_grid(0.02, 3e11)
    base = _disc_base(grid)
    modes, z, steer = (-1, 0, 2), 0.1, math.radians(1.0)
    matrix = crosstalk_matrix(base, modes, z, steer_angle=steer)
    X, Y = grid.meshgrid()
    phi = np.arctan2(Y, X)
    ramp = np.exp(-1j * grid.wavenumber * math.sin(steer) * X)
    for i, l_tx in enumerate(modes):
        received = propagate_asm(ApertureField(grid, base.weights * np.exp(1j * l_tx * phi) * ramp), z)
        powers = np.abs([demultiplex(received, l_rx, grid.half_side) for l_rx in modes]) ** 2
        np.testing.assert_array_equal(matrix.power_coupling_db[i], 10.0 * np.log10(powers / powers[i]))


def test_crosstalk_rejects_bad_modes():
    grid = make_grid(0.02, 3e11)
    base = _disc_base(grid)
    with pytest.raises(ValueError):
        crosstalk_matrix(base, (1, 1), 0.1)
    with pytest.raises(ValueError):
        crosstalk_matrix(base, (0, 1), -0.1)


# ---------------------------------------------------------------------------
# link budget


def test_bandwidth_reference_points():
    assert required_bandwidth(LinkBudgetSpec(1e12, 32, 16)) == 7.8125e9
    assert required_bandwidth(LinkBudgetSpec(1e12, 32, 1024)) == 3.125e9
    assert required_bandwidth(LinkBudgetSpec(1e12, 1, 2)) == 1e12


def test_bandwidth_scaling_exact():
    b1 = required_bandwidth(LinkBudgetSpec(1e12, 8, 16))
    assert required_bandwidth(LinkBudgetSpec(1e12, 16, 16)) == b1 / 2
    assert required_bandwidth(LinkBudgetSpec(1e12, 8, 256)) == b1 / 2


def test_bandwidth_validates_spec():
    with pytest.raises(ValueError):
        LinkBudgetSpec(1e12, 32, 3)
    with pytest.raises(ValueError):
        LinkBudgetSpec(1e12, 32, 1)
    with pytest.raises(ValueError):
        LinkBudgetSpec(1e12, 0, 4)
    with pytest.raises(ValueError):
        LinkBudgetSpec(-1.0, 4, 4)
