import math

import numpy as np
import pytest

from thzbeam import (
    ApertureField,
    GeometryError,
    LinkBudgetSpec,
    WavefrontSpec,
    crosstalk_matrix,
    make_grid,
    propagate_asm,
    required_bandwidth,
    synthesize_field,
)
import thzbeam.oam as oam
from thzbeam import propagation
from thzbeam.aperture import ApertureGrid, _raw_spiral
from thzbeam.oam import COUPLING_FLOOR_DB
from thzbeam.propagation import _padded_size, propagate_direct


def _disc_base(grid):
    return synthesize_field(grid, WavefrontSpec(kind="beamforming", circular=True))


def _helix(l, phi, rho_sq):
    """exp(1j*l*phi), zero on the axis (rho = 0) for l != 0, where its phase is undefined."""
    return np.where((rho_sq > 0.0) | (l == 0), np.exp(1j * l * phi), 0.0)


# ---------------------------------------------------------------------------
# receiver


def test_demux_orthogonality_after_propagation():
    grid = make_grid(0.05, 3e11)
    [matrix] = crosstalk_matrix(_disc_base(grid), (0, 1, 2, 3), 0.25)
    # mode 1 sent: -30 dB or better into 0, 2 and 3 (symmetric grids cancel cross terms exactly)
    assert np.all(np.delete(matrix.power_coupling_db[1], 1) < -30.0)


def test_demux_radius_bounds():
    grid = make_grid(0.02, 3e11)
    base = _disc_base(grid)
    plane_extent = propagate_asm(base, 0.1).extent
    with pytest.raises(GeometryError):
        crosstalk_matrix(base, (0,), 0.1, rx_radius=plane_extent)
    with pytest.raises(ValueError):
        crosstalk_matrix(base, (0,), 0.1, rx_radius=-0.01)


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
# crosstalk matrices


def test_crosstalk_coaxial_bessel_base():
    grid = make_grid(0.05, 3e11)
    base = synthesize_field(grid, WavefrontSpec(kind="bessel", spot_fwhm=0.008, circular=True))
    [matrix] = crosstalk_matrix(base, (0, 1, 2), 0.25)
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
    [low] = crosstalk_matrix(base, (0, 1, 2), 0.25)
    [high] = crosstalk_matrix(base, (1, 2, 3), 0.25)
    assert low.off_diagonal_max_db() < -25.0
    assert high.off_diagonal_max_db() < -25.0


def test_crosstalk_steering_spillover_monotone():
    # compact link where a 2 degree ramp stays perturbative
    grid = make_grid(0.008, 1e12)
    base = _disc_base(grid)
    modes = (0, 1, 2)
    previous = -math.inf
    angles = [math.radians(degrees) for degrees in (0.0, 0.5, 1.0, 1.5, 2.0)]
    for matrix in crosstalk_matrix(base, modes, 0.05, angles):
        row = matrix.power_coupling_db[1]  # transmit l = 1
        spill = 10 * math.log10(10 ** (row[0] / 10) + 10 ** (row[2] / 10))
        assert spill >= previous - 1e-9
        previous = spill


def test_crosstalk_matches_per_plane_demultiplex():
    grid = make_grid(0.02, 3e11)
    base = _disc_base(grid)
    modes, z, steer = (-1, 0, 2), 0.1, math.radians(1.0)
    [matrix] = crosstalk_matrix(base, modes, z, [steer])
    X, Y = grid.meshgrid()
    phi = np.arctan2(Y, X)
    ramp = np.exp(-1j * grid.wavenumber * math.sin(steer) * X)
    for i, l_tx in enumerate(modes):
        received = propagate_asm(ApertureField(grid, base.weights * np.exp(1j * l_tx * phi) * ramp), z)
        RX, RY = received.meshgrid()
        disc = RX * RX + RY * RY <= grid.half_side * grid.half_side
        rx_phi = np.arctan2(RY[disc], RX[disc])
        # the matched filter: disc integral of the plane against exp(-1j*l*phi)
        amps = [np.sum(received.samples[disc] * np.exp(-1j * l_rx * rx_phi)) * received.sample_pitch**2
                for l_rx in modes]
        ratio = np.abs(amps) ** 2 / np.abs(amps[i]) ** 2
        # the adjoint sums in another order: compare power ratios, not bits
        got = 10.0 ** (matrix.power_coupling_db[i] / 10.0)
        assert np.all(np.abs(got - ratio) <= 1e-12 * np.maximum(1.0, ratio)), (got, ratio)


@pytest.fixture(scope="module")
def wide_disc_link():
    """The steered 8 mm / 1 THz link, its receive-plane samples out to 1.9 half sides
    summed by the oracle for each transmitted mode."""
    grid = make_grid(0.008, 1e12)
    base = _disc_base(grid)
    modes, z, steer = (0, 1, 2), 0.05, math.radians(1.0)
    RX, RY = propagate_asm(base, z).meshgrid()
    rho_sq = RX * RX + RY * RY
    wide = rho_sq <= (1.9 * grid.half_side) ** 2
    points = np.column_stack([RX[wide], RY[wide], np.full(int(wide.sum()), z)])
    X, Y = grid.meshgrid()
    phi = np.arctan2(Y, X)
    ramp = np.exp(-1j * grid.wavenumber * math.sin(steer) * X)
    fields = [propagate_direct(ApertureField(grid, base.weights * _helix(l, phi, X * X + Y * Y)
                                             * ramp), points) for l in modes]
    return base, modes, z, steer, rho_sq[wide], np.arctan2(RY[wide], RX[wide]), fields


@pytest.mark.parametrize("factor", [1.0, 1.5, 1.9])
def test_crosstalk_matches_the_oracle_over_wide_discs(wide_disc_link, factor):
    # a forward hop's padded plane (121 samples for 53 elements) wraps round inside
    # discs wider than the aperture; the adjoint hop's plane does not
    base, modes, z, steer, rho_sq, rx_phi, fields = wide_disc_link
    radius = factor * base.grid.half_side
    disc = rho_sq <= radius * radius
    [matrix] = crosstalk_matrix(base, modes, z, [steer], rx_radius=radius)
    for i, received in enumerate(fields):
        amps = np.array([np.sum(received[disc] * _helix(-l_rx, rx_phi[disc], rho_sq[disc]))
                         for l_rx in modes])
        powers = np.abs(amps) ** 2
        np.testing.assert_allclose(matrix.power_coupling_db[i], 10.0 * np.log10(powers / powers[i]),
                                   rtol=0.0, atol=1e-9)


def test_crosstalk_floors_round_off_cells():
    # a symmetric Bessel link: every cross term cancels to round-off, -300 dB or lower
    grid = make_grid(0.05, 3e11)
    base = synthesize_field(grid, WavefrontSpec(kind="bessel", spot_fwhm=0.008, circular=True))
    [matrix] = crosstalk_matrix(base, (0, 1, 2, 3), 0.25)
    coupling = matrix.power_coupling_db
    np.testing.assert_array_equal(np.diag(coupling), 0.0)
    np.testing.assert_array_equal(coupling[~np.eye(4, dtype=bool)], COUPLING_FLOOR_DB)


def test_crosstalk_rejects_bad_modes():
    grid = make_grid(0.02, 3e11)
    base = _disc_base(grid)
    with pytest.raises(ValueError):
        crosstalk_matrix(base, (1, 1), 0.1)
    with pytest.raises(ValueError):
        crosstalk_matrix(base, (0, 1), -0.1)


def _per_call_couplings(base, modes, z, steer_angle, rx_radius):
    """Reference couplings at one angle: the azimuth, adjoint planes and transmit spirals
    built afresh for that angle alone."""
    grid = base.grid
    n, pitch, k = grid.elements_per_side, grid.element_pitch, grid.wavenumber
    npad = _padded_size(n, 2.0)
    r_sq = rx_radius * rx_radius
    x_sq = ((np.arange(npad) - (npad - 1) / 2.0) * pitch) ** 2
    m = max(n, int(np.count_nonzero(x_sq + x_sq.min() <= r_sq)))
    rx_grid = ApertureGrid(m * pitch, pitch, grid.frequency)
    x_sq = rx_grid.axis_coordinates() ** 2
    rho_sq = x_sq[None, :] + x_sq[:, None]
    disc = rho_sq <= r_sq
    phi = _raw_spiral(rx_grid, 1)
    planes = []
    for l_rx in modes:
        helix = np.where(disc, _helix(-l_rx, phi, rho_sq), 0.0)
        plane = propagate_asm(ApertureField(rx_grid, helix), z).samples
        c = (plane.shape[0] - n) // 2
        planes.append(plane[c : c + n, c : c + n].ravel())
    ramp = np.exp(-1j * k * math.sin(steer_angle) * grid.axis_coordinates()[None, :])
    lo = (m - n) // 2
    tx_phi = phi[lo : lo + n, lo : lo + n]
    tx_rho_sq = rho_sq[lo : lo + n, lo : lo + n]
    coupling = np.zeros((len(modes), len(modes)))
    for i, l_tx in enumerate(modes):
        tx = (base.weights * _helix(l_tx, tx_phi, tx_rho_sq) * ramp).ravel()
        amps = np.array([np.einsum("i,i->", tx, plane) for plane in planes]) * pitch**2
        powers = np.abs(amps) ** 2
        with np.errstate(divide="ignore"):
            coupling[i, :] = 10.0 * np.log10(powers / powers[i])
    return np.maximum(coupling, COUPLING_FLOOR_DB)


def _random_field(grid, seed=5):
    rng = np.random.default_rng(seed)
    n = grid.elements_per_side
    return ApertureField(grid, rng.random((n, n)) * np.exp(2j * np.pi * rng.random((n, n))))


STUDY_MODES = tuple(range(-3, 4))
STUDY_STEER = tuple(math.radians(deg) for deg in (0.0, 0.5, 1.0))


@pytest.mark.parametrize("side, n", [(0.02, 40), (0.0205, 41)])
def test_a_multi_angle_call_gives_the_bits_of_single_angle_and_per_call_couplings(side, n):
    grid = make_grid(side, 3e11)
    assert grid.elements_per_side == n
    base, z = _random_field(grid), 0.1
    radii = (grid.half_side, 1.5 * grid.half_side)  # the default, and one wider than the aperture
    for r in radii:
        matrices = crosstalk_matrix(base, STUDY_MODES, z, STUDY_STEER, r)
        assert len(matrices) == len(STUDY_STEER)
        for angle, matrix in zip(STUDY_STEER, matrices):
            got = matrix.power_coupling_db.view(np.uint64)
            [single] = crosstalk_matrix(base, STUDY_MODES, z, [angle],
                                        None if r == grid.half_side else r)
            np.testing.assert_array_equal(got, single.power_coupling_db.view(np.uint64))
            per_call = _per_call_couplings(base, STUDY_MODES, z, angle, r)
            np.testing.assert_array_equal(got, per_call.view(np.uint64))


class _CountingNumpy:
    """``oam``'s numpy, counting the n-by-n exponentials: the transmit spirals."""

    def __init__(self, n):
        self.n, self.spirals = n, 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        out = np.exp(x, *args, **kwargs)
        self.spirals += out.shape == (self.n, self.n)
        return out


def test_one_call_builds_one_spiral_and_hop_per_mode_and_leaves_no_memo(monkeypatch):
    grid = make_grid(0.02, 3e11)
    base, n = _random_field(grid), grid.elements_per_side
    counting = _CountingNumpy(n)
    monkeypatch.setattr(oam, "np", counting)
    hops = []

    def counting_asm(field, z):
        hops.append(field.grid.elements_per_side)
        return propagate_asm(field, z)

    monkeypatch.setattr(oam, "propagate_asm", counting_asm)
    kernels = []

    def counting_kernel(*args):
        kernels.append(args)
        return kernel_spectrum(*args)

    kernel_spectrum = propagation._kernel_spectrum
    monkeypatch.setattr(propagation, "_kernel_spectrum", counting_kernel)
    # a receive disc wider than the aperture: its helices are larger than n-by-n
    radius = 1.5 * grid.half_side
    matrices = crosstalk_matrix(base, STUDY_MODES, 0.1, STUDY_STEER, radius)
    assert len(matrices) == len(STUDY_STEER)
    assert counting.spirals == len(STUDY_MODES)
    assert len(hops) == len(STUDY_MODES) and min(hops) > n
    assert len(kernels) == 1  # the hops share one kernel spectrum
    # and it is released with the call: no spectra memo is left
    assert propagation._SPECTRA.get() is None


def test_the_benchmark_sized_study_peaks_below_its_per_call_form():
    """Traced peak of a 5-mode, 3-angle study at 0.05 m and 1 THz (n = 333).

    When the study memo kept the adjoint hops' kernel (16 * 675^2 bytes) and
    each call built its own spirals, the peak read 26,233,689 bytes.  Built
    in a scope of their own, the hops release the kernel and each helix
    before the spirals are kept: it read 24,464,959 bytes.  With the kernel
    spectrum built and kept as its quadrant it reads 24,211,551 bytes (a
    few kB vary with the tests run before it).  One call that takes the
    three angles and frees the azimuth and disc before it sums them reads
    23,211,342 bytes.
    """
    import tracemalloc

    base = _disc_base(make_grid(0.05, 1e12))
    tracemalloc.start()
    try:
        crosstalk_matrix(base, (-2, -1, 0, 1, 2), 0.2, STUDY_STEER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24_300_000, f"traced peak {peak:,} bytes"


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
