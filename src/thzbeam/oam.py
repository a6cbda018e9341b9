"""Orbital-angular-momentum crosstalk and link capacity.

A crosstalk matrix transmits each mode as the spiral overlay
``exp(1j*l*phi)`` on a shared base profile and reads every mode back with
the matched conjugate-helix overlap integral over a centred disc of the
receive plane: entry [tx, rx] is ``pitch^2 * sum_disc P_z(w_tx) * h_rx``,
with ``P_z`` the hop to distance z and ``h_rx = exp(-1j*l_rx*phi)``.  For
l != 0 the helix, whose phase is undefined on the axis, is zero there, at
the transmitter as at the receiver.

The matrix is computed by the adjoint.  The kernel ``exp(-1j*k*r)/r`` is
even, so the same entry is ``pitch^2 * sum_aperture w_tx * A_rx``, where the
adjoint plane ``A_rx`` is ``disc * h_rx`` propagated by z and read back on
the aperture's elements.  One hop per receive mode then serves every
transmit mode and every steering angle of a call, and each entry is one
inner product over the n^2 weights.  Couplings below ``COUPLING_FLOOR_DB``
are written as the floor.

The capacity calculator converts a target rate into the bandwidth required
with M modes and Q-ary QAM under ideal Nyquist signalling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aperture import ApertureField, ApertureGrid, _Layout, _raw_spiral
from .errors import GeometryError, SamplingError
from .propagation import (_DEFAULT_PAD_FACTOR, _check_distance, _padded_size, _window_refusal,
                          propagate_asm, reuse_spectra)

__all__ = [
    "COUPLING_FLOOR_DB",
    "CrosstalkMatrix",
    "LinkBudgetSpec",
    "crosstalk_matrix",
    "required_bandwidth",
]

# Couplings below this many dB are written as it.  A cross term that a
# symmetric grid cancels exactly reads -300 dB or lower, or -inf, and moves
# by tens of dB when only the summation order changes; no physical coupling
# of the studies comes near it.
COUPLING_FLOOR_DB = -200.0


@dataclass(frozen=True)
class CrosstalkMatrix:
    """Power coupling between transmitted and received OAM modes.

    ``power_coupling_db[i][j]`` is the power received by the mode-j matched
    filter when mode i is transmitted, relative to the matched (i, i)
    power, and never below ``COUPLING_FLOOR_DB``; the diagonal is 0 dB by
    construction.
    """

    modes: tuple[int, ...]
    power_coupling_db: np.ndarray

    def off_diagonal_max_db(self) -> float:
        m = self.power_coupling_db
        mask = ~np.eye(m.shape[0], dtype=bool)
        return float(m[mask].max())


def _receive_side(grid: ApertureGrid, rx_radius: float | None) -> tuple[float, int, int, int]:
    """(radius, npad, m, mpad) of a crosstalk receiver: the disc's radius (default: the
    aperture half side), the receive plane's side (a forward hop's at the default pad factor,
    which every crosstalk hop takes), the adjoint hops' source side (the disc's widest row,
    or n) and their padded side.  A radius that is not positive raises ValueError, and one
    beyond the receive plane's half extent GeometryError."""
    n, pitch = grid.elements_per_side, grid.element_pitch
    radius = grid.half_side if rx_radius is None else rx_radius
    if radius <= 0:
        raise ValueError(f"rx_radius must be positive, got {radius}")
    npad = _padded_size(n, _DEFAULT_PAD_FACTOR)
    if radius > npad * pitch / 2.0:
        raise GeometryError(f"receiver radius {radius:g} m exceeds the slice half-extent "
                            f"{npad * pitch / 2.0:g} m")
    x_sq = _Layout(npad, pitch, (False, False)).axis_coordinates() ** 2
    m = max(n, int(np.count_nonzero(x_sq + x_sq.min() <= radius * radius)))
    return radius, npad, m, _padded_size(m, _DEFAULT_PAD_FACTOR)


def crosstalk_matrix(
    base: ApertureField,
    modes: Sequence[int],
    z: float,
    steer_angles: Sequence[float] = (0.0,),
    rx_radius: float | None = None,
) -> list[CrosstalkMatrix]:
    """Send each mode to z at each steering angle and demultiplex it about the fixed axis.

    Returns one matrix per angle of ``steer_angles`` [rad], in their order.
    The receiver is the disc of ``rx_radius`` (default: the aperture half
    side) on the padded plane a ``propagate_asm`` hop to z returns.
    Steering is an additive planar ramp at the transmitter while the
    receiver stays on the nominal axis, which reproduces the misalignment
    spillover of steered OAM beams.

    Each receive mode makes one adjoint hop: ``disc * exp(-1j*l_rx*phi)``
    on the smallest grid of the aperture's pitch and parity that holds the
    disc and the aperture, propagated by z; its central n-by-n window is
    the adjoint plane, against which every transmitted field is one inner
    product.  It is exact for every radius the receive plane holds, where
    a forward hop's padded plane would wrap round inside a disc wider than
    the aperture.  Every hop takes the default pad factor, 2, as a lower
    pad would wrap round too.  Couplings below ``COUPLING_FLOOR_DB`` read
    as the floor.

    The call builds one adjoint plane per receive mode and one transmit
    spiral ``exp(1j*l_tx*phi)`` per mode (16 * n^2 bytes each), and every
    angle reuses them.  The hops share one kernel spectrum, which is
    released once the planes are built unless an enclosing
    ``reuse_spectra()`` block keeps it.
    """
    mode_list = tuple(int(m) for m in modes)
    if len(set(mode_list)) != len(mode_list):
        raise ValueError(f"duplicate modes in {mode_list}")
    _check_distance(z)
    grid = base.grid
    n, pitch, k = grid.elements_per_side, grid.element_pitch, grid.wavenumber
    rx_radius, npad, m, _ = _receive_side(grid, rx_radius)
    if (refusal := _window_refusal(npad * pitch, grid.wavelength, z)) is not None:
        raise SamplingError(refusal)  # every hop takes pad factor 2: no other to hint at
    rx_grid = ApertureGrid(m * pitch, pitch, grid.frequency)
    phi = _raw_spiral(rx_grid, 1)  # the azimuth, on the aperture's elements too
    x_sq = rx_grid.axis_coordinates() ** 2
    rho_sq = x_sq[None, :] + x_sq[:, None]
    disc = rho_sq <= rx_radius * rx_radius
    # a helix of l != 0 has no phase on the axis, so the sample there (of an odd grid) is 0
    off_axis = rho_sq > 0.0
    del rho_sq

    def adjoint_plane(l_rx: int) -> np.ndarray:
        helix = np.where(disc & off_axis if l_rx else disc, np.exp(-1j * l_rx * phi), 0.0)
        plane = propagate_asm(ApertureField(rx_grid, helix), z)
        del helix  # not held while the plane's window is copied out
        return plane.layout.window(plane.block, (plane.layout.side - n) // 2, n).ravel()

    with reuse_spectra():  # every hop has the same kernel
        planes = [adjoint_plane(l_rx) for l_rx in mode_list]
    window = slice((m - n) // 2, (m - n) // 2 + n)
    spirals = [np.where(off_axis[window, window] if l_tx else True,
                        np.exp(1j * (l_tx * phi[window, window])), 0.0) for l_tx in mode_list]
    del phi, disc, off_axis  # not held while the angles are summed

    matrices = []
    for angle in steer_angles:
        ramp = np.exp(-1j * k * math.sin(angle) * grid.axis_coordinates()[None, :])
        coupling = np.zeros((len(mode_list), len(mode_list)))
        for i, (l_tx, spiral) in enumerate(zip(mode_list, spirals)):
            tx = (base.weights * spiral * ramp).ravel()
            # einsum, not np.dot: a BLAS dot splits its sum by the BLAS thread count
            amps = np.array([np.einsum("i,i->", tx, plane) for plane in planes]) * pitch**2
            powers = np.abs(amps) ** 2
            if powers[i] == 0.0:
                raise ValueError(f"matched power for mode {l_tx} vanished; geometry unusable")
            with np.errstate(divide="ignore"):
                coupling[i, :] = 10.0 * np.log10(powers / powers[i])
        matrices.append(CrosstalkMatrix(mode_list, np.maximum(coupling, COUPLING_FLOOR_DB)))
    return matrices


@dataclass(frozen=True)
class LinkBudgetSpec:
    """Target rate with M OAM modes and Q-ary QAM; B = rate/(M*log2(Q))."""

    target_rate: float
    n_modes: int
    qam_order: int

    def __post_init__(self):
        if self.target_rate <= 0:
            raise ValueError(f"target_rate must be positive, got {self.target_rate}")
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be at least 1, got {self.n_modes}")
        q = self.qam_order
        if q < 2 or (q & (q - 1)) != 0:
            raise ValueError(f"qam_order must be a power of two >= 2, got {q}")

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(self.qam_order))


def required_bandwidth(spec: LinkBudgetSpec) -> float:
    """Bandwidth for the target rate under ideal Nyquist signalling."""
    return spec.target_rate / (spec.n_modes * spec.bits_per_symbol)
