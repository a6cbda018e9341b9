"""Orbital-angular-momentum crosstalk and link capacity.

A crosstalk matrix transmits each mode as the spiral overlay
``exp(1j*l*phi)`` on a shared base profile and reads every mode back with
the matched conjugate-helix overlap integral over a centred disc.  The
capacity calculator converts a target rate into the bandwidth required
with M modes and Q-ary QAM under ideal Nyquist signalling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aperture import ApertureField, _raw_spiral
from .errors import GeometryError
from .propagation import FieldSlice, PropagationPlan, propagate_asm, reuse_spectra

__all__ = [
    "CrosstalkMatrix",
    "LinkBudgetSpec",
    "crosstalk_matrix",
    "required_bandwidth",
]


def _receiver_disc(slice_: FieldSlice, rx_radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the samples inside the centred receiver disc, and their azimuths."""
    if rx_radius <= 0:
        raise ValueError(f"rx_radius must be positive, got {rx_radius}")
    if rx_radius > slice_.extent / 2.0:
        raise GeometryError(
            f"receiver radius {rx_radius:g} m exceeds the slice half-extent "
            f"{slice_.extent / 2.0:g} m"
        )
    X, Y = slice_.meshgrid()
    rho2 = X * X + Y * Y
    sel = rho2 <= rx_radius * rx_radius
    return sel, np.arctan2(Y[sel], X[sel])


@dataclass(frozen=True)
class CrosstalkMatrix:
    """Power coupling between transmitted and received OAM modes.

    ``power_coupling_db[i][j]`` is the power received by the mode-j matched
    filter when mode i is transmitted, relative to the matched (i, i)
    power; the diagonal is 0 dB by construction.
    """

    modes: tuple[int, ...]
    power_coupling_db: np.ndarray

    def off_diagonal_max_db(self) -> float:
        m = self.power_coupling_db
        mask = ~np.eye(m.shape[0], dtype=bool)
        return float(m[mask].max())


def crosstalk_matrix(
    base: ApertureField,
    modes: Sequence[int],
    z: float,
    steer_angle: float = 0.0,
    rx_radius: float | None = None,
    plan: PropagationPlan | None = None,
) -> CrosstalkMatrix:
    """Propagate each single-mode beam and demultiplex about the fixed axis.

    Steering is an additive planar ramp at the transmitter while the
    receiver stays on the nominal axis, which reproduces the misalignment
    spillover of steered OAM beams.
    """
    mode_list = tuple(int(m) for m in modes)
    if len(set(mode_list)) != len(mode_list):
        raise ValueError(f"duplicate modes in {mode_list}")
    if z <= 0:
        raise ValueError(f"z must be positive, got {z}")
    grid = base.grid
    if rx_radius is None:
        rx_radius = grid.half_side
    ramp = np.exp(-1j * grid.wavenumber * math.sin(steer_angle) * grid.meshgrid()[0])

    coupling = np.zeros((len(mode_list), len(mode_list)))
    helices = None
    with reuse_spectra():
        for i, l_tx in enumerate(mode_list):
            tx = ApertureField(grid, base.weights * np.exp(1j * _raw_spiral(grid, l_tx)) * ramp)
            received = propagate_asm(tx, z, plan)
            if helices is None:
                # every received plane shares one padded grid, so one disc serves all
                sel, rx_phi = _receiver_disc(received, rx_radius)
                helices = [np.exp(-1j * l_rx * rx_phi) for l_rx in mode_list]
            # disc integral of the samples against each conjugate helix exp(-1j*l*phi)
            amps = np.array([np.sum(received.samples[sel] * helix) * received.sample_pitch**2
                             for helix in helices])
            powers = np.abs(amps) ** 2
            if powers[i] == 0.0:
                raise ValueError(f"matched power for mode {l_tx} vanished; geometry unusable")
            with np.errstate(divide="ignore"):
                coupling[i, :] = 10.0 * np.log10(powers / powers[i])
    return CrosstalkMatrix(mode_list, coupling)


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
