"""Command-line interface.

Verbs: synthesize, propagate, gain-curve, blockage, oam-crosstalk,
capacity, run <config>, preset <name>.  Exit codes: 0 success, 2 config
error, 3 numeric/sampling error, 4 io error.

--threads N runs the FFTs on N workers (default 1; N < 1 is a config
error).  The output is bit-identical for every worker count.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np
import scipy.fft as sfft

from . import io as artifacts
from .aperture import (
    CausticCurve,
    ObstacleSpec,
    WavefrontSpec,
    axicon_design,
    circular_taper,
    make_grid,
    synthesize_field,
    synthesize_phase,
)
from .errors import ConfigError, NoBeamError, SamplingError, ToolkitError
from .metrics import gain_curve, self_healing_correlation
from .oam import LinkBudgetSpec, crosstalk_matrix, required_bandwidth
from .propagation import PropagationPlan, propagate_asm, propagate_with_obstacles
from .scenarios import (
    PRESET_NAMES,
    load_config,
    preset,
    preset_text,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--side-length", type=float, required=True, help="aperture side length [m]")
    p.add_argument("--frequency", type=float, required=True, help="carrier frequency [Hz]")
    p.add_argument("--pitch-fraction", type=float, default=0.5,
                   help="element pitch as a fraction of the wavelength (default 0.5)")


def _add_wavefront_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True,
                   choices=("beamforming", "beamfocusing", "bessel", "caustic"))
    p.add_argument("--steer-deg", type=float, default=0.0)
    p.add_argument("--focal-length", type=float, help="focal length [m] for beamfocusing")
    p.add_argument("--spot-fwhm", type=float, help="Bessel central-spot diameter [m]")
    p.add_argument("--spot-convention", choices=("fwhm", "first_null"), default="fwhm")
    p.add_argument("--curve-a", type=float, help="caustic parabola curvature [1/m]")
    p.add_argument("--curve-x-start", type=float, default=0.0)
    p.add_argument("--curve-z-end", type=float, help="caustic design range [m]")
    p.add_argument("--oam-l", type=int, default=0, help="spiral overlay mode")
    p.add_argument("--bits", type=int, help="quantize the phase map to this many bits")
    p.add_argument("--circular", action="store_true", help="apply the inscribed-disc taper")


def _add_output_args(p: argparse.ArgumentParser, formats=("csv", "pgm", "png")) -> None:
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--format", action="append", choices=formats, dest="formats",
                   help="artifact format (repeatable; default csv)")
    p.add_argument("--db-floor", type=float, default=-60.0)
    p.add_argument("--threads", type=int, default=1, help="FFT workers (default 1)")


def _wavefront_from_args(args) -> WavefrontSpec:
    curve = None
    if args.kind == "caustic":
        if args.curve_a is None or args.curve_z_end is None:
            raise ConfigError("caustic wavefront needs --curve-a and --curve-z-end")
        curve = CausticCurve.parabola(args.curve_a, args.curve_z_end, args.curve_x_start)
    try:
        return WavefrontSpec(
            kind=args.kind,
            steer_angle=math.radians(args.steer_deg),
            focal_length=args.focal_length,
            spot_fwhm=args.spot_fwhm,
            curve=curve,
            spot_convention=args.spot_convention,
            oam_mode=args.oam_l,
            phase_bits=args.bits,
            circular=args.circular,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_synthesize(args) -> int:
    grid = make_grid(args.side_length, args.frequency, args.pitch_fraction)
    spec = _wavefront_from_args(args)
    phase = synthesize_phase(grid, spec)
    args.out.mkdir(parents=True, exist_ok=True)
    formats = args.formats or ["csv"]
    stem = args.out / f"phase_{args.kind}"
    if "csv" in formats:
        artifacts.phase_map_csv(Path(f"{stem}.csv"), phase)
    levels = artifacts.phase_to_levels(phase)
    if "pgm" in formats:
        artifacts.write_pgm16(Path(f"{stem}.pgm"), levels)
    if "png" in formats:
        artifacts.write_png16(Path(f"{stem}.png"), levels)
    print(f"wrote {stem}.{{{','.join(formats)}}} "
          f"({grid.elements_per_side}x{grid.elements_per_side} elements)")
    return EXIT_OK


def _cmd_propagate(args) -> int:
    grid = make_grid(args.side_length, args.frequency, args.pitch_fraction)
    field = synthesize_field(grid, _wavefront_from_args(args))
    plan = PropagationPlan(pad_factor=args.pad)
    slice_ = propagate_asm(field, args.z, plan)
    args.out.mkdir(parents=True, exist_ok=True)
    formats = args.formats or ["pgm"]
    stem = args.out / f"slice_{args.kind}_z{args.z:g}"
    if "csv" in formats:
        artifacts.field_slice_csv(Path(f"{stem}.csv"), slice_)
    levels = artifacts.intensity_to_levels(slice_, scale=args.scale, db_floor=args.db_floor)
    if "pgm" in formats:
        artifacts.write_pgm16(Path(f"{stem}.pgm"), levels)
    if "png" in formats:
        artifacts.write_png16(Path(f"{stem}.png"), levels)
    print(f"wrote {stem}.* ({slice_.samples.shape[0]}x{slice_.samples.shape[1]} samples)")
    return EXIT_OK


def _cmd_gain_curve(args) -> int:
    grid = make_grid(args.side_length, args.frequency, args.pitch_fraction)
    if args.z_start <= 0 or args.z_stop <= args.z_start or args.z_step <= 0:
        raise ConfigError("need 0 < --z-start < --z-stop and --z-step > 0")
    count = int(round((args.z_stop - args.z_start) / args.z_step)) + 1
    distances = args.z_start + args.z_step * np.arange(count)
    wavefronts = [
        WavefrontSpec(kind="beamforming"),
        WavefrontSpec(kind="beamfocusing", focal_length=args.focal_length),
        WavefrontSpec(kind="bessel", spot_fwhm=args.spot_fwhm,
                      spot_convention=args.spot_convention),
    ]
    curve = gain_curve(grid, wavefronts, distances,
                       taper=None if args.taper == "none" else circular_taper(grid))
    args.out.mkdir(parents=True, exist_ok=True)
    header, rows = artifacts.gain_curve_rows(curve)
    path = args.out / "gain_curve.csv"
    artifacts.write_csv(path, header, rows)
    print(f"wrote {path} (bessel peak at {curve.bessel_peak_distance:g} m, "
          f"focal length {curve.focal_length:g} m)")
    return EXIT_OK


def _cmd_capacity(args) -> int:
    rows = []
    for m in args.modes:
        for q in args.qam:
            rows.append([float(m), float(q),
                         required_bandwidth(LinkBudgetSpec(args.rate, m, q))])
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "bandwidth.csv"
    artifacts.write_csv(path, "n_modes,qam_order,bandwidth_hz", rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_oam_crosstalk(args) -> int:
    grid = make_grid(args.side_length, args.frequency, args.pitch_fraction)
    base_spec = (
        WavefrontSpec(kind="bessel", spot_fwhm=args.spot_fwhm, circular=True)
        if args.spot_fwhm
        else WavefrontSpec(kind="beamforming", circular=True)
    )
    base = synthesize_field(grid, base_spec)
    matrix = crosstalk_matrix(base, args.modes, args.z,
                              steer_angle=math.radians(args.steer_deg),
                              rx_radius=args.rx_radius)
    args.out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, tx in enumerate(matrix.modes):
        for j, rx in enumerate(matrix.modes):
            rows.append([float(tx), float(rx), matrix.power_coupling_db[i, j]])
    path = args.out / "crosstalk.csv"
    artifacts.write_csv(path, "tx_mode,rx_mode,coupling_db", rows)
    print(f"wrote {path} (max off-diagonal {matrix.off_diagonal_max_db():.1f} dB)")
    return EXIT_OK


def _cmd_blockage(args) -> int:
    # single-obstacle healing check without a full scenario file
    grid = make_grid(args.side_length, args.frequency, args.pitch_fraction)
    spec = WavefrontSpec(kind="bessel", spot_fwhm=args.spot_fwhm, circular=True)
    design = axicon_design(grid, args.spot_fwhm)
    z_heal = (args.obstacle_size / 2.0) / math.tan(design.cone_angle)
    z_eval = args.obstacle_z + 2.0 * z_heal
    field = synthesize_field(grid, spec)
    plan = PropagationPlan(pad_factor=args.pad)
    disc = ObstacleSpec("disc", args.obstacle_size, (0.0, 0.0), args.obstacle_z)
    reference = propagate_asm(field, z_eval, plan)
    blocked = propagate_with_obstacles(field, [disc], z_eval, plan)
    corr = self_healing_correlation(blocked, reference)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "healing.csv"
    artifacts.write_csv(path, "wavefront,eval_z_m,correlation_shadow,correlation_full",
                        [["bessel", z_eval, corr, corr]])
    print(f"wrote {path} (correlation {corr:.4f} at z = {z_eval:g} m)")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out_dir = args.out or (Path(config.directory) if config.directory else Path(config.name))
    manifest = run_scenario(config, out_dir)
    print(f"ran {config.name} -> {out_dir} ({len(manifest.artifacts)} artifacts)")
    return EXIT_OK


def _cmd_preset(args) -> int:
    config = preset(args.name)
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.write_config:
        (out_dir / "preset.ini").write_text(preset_text(args.name), encoding="utf-8")
    manifest = run_scenario(config, out_dir)
    print(f"ran preset {args.name} -> {out_dir} ({len(manifest.artifacts)} artifacts)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thzbeam",
                                     description="THz wavefront-engineering simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="write a phase map for a wavefront")
    _add_grid_args(p)
    _add_wavefront_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("propagate", help="propagate a wavefront to a plane")
    _add_grid_args(p)
    _add_wavefront_args(p)
    p.add_argument("--z", type=float, required=True, help="plane distance [m]")
    p.add_argument("--pad", type=float, default=2.0)
    p.add_argument("--scale", choices=("db", "linear"), default="db")
    _add_output_args(p)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("gain-curve", help="axial gain comparison of the three wavefronts")
    _add_grid_args(p)
    p.add_argument("--spot-fwhm", type=float, required=True)
    p.add_argument("--spot-convention", choices=("fwhm", "first_null"), default="fwhm")
    p.add_argument("--focal-length", type=float,
                   help="beamfocusing focal length [m]; defaults to the Bessel peak")
    p.add_argument("--taper", choices=("circular", "none"), default="circular",
                   help="aperture amplitude taper (default: inscribed disc)")
    p.add_argument("--z-start", type=float, required=True)
    p.add_argument("--z-stop", type=float, required=True)
    p.add_argument("--z-step", type=float, required=True)
    _add_output_args(p)
    p.set_defaults(func=_cmd_gain_curve)

    p = sub.add_parser("blockage", help="Bessel self-healing behind a disc obstacle")
    _add_grid_args(p)
    p.add_argument("--spot-fwhm", type=float, required=True)
    p.add_argument("--obstacle-size", type=float, required=True)
    p.add_argument("--obstacle-z", type=float, required=True)
    p.add_argument("--pad", type=float, default=2.0)
    _add_output_args(p)
    p.set_defaults(func=_cmd_blockage)

    p = sub.add_parser("oam-crosstalk", help="OAM mode-coupling matrix")
    _add_grid_args(p)
    p.add_argument("--modes", type=lambda s: [int(v) for v in s.split(",")], required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--steer-deg", type=float, default=0.0)
    p.add_argument("--rx-radius", type=float)
    p.add_argument("--spot-fwhm", type=float, help="Bessel base spot (default: planar base)")
    _add_output_args(p)
    p.set_defaults(func=_cmd_oam_crosstalk)

    p = sub.add_parser("capacity", help="required bandwidth for a target rate")
    p.add_argument("--rate", type=float, required=True, help="target rate [bit/s]")
    p.add_argument("--modes", type=lambda s: [int(v) for v in s.split(",")], required=True)
    p.add_argument("--qam", type=lambda s: [int(v) for v in s.split(",")], required=True)
    _add_output_args(p)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("run", help="run a scenario config file")
    p.add_argument("config", type=Path)
    p.add_argument("--out", type=Path)
    p.add_argument("--threads", type=int, default=1, help="FFT workers (default 1)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("preset", help=f"run a bundled preset: {', '.join(PRESET_NAMES)}")
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--threads", type=int, default=1, help="FFT workers (default 1)")
    p.add_argument("--write-config", action="store_true",
                   help="also write the preset config as preset.ini")
    p.set_defaults(func=_cmd_preset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        threads = getattr(args, "threads", 1)
        if threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {threads}")
        with sfft.set_workers(threads):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SamplingError, NoBeamError, ToolkitError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
