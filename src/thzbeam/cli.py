"""Command-line interface.

Verbs: synthesize, propagate, gain-curve, blockage, oam-crosstalk,
capacity, run <config>, preset <name>.  Exit codes: 0 success, 2 config
error, 3 numeric/sampling error, 4 io error.

The study verbs gain-curve, blockage, oam-crosstalk and capacity render
their flags as scenario INI text (studies gain_curve, blockage,
oam_crosstalk, oam_bandwidth) and run it like ``run`` does: same schema,
same runner, a ``manifest.json``, and config errors that name the key path.

--threads N runs the FFTs on up to N threads (default 1; N < 1 is a
config error), capped at the CPU count.  The output is bit-identical for
every thread count.  Only the verbs that make FFTs take it: propagate,
blockage, oam-crosstalk, run and preset.  Likewise --db-floor belongs to
the verbs that map intensity to gray levels: propagate and blockage.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import io as artifacts
from .aperture import (
    CausticCurve,
    WavefrontSpec,
    make_grid,
    synthesize_applied_phase,
    synthesize_field,
)
from .errors import ConfigError, NoBeamError, SamplingError, ToolkitError
from .propagation import PropagationPlan, fft_workers, propagate_asm
from .scenarios import (
    KIND_KEYS,
    PRESET_NAMES,
    WavefrontSection,
    check_kind_keys,
    load_config,
    parse_config,
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
    p.add_argument("--spot-convention", choices=("fwhm", "first_null"),
                   help="Bessel spot diameter convention (default fwhm)")
    p.add_argument("--curve-a", type=float, help="caustic parabola curvature [1/m]")
    p.add_argument("--curve-x-start", type=float, help="caustic start offset [m] (default 0)")
    p.add_argument("--curve-z-end", type=float, help="caustic design range [m]")
    p.add_argument("--oam-l", type=int, default=0, help="spiral overlay mode")
    p.add_argument("--bits", type=int, help="quantize the phase map to this many bits")
    p.add_argument("--circular", action="store_true", help="apply the inscribed-disc taper")


def _add_output_args(p: argparse.ArgumentParser, images: bool = True) -> None:
    p.add_argument("--out", type=Path, required=True, help="output directory")
    if images:
        p.add_argument("--format", action="append", choices=("csv", "pgm", "png"),
                       dest="formats", help="artifact format (repeatable; default csv)")


def _add_threads_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=1,
                   help="FFT threads (default 1; at most the CPU count)")


# float flags of synthesize and propagate that must lie in a range, checked
# before anything is built; every float flag must also be finite
_POSITIVE = (lambda v: v > 0, "positive")
_FLAG_RANGES = {
    "side_length": _POSITIVE,
    "frequency": _POSITIVE,
    "pitch_fraction": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "focal_length": _POSITIVE,
    "spot_fwhm": _POSITIVE,
    "curve_z_end": _POSITIVE,
    "z": _POSITIVE,
    "db_floor": (lambda v: v < 0, "negative"),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _check_float_flags(args) -> None:
    """Config error naming the first float flag that is not finite or out of range."""
    for dest, value in vars(args).items():
        if not isinstance(value, float):
            continue
        if not math.isfinite(value):
            raise ConfigError(f"must be a finite number, got {value}", key_path=_flag(dest))
        in_range, requirement = _FLAG_RANGES.get(dest, (None, None))
        if in_range and not in_range(value):
            raise ConfigError(f"must be {requirement}, got {value}", key_path=_flag(dest))


def _from_flag(flag: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with its ValueError as a ConfigError naming ``flag``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), key_path=flag) from None


def _grid_from_args(args):
    # with the flags in range, the only failure left is an aperture below one pitch
    return _from_flag("--side-length", make_grid, args.side_length, args.frequency,
                      args.pitch_fraction)


def _wavefront_from_args(args) -> WavefrontSpec:
    # a flag that only one kind reads is that kind's [wavefront.*] key, less its "_m" suffix;
    # no study runs here to resolve an "auto" focal length, so that flag is needed
    given = {key: value for key in KIND_KEYS
             if (value := getattr(args, key.removesuffix("_m"))) is not None}
    check_kind_keys(args.kind, given, lambda key: _flag(key.removesuffix("_m")), "flag",
                    needed=("focal_length_m",))
    keys = WavefrontSection(kind=args.kind, **given)
    curve = None
    if args.kind == "caustic":
        curve = _from_flag("--curve-a", CausticCurve.parabola, keys.curve_a,
                           keys.curve_z_end_m, keys.curve_x_start_m)
    return _from_flag(  # --bits: the one WavefrontSpec check a flag can fail
        "--bits", WavefrontSpec, kind=args.kind, steer_angle=math.radians(args.steer_deg),
        focal_length=keys.focal_length_m, spot_fwhm=keys.spot_fwhm_m, curve=curve,
        spot_convention=keys.spot_convention, oam_mode=args.oam_l, phase_bits=args.bits,
        circular=args.circular)


def _cmd_synthesize(args) -> int:
    _check_float_flags(args)
    grid = _grid_from_args(args)
    spec = _wavefront_from_args(args)
    phase = synthesize_applied_phase(grid, spec)
    args.out.mkdir(parents=True, exist_ok=True)
    formats = args.formats or ["csv"]
    stem = args.out / f"phase_{args.kind}"
    if "csv" in formats:
        artifacts.phase_map_csv(Path(f"{stem}.csv"), phase)
    artifacts.write_images(stem, formats, lambda: artifacts.phase_to_levels(phase))
    print(f"wrote {stem}.{{{','.join(formats)}}} "
          f"({grid.elements_per_side}x{grid.elements_per_side} elements)")
    return EXIT_OK


def _cmd_propagate(args) -> int:
    _check_float_flags(args)
    grid = _grid_from_args(args)
    spec = _wavefront_from_args(args)
    plan = _from_flag("--pad", PropagationPlan, pad_factor=args.pad)
    slice_ = propagate_asm(synthesize_field(grid, spec), args.z, plan)
    args.out.mkdir(parents=True, exist_ok=True)
    formats = args.formats or ["pgm"]
    stem = args.out / f"slice_{args.kind}_z{args.z:g}"
    if "csv" in formats:
        artifacts.field_slice_csv(Path(f"{stem}.csv"), slice_)
    artifacts.write_images(stem, formats, lambda: artifacts.intensity_to_levels(
        slice_, scale=args.scale, db_floor=args.db_floor))
    print(f"wrote {stem}.* ({slice_.samples.shape[0]}x{slice_.samples.shape[1]} samples)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# study verbs: each renders its flags as scenario INI text, which goes through
# the same schema and runner as ``thzbeam run``


def _ini_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ", ".join(map(_ini_value, value))
    return repr(value) if isinstance(value, float) else str(value)  # repr round-trips


def _render_scenario(sections: dict[str, dict]) -> str:
    """Scenario INI text; keys set to None are left to the schema default."""
    return "\n".join(
        f"[{section}]\n"
        + "".join(f"{k} = {_ini_value(v)}\n" for k, v in keys.items() if v is not None)
        for section, keys in sections.items()
    )


def _grid_section(args) -> dict:
    return {"side_length_m": args.side_length, "frequency_hz": args.frequency,
            "pitch_fraction": args.pitch_fraction}


def _gain_curve_scenario(args) -> dict:
    circular = args.taper == "circular"
    return {
        "scenario": {"study": "gain_curve"},
        "grid": _grid_section(args),
        "wavefronts": {"names": ["beamforming", "beamfocusing", "bessel"]},
        "wavefront.beamforming": {"kind": "beamforming", "circular": circular},
        "wavefront.beamfocusing": {
            "kind": "beamfocusing",
            "focal_length_m": "auto" if args.focal_length is None else args.focal_length,
            "circular": circular,
        },
        "wavefront.bessel": {"kind": "bessel", "spot_fwhm_m": args.spot_fwhm,
                             "spot_convention": args.spot_convention, "circular": circular},
        "distances": {"start_m": args.z_start, "stop_m": args.z_stop, "step_m": args.z_step},
    }


def _blockage_scenario(args) -> dict:
    return {
        "scenario": {"study": "blockage"},
        "grid": _grid_section(args),
        "wavefronts": {"names": ["bessel"]},
        "wavefront.bessel": {"kind": "bessel", "spot_fwhm_m": args.spot_fwhm, "circular": True},
        "blockage": {"obstacle_size_m": args.obstacle_size, "obstacle_z_m": args.obstacle_z,
                     "pad_factor": args.pad},
        "output": {"formats": args.formats, "db_floor": args.db_floor},
    }


def _oam_crosstalk_scenario(args) -> dict:
    return {
        "scenario": {"study": "oam_crosstalk"},
        "grid": _grid_section(args),
        "oam": {"modes": args.modes, "z_m": args.z, "steer_deg_list": [args.steer_deg],
                "rx_radius_m": args.rx_radius, "base_spot_fwhm_m": args.spot_fwhm},
    }


def _capacity_scenario(args) -> dict:
    return {
        "scenario": {"study": "oam_bandwidth"},
        "oam": {"target_rate_bps": args.rate, "mode_counts": args.modes,
                "qam_orders": args.qam},
    }


def _cmd_study(args) -> int:
    config = parse_config(_render_scenario(args.scenario(args)))
    manifest = run_scenario(config, args.out)
    print(f"ran {config.study} -> {args.out} ({len(manifest.artifacts)} artifacts)")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out_dir = args.out or Path(config.output.directory or config.name)
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
    p.add_argument("--db-floor", type=float, default=-60.0)
    _add_output_args(p)
    _add_threads_arg(p)
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
    _add_output_args(p, images=False)
    p.set_defaults(func=_cmd_study, scenario=_gain_curve_scenario)

    p = sub.add_parser("blockage", help="Bessel self-healing behind a disc obstacle")
    _add_grid_args(p)
    p.add_argument("--spot-fwhm", type=float, required=True)
    p.add_argument("--obstacle-size", type=float, required=True)
    p.add_argument("--obstacle-z", type=float, required=True)
    p.add_argument("--pad", type=float, default=2.0)
    p.add_argument("--db-floor", type=float, default=-60.0)
    _add_output_args(p)
    _add_threads_arg(p)
    p.set_defaults(func=_cmd_study, scenario=_blockage_scenario)

    p = sub.add_parser("oam-crosstalk", help="OAM mode-coupling matrix")
    _add_grid_args(p)
    p.add_argument("--modes", type=lambda s: [int(v) for v in s.split(",")], required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--steer-deg", type=float, default=0.0)
    p.add_argument("--rx-radius", type=float)
    p.add_argument("--spot-fwhm", type=float, help="Bessel base spot (default: planar base)")
    _add_output_args(p, images=False)
    _add_threads_arg(p)
    p.set_defaults(func=_cmd_study, scenario=_oam_crosstalk_scenario)

    p = sub.add_parser("capacity", help="required bandwidth for a target rate")
    p.add_argument("--rate", type=float, required=True, help="target rate [bit/s]")
    p.add_argument("--modes", type=lambda s: [int(v) for v in s.split(",")], required=True)
    p.add_argument("--qam", type=lambda s: [int(v) for v in s.split(",")], required=True)
    _add_output_args(p, images=False)
    p.set_defaults(func=_cmd_study, scenario=_capacity_scenario)

    p = sub.add_parser("run", help="run a scenario config file")
    p.add_argument("config", type=Path)
    p.add_argument("--out", type=Path)
    _add_threads_arg(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("preset", help=f"run a bundled preset: {', '.join(PRESET_NAMES)}")
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--out", type=Path, required=True)
    _add_threads_arg(p)
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
        with fft_workers(threads):
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
