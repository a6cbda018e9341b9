"""Command-line interface.

Verbs: synthesize, propagate, gain-curve, blockage, oam-crosstalk,
capacity, run <config>, preset <name>.  Exit codes: 0 success, 2 config
error, 3 numeric/sampling error, 4 io error.

Every verb but run and preset renders its flags as scenario INI text
(studies phase_map, plane, gain_curve, blockage, oam_crosstalk,
oam_bandwidth) and runs it as ``run`` does: same schema, same runner, a
``manifest.json``, and config errors that name the INI key path of the
rendered scenario (``--z -1`` fails at ``plane.z_m``).

A flag left unset leaves its key to the schema's default, so the
rendered text states only what was given.  --db-floor belongs to the
verbs that map intensity to gray levels: propagate and blockage.  Every
finished run also writes the scenario it ran as ``scenario.ini``, which
``thzbeam run`` replays.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .errors import ConfigError, ToolkitError
from .scenarios import (
    PRESET_NAMES,
    BlockageSection,
    GridSection,
    ImageOutputSection,
    MapOutputSection,
    PlaneOutputSection,
    PlaneSection,
    WavefrontSection,
    load_config,
    parse_config,
    preset,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _schema_default(section: type, key: str) -> str:
    """"(default <value>)" for a help string, the value read off the schema's ``section``."""
    default = {f.name: f.default for f in dataclasses.fields(section)}[key]
    return f"(default {_ini_value(default)})"


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--side-length", type=float, required=True, help="aperture side length [m]")
    p.add_argument("--frequency", type=float, required=True, help="carrier frequency [Hz]")
    p.add_argument("--pitch-fraction", type=float,
                   help="element pitch as a fraction of the wavelength "
                   + _schema_default(GridSection, "pitch_fraction"))


def _add_wavefront_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True,
                   choices=("beamforming", "beamfocusing", "bessel", "caustic"))
    p.add_argument("--steer-deg", type=float)
    p.add_argument("--focal-length", type=float, help="focal length [m] for beamfocusing")
    p.add_argument("--spot-fwhm", type=float, help="Bessel central-spot diameter [m]")
    p.add_argument("--spot-convention", choices=("fwhm", "first_null"),
                   help="Bessel spot diameter convention "
                   + _schema_default(WavefrontSection, "spot_convention"))
    p.add_argument("--curve-a", type=float, help="caustic parabola curvature [1/m]")
    p.add_argument("--curve-x-start", type=float, help="caustic start offset [m] "
                   + _schema_default(WavefrontSection, "curve_x_start_m"))
    p.add_argument("--curve-z-end", type=float, help="caustic design range [m]")
    p.add_argument("--oam-l", type=int, help="spiral overlay mode")
    p.add_argument("--bits", type=int, help="quantize the phase map to this many bits")
    p.add_argument("--circular", action="store_true", default=None,
                   help="apply the inscribed-disc taper")


def _add_pad_arg(p: argparse.ArgumentParser, section: type) -> None:
    p.add_argument("--pad", type=float,
                   help="padded plane side as a multiple of the aperture side, in [1, 8] "
                   + _schema_default(section, "pad_factor"))


def _add_db_floor_arg(p: argparse.ArgumentParser, section: type) -> None:
    p.add_argument("--db-floor", type=float,
                   help="dB level of the darkest gray, negative "
                   + _schema_default(section, "db_floor"))


def _add_output_args(p: argparse.ArgumentParser, images: type | None = None) -> None:
    """--out, and for a verb whose ``images`` section writes images, --format."""
    p.add_argument("--out", type=Path, required=True, help="output directory")
    if images is not None:
        p.add_argument("--format", action="append", choices=("csv", "pgm", "png"),
                       dest="formats",
                       help="artifact format, repeatable " + _schema_default(images, "formats"))


# ---------------------------------------------------------------------------
# study verbs: each renders its flags as scenario INI text, which goes through
# the same schema and runner as ``thzbeam run``


def _ini_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (list, tuple)):
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


def _wavefront_scenario(study: str, args, **sections) -> dict:
    """A phase_map or plane scenario of the one wavefront the flags describe, named by kind."""
    return {
        "scenario": {"study": study},
        "grid": _grid_section(args),
        "wavefronts": {"names": [args.kind]},
        f"wavefront.{args.kind}": {
            "kind": args.kind, "steer_deg": args.steer_deg, "circular": args.circular,
            "oam_mode": args.oam_l, "phase_bits": args.bits, "focal_length_m": args.focal_length,
            "spot_fwhm_m": args.spot_fwhm, "spot_convention": args.spot_convention,
            "curve_a": args.curve_a, "curve_x_start_m": args.curve_x_start,
            "curve_z_end_m": args.curve_z_end},
        **sections,
    }


def _formats(args) -> list[str] | None:
    # a repeated --format writes its files once
    return args.formats and list(dict.fromkeys(args.formats))


def _phase_map_scenario(args) -> dict:
    return _wavefront_scenario("phase_map", args, output={"formats": _formats(args)})


def _plane_scenario(args) -> dict:
    return _wavefront_scenario(
        "plane", args, plane={"z_m": args.z, "pad_factor": args.pad},
        output={"formats": _formats(args), "db_floor": args.db_floor, "scale": args.scale})


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
        "output": {"formats": _formats(args), "db_floor": args.db_floor},
    }


def _oam_crosstalk_scenario(args) -> dict:
    return {
        "scenario": {"study": "oam_crosstalk"},
        "grid": _grid_section(args),
        "oam": {"modes": args.modes, "z_m": args.z,
                "steer_deg_list": None if args.steer_deg is None else [args.steer_deg],
                "rx_radius_m": args.rx_radius, "base_spot_fwhm_m": args.spot_fwhm},
    }


def _capacity_scenario(args) -> dict:
    return {
        "scenario": {"study": "oam_bandwidth"},
        "oam": {"target_rate_bps": args.rate, "mode_counts": args.modes,
                "qam_orders": args.qam},
    }


def _run(config, out_dir: Path, label: str) -> int:
    manifest = run_scenario(config, out_dir)
    print(f"ran {label} -> {out_dir} ({len(manifest.artifacts)} artifacts)")
    return EXIT_OK


def _cmd_study(args) -> int:
    config = parse_config(_render_scenario(args.scenario(args)))
    return _run(config, args.out, config.study)


def _cmd_run(args) -> int:
    config = load_config(args.config)
    return _run(config, args.out or Path(config.output.directory or config.name), config.name)


def _cmd_preset(args) -> int:
    return _run(preset(args.name), args.out, f"preset {args.name}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thzbeam",
                                     description="THz wavefront-engineering simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="write a phase map for a wavefront")
    _add_grid_args(p)
    _add_wavefront_args(p)
    _add_output_args(p, ImageOutputSection)
    p.set_defaults(func=_cmd_study, scenario=_phase_map_scenario)

    p = sub.add_parser("propagate", help="propagate a wavefront to a plane")
    _add_grid_args(p)
    _add_wavefront_args(p)
    p.add_argument("--z", type=float, required=True, help="plane distance [m]")
    _add_pad_arg(p, PlaneSection)
    p.add_argument("--scale", choices=("db", "linear"),
                   help="intensity map scale " + _schema_default(PlaneOutputSection, "scale"))
    _add_db_floor_arg(p, PlaneOutputSection)
    _add_output_args(p, PlaneOutputSection)
    p.set_defaults(func=_cmd_study, scenario=_plane_scenario)

    p = sub.add_parser("gain-curve", help="axial gain comparison of the three wavefronts")
    _add_grid_args(p)
    p.add_argument("--spot-fwhm", type=float, required=True)
    p.add_argument("--spot-convention", choices=("fwhm", "first_null"))
    p.add_argument("--focal-length", type=float,
                   help="beamfocusing focal length [m]; defaults to the Bessel peak")
    p.add_argument("--taper", choices=("circular", "none"), default="circular",
                   help="aperture amplitude taper (default: inscribed disc)")
    p.add_argument("--z-start", type=float, required=True)
    p.add_argument("--z-stop", type=float, required=True)
    p.add_argument("--z-step", type=float, required=True)
    _add_output_args(p)
    p.set_defaults(func=_cmd_study, scenario=_gain_curve_scenario)

    p = sub.add_parser("blockage", help="Bessel self-healing behind a disc obstacle")
    _add_grid_args(p)
    p.add_argument("--spot-fwhm", type=float, required=True)
    p.add_argument("--obstacle-size", type=float, required=True)
    p.add_argument("--obstacle-z", type=float, required=True)
    _add_pad_arg(p, BlockageSection)
    _add_db_floor_arg(p, MapOutputSection)
    _add_output_args(p, MapOutputSection)
    p.set_defaults(func=_cmd_study, scenario=_blockage_scenario)

    p = sub.add_parser("oam-crosstalk", help="OAM mode-coupling matrix")
    _add_grid_args(p)
    p.add_argument("--modes", type=lambda s: [int(v) for v in s.split(",")], required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--steer-deg", type=float)
    p.add_argument("--rx-radius", type=float)
    p.add_argument("--spot-fwhm", type=float, help="Bessel base spot (default: planar base)")
    _add_output_args(p)
    p.set_defaults(func=_cmd_study, scenario=_oam_crosstalk_scenario)

    p = sub.add_parser("capacity", help="required bandwidth for a target rate")
    p.add_argument("--rate", type=float, required=True, help="target rate [bit/s]")
    p.add_argument("--modes", type=lambda s: [int(v) for v in s.split(",")], required=True)
    p.add_argument("--qam", type=lambda s: [int(v) for v in s.split(",")], required=True)
    _add_output_args(p)
    p.set_defaults(func=_cmd_study, scenario=_capacity_scenario)

    p = sub.add_parser("run", help="run a scenario config file")
    p.add_argument("config", type=Path)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("preset", help=f"run a bundled preset: {', '.join(PRESET_NAMES)}")
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_preset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ToolkitError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
