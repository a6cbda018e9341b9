"""Command-line interface.

Verbs: synthesize, propagate, gain-curve, blockage, oam-crosstalk,
capacity, run <config>, preset <name>.  Exit codes: 0 success, 2 config
error, 3 numeric/sampling error, 4 io error.

Every verb but run and preset renders its flags as scenario INI text
(studies phase_map, plane, gain_curve, blockage, oam_crosstalk,
oam_bandwidth) and runs it as ``run`` does: same schema, same runner, a
``manifest.json``, and config errors that name the INI key path of the
rendered scenario (``--z -1`` fails at ``plane.z_m``).

A flag's dest is the INI key it sets (``--z`` sets ``z_m``), and only the
sections that no flag fills are written out by hand.  A flag left unset
leaves its key to the schema's default, so the
rendered text states only what was given.  --db-floor belongs to the
verbs that map intensity to gray levels: propagate and blockage.  Every
finished run also writes the scenario it ran as ``scenario.ini``, which
``thzbeam run`` replays.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import partial
from pathlib import Path

from . import io as artifacts
from .aperture import _SPOT_CONVENTIONS, _WAVEFRONT_KINDS
from .errors import ConfigError, ToolkitError
from .scenarios import (
    _STUDY_SECTIONS,
    OUTPUT_FORMATS,
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


def _ints(raw: str) -> list[int]:
    return [int(v) for v in raw.split(",")]


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--side-length", dest="side_length_m", type=float, required=True,
                   help="aperture side length [m]")
    p.add_argument("--frequency", dest="frequency_hz", type=float, required=True,
                   help="carrier frequency [Hz]")
    p.add_argument("--pitch-fraction", type=float,
                   help="element pitch as a fraction of the wavelength "
                   + _schema_default(GridSection, "pitch_fraction"))


def _add_wavefront_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=_WAVEFRONT_KINDS)
    p.add_argument("--steer-deg", type=float)
    p.add_argument("--focal-length", dest="focal_length_m", type=float,
                   help="focal length [m] for beamfocusing")
    p.add_argument("--spot-fwhm", dest="spot_fwhm_m", type=float,
                   help="Bessel central-spot diameter [m]")
    p.add_argument("--spot-convention", choices=_SPOT_CONVENTIONS,
                   help="Bessel spot diameter convention "
                   + _schema_default(WavefrontSection, "spot_convention"))
    p.add_argument("--curve-a", type=float, help="caustic parabola curvature [1/m]")
    p.add_argument("--curve-x-start", dest="curve_x_start_m", type=float,
                   help="caustic start offset [m] "
                   + _schema_default(WavefrontSection, "curve_x_start_m"))
    p.add_argument("--curve-z-end", dest="curve_z_end_m", type=float,
                   help="caustic design range [m]")
    p.add_argument("--oam-l", dest="oam_mode", type=int, help="spiral overlay mode")
    p.add_argument("--bits", dest="phase_bits", type=int,
                   help="quantize the phase map to this many bits")
    p.add_argument("--circular", action="store_true", default=None,
                   help="apply the inscribed-disc taper")


def _add_pad_arg(p: argparse.ArgumentParser, section: type) -> None:
    p.add_argument("--pad", dest="pad_factor", type=float,
                   help="padded plane side as a multiple of the aperture side, in [1, 8] "
                   + _schema_default(section, "pad_factor"))


def _add_db_floor_arg(p: argparse.ArgumentParser, section: type) -> None:
    p.add_argument("--db-floor", type=float,
                   help="dB level of the darkest gray, negative "
                   + _schema_default(section, "db_floor"))


class _AppendOnce(argparse.Action):
    """Append the value unless given before: a repeated --format writes its files once."""

    def __call__(self, parser, namespace, value, option_string=None):
        given = getattr(namespace, self.dest) or []
        setattr(namespace, self.dest, given + [value] * (value not in given))


def _add_output_args(p: argparse.ArgumentParser, images: type | None = None) -> None:
    """--out, and for a verb whose ``images`` section writes images, --format."""
    p.add_argument("--out", type=Path, required=True, help="output directory")
    if images is not None:
        p.add_argument("--format", action=_AppendOnce, choices=OUTPUT_FORMATS, dest="formats",
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


def _keys(args, section: type) -> dict:
    """The keys of ``section`` that the verb has flags for, in field order."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(section)
            if f.init and hasattr(args, f.name)}


def _scenario(study: str, args, wavefronts: dict[str, dict] | None = None) -> dict:
    """The sections ``study`` reads, each as ``_keys`` gives it where the verb has flags for
    it; ``wavefronts`` maps each [wavefront.<name>] section to its keys."""
    sections = {"scenario": {"study": study}}
    for name, cls in _STUDY_SECTIONS[study].items():
        if name == "wavefronts":
            sections[name] = {"names": list(wavefronts)}
        elif name == "wavefront.*":
            sections.update({f"wavefront.{n}": keys for n, keys in wavefronts.items()})
        elif keys := _keys(args, cls):
            sections[name] = keys
    return sections


def _wavefront_scenario(study: str, args) -> dict:
    """A phase_map or plane scenario of the one wavefront the flags describe, named by kind."""
    return _scenario(study, args, {args.kind: _keys(args, WavefrontSection)})


# --taper: whether each gain-curve wavefront takes the inscribed-disc taper
_TAPERS = {"circular": True, "none": False}


def _gain_curve_scenario(args) -> dict:
    circular = _TAPERS[args.taper]
    focal_length_m = "auto" if args.focal_length_m is None else args.focal_length_m
    return _scenario("gain_curve", args, {
        "beamforming": {"kind": "beamforming", "circular": circular},
        "beamfocusing": {"kind": "beamfocusing", "focal_length_m": focal_length_m,
                         "circular": circular},
        "bessel": {"kind": "bessel", "spot_fwhm_m": args.spot_fwhm_m,
                   "spot_convention": args.spot_convention, "circular": circular},
    })


def _blockage_scenario(args) -> dict:
    return _scenario("blockage", args, {
        "bessel": {"kind": "bessel", "spot_fwhm_m": args.spot_fwhm_m, "circular": True}})


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
    p.set_defaults(func=_cmd_study, scenario=partial(_wavefront_scenario, "phase_map"))

    p = sub.add_parser("propagate", help="propagate a wavefront to a plane")
    _add_grid_args(p)
    _add_wavefront_args(p)
    p.add_argument("--z", dest="z_m", type=float, required=True, help="plane distance [m]")
    _add_pad_arg(p, PlaneSection)
    p.add_argument("--scale", choices=artifacts._SCALES,
                   help="intensity map scale " + _schema_default(PlaneOutputSection, "scale"))
    _add_db_floor_arg(p, PlaneOutputSection)
    _add_output_args(p, PlaneOutputSection)
    p.set_defaults(func=_cmd_study, scenario=partial(_wavefront_scenario, "plane"))

    p = sub.add_parser("gain-curve", help="axial gain comparison of the three wavefronts")
    _add_grid_args(p)
    p.add_argument("--spot-fwhm", dest="spot_fwhm_m", type=float, required=True)
    p.add_argument("--spot-convention", choices=_SPOT_CONVENTIONS)
    p.add_argument("--focal-length", dest="focal_length_m", type=float,
                   help="beamfocusing focal length [m]; defaults to the Bessel peak")
    p.add_argument("--taper", choices=_TAPERS, default="circular",
                   help="aperture amplitude taper (default: inscribed disc)")
    p.add_argument("--z-start", dest="start_m", type=float, required=True)
    p.add_argument("--z-stop", dest="stop_m", type=float, required=True)
    p.add_argument("--z-step", dest="step_m", type=float, required=True)
    _add_output_args(p)
    p.set_defaults(func=_cmd_study, scenario=_gain_curve_scenario)

    p = sub.add_parser("blockage", help="Bessel self-healing behind a disc obstacle")
    _add_grid_args(p)
    p.add_argument("--spot-fwhm", dest="spot_fwhm_m", type=float, required=True)
    p.add_argument("--obstacle-size", dest="obstacle_size_m", type=float, required=True)
    p.add_argument("--obstacle-z", dest="obstacle_z_m", type=float, required=True)
    _add_pad_arg(p, BlockageSection)
    _add_db_floor_arg(p, MapOutputSection)
    _add_output_args(p, MapOutputSection)
    p.set_defaults(func=_cmd_study, scenario=_blockage_scenario)

    p = sub.add_parser("oam-crosstalk", help="OAM mode-coupling matrix")
    _add_grid_args(p)
    p.add_argument("--modes", type=_ints, required=True)
    p.add_argument("--z", dest="z_m", type=float, required=True)
    # one angle: the list of one renders as its one value
    p.add_argument("--steer-deg", dest="steer_deg_list", type=float)
    p.add_argument("--rx-radius", dest="rx_radius_m", type=float)
    p.add_argument("--spot-fwhm", dest="base_spot_fwhm_m", type=float,
                   help="Bessel base spot (default: planar base)")
    _add_output_args(p)
    p.set_defaults(func=_cmd_study, scenario=partial(_scenario, "oam_crosstalk"))

    p = sub.add_parser("capacity", help="required bandwidth for a target rate")
    p.add_argument("--rate", dest="target_rate_bps", type=float, required=True,
                   help="target rate [bit/s]")
    p.add_argument("--modes", dest="mode_counts", type=_ints, required=True)
    p.add_argument("--qam", dest="qam_orders", type=_ints, required=True)
    _add_output_args(p)
    p.set_defaults(func=_cmd_study, scenario=partial(_scenario, "oam_bandwidth"))

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
