"""Config-driven scenario runner and the bundled experiment presets.

Scenario configs are flat INI text (sections of ``key = value`` pairs) with
a strict schema: unknown sections or keys are rejected with the offending
key path.  Four study kinds are supported:

* ``gain_curve``   — axial normalized-gain comparison (preset ``fig3``)
* ``blockage``     — obstacle self-healing and knife-edge comparison
  (preset ``fig4``)
* ``oam_bandwidth``— required bandwidth over mode/QAM sweeps (preset
  ``fig5``)
* ``oam_crosstalk``— mode coupling with and without steering

Every run writes its artifacts plus a ``manifest.json`` listing each file
with a SHA-256 checksum; re-running an identical config reproduces every
artifact byte for byte.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import time
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import io as artifacts
from .aperture import (
    ApertureGrid,
    CausticCurve,
    ObstacleSpec,
    WavefrontSpec,
    axicon_design,
    circular_taper,
    make_grid,
    synthesize_field,
)
from .errors import ConfigError
from .metrics import gain_curve, self_healing_correlation
from .oam import LinkBudgetSpec, crosstalk_matrix, required_bandwidth
from .propagation import (
    FieldSlice,
    PropagationPlan,
    propagate_asm,
    propagate_with_obstacles,
    reuse_spectra,
)

STUDIES = ("gain_curve", "blockage", "oam_bandwidth", "oam_crosstalk")
PRESET_NAMES = ("fig3", "fig4", "fig5", "fig3-ci", "fig4-ci")
OUTPUT_FORMATS = ("csv", "pgm", "png")


# ---------------------------------------------------------------------------
# schema


_SCHEMA = {
    "scenario": {"study", "name"},
    "grid": {"side_length_m", "frequency_hz", "pitch_fraction"},
    "wavefronts": {"names"},
    "wavefront.*": {
        "kind",
        "steer_deg",
        "focal_length_m",
        "spot_fwhm_m",
        "spot_convention",
        "curve_a",
        "curve_x_start_m",
        "curve_z_end_m",
        "oam_mode",
        "phase_bits",
        "circular",
    },
    "distances": {"start_m", "stop_m", "step_m"},
    "blockage": {
        "obstacle_size_m",
        "obstacle_z_m",
        "knife_x_edge_m",
        "knife_z_m",
        "caustic_eval_z_m",
        "shadow_window_factor",
        "pad_factor",
    },
    "oam": {
        "target_rate_bps",
        "mode_counts",
        "qam_orders",
        "modes",
        "z_m",
        "steer_deg_list",
        "rx_radius_m",
        "base_spot_fwhm_m",
    },
    "output": {"directory", "formats", "db_floor"},
}

_REQUIRED_SECTIONS = {
    "gain_curve": ("grid", "wavefronts", "distances"),
    "blockage": ("grid", "wavefronts", "blockage"),
    "oam_bandwidth": ("oam",),
    "oam_crosstalk": ("grid", "oam"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: study kind plus the parsed ingredients."""

    study: str
    name: str
    text: str
    grid: ApertureGrid | None = None
    wavefronts: dict = dc_field(default_factory=dict)
    distances: np.ndarray | None = None
    blockage: dict = dc_field(default_factory=dict)
    oam: dict = dc_field(default_factory=dict)
    formats: tuple[str, ...] = ("csv",)
    db_floor: float = -60.0
    directory: str | None = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def _get(parser, section, key, cast, default=None, required=False):
    path = f"{section}.{key}"
    if not parser.has_option(section, key):
        if required:
            raise ConfigError("required key missing", key_path=path)
        return default
    raw = parser.get(section, key).strip()
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"cannot parse value {raw!r}: {exc}", key_path=path) from None


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _name_list(raw: str) -> list[str]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    return items


def _float_list(raw: str) -> list[float]:
    return [float(s) for s in _name_list(raw)]


def _int_list(raw: str) -> list[int]:
    return [int(s) for s in _name_list(raw)]


def parse_config(text: str) -> ScenarioConfig:
    """Parse and schema-validate scenario text; raises ConfigError on issues."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config text is not valid INI: {exc}") from None

    # reject unknown sections / keys
    for section in parser.sections():
        schema_key = "wavefront.*" if section.startswith("wavefront.") else section
        if schema_key not in _SCHEMA:
            raise ConfigError("unknown section", key_path=section)
        allowed = _SCHEMA[schema_key]
        for key in parser.options(section):
            if key not in allowed:
                raise ConfigError("unknown key", key_path=f"{section}.{key}")

    if not parser.has_section("scenario"):
        raise ConfigError("required section missing", key_path="scenario")
    study = _get(parser, "scenario", "study", str, required=True)
    if study not in STUDIES:
        raise ConfigError(f"unknown study {study!r}; expected one of {STUDIES}",
                          key_path="scenario.study")
    name = _get(parser, "scenario", "name", str, default=study)

    for required in _REQUIRED_SECTIONS[study]:
        if not parser.has_section(required):
            raise ConfigError("required section missing", key_path=required)

    grid = None
    if parser.has_section("grid"):
        grid = make_grid(
            _get(parser, "grid", "side_length_m", float, required=True),
            _get(parser, "grid", "frequency_hz", float, required=True),
            _get(parser, "grid", "pitch_fraction", float, default=0.5),
        )

    wavefronts: dict[str, WavefrontSpec] = {}
    if parser.has_section("wavefronts"):
        names = _get(parser, "wavefronts", "names", _name_list, required=True)
        if not names:
            raise ConfigError("wavefront list must not be empty", key_path="wavefronts.names")
        for wf_name in names:
            section = f"wavefront.{wf_name}"
            if not parser.has_section(section):
                raise ConfigError("wavefront section missing", key_path=section)
            kind = _get(parser, section, "kind", str, required=True)
            curve = None
            curve_a = _get(parser, section, "curve_a", float)
            if kind == "caustic":
                if curve_a is None:
                    raise ConfigError("caustic wavefront needs curve_a",
                                      key_path=f"{section}.curve_a")
                curve = CausticCurve.parabola(
                    curve_a,
                    _get(parser, section, "curve_z_end_m", float, required=True),
                    _get(parser, section, "curve_x_start_m", float, default=0.0),
                )
            focal = _get(parser, section, "focal_length_m", lambda s: None if s == "auto" else float(s))
            try:
                wavefronts[wf_name] = WavefrontSpec(
                    kind=kind,
                    steer_angle=math.radians(_get(parser, section, "steer_deg", float, default=0.0)),
                    focal_length=focal,
                    spot_fwhm=_get(parser, section, "spot_fwhm_m", float),
                    spot_convention=_get(parser, section, "spot_convention", str, default="fwhm"),
                    curve=curve,
                    oam_mode=_get(parser, section, "oam_mode", int, default=0),
                    phase_bits=_get(parser, section, "phase_bits", int),
                    circular=_get(parser, section, "circular", _bool, default=False),
                )
            except ValueError as exc:
                raise ConfigError(str(exc), key_path=section) from None

    if study == "gain_curve":
        # one wavefront per column of the fixed gain-curve CSV schema
        kinds = sorted(spec.kind for spec in wavefronts.values())
        if kinds != sorted(artifacts.GAIN_CURVE_COLUMNS):
            raise ConfigError(
                "gain_curve needs exactly one wavefront of each kind "
                f"{', '.join(artifacts.GAIN_CURVE_COLUMNS)}; got {', '.join(kinds)}",
                key_path="wavefronts.names",
            )
        # gain_curve builds each aperture from synthesize_phase and one shared
        # taper: quantization, OAM overlays and per-wavefront tapers do nothing
        circular = next(iter(wavefronts.values())).circular
        for wf_name, spec in wavefronts.items():
            for key in ("phase_bits", "oam_mode"):
                if parser.has_option(f"wavefront.{wf_name}", key):
                    raise ConfigError("gain_curve does not apply this key",
                                      key_path=f"wavefront.{wf_name}.{key}")
            if spec.circular != circular:
                raise ConfigError("gain_curve tapers every wavefront or none",
                                  key_path=f"wavefront.{wf_name}.circular")

    distances = None
    if parser.has_section("distances"):
        start = _get(parser, "distances", "start_m", float, required=True)
        stop = _get(parser, "distances", "stop_m", float, required=True)
        step = _get(parser, "distances", "step_m", float, required=True)
        if start <= 0 or stop <= start or step <= 0:
            raise ConfigError("need 0 < start_m < stop_m and step_m > 0", key_path="distances")
        count = int(round((stop - start) / step)) + 1
        distances = start + step * np.arange(count)
        distances = distances[distances <= stop + 1e-12]

    blockage = {}
    if parser.has_section("blockage"):
        blockage = {
            "obstacle_size": _get(parser, "blockage", "obstacle_size_m", float),
            "obstacle_z": _get(parser, "blockage", "obstacle_z_m", float),
            "knife_x_edge": _get(parser, "blockage", "knife_x_edge_m", float),
            "knife_z": _get(parser, "blockage", "knife_z_m", float),
            "caustic_eval_z": _get(parser, "blockage", "caustic_eval_z_m", float),
            "shadow_window_factor": _get(parser, "blockage", "shadow_window_factor", float, default=1.0),
            "pad_factor": _get(parser, "blockage", "pad_factor", float, default=2.0),
        }

    if study == "blockage":
        # the healing rows need one Bessel beam, the knife-edge pair one caustic
        # and one planar beam; kind selects the physics, the name labels it
        needed = ["bessel"]
        if blockage["knife_z"] is not None:
            needed += ["caustic", "beamforming"]
        kinds = [spec.kind for spec in wavefronts.values()]
        for kind in needed:
            if kinds.count(kind) != 1:
                raise ConfigError(
                    f"blockage study needs exactly one {kind} wavefront, got {kinds.count(kind)}",
                    key_path="wavefronts.names",
                )

    oam = {}
    if parser.has_section("oam"):
        oam = {
            "target_rate": _get(parser, "oam", "target_rate_bps", float),
            "mode_counts": _get(parser, "oam", "mode_counts", _int_list),
            "qam_orders": _get(parser, "oam", "qam_orders", _int_list),
            "modes": _get(parser, "oam", "modes", _int_list),
            "z": _get(parser, "oam", "z_m", float),
            "steer_deg_list": _get(parser, "oam", "steer_deg_list", _float_list, default=[0.0]),
            "rx_radius": _get(parser, "oam", "rx_radius_m",
                              lambda s: None if s == "auto" else float(s), default=None),
            "base_spot_fwhm": _get(parser, "oam", "base_spot_fwhm_m", float),
        }

    formats = ("csv",)
    db_floor = -60.0
    directory = None
    if parser.has_section("output"):
        formats = tuple(_get(parser, "output", "formats", _name_list, default=["csv"]))
        for fmt in formats:
            if fmt not in OUTPUT_FORMATS:
                raise ConfigError(f"unknown format {fmt!r}", key_path="output.formats")
        db_floor = _get(parser, "output", "db_floor", float, default=-60.0)
        if db_floor >= 0:
            raise ConfigError("db_floor must be negative", key_path="output.db_floor")
        directory = _get(parser, "output", "directory", str)

    return ScenarioConfig(
        study=study,
        name=name,
        text=text,
        grid=grid,
        wavefronts=wavefronts,
        distances=distances,
        blockage=blockage,
        oam=oam,
        formats=formats,
        db_floor=db_floor,
        directory=directory,
    )


def load_config(path: Path) -> ScenarioConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# presets


_FIG3 = """\
[scenario]
study = gain_curve
name = fig3

[grid]
side_length_m = 0.25
frequency_hz = 1e12
pitch_fraction = 0.5

[wavefronts]
names = beamforming, beamfocusing, bessel

[wavefront.beamforming]
kind = beamforming
circular = true

[wavefront.beamfocusing]
kind = beamfocusing
focal_length_m = auto
circular = true

[wavefront.bessel]
kind = bessel
spot_fwhm_m = 0.02
spot_convention = fwhm
circular = true

[distances]
start_m = 1.0
stop_m = 30.0
step_m = 0.5

[output]
formats = csv
db_floor = -60
"""

_FIG3_CI = """\
[scenario]
study = gain_curve
name = fig3-ci

[grid]
side_length_m = 0.05
frequency_hz = 3e11
pitch_fraction = 0.5

[wavefronts]
names = beamforming, beamfocusing, bessel

[wavefront.beamforming]
kind = beamforming
circular = true

[wavefront.beamfocusing]
kind = beamfocusing
focal_length_m = auto
circular = true

[wavefront.bessel]
kind = bessel
spot_fwhm_m = 0.008
spot_convention = fwhm
circular = true

[distances]
start_m = 0.05
stop_m = 0.70
step_m = 0.01

[output]
formats = csv
db_floor = -60
"""

# Geometry notes for fig4 (the reference study leaves it unspecified):
# the disc obstacle sits at z = 0.5 m and the healed field is compared at
# z = obstacle_z + 2*z_heal over the shadow window; the blockage Bessel
# uses a 1.125 mm spot so the cone is steep enough that a 25 mm disc still
# shadows a plane wave at that distance.  The caustic dives below the
# aperture (parabola anchored at the bottom edge) under a knife edge that
# blocks everything above x = -0.14 m.
_FIG4 = """\
[scenario]
study = blockage
name = fig4

[grid]
side_length_m = 0.25
frequency_hz = 1e12
pitch_fraction = 0.5

[wavefronts]
names = beamforming, beamfocusing, bessel, caustic

[wavefront.beamforming]
kind = beamforming
circular = true

[wavefront.beamfocusing]
kind = beamfocusing
focal_length_m = auto
circular = true

[wavefront.bessel]
kind = bessel
spot_fwhm_m = 0.001125
spot_convention = fwhm
circular = true

[wavefront.caustic]
kind = caustic
curve_a = -0.035
curve_x_start_m = -0.125
curve_z_end_m = 3.0

[blockage]
obstacle_size_m = 0.025
obstacle_z_m = 0.5
knife_x_edge_m = -0.14
knife_z_m = 1.0
caustic_eval_z_m = 1.5
shadow_window_factor = 1.0
pad_factor = 2.0

[output]
formats = csv, pgm
db_floor = -60
"""

_FIG4_CI = """\
[scenario]
study = blockage
name = fig4-ci

[grid]
side_length_m = 0.063
frequency_hz = 1e12
pitch_fraction = 0.5

[wavefronts]
names = beamforming, beamfocusing, bessel, caustic

[wavefront.beamforming]
kind = beamforming
circular = true

[wavefront.beamfocusing]
kind = beamfocusing
focal_length_m = auto
circular = true

[wavefront.bessel]
kind = bessel
spot_fwhm_m = 0.00075
spot_convention = fwhm
circular = true

[wavefront.caustic]
kind = caustic
curve_a = -0.14
curve_x_start_m = -0.0315
curve_z_end_m = 0.75

[blockage]
obstacle_size_m = 0.0063
obstacle_z_m = 0.125
knife_x_edge_m = -0.0353
knife_z_m = 0.25
caustic_eval_z_m = 0.375
shadow_window_factor = 1.0
pad_factor = 2.0

[output]
formats = csv, pgm
db_floor = -60
"""

_FIG5 = """\
[scenario]
study = oam_bandwidth
name = fig5

[oam]
target_rate_bps = 1e12
mode_counts = 1, 2, 4, 8, 16, 32
qam_orders = 4, 16, 64, 256, 1024

[output]
formats = csv
db_floor = -60
"""

_PRESETS = {
    "fig3": _FIG3,
    "fig3-ci": _FIG3_CI,
    "fig4": _FIG4,
    "fig4-ci": _FIG4_CI,
    "fig5": _FIG5,
}


def preset(name: str) -> ScenarioConfig:
    """Bundled scenario by name: fig3, fig4, fig5 plus the -ci variants."""
    return parse_config(preset_text(name))


def preset_text(name: str) -> str:
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(_PRESETS)}")
    return _PRESETS[name]


# ---------------------------------------------------------------------------
# manifest


@dataclass
class RunManifest:
    """What a scenario run produced: artifact checksums and stage timings."""

    config_digest: str
    version: str = __version__
    artifacts: list[dict] = dc_field(default_factory=list)
    stage_seconds: dict[str, float] = dc_field(default_factory=dict)

    def add(self, path: Path, root: Path) -> None:
        data = Path(path).read_bytes()
        self.artifacts.append(
            {
                "path": str(Path(path).relative_to(root)),
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
            }
        )

    def checksums(self) -> dict[str, str]:
        return {a["path"]: a["sha256"] for a in self.artifacts}

    def write(self, path: Path) -> None:
        payload = {
            "config_digest": self.config_digest,
            "version": self.version,
            "artifacts": sorted(self.artifacts, key=lambda a: a["path"]),
            "stage_seconds": self.stage_seconds,
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


# ---------------------------------------------------------------------------
# studies


def _write_maps(out_dir: Path, stem: str, slice_, formats, db_floor, manifest, root) -> None:
    levels = artifacts.intensity_to_levels(slice_, scale="db", db_floor=db_floor)
    if "pgm" in formats:
        path = out_dir / f"{stem}.pgm"
        artifacts.write_pgm16(path, levels)
        manifest.add(path, root)
    if "png" in formats:
        path = out_dir / f"{stem}.png"
        artifacts.write_png16(path, levels)
        manifest.add(path, root)


def _run_gain_curve(config: ScenarioConfig, out_dir: Path, manifest: RunManifest) -> None:
    taper = None
    if any(s.circular for s in config.wavefronts.values()):
        taper = circular_taper(config.grid)
    curve = gain_curve(
        config.grid, list(config.wavefronts.values()), config.distances, taper=taper
    )
    header, rows = artifacts.gain_curve_rows(curve)
    path = out_dir / "gain_curve.csv"
    artifacts.write_csv(path, header, rows)
    manifest.add(path, out_dir)


def _wavefronts_of_kind(config: ScenarioConfig, kind: str) -> list[tuple[str, WavefrontSpec]]:
    """(section name, spec) of every wavefront of one kind, in config order."""
    return [(name, spec) for name, spec in config.wavefronts.items() if spec.kind == kind]


def _run_blockage(config: ScenarioConfig, out_dir: Path, manifest: RunManifest) -> None:
    grid = config.grid
    p = config.blockage
    plan = PropagationPlan(pad_factor=p["pad_factor"])
    if p["obstacle_size"] is None or p["obstacle_z"] is None:
        raise ConfigError("blockage study needs a disc obstacle", key_path="blockage")
    [(_, bessel_spec)] = _wavefronts_of_kind(config, "bessel")

    design = axicon_design(grid, bessel_spec.spot_fwhm, bessel_spec.spot_convention)
    z_heal = (p["obstacle_size"] / 2.0) / math.tan(design.cone_angle)
    z_eval = p["obstacle_z"] + 2.0 * z_heal
    disc = ObstacleSpec("disc", p["obstacle_size"], (0.0, 0.0), p["obstacle_z"])
    r_window = p["shadow_window_factor"] * p["obstacle_size"] / 2.0

    rows = []
    with reuse_spectra():
        for kind in ("beamforming", "beamfocusing", "bessel"):
            for name, spec in _wavefronts_of_kind(config, kind):
                if kind == "beamfocusing" and spec.focal_length is None:
                    spec = replace(spec, focal_length=z_eval)
                fld = synthesize_field(grid, spec)
                reference = propagate_asm(fld, z_eval, plan)
                blocked = propagate_with_obstacles(fld, [disc], z_eval, plan)
                xs_sq = reference.axis_coordinates() ** 2
                window = xs_sq[None, :] + xs_sq[:, None] <= r_window**2
                corr_shadow = self_healing_correlation(
                    FieldSlice(blocked.z, blocked.samples * window, blocked.sample_pitch),
                    FieldSlice(reference.z, reference.samples * window, reference.sample_pitch),
                )
                corr_full = self_healing_correlation(blocked, reference)
                rows.append([name, z_eval, corr_shadow, corr_full])
                _write_maps(out_dir, f"map_{name}_reference", reference, config.formats,
                            config.db_floor, manifest, out_dir)
                _write_maps(out_dir, f"map_{name}_blocked", blocked, config.formats,
                            config.db_floor, manifest, out_dir)
    path = out_dir / "healing.csv"
    artifacts.write_csv(path, "wavefront,eval_z_m,correlation_shadow,correlation_full", rows)
    manifest.add(path, out_dir)

    if p["knife_z"] is not None:
        [(caustic_name, caustic_spec)] = _wavefronts_of_kind(config, "caustic")
        [(planar_name, planar_spec)] = _wavefronts_of_kind(config, "beamforming")
        knife = ObstacleSpec("half_plane", 0.0, (p["knife_x_edge"], 0.0), p["knife_z"])
        z_t = p["caustic_eval_z"]
        with reuse_spectra():
            caustic_blocked = propagate_with_obstacles(
                synthesize_field(grid, caustic_spec), [knife], z_t, plan
            )
            planar_blocked = propagate_with_obstacles(
                synthesize_field(grid, planar_spec), [knife], z_t, plan
            )
        pk_c = float(caustic_blocked.intensity().max())
        pk_p = float(planar_blocked.intensity().max())
        advantage = 10.0 * math.log10(pk_c / pk_p) if pk_p > 0 else math.inf
        path = out_dir / "caustic_blockage.csv"
        artifacts.write_csv(
            path,
            "z_m,caustic_peak,planar_peak,advantage_db",
            [[z_t, pk_c, pk_p, advantage]],
        )
        manifest.add(path, out_dir)
        _write_maps(out_dir, f"map_{caustic_name}_blocked", caustic_blocked, config.formats,
                    config.db_floor, manifest, out_dir)
        _write_maps(out_dir, f"map_{planar_name}_knife", planar_blocked, config.formats,
                    config.db_floor, manifest, out_dir)


def _run_oam_bandwidth(config: ScenarioConfig, out_dir: Path, manifest: RunManifest) -> None:
    p = config.oam
    if not p.get("target_rate") or not p.get("mode_counts") or not p.get("qam_orders"):
        raise ConfigError("oam_bandwidth needs target_rate_bps, mode_counts and qam_orders",
                          key_path="oam")
    rows = []
    for m in p["mode_counts"]:
        for q in p["qam_orders"]:
            rows.append([float(m), float(q),
                         required_bandwidth(LinkBudgetSpec(p["target_rate"], m, q))])
    path = out_dir / "bandwidth.csv"
    artifacts.write_csv(path, "n_modes,qam_order,bandwidth_hz", rows)
    manifest.add(path, out_dir)


def _run_oam_crosstalk(config: ScenarioConfig, out_dir: Path, manifest: RunManifest) -> None:
    p = config.oam
    grid = config.grid
    if not p.get("modes") or p.get("z") is None:
        raise ConfigError("oam_crosstalk needs modes and z_m", key_path="oam")
    if p.get("base_spot_fwhm"):
        design = axicon_design(grid, p["base_spot_fwhm"])
        base_spec = WavefrontSpec(kind="bessel", spot_fwhm=design.spot_fwhm, circular=True)
    else:
        base_spec = WavefrontSpec(kind="beamforming", circular=True)
    base = synthesize_field(grid, base_spec)
    rx = p["rx_radius"] if p.get("rx_radius") else grid.half_side

    spill_rows = []
    # every steering angle hops the same distance: one kernel serves them all
    with reuse_spectra():
        for deg in p["steer_deg_list"]:
            matrix = crosstalk_matrix(base, p["modes"], p["z"],
                                      steer_angle=math.radians(deg), rx_radius=rx)
            rows = []
            for i, tx in enumerate(matrix.modes):
                for j, rx_mode in enumerate(matrix.modes):
                    rows.append([float(tx), float(rx_mode), matrix.power_coupling_db[i, j]])
            stem = "crosstalk.csv" if deg == 0.0 else f"crosstalk_steer_{deg:g}deg.csv"
            path = out_dir / stem
            artifacts.write_csv(path, "tx_mode,rx_mode,coupling_db", rows)
            manifest.add(path, out_dir)

            # total power into the l +- 1 neighbours of the middle mode
            modes = list(matrix.modes)
            mid = modes[len(modes) // 2]
            i = modes.index(mid)
            spill = 0.0
            for neighbour in (mid - 1, mid + 1):
                if neighbour in modes:
                    spill += 10 ** (matrix.power_coupling_db[i, modes.index(neighbour)] / 10.0)
            spill_rows.append([float(deg), 10.0 * math.log10(spill) if spill > 0 else -math.inf])
    path = out_dir / "spillover.csv"
    artifacts.write_csv(path, "steer_deg,spillover_db", spill_rows)
    manifest.add(path, out_dir)


_RUNNERS = {
    "gain_curve": _run_gain_curve,
    "blockage": _run_blockage,
    "oam_bandwidth": _run_oam_bandwidth,
    "oam_crosstalk": _run_oam_crosstalk,
}


def run_scenario(config: ScenarioConfig, out_dir: Path | None = None) -> RunManifest:
    """Execute a scenario and write its artifacts plus manifest.json.

    ``out_dir`` overrides the config's ``output.directory`` (one of the
    two must be set).
    """
    if out_dir is None:
        if config.directory is None:
            raise ConfigError("no output directory: set output.directory or pass out_dir")
        out_dir = Path(config.directory)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(config_digest=config.digest)
    start = time.perf_counter()
    _RUNNERS[config.study](config, out, manifest)
    manifest.stage_seconds[config.study] = time.perf_counter() - start
    manifest.write(out / "manifest.json")
    return manifest
