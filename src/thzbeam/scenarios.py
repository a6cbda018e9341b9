"""Config-driven scenario runner and the bundled experiment presets.

Scenario configs are flat INI text (sections of ``key = value`` pairs).  A
section or key the study does not read, like any bad value, is rejected at
parse time with its key path.  Four study kinds are supported:

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
import re
import time
from dataclasses import MISSING, dataclass, field as dc_field, fields, replace
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
from .oam import LinkBudgetSpec, OamModeSet, crosstalk_matrix, required_bandwidth
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
# sections: one frozen dataclass per section (and study, where studies read it
# differently).  Its fields are the INI keys: the annotation names the cast in
# _CASTS, a default makes the key optional, and __post_init__ builds what the
# study runs on.

Positive = float  # finite and > 0
Auto = float | None  # Positive, or "auto" (None): the study chooses
Study = str  # one of STUDIES
Convention = str  # fwhm | first_null
Names = tuple[str, ...]  # lists: comma-separated, distinct, at least one item
Ints = tuple[int, ...]
Floats = tuple[float, ...]
Formats = tuple[str, ...]  # each one of OUTPUT_FORMATS
CsvFormats = tuple[str, ...]  # csv only


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _positive(raw: str) -> float:
    value = _float(raw)
    if value <= 0:
        raise ValueError("must be positive")
    return value


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _one_of(*choices: str):
    def cast(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return raw
    return cast


def _items(cast):
    def cast_all(raw: str) -> tuple:
        items = tuple(cast(s.strip()) for s in raw.split(",") if s.strip())
        if not items or len(set(items)) != len(items):
            raise ValueError("needs one or more distinct items")
        return items
    return cast_all


_CASTS = {
    "str": str, "bool": _bool, "int": int, "float": _float, "Positive": _positive,
    "Auto": lambda raw: None if raw == "auto" else _positive(raw),
    "Study": _one_of(*STUDIES), "Convention": _one_of("fwhm", "first_null"),
    "Names": _items(str), "Ints": _items(int), "Floats": _items(_float),
    "Formats": _items(_one_of(*OUTPUT_FORMATS)), "CsvFormats": _items(_one_of("csv")),
}


def _build(key_path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with its ValueError as a ConfigError at key_path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), key_path=key_path) from None


@dataclass(frozen=True, kw_only=True)
class ScenarioSection:
    study: Study
    name: str | None = None  # default: the study


@dataclass(frozen=True, kw_only=True)
class GridSection:
    side_length_m: float
    frequency_hz: float
    pitch_fraction: float = 0.5
    grid: ApertureGrid = dc_field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "grid", _build("grid", make_grid, self.side_length_m,
                                                self.frequency_hz, self.pitch_fraction))


@dataclass(frozen=True, kw_only=True)
class WavefrontsSection:
    names: Names  # one [wavefront.<name>] section each


def _only(kind: str, default=None, needed: bool = False):
    """A key that only wavefronts of ``kind`` read (and, if ``needed``, must set)."""
    return dc_field(default=default, metadata={"kind": kind, "needed": needed})


@dataclass(frozen=True, kw_only=True)
class GainWavefrontSection:
    """[wavefront.<name>] of gain_curve: the kind selects the physics, the name labels it."""

    kind: str
    steer_deg: float = 0.0
    circular: bool = False  # inscribed-disc amplitude taper
    focal_length_m: Auto = _only("beamfocusing")
    spot_fwhm_m: Positive | None = _only("bessel", needed=True)
    spot_convention: Convention = _only("bessel", "fwhm")
    curve_a: float | None = _only("caustic", needed=True)  # x = x_start + a z^2 up to z_end
    curve_x_start_m: float = _only("caustic", 0.0)
    curve_z_end_m: float | None = _only("caustic", needed=True)

    def spec(self) -> WavefrontSpec:
        curve = None
        if self.kind == "caustic":
            curve = CausticCurve.parabola(self.curve_a, self.curve_z_end_m, self.curve_x_start_m)
        return WavefrontSpec(kind=self.kind, steer_angle=math.radians(self.steer_deg),
                             focal_length=self.focal_length_m, spot_fwhm=self.spot_fwhm_m,
                             spot_convention=self.spot_convention, curve=curve,
                             circular=self.circular)


@dataclass(frozen=True, kw_only=True)
class WavefrontSection(GainWavefrontSection):
    """[wavefront.<name>] of blockage, which also applies the overlays."""

    oam_mode: int = 0
    phase_bits: int | None = None

    def spec(self) -> WavefrontSpec:
        return replace(super().spec(), oam_mode=self.oam_mode, phase_bits=self.phase_bits)


@dataclass(frozen=True, kw_only=True)
class DistancesSection:
    start_m: float
    stop_m: float
    step_m: float
    values: np.ndarray = dc_field(init=False)

    def __post_init__(self):
        start, stop, step = self.start_m, self.stop_m, self.step_m
        if start <= 0 or stop <= start or step <= 0:
            raise ConfigError("need 0 < start_m < stop_m and step_m > 0", key_path="distances")
        values = start + step * np.arange(int(round((stop - start) / step)) + 1)
        object.__setattr__(self, "values", values[values <= stop + 1e-12])


_KNIFE_KEYS = ("knife_x_edge_m", "knife_z_m", "caustic_eval_z_m")


@dataclass(frozen=True, kw_only=True)
class BlockageSection:
    """[blockage]: the healing rows' disc and, with all three knife keys, the knife edge."""

    obstacle_size_m: Positive
    obstacle_z_m: float
    knife_x_edge_m: float | None = None
    knife_z_m: float | None = None
    caustic_eval_z_m: float | None = None
    shadow_window_factor: Positive = 1.0
    pad_factor: float = 2.0
    plan: PropagationPlan = dc_field(init=False)
    disc: ObstacleSpec = dc_field(init=False)
    knife: ObstacleSpec | None = dc_field(init=False)

    def __post_init__(self):
        unset = [key for key in _KNIFE_KEYS if getattr(self, key) is None]
        if 0 < len(unset) < len(_KNIFE_KEYS):
            raise ConfigError(f"the knife edge needs {', '.join(_KNIFE_KEYS)} together",
                              key_path=f"blockage.{unset[0]}")
        if not unset and self.caustic_eval_z_m <= self.knife_z_m:
            raise ConfigError("must lie beyond knife_z_m", key_path="blockage.caustic_eval_z_m")
        knife = None if unset else _build("blockage.knife_z_m", ObstacleSpec, "half_plane", 0.0,
                                          (self.knife_x_edge_m, 0.0), self.knife_z_m)
        disc = _build("blockage.obstacle_z_m", ObstacleSpec, "disc", self.obstacle_size_m,
                      (0.0, 0.0), self.obstacle_z_m)
        plan = _build("blockage.pad_factor", PropagationPlan, pad_factor=self.pad_factor)
        for name, value in (("knife", knife), ("disc", disc), ("plan", plan)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, kw_only=True)
class OamBandwidthSection:
    target_rate_bps: float
    mode_counts: Ints
    qam_orders: Ints
    budgets: tuple[LinkBudgetSpec, ...] = dc_field(init=False)  # mode-count major

    def __post_init__(self):
        object.__setattr__(self, "budgets", tuple(
            _build("oam", LinkBudgetSpec, self.target_rate_bps, m, q)
            for m in self.mode_counts for q in self.qam_orders))


@dataclass(frozen=True, kw_only=True)
class OamCrosstalkSection:
    """[oam] of oam_crosstalk: a planar base beam, or a Bessel one of base_spot_fwhm_m."""

    modes: Ints
    z_m: Positive
    steer_deg_list: Floats = (0.0,)
    rx_radius_m: Auto = None  # auto: the aperture half-side
    base_spot_fwhm_m: Positive | None = None
    base: WavefrontSpec = dc_field(init=False)

    def __post_init__(self):
        _build("oam.modes", OamModeSet, self.modes)
        kind = "beamforming" if self.base_spot_fwhm_m is None else "bessel"
        object.__setattr__(self, "base", WavefrontSpec(kind=kind, spot_fwhm=self.base_spot_fwhm_m,
                                                       circular=True))


@dataclass(frozen=True, kw_only=True)
class OutputSection:
    """[output] of the studies that write CSV only."""

    directory: str | None = None
    formats: CsvFormats = ("csv",)


@dataclass(frozen=True, kw_only=True)
class MapOutputSection(OutputSection):
    """[output] of blockage: csv writes its tables, pgm and png its dB maps down to db_floor."""

    formats: Formats = ("csv",)
    db_floor: float = -60.0

    def __post_init__(self):
        if self.db_floor >= 0:
            raise ConfigError("db_floor must be negative", key_path="output.db_floor")


# the sections each study reads; "wavefront.*" is each one wavefronts.names lists
_STUDY_SECTIONS = {
    "gain_curve": {"grid": GridSection, "wavefronts": WavefrontsSection,
                   "wavefront.*": GainWavefrontSection, "distances": DistancesSection,
                   "output": OutputSection},
    "blockage": {"grid": GridSection, "wavefronts": WavefrontsSection,
                 "wavefront.*": WavefrontSection, "blockage": BlockageSection,
                 "output": MapOutputSection},
    "oam_bandwidth": {"oam": OamBandwidthSection, "output": OutputSection},
    "oam_crosstalk": {"grid": GridSection, "oam": OamCrosstalkSection, "output": OutputSection},
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked scenario: the study and the objects it runs on."""

    study: str
    name: str
    text: str
    output: OutputSection
    grid: ApertureGrid | None = None
    wavefronts: dict[str, WavefrontSpec] = dc_field(default_factory=dict)
    distances: np.ndarray | None = None
    blockage: BlockageSection | None = None
    oam: OamBandwidthSection | OamCrosstalkSection | None = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def _get(parser, section: str, key):
    """One key's value, cast by its annotation; no float is nan or inf."""
    raw = parser.get(section, key.name).strip()
    try:
        return _CASTS[key.type.removesuffix(" | None")](raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value {raw!r}: {exc}",
                          key_path=f"{section}.{key.name}") from None


def _section(parser, section: str, cls):
    """The section as a ``cls``; a key that ``cls`` does not declare is an error."""
    keys = {key.name: key for key in fields(cls) if key.init}
    if not parser.has_section(section):
        if any(key.default is MISSING for key in keys.values()):
            raise ConfigError("required section missing", key_path=section)
        return cls()
    for name in parser.options(section):
        if name not in keys:
            raise ConfigError(f"unknown key; [{section}] takes {', '.join(keys)}",
                              key_path=f"{section}.{name}")
    for name, key in keys.items():
        if key.default is MISSING and not parser.has_option(section, name):
            raise ConfigError("required key missing", key_path=f"{section}.{name}")
    return cls(**{name: _get(parser, section, key) for name, key in keys.items()
                  if parser.has_option(section, name)})


def _wavefront(parser, name: str, cls) -> WavefrontSpec:
    """[wavefront.<name>] as a spec; a key that only another kind reads is an error."""
    section = f"wavefront.{name}"
    keys = _section(parser, section, cls)
    _build(f"{section}.kind", WavefrontSpec, keys.kind)
    for key in fields(keys):
        kind, path = key.metadata.get("kind", keys.kind), f"{section}.{key.name}"
        if kind != keys.kind and parser.has_option(section, key.name):
            raise ConfigError(f"a {keys.kind} wavefront does not read this key", key_path=path)
        if kind == keys.kind and key.metadata.get("needed") and getattr(keys, key.name) is None:
            raise ConfigError(f"a {kind} wavefront needs this key", key_path=path)
    return _build(section, keys.spec)


def _check_roles(study: str, wavefronts: dict[str, WavefrontSpec],
                 blockage: BlockageSection | None) -> None:
    """Studies pick wavefronts by kind; the section name only labels rows and maps."""
    kinds = [spec.kind for spec in wavefronts.values()]
    if study == "gain_curve":
        # one wavefront per column of the fixed gain-curve CSV schema, one shared taper
        if sorted(kinds) != sorted(artifacts.GAIN_CURVE_COLUMNS):
            raise ConfigError(
                "gain_curve needs exactly one wavefront of each kind "
                f"{', '.join(artifacts.GAIN_CURVE_COLUMNS)}; got {', '.join(sorted(kinds))}",
                key_path="wavefronts.names",
            )
        circular = next(iter(wavefronts.values())).circular
        for name, spec in wavefronts.items():
            if spec.circular != circular:
                raise ConfigError("gain_curve tapers every wavefront or none",
                                  key_path=f"wavefront.{name}.circular")
    elif study == "blockage":
        # healing needs one Bessel beam, the knife-edge pair one caustic and one
        # planar beam; without a knife edge no caustic is read
        knife = blockage.knife is not None
        for kind in ["bessel"] + (["caustic", "beamforming"] if knife else []):
            if kinds.count(kind) != 1:
                raise ConfigError(f"blockage study needs exactly one {kind} wavefront, "
                                  f"got {kinds.count(kind)}", key_path="wavefronts.names")
        if not knife and "caustic" in kinds:
            raise ConfigError("a caustic wavefront needs the knife edge of [blockage]",
                              key_path="wavefronts.names")


def parse_config(text: str) -> ScenarioConfig:
    """Parse and check scenario text; every problem is a ConfigError with its key path."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config text is not valid INI: {exc}") from None

    scenario = _section(parser, "scenario", ScenarioSection)
    read = _STUDY_SECTIONS[scenario.study]
    sections = {name: _section(parser, name, cls) for name, cls in read.items()
                if name != "wavefront.*"}
    names = sections["wavefronts"].names if "wavefronts" in sections else ()
    wavefronts = {name: _wavefront(parser, name, read["wavefront.*"]) for name in names}
    _check_roles(scenario.study, wavefronts, sections.get("blockage"))
    known = {"scenario", *read, *(f"wavefront.{name}" for name in names)}
    for section in parser.sections():
        if section not in known:
            listed = names and section.startswith("wavefront.")
            hint = ("wavefronts.names does not list it" if listed
                    else f"a {scenario.study} study reads {', '.join(read)}")
            raise ConfigError(f"unknown section; {hint}", key_path=section)

    return ScenarioConfig(
        study=scenario.study,
        name=scenario.study if scenario.name is None else scenario.name,
        text=text,
        output=sections["output"],
        grid=sections["grid"].grid if "grid" in sections else None,
        wavefronts=wavefronts,
        distances=sections["distances"].values if "distances" in sections else None,
        blockage=sections.get("blockage"),
        oam=sections.get("oam"),
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



def _rescaled(text: str, **values: str) -> str:
    """A preset text with the given ``key = value`` lines changed."""
    for key, value in values.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
    return text


# the same studies at CI scale
_FIG3_CI = _rescaled(_FIG3, name="fig3-ci", side_length_m="0.05", frequency_hz="3e11",
                     spot_fwhm_m="0.008", start_m="0.05", stop_m="0.70", step_m="0.01")
_FIG4_CI = _rescaled(_FIG4, name="fig4-ci", side_length_m="0.063", spot_fwhm_m="0.00075",
                     curve_a="-0.14", curve_x_start_m="-0.0315", curve_z_end_m="0.75",
                     obstacle_size_m="0.0063", obstacle_z_m="0.125", knife_x_edge_m="-0.0353",
                     knife_z_m="0.25", caustic_eval_z_m="0.375")

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


def _write_maps(out_dir: Path, stem: str, slice_, output: MapOutputSection, manifest) -> None:
    for path in artifacts.write_images(out_dir / stem, output.formats, lambda: (
            artifacts.intensity_to_levels(slice_, scale="db", db_floor=output.db_floor))):
        manifest.add(path, out_dir)


def _write_table(out_dir: Path, name: str, header: str, rows, output: MapOutputSection,
                 manifest) -> None:
    """``<name>.csv`` of the blockage study, written only if csv is in the formats."""
    if "csv" in output.formats:
        path = out_dir / f"{name}.csv"
        artifacts.write_csv(path, header, rows)
        manifest.add(path, out_dir)


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
    grid, b, out = config.grid, config.blockage, config.output
    [(_, bessel_spec)] = _wavefronts_of_kind(config, "bessel")

    design = axicon_design(grid, bessel_spec.spot_fwhm, bessel_spec.spot_convention)
    z_heal = (b.obstacle_size_m / 2.0) / math.tan(design.cone_angle)
    z_eval = b.obstacle_z_m + 2.0 * z_heal
    r_window = b.shadow_window_factor * b.obstacle_size_m / 2.0

    rows = []
    with reuse_spectra():
        for kind in ("beamforming", "beamfocusing", "bessel"):
            for name, spec in _wavefronts_of_kind(config, kind):
                if kind == "beamfocusing" and spec.focal_length is None:
                    spec = replace(spec, focal_length=z_eval)
                fld = synthesize_field(grid, spec)
                reference = propagate_asm(fld, z_eval, b.plan)
                blocked = propagate_with_obstacles(fld, [b.disc], z_eval, b.plan)
                xs_sq = reference.axis_coordinates() ** 2
                window = xs_sq[None, :] + xs_sq[:, None] <= r_window**2
                corr_shadow = self_healing_correlation(
                    FieldSlice(blocked.z, blocked.samples * window, blocked.sample_pitch),
                    FieldSlice(reference.z, reference.samples * window, reference.sample_pitch),
                )
                corr_full = self_healing_correlation(blocked, reference)
                rows.append([name, z_eval, corr_shadow, corr_full])
                _write_maps(out_dir, f"map_{name}_reference", reference, out, manifest)
                _write_maps(out_dir, f"map_{name}_blocked", blocked, out, manifest)
    _write_table(out_dir, "healing", "wavefront,eval_z_m,correlation_shadow,correlation_full",
                 rows, out, manifest)

    if b.knife is not None:
        [(caustic_name, caustic_spec)] = _wavefronts_of_kind(config, "caustic")
        [(planar_name, planar_spec)] = _wavefronts_of_kind(config, "beamforming")
        z_t = b.caustic_eval_z_m
        with reuse_spectra():
            caustic_blocked = propagate_with_obstacles(
                synthesize_field(grid, caustic_spec), [b.knife], z_t, b.plan
            )
            planar_blocked = propagate_with_obstacles(
                synthesize_field(grid, planar_spec), [b.knife], z_t, b.plan
            )
        pk_c = float(caustic_blocked.intensity().max())
        pk_p = float(planar_blocked.intensity().max())
        advantage = 10.0 * math.log10(pk_c / pk_p) if pk_p > 0 else math.inf
        _write_table(out_dir, "caustic_blockage", "z_m,caustic_peak,planar_peak,advantage_db",
                     [[z_t, pk_c, pk_p, advantage]], out, manifest)
        _write_maps(out_dir, f"map_{caustic_name}_blocked", caustic_blocked, out, manifest)
        _write_maps(out_dir, f"map_{planar_name}_knife", planar_blocked, out, manifest)


def _run_oam_bandwidth(config: ScenarioConfig, out_dir: Path, manifest: RunManifest) -> None:
    rows = [[float(budget.n_modes), float(budget.qam_order), required_bandwidth(budget)]
            for budget in config.oam.budgets]
    path = out_dir / "bandwidth.csv"
    artifacts.write_csv(path, "n_modes,qam_order,bandwidth_hz", rows)
    manifest.add(path, out_dir)


def _run_oam_crosstalk(config: ScenarioConfig, out_dir: Path, manifest: RunManifest) -> None:
    p = config.oam
    base = synthesize_field(config.grid, p.base)

    spill_rows = []
    # every steering angle hops the same distance: one kernel serves them all
    with reuse_spectra():
        for deg in p.steer_deg_list:
            matrix = crosstalk_matrix(base, p.modes, p.z_m, steer_angle=math.radians(deg),
                                      rx_radius=p.rx_radius_m)
            modes, coupling = matrix.modes, matrix.power_coupling_db
            rows = [[float(tx), float(rx), db] for tx, row in zip(modes, coupling)
                    for rx, db in zip(modes, row)]
            stem = "crosstalk.csv" if deg == 0.0 else f"crosstalk_steer_{deg:g}deg.csv"
            path = out_dir / stem
            artifacts.write_csv(path, "tx_mode,rx_mode,coupling_db", rows)
            manifest.add(path, out_dir)

            # total power into the l +- 1 neighbours of the middle mode
            mid = len(modes) // 2
            spill = sum(10 ** (db / 10.0) for rx, db in zip(modes, coupling[mid])
                        if abs(rx - modes[mid]) == 1)
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
        if config.output.directory is None:
            raise ConfigError("no output directory: set output.directory or pass out_dir")
        out_dir = Path(config.output.directory)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(config_digest=config.digest)
    start = time.perf_counter()
    _RUNNERS[config.study](config, out, manifest)
    manifest.stage_seconds[config.study] = time.perf_counter() - start
    manifest.write(out / "manifest.json")
    return manifest
