"""Config-driven scenario runner and the bundled experiment presets.

Scenario configs are flat INI text (sections of ``key = value`` pairs).  A
section or key the study does not read, like any bad value, is rejected at
parse time with its key path.  Six study kinds are supported:

* ``phase_map``    — the phase map one wavefront applies
* ``plane``        — one wavefront propagated to a plane
* ``gain_curve``   — axial normalized-gain comparison (preset ``fig3``)
* ``blockage``     — obstacle self-healing and knife-edge comparison
  (preset ``fig4``)
* ``oam_bandwidth``— required bandwidth over mode/QAM sweeps (preset
  ``fig5``)
* ``oam_crosstalk``— mode coupling with and without steering

Every run writes its artifacts, the scenario text it ran as
``scenario.ini``, and a ``manifest.json`` listing each file with a SHA-256
checksum; re-running an identical config reproduces every artifact byte
for byte.  A run that fails leaves no directory it made.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import re
import shutil
import time
from dataclasses import MISSING, dataclass, field as dc_field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import io as artifacts
from .aperture import (
    _SPOT_CONVENTIONS,
    ApertureGrid,
    CausticCurve,
    ObstacleSpec,
    WavefrontSpec,
    _caustic_row,
    _check_footprint,
    _checked_phase_bits,
    axicon_design,
    make_grid,
    synthesize_applied_phase,
    synthesize_field,
)
from .errors import ConfigError
from .metrics import (_check_no_spiral, _check_one_of_each_kind, _disc_correlation,
                      _intensity_correlation, gain_curve)
from .oam import LinkBudgetSpec, _receive_side, crosstalk_matrix, required_bandwidth
from .propagation import (
    _DEFAULT_PAD_FACTOR,
    _checked_pad_factor,
    _padded_size,
    propagate_asm,
    propagate_with_obstacles,
    reuse_spectra,
)

STUDIES = ("phase_map", "plane", "gain_curve", "blockage", "oam_bandwidth", "oam_crosstalk")
OUTPUT_FORMATS = ("csv", "pgm", "png")
# the largest study a config may size, checked at parse time; full-scale fig3 and fig4
# have 1667 elements per side and fig3 has 59 distances
MAX_ELEMENTS_PER_SIDE = 4096
MAX_DISTANCES = 10_000
# the largest padded plane a study may propagate (its side, in samples), checked at parse
# time; full-scale fig4 pads its 1667 elements per side to 3375
MAX_PADDED_SIDE = 4096


# ---------------------------------------------------------------------------
# sections: one frozen dataclass per section (and study, where studies read it
# differently).  Its fields are the INI keys: the annotation names the cast in
# _CASTS, a default makes the key optional, and __post_init__ builds what the
# study runs on.

Positive = float  # finite and > 0
Fraction = float  # in (0, 1]
Negative = float  # finite and < 0
Bits = int  # checked by aperture._checked_phase_bits
PadFactor = float  # in [1, 8]
Auto = float | None  # Positive, or "auto" (None): the study chooses
Study = str  # one of STUDIES
Convention = str  # one of aperture._SPOT_CONVENTIONS
Scale = str  # one of io._SCALES
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


def _ranged(cast, in_range, requirement: str):
    def checked(raw: str):
        value = cast(raw)
        if not in_range(value):
            raise ValueError(f"must be {requirement}")
        return value
    return checked


_positive = _ranged(_float, lambda v: v > 0, "positive")


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
    "str": _ranged(str, bool, "non-empty"), "bool": _bool, "int": int, "float": _float,
    "Positive": _positive,
    "Fraction": _ranged(_float, lambda v: 0 < v <= 1, "in (0, 1]"),
    "Negative": _ranged(_float, lambda v: v < 0, "negative"),
    "Bits": lambda raw: _checked_phase_bits(int(raw)),
    "PadFactor": lambda raw: _checked_pad_factor(_float(raw)),
    "Auto": lambda raw: None if raw == "auto" else _positive(raw),
    "Study": _one_of(*STUDIES), "Convention": _one_of(*_SPOT_CONVENTIONS),
    "Scale": _one_of(*artifacts._SCALES),
    "Names": _items(_ranged(str, lambda v: not set(v) & set("/\\\0"),  # names go in file names
                            "a file-name part without '/', '\\' or NUL")),
    "Ints": _items(int), "Floats": _items(_float),
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
    side_length_m: Positive
    frequency_hz: Positive
    pitch_fraction: Fraction = 0.5
    grid: ApertureGrid = dc_field(init=False)

    def __post_init__(self):
        # with each key in range, the failures left are an aperture below one pitch, which
        # needs both, and one of more pitches than a float counts, which is the side's
        try:
            grid = _build("grid", make_grid, self.side_length_m, self.frequency_hz,
                          self.pitch_fraction)
        except OverflowError:
            raise ConfigError(f"invalid value '{self.side_length_m:g}': the element count "
                              "overflows", key_path="grid.side_length_m") from None
        n = grid.elements_per_side
        if n > MAX_ELEMENTS_PER_SIDE:
            # the pitch fraction is at fault when a half-wavelength pitch would fit
            key = "pitch_fraction" if 2.0 * self.pitch_fraction * n <= MAX_ELEMENTS_PER_SIDE \
                else "side_length_m"
            raise ConfigError(f"{float(n):.4g} elements per side, above the "
                              f"{MAX_ELEMENTS_PER_SIDE} a study may have", key_path=f"grid.{key}")
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True, kw_only=True)
class WavefrontsSection:
    names: Names  # one [wavefront.<name>] section each


def _only(kind: str, default=None, needed: bool = False):
    """A key that only wavefronts of ``kind`` read (and, if ``needed``, must set)."""
    return dc_field(default=default, metadata={"kind": kind, "needed": needed})


@dataclass(frozen=True, kw_only=True)
class WavefrontSection:
    """[wavefront.<name>]: the kind selects the physics, the name labels it."""

    kind: str
    steer_deg: float = 0.0
    circular: bool = False  # inscribed-disc amplitude taper
    oam_mode: int = 0
    phase_bits: Bits | None = None
    focal_length_m: Auto = _only("beamfocusing")
    spot_fwhm_m: Positive | None = _only("bessel", needed=True)
    spot_convention: Convention = _only("bessel", "fwhm")
    curve_a: float | None = _only("caustic", needed=True)  # x = x_start + a z^2 up to z_end
    curve_x_start_m: float = _only("caustic", 0.0)
    curve_z_end_m: Positive | None = _only("caustic", needed=True)

    def spec(self) -> WavefrontSpec:
        curve = None
        if self.kind == "caustic":
            curve = CausticCurve(self.curve_a, self.curve_z_end_m, self.curve_x_start_m)
        return WavefrontSpec(kind=self.kind, steer_angle=math.radians(self.steer_deg),
                             focal_length=self.focal_length_m, spot_fwhm=self.spot_fwhm_m,
                             spot_convention=self.spot_convention, curve=curve,
                             oam_mode=self.oam_mode, phase_bits=self.phase_bits,
                             circular=self.circular)


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
        if not math.isfinite((stop - start) / step):
            raise ConfigError(f"invalid value '{stop:g}': the distance count overflows",
                              key_path="distances.stop_m")
        count = int(round((stop - start) / step)) + 1
        if count > MAX_DISTANCES:
            raise ConfigError(f"{count:.3g} distances from start_m to stop_m, above the "
                              f"{MAX_DISTANCES} a study may have", key_path="distances.step_m")
        values = start + step * np.arange(count)
        values = values[values <= stop + 1e-12]
        last = float(values[-1])  # squared as a Python float, which overflows to inf silently
        if not math.isfinite(last * last):  # the element sums take each distance squared
            raise ConfigError(f"invalid value '{stop:g}': the distance {last:g} m squares "
                              "beyond the float range", key_path="distances.stop_m")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, kw_only=True)
class PlaneSection:
    z_m: Positive
    pad_factor: PadFactor = _DEFAULT_PAD_FACTOR


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
    pad_factor: PadFactor = _DEFAULT_PAD_FACTOR
    disc: ObstacleSpec = dc_field(init=False)
    knife: ObstacleSpec | None = dc_field(init=False)

    def __post_init__(self):
        unset = [key for key in _KNIFE_KEYS if getattr(self, key) is None]
        if 0 < len(unset) < len(_KNIFE_KEYS):
            raise ConfigError(f"the knife edge needs {', '.join(_KNIFE_KEYS)} together",
                              key_path=f"blockage.{unset[0]}")
        if not unset and self.caustic_eval_z_m <= self.knife_z_m:
            raise ConfigError("must lie beyond knife_z_m", key_path="blockage.caustic_eval_z_m")
        try:  # the study compares squared distances with the window radius squared
            (self.shadow_window_factor * self.obstacle_size_m / 2.0) ** 2
        except OverflowError:
            raise ConfigError("the shadow window radius shadow_window_factor * obstacle_size_m "
                              "/ 2 squares beyond the float range",
                              key_path="blockage.shadow_window_factor") from None
        knife = None if unset else _build("blockage.knife_z_m", ObstacleSpec, "half_plane", 0.0,
                                          (self.knife_x_edge_m, 0.0), self.knife_z_m)
        disc = _build("blockage.obstacle_z_m", ObstacleSpec, "disc", self.obstacle_size_m,
                      (0.0, 0.0), self.obstacle_z_m)
        object.__setattr__(self, "knife", knife)
        object.__setattr__(self, "disc", disc)


@dataclass(frozen=True, kw_only=True)
class OamBandwidthSection:
    target_rate_bps: Positive
    mode_counts: Ints
    qam_orders: Ints
    budgets: tuple[LinkBudgetSpec, ...] = dc_field(init=False)  # mode-count major

    def __post_init__(self):
        # each list is checked against a valid value of the other, so an error names its key
        for m in self.mode_counts:
            _build("oam.mode_counts", LinkBudgetSpec, self.target_rate_bps, m, 2)
        for q in self.qam_orders:
            _build("oam.qam_orders", LinkBudgetSpec, self.target_rate_bps, 1, q)
        object.__setattr__(self, "budgets", tuple(
            LinkBudgetSpec(self.target_rate_bps, m, q)
            for m in self.mode_counts for q in self.qam_orders))


def _crosstalk_stem(deg: float) -> str:
    """The file stem of the crosstalk matrix at steering angle ``deg``."""
    return "crosstalk" if deg == 0.0 else f"crosstalk_steer_{deg:g}deg"


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
        if len(self.modes) < 2:  # spillover.csv reads the middle mode's nearest neighbours
            raise ConfigError("needs two or more modes", key_path="oam.modes")
        stems = [_crosstalk_stem(deg) for deg in self.steer_deg_list]
        if len(set(stems)) != len(stems):
            raise ConfigError("two angles agree to 6 significant digits and would write one "
                              "crosstalk file", key_path="oam.steer_deg_list")
        kind = "beamforming" if self.base_spot_fwhm_m is None else "bessel"
        object.__setattr__(self, "base", WavefrontSpec(kind=kind, spot_fwhm=self.base_spot_fwhm_m,
                                                       circular=True))


@dataclass(frozen=True, kw_only=True)
class OutputSection:
    """[output] of the studies that write CSV only."""

    directory: str | None = None
    formats: CsvFormats = ("csv",)


@dataclass(frozen=True, kw_only=True)
class ImageOutputSection(OutputSection):
    """[output] of phase_map: csv writes the map's table, pgm and png its image."""

    formats: Formats = ("csv",)


@dataclass(frozen=True, kw_only=True)
class MapOutputSection(ImageOutputSection):
    """[output] of blockage: csv writes its tables, pgm and png its dB maps down to db_floor."""

    db_floor: Negative = -60.0


@dataclass(frozen=True, kw_only=True)
class PlaneOutputSection(MapOutputSection):
    """[output] of plane: its intensity map, dB down to db_floor or linear."""

    formats: Formats = ("pgm",)
    scale: Scale = "db"


# the sections each study reads; "wavefront.*" is each one wavefronts.names lists
_STUDY_SECTIONS = {
    "phase_map": {"grid": GridSection, "wavefronts": WavefrontsSection,
                  "wavefront.*": WavefrontSection, "output": ImageOutputSection},
    "plane": {"grid": GridSection, "wavefronts": WavefrontsSection,
              "wavefront.*": WavefrontSection, "plane": PlaneSection,
              "output": PlaneOutputSection},
    "gain_curve": {"grid": GridSection, "wavefronts": WavefrontsSection,
                   "wavefront.*": WavefrontSection, "distances": DistancesSection,
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
    grid: ApertureGrid | None
    wavefronts: dict[str, WavefrontSpec]
    distances: np.ndarray | None
    plane: PlaneSection | None
    blockage: BlockageSection | None
    oam: OamBandwidthSection | OamCrosstalkSection | None

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


# the [wavefront.*] keys that only one kind reads: name -> {"kind", "needed"}
_KIND_KEYS = {key.name: key.metadata for key in fields(WavefrontSection) if "kind" in key.metadata}


def _wavefront(parser, name: str, grid: ApertureGrid) -> WavefrontSpec:
    """[wavefront.<name>] on ``grid`` as a spec.  Each key that only another kind reads is an
    error, and so is each key that only this kind reads, needs and lacks; the error names
    every one.  A caustic fails at its curve_a for a = 0, for an aperture abscissa
    that no tangent of its curve reaches, and for a phase beyond the float range."""
    section = f"wavefront.{name}"
    keys = _section(parser, section, WavefrontSection)
    _build(f"{section}.kind", WavefrontSpec, keys.kind)
    given, kind = parser.options(section), keys.kind
    foreign = [key for key, only in _KIND_KEYS.items() if key in given and only["kind"] != kind]
    missing = [key for key, only in _KIND_KEYS.items() if key not in given
               and only["kind"] == kind and only["needed"]]
    for found, verb, joint in ((foreign, "does not read", "or"), (missing, "needs", "and")):
        if found:
            first, *rest = (f"{section}.{key}" for key in found)
            raise ConfigError(f"a {kind} wavefront {verb} this key"
                              + "".join(f" {joint} {path}" for path in rest), key_path=first)
    if kind != "caustic":
        return _build(section, keys.spec)
    spec = _build(f"{section}.curve_a", keys.spec)
    _build(f"{section}.curve_a", _caustic_row, grid, spec.curve)
    return spec


def _check_roles(study: str, wavefronts: dict[str, WavefrontSpec],
                 blockage: BlockageSection | None) -> None:
    """Studies pick wavefronts by kind; the section name only labels rows and maps."""
    kinds = [spec.kind for spec in wavefronts.values()]
    if study in ("phase_map", "plane"):
        if len(kinds) != 1:
            raise ConfigError(f"a {study} study takes exactly one wavefront, got {len(kinds)}",
                              key_path="wavefronts.names")
        # no distance here to put an auto focus at
        [(name, spec)] = wavefronts.items()
        if spec.kind == "beamfocusing" and spec.focal_length is None:
            raise ConfigError(f"a {study} study needs a focal length, not auto",
                              key_path=f"wavefront.{name}.focal_length_m")
    elif study == "gain_curve":
        _build("wavefronts.names", _check_one_of_each_kind, wavefronts.values())
        for name, spec in wavefronts.items():
            _build(f"wavefront.{name}.oam_mode", _check_no_spiral, [spec])
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


def _check_padded_side(grid: ApertureGrid, npad: int, key_path: str) -> None:
    """Reject a study whose planes pad the grid to npad, beyond MAX_PADDED_SIDE a side: at
    ``key_path``, or at the side length when not even pad_factor 1 would fit."""
    n = grid.elements_per_side
    if npad > MAX_PADDED_SIDE:
        if _padded_size(n, 1.0) > MAX_PADDED_SIDE:
            key_path = "grid.side_length_m"
        raise ConfigError(f"{n} elements per side pad to {npad}, above the {MAX_PADDED_SIDE} "
                          "a study may propagate", key_path=key_path)


def _check_obstacles(grid: ApertureGrid, blockage: BlockageSection) -> None:
    """Reject a disc beyond the padded obstacle plane, and a knife edge on or beyond its
    border, by ``make_obstacle_mask``'s rule."""
    extent = _padded_size(grid.elements_per_side, blockage.pad_factor) * grid.element_pitch
    _build("blockage.obstacle_size_m", _check_footprint, blockage.disc, extent)
    if blockage.knife is not None:
        _build("blockage.knife_x_edge_m", _check_footprint, blockage.knife, extent)


def _check_adjoint_side(grid: ApertureGrid, rx_radius: float | None) -> None:
    """Reject a crosstalk receiver that ``crosstalk_matrix`` refuses, and one whose hops would
    pad beyond MAX_PADDED_SIDE a side: the side length is at fault for the receive plane,
    and the radius for the adjoint hops, whose source grid widens with the receive disc."""
    radius, npad, m, mpad = _build("oam.rx_radius_m", _receive_side, grid, rx_radius)
    _check_padded_side(grid, npad, "grid.side_length_m")
    if mpad > MAX_PADDED_SIDE:
        raise ConfigError(f"a receive disc of radius {radius:g} m spans {m} samples, and its "
                          f"adjoint hops pad to {mpad}, above the {MAX_PADDED_SIDE} a study "
                          "may propagate", key_path="oam.rx_radius_m")


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
    wavefronts = {name: _wavefront(parser, name, sections["grid"].grid) for name in names}
    _check_roles(scenario.study, wavefronts, sections.get("blockage"))
    if scenario.study in ("plane", "blockage"):
        grid, pad_factor = sections["grid"].grid, sections[scenario.study].pad_factor
        _check_padded_side(grid, _padded_size(grid.elements_per_side, pad_factor),
                           f"{scenario.study}.pad_factor")
        if scenario.study == "blockage":
            _check_obstacles(grid, sections["blockage"])
    elif scenario.study == "oam_crosstalk":
        _check_adjoint_side(sections["grid"].grid, sections["oam"].rx_radius_m)
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
        plane=sections.get("plane"),
        blockage=sections.get("blockage"),
        oam=sections.get("oam"),
    )


def load_config(path: Path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # a ValueError, which the CLI would call numeric
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    return parse_config(text)


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
    "fig4": _FIG4,
    "fig5": _FIG5,
    "fig3-ci": _FIG3_CI,
    "fig4-ci": _FIG4_CI,
}
PRESET_NAMES = tuple(_PRESETS)


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
    version: str = dc_field(init=False, default=__version__)
    artifacts: list[dict] = dc_field(init=False, default_factory=list)
    stage_seconds: dict[str, float] = dc_field(init=False, default_factory=dict)

    def add(self, path: Path, root: Path) -> None:
        digest, size = hashlib.sha256(), 0
        with open(path, "rb") as fh:  # 1 MiB at a time: a plane's CSV runs to tens of MB
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
                size += len(chunk)
        self.artifacts.append({"path": str(Path(path).relative_to(root)),
                               "sha256": digest.hexdigest(), "bytes": size})

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


def _write(out_dir: Path, stem: str, output: OutputSection, manifest: RunManifest,
           write_csv=None, levels_of=None) -> None:
    """``<stem>.csv`` by ``write_csv(path)``, then ``<stem>.pgm`` and ``.png`` of
    ``levels_of()``, each if the formats list it (only the image studies can omit csv)."""
    paths = [out_dir / f"{stem}.csv"] if write_csv and "csv" in output.formats else []
    for path in paths:
        write_csv(path)
    images = [fmt for fmt in ("pgm", "png") if levels_of and fmt in output.formats]
    if images:
        levels = levels_of()  # once, and only for an image
        for fmt in images:
            paths.append(out_dir / f"{stem}.{fmt}")
            (artifacts.write_pgm16 if fmt == "pgm" else artifacts.write_png16)(paths[-1], levels)
    for path in paths:
        manifest.add(path, out_dir)


def _write_maps(out_dir: Path, stem: str, intensity: np.ndarray, layout,
                output: MapOutputSection, manifest) -> None:
    """The dB maps of a plane given as the intensity of its block, laid out as ``layout``,
    which stays as it is: the block's levels are mirrored to the whole plane."""
    _write(out_dir, stem, output, manifest, levels_of=lambda: layout.unfold(
        artifacts.intensity_to_levels(intensity, scale="db", db_floor=output.db_floor)))


def _write_table(out_dir: Path, name: str, header: str, rows, output: OutputSection,
                 manifest) -> None:
    _write(out_dir, name, output, manifest, lambda path: artifacts.write_csv(path, header, rows))


def _run_phase_map(config: ScenarioConfig, out_dir: Path, manifest: RunManifest) -> None:
    [(name, spec)] = config.wavefronts.items()
    phase = synthesize_applied_phase(config.grid, spec)
    _write(out_dir, f"phase_{name}", config.output, manifest,
           lambda path: artifacts.phase_map_csv(path, phase),
           lambda: artifacts.phase_to_levels(phase))


def _run_plane(config: ScenarioConfig, out_dir: Path, manifest: RunManifest) -> None:
    [(name, spec)] = config.wavefronts.items()
    z, out = config.plane.z_m, config.output
    slice_ = propagate_asm(synthesize_field(config.grid, spec), z, config.plane.pad_factor)
    _write(out_dir, f"slice_{name}_z{z:g}", out, manifest,
           lambda path: artifacts.field_slice_csv(path, slice_),
           lambda: slice_.layout.unfold(artifacts.intensity_to_levels(
               slice_.intensity(), scale=out.scale, db_floor=out.db_floor)))


def _run_gain_curve(config: ScenarioConfig, out_dir: Path, manifest: RunManifest) -> None:
    curve = gain_curve(config.grid, list(config.wavefronts.values()), config.distances)
    header, rows = artifacts.gain_curve_rows(curve, config.wavefronts)
    _write_table(out_dir, "gain_curve", header, rows, config.output, manifest)


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
                # each plane is kept as the intensity of its block only: the correlations and
                # maps read nothing else, and a wavefront's planes are gone before the next is
                # built.  The disc is centred, so the blocked plane is laid out as the reference.
                reference = propagate_asm(fld, z_eval, b.pad_factor)
                layout, i_ref = reference.layout, reference.intensity()
                del reference
                _write_maps(out_dir, f"map_{name}_reference", i_ref, layout, out, manifest)
                i_blk = propagate_with_obstacles(fld, b.disc, z_eval, b.pad_factor).intensity()
                del fld
                rows.append([name, z_eval, _disc_correlation(i_blk, i_ref, layout, r_window),
                             _intensity_correlation(i_blk, i_ref, layout.multiplicity())])
                del i_ref
                _write_maps(out_dir, f"map_{name}_blocked", i_blk, layout, out, manifest)
                del i_blk
    _write_table(out_dir, "healing", "wavefront,eval_z_m,correlation_shadow,correlation_full",
                 rows, out, manifest)

    if b.knife is not None:
        [(caustic_name, caustic_spec)] = _wavefronts_of_kind(config, "caustic")
        [(planar_name, planar_spec)] = _wavefronts_of_kind(config, "beamforming")
        z_t = b.caustic_eval_z_m
        peaks = []
        with reuse_spectra():
            # each plane's map is written, and its intensity released, before the next hop
            for spec, stem in ((caustic_spec, f"map_{caustic_name}_blocked"),
                               (planar_spec, f"map_{planar_name}_knife")):
                plane = propagate_with_obstacles(synthesize_field(grid, spec), b.knife, z_t,
                                                 b.pad_factor)
                layout, intensity = plane.layout, plane.intensity()
                del plane
                peaks.append(float(intensity.max()))
                _write_maps(out_dir, stem, intensity, layout, out, manifest)
                del intensity
        pk_c, pk_p = peaks
        advantage = 10.0 * math.log10(pk_c / pk_p) if pk_p > 0 else math.inf
        _write_table(out_dir, "caustic_blockage", "z_m,caustic_peak,planar_peak,advantage_db",
                     [[z_t, pk_c, pk_p, advantage]], out, manifest)


def _run_oam_bandwidth(config: ScenarioConfig, out_dir: Path, manifest: RunManifest) -> None:
    rows = [[float(budget.n_modes), float(budget.qam_order), required_bandwidth(budget)]
            for budget in config.oam.budgets]
    _write_table(out_dir, "bandwidth", "n_modes,qam_order,bandwidth_hz", rows, config.output,
                 manifest)


def _run_oam_crosstalk(config: ScenarioConfig, out_dir: Path, manifest: RunManifest) -> None:
    p = config.oam
    base = synthesize_field(config.grid, p.base)

    matrices = crosstalk_matrix(base, p.modes, p.z_m, [math.radians(d) for d in p.steer_deg_list],
                                rx_radius=p.rx_radius_m)
    spill_rows = []
    for deg, matrix in zip(p.steer_deg_list, matrices):
        modes, coupling = matrix.modes, matrix.power_coupling_db
        rows = [[float(tx), float(rx), db] for tx, row in zip(modes, coupling)
                for rx, db in zip(modes, row)]
        _write_table(out_dir, _crosstalk_stem(deg), "tx_mode,rx_mode,coupling_db", rows,
                     config.output, manifest)

        # power into the middle mode's nearest neighbours in l (l +- 1 where the set has them)
        mid = len(modes) // 2
        gap = min(abs(rx - modes[mid]) for rx in modes if rx != modes[mid])
        spill = sum(10 ** (db / 10.0) for rx, db in zip(modes, coupling[mid])
                    if abs(rx - modes[mid]) == gap)
        spill_rows.append([float(deg), 10.0 * math.log10(spill)])
    _write_table(out_dir, "spillover", "steer_deg,spillover_db", spill_rows, config.output,
                 manifest)


_RUNNERS = {
    "phase_map": _run_phase_map,
    "plane": _run_plane,
    "gain_curve": _run_gain_curve,
    "blockage": _run_blockage,
    "oam_bandwidth": _run_oam_bandwidth,
    "oam_crosstalk": _run_oam_crosstalk,
}


def run_scenario(config: ScenarioConfig, out_dir: Path | None = None) -> RunManifest:
    """Execute a scenario and write its artifacts, ``scenario.ini`` and manifest.json.

    ``out_dir`` overrides the config's ``output.directory`` (one of the
    two must be set).  ``scenario.ini`` holds ``config.text``, the text
    whose sha256 is the manifest's ``config_digest``, so ``thzbeam run``
    replays the run from it.  A run that raises removes the first
    directory it made (``out_dir`` or a parent of it); an ``out_dir`` that
    existed keeps the files it held.
    """
    if out_dir is None:
        if config.output.directory is None:
            raise ConfigError("no output directory: set output.directory or pass out_dir")
        out_dir = Path(config.output.directory)
    out = Path(out_dir)
    made = next((d for d in (*reversed(out.parents), out) if not d.exists()), None)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(config_digest=config.digest)
    try:
        start = time.perf_counter()
        _RUNNERS[config.study](config, out, manifest)
        manifest.stage_seconds[config.study] = time.perf_counter() - start
        (out / "scenario.ini").write_bytes(config.text.encode("utf-8"))
        manifest.add(out / "scenario.ini", out)
        manifest.write(out / "manifest.json")
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise
    return manifest
