import argparse
import importlib
import json
import math
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import thzbeam.oam as oam
import thzbeam.propagation as propagation
import thzbeam.scenarios as scenarios
from thzbeam import (
    ConfigError,
    FieldSlice,
    GeometryError,
    PhaseMap,
    axicon_design,
    gain_curve,
    parse_config,
    preset,
    preset_text,
    propagate_direct,
    run_scenario,
    synthesize_field,
)
from thzbeam.cli import build_parser, main as cli_main
from thzbeam.scenarios import (MAX_DISTANCES, MAX_ELEMENTS_PER_SIDE, MAX_PADDED_SIDE,
                               _STUDY_SECTIONS, ScenarioSection)
from thzbeam.metrics import GAIN_CURVE_KINDS
from thzbeam.io import (
    format_number,
    intensity_to_levels,
    phase_to_levels,
    write_pgm16,
    write_png16,
)

MINIMAL_FIG5 = """\
[scenario]
study = oam_bandwidth
name = tiny

[oam]
target_rate_bps = 1e12
mode_counts = 1, 32
qam_orders = 16, 1024
"""


# ---------------------------------------------------------------------------
# config parsing and validation


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(MINIMAL_FIG5 + "\n[mystery]\nkey = 1\n")


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match="oam.blah"):
        parse_config(MINIMAL_FIG5 + "blah = 2\n")


def test_empty_wavefront_list_rejected():
    text = """\
[scenario]
study = gain_curve

[grid]
side_length_m = 0.05
frequency_hz = 3e11

[wavefronts]
names =

[distances]
start_m = 0.1
stop_m = 0.2
step_m = 0.05
"""
    with pytest.raises(ConfigError, match="wavefronts"):
        parse_config(text)


def test_missing_required_section_rejected():
    with pytest.raises(ConfigError, match="oam"):
        parse_config("[scenario]\nstudy = oam_bandwidth\n")


def test_unknown_study_rejected():
    with pytest.raises(ConfigError, match="study"):
        parse_config("[scenario]\nstudy = warp_drive\n")


def test_bad_value_reports_key_path():
    with pytest.raises(ConfigError, match="grid.side_length_m"):
        parse_config(
            "[scenario]\nstudy = gain_curve\n[grid]\nside_length_m = wide\n"
            "frequency_hz = 3e11\n[wavefronts]\nnames = beamforming\n"
            "[wavefront.beamforming]\nkind = beamforming\n"
            "[distances]\nstart_m = 0.1\nstop_m = 0.2\nstep_m = 0.05\n"
        )


# ---------------------------------------------------------------------------
# presets


def test_preset_names_and_rejection():
    for name in ("fig3", "fig4", "fig5", "fig3-ci", "fig4-ci"):
        assert preset(name).name == name
    with pytest.raises(ValueError):
        preset("fig6")


def test_fig3_preset_reproduces_reference_grid():
    config = preset("fig3")
    assert config.grid.elements_per_side == 1667
    assert config.distances[0] == pytest.approx(1.0)
    assert config.distances[-1] == pytest.approx(30.0)


def test_fig4_preset_obstacle_is_ten_percent_of_aperture():
    config = preset("fig4")
    assert config.blockage.obstacle_size_m == pytest.approx(0.025)


def test_fig5_preset_targets_one_terabit():
    config = preset("fig5")
    assert config.oam.target_rate_bps == pytest.approx(1e12)
    assert 32 in config.oam.mode_counts


# ---------------------------------------------------------------------------
# runs and artifacts


def test_fig5_run_reference_rows(tmp_path):
    manifest = run_scenario(preset("fig5"), tmp_path)
    lines = (tmp_path / "bandwidth.csv").read_text().splitlines()
    assert lines[0] == "n_modes,qam_order,bandwidth_hz"
    table = {(float(a), float(b)): float(c) for a, b, c in (r.split(",") for r in lines[1:])}
    assert table[(32.0, 16.0)] == 7.8125e9
    assert table[(32.0, 1024.0)] == 3.125e9
    assert [a["path"] for a in manifest.artifacts] == ["bandwidth.csv", "scenario.ini"]
    assert (tmp_path / "manifest.json").exists()


def test_gain_curve_run_header_and_shape(tmp_path):
    config = preset("fig3-ci")
    run_scenario(config, tmp_path)
    lines = (tmp_path / "gain_curve.csv").read_text().splitlines()
    assert lines[0] == "z_m,beamforming,beamfocusing,bessel"
    assert len(lines) - 1 == config.distances.size
    values = np.array([[float(v) for v in r.split(",")] for r in lines[1:]])
    assert values[:, 1:].min() >= 0.0
    assert values[:, 1:].max() <= 1.0 + 1e-9


def test_blockage_run_meets_comparative_criteria(fig4_ci_run):
    out, _ = fig4_ci_run
    rows = (out / "healing.csv").read_text().splitlines()[1:]
    table = {r.split(",")[0]: [float(v) for v in r.split(",")[1:]] for r in rows}
    assert table["bessel"][1] >= 0.9
    assert table["bessel"][1] > table["beamforming"][1]
    caustic = (out / "caustic_blockage.csv").read_text().splitlines()[1]
    assert float(caustic.split(",")[-1]) >= 10.0
    # intensity maps written for every wavefront
    assert (out / "map_bessel_blocked.pgm").exists()
    assert (out / "map_caustic_blocked.pgm").exists()


def _fig4_ci_text(**renames):
    """fig4-ci with CSV output only and wavefront sections renamed old=new."""
    text = preset_text("fig4-ci").replace("formats = csv, pgm", "formats = csv")
    names = "beamforming, beamfocusing, bessel, caustic"
    for old, new in renames.items():
        text = text.replace(f"[wavefront.{old}]", f"[wavefront.{new}]")
        names = names.replace(old, new)
    return text.replace("names = beamforming, beamfocusing, bessel, caustic", f"names = {names}")


def _count_builds(monkeypatch) -> dict:
    """Kernel and transfer builds made from now on, counted by kind."""
    builds = {"kernel": 0, "transfer": 0}
    for name, attr in (("kernel", "_kernel_spectrum"), ("transfer", "_analytic_transfer")):
        def counted(*args, _build=getattr(propagation, attr), _name=name):
            builds[_name] += 1
            return _build(*args)

        monkeypatch.setattr(propagation, attr, counted)
    return builds


def test_blockage_builds_each_spectrum_once(tmp_path, monkeypatch):
    builds = _count_builds(monkeypatch)
    run_scenario(parse_config(_fig4_ci_text()), tmp_path)
    # 8 aperture hops over 3 distances, 5 slice hops over 2
    assert builds == {"kernel": 3, "transfer": 2}


def test_blockage_study_holds_at_most_two_padded_planes(tmp_path):
    """Traced peak of the fig4-ci study, in padded complex planes (16 * 840^2 bytes).

    Every plane is stored as its block of non-negative coordinates along
    each even axis (a quadrant behind the disc, a half behind the knife),
    the hops work in buffers of at most npad * (npad//2 + 1) samples, each
    plane is kept as the intensity of its block once its map is written,
    and a wavefront's planes are released before the next wavefront is
    built: the peak reads 1.85 planes, at the slice hops behind the knife.
    It read 3.13 with whole planes, 9.06 when each of those held full-grid
    copies, and 5.04 with full-grid kernel spectra and a copying hop after
    the mask.
    """
    import tracemalloc

    config = preset("fig4-ci")
    tracemalloc.start()
    try:
        run_scenario(config, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plane = 16 * 840**2
    assert peak <= 2.0 * plane, f"traced peak {peak / plane:.2f} planes"


def test_no_study_path_builds_a_whole_plane(tmp_path, monkeypatch):
    """The blockage study and README's ``propagate`` example read each plane as its block:
    with ``FieldSlice.samples`` refused, both still finish."""
    def refuse(slice_):
        raise AssertionError("a study read FieldSlice.samples")

    monkeypatch.setattr(FieldSlice, "samples", property(refuse))
    run_scenario(preset("fig4-ci"), tmp_path / "fig4-ci")
    import digest_cases

    argv = digest_cases.readme_commands()["cli-propagate"]
    assert cli_main([*argv, "--out", str(tmp_path / "propagate")]) == 0
    assert (tmp_path / "propagate" / "slice_bessel_z0.14.csv").exists()


def test_blockage_auto_focus_keeps_every_wavefront_field(tmp_path):
    """``focal_length_m = auto`` sets the focus only; phase_bits still applies."""
    base = _fig4_ci_text()
    quantized = base.replace("[wavefront.beamfocusing]\n",
                                     "[wavefront.beamfocusing]\nphase_bits = 1\n")
    config = parse_config(quantized)
    p, bessel = config.blockage, config.wavefronts["bessel"]
    design = axicon_design(config.grid, bessel.spot_fwhm, bessel.spot_convention)
    z_eval = p.obstacle_z_m + 2.0 * (p.obstacle_size_m / 2.0) / math.tan(design.cone_angle)
    explicit = quantized.replace("focal_length_m = auto", f"focal_length_m = {z_eval!r}")
    rows = {}
    for name, text in (("preset", base), ("auto", quantized), ("explicit", explicit)):
        run_scenario(parse_config(text), tmp_path / name)
        lines = (tmp_path / name / "healing.csv").read_text().splitlines()
        [rows[name]] = [line for line in lines if line.startswith("beamfocusing,")]
    assert rows["auto"] == rows["explicit"]
    assert rows["auto"] != rows["preset"]


def test_blockage_selects_wavefronts_by_kind(tmp_path):
    run_scenario(parse_config(_fig4_ci_text()), tmp_path / "preset")
    run_scenario(parse_config(_fig4_ci_text(bessel="axicon", caustic="airy")), tmp_path / "renamed")
    preset_rows = (tmp_path / "preset" / "healing.csv").read_text().splitlines()
    renamed_rows = (tmp_path / "renamed" / "healing.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in renamed_rows[1:]] == ["beamforming", "beamfocusing", "axicon"]
    assert [r.split(",")[1:] for r in renamed_rows] == [r.split(",")[1:] for r in preset_rows]
    knife = "caustic_blockage.csv"
    assert (tmp_path / "renamed" / knife).read_bytes() == (tmp_path / "preset" / knife).read_bytes()


@pytest.mark.parametrize("names, missing", [
    ("beamforming, beamfocusing, caustic", "bessel"),
    ("beamforming, beamfocusing, bessel", "caustic"),
    ("beamfocusing, bessel, caustic", "beamforming"),
])
def test_blockage_needs_one_wavefront_per_role(names, missing):
    text = preset_text("fig4-ci").replace(
        "names = beamforming, beamfocusing, bessel, caustic", f"names = {names}")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key_path == "wavefronts.names"
    assert f"one {missing} wavefront" in str(err.value)


def _without(text, *lines):
    """Scenario text without the given lines, or sections (a line ending in "]")."""
    for line in lines:
        pattern = re.escape(line) + (r"\n.*?\n\n" if line.endswith("]") else r"\n")
        text, count = re.subn(pattern, "", text, flags=re.S)
        assert count == 1, line
    return text


def test_blockage_without_knife_edge_needs_no_caustic():
    text = _without(preset_text("fig4-ci").replace(
        "names = beamforming, beamfocusing, bessel, caustic", "names = bessel"),
        "[wavefront.beamforming]", "[wavefront.beamfocusing]", "[wavefront.caustic]",
        "knife_x_edge_m = -0.0353", "knife_z_m = 0.25", "caustic_eval_z_m = 0.375")
    assert list(parse_config(text).wavefronts) == ["bessel"]


def test_oam_crosstalk_run_schema(tmp_path):
    text = """\
[scenario]
study = oam_crosstalk
name = xtalk

[grid]
side_length_m = 0.008
frequency_hz = 1e12

[oam]
modes = 0, 1, 2
z_m = 0.05
steer_deg_list = 0, 1.0
"""
    run_scenario(parse_config(text), tmp_path)
    lines = (tmp_path / "crosstalk.csv").read_text().splitlines()
    assert lines[0] == "tx_mode,rx_mode,coupling_db"
    assert len(lines) - 1 == 9
    # diagonal entries are exactly 0 dB
    for row in lines[1:]:
        tx, rx, db = row.split(",")
        if tx == rx:
            assert float(db) == 0.0
    spill = (tmp_path / "spillover.csv").read_text().splitlines()
    assert spill[0] == "steer_deg,spillover_db"
    assert (tmp_path / "crosstalk_steer_1deg.csv").exists()


def test_oam_crosstalk_builds_one_kernel_across_steering(tmp_path, monkeypatch):
    text = """\
[scenario]
study = oam_crosstalk
name = steer

[grid]
side_length_m = 0.05
frequency_hz = 1e12
pitch_fraction = 0.5

[oam]
modes = -3, -1, 0, 2, 4
z_m = 0.2
steer_deg_list = {steer}
"""
    builds = _count_builds(monkeypatch)
    run_scenario(parse_config(text.format(steer="0, 0.5, 1.0")), tmp_path / "all")
    # 15 hops over one distance
    assert builds == {"kernel": 1, "transfer": 0}
    run_scenario(parse_config(text.format(steer="1.0")), tmp_path / "one")
    name = "crosstalk_steer_1deg.csv"
    assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_oam_crosstalk_makes_one_hop_per_receive_mode(tmp_path, monkeypatch):
    # the benchmark-shaped study: 5 modes at 3 steering angles share 5 adjoint planes
    hops = []

    def counted(*args):
        hops.append(args)
        return propagation.propagate_asm(*args)

    monkeypatch.setattr(oam, "propagate_asm", counted)
    builds = _count_builds(monkeypatch)
    text = """\
[scenario]
study = oam_crosstalk
name = hops

[grid]
side_length_m = 0.05
frequency_hz = 1e12

[oam]
modes = -4, -1, 0, 2, 3
z_m = 0.2
steer_deg_list = 0, 0.5, 1.0
"""
    run_scenario(parse_config(text), tmp_path)
    assert len(hops) == 5
    assert builds == {"kernel": 1, "transfer": 0}


def test_rerun_is_byte_identical(tmp_path, fig4_ci_run):
    out_a, m_a = fig4_ci_run
    out_b = tmp_path / "b"
    m_b = run_scenario(preset("fig4-ci"), out_b)
    assert m_a.checksums() == m_b.checksums()
    for artifact in m_a.artifacts:
        assert (out_a / artifact["path"]).read_bytes() == (out_b / artifact["path"]).read_bytes()


def test_manifest_checksums_match_files(tmp_path):
    import hashlib

    manifest = run_scenario(preset("fig5"), tmp_path)
    for artifact in manifest.artifacts:
        data = (tmp_path / artifact["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == artifact["sha256"]
        assert len(data) == artifact["bytes"]
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["config_digest"] == preset("fig5").digest


# ---------------------------------------------------------------------------
# artifact formats


def test_number_formatting_nine_digits():
    assert format_number(7.8125e9) == "7.8125e+09"
    assert format_number(0.5) == "0.5"
    assert format_number(1.0 / 3.0) == "0.333333333"


def test_pgm16_layout(tmp_path):
    levels = np.arange(6, dtype=np.uint16).reshape(2, 3) * 1000
    path = tmp_path / "img.pgm"
    write_pgm16(path, levels)
    data = path.read_bytes()
    assert data.startswith(b"P5\n3 2\n65535\n")
    assert data[len(b"P5\n3 2\n65535\n"):] == levels.astype(">u2").tobytes()


def test_png16_deterministic_and_parsable(tmp_path):
    levels = (np.outer(np.arange(8), np.arange(8)) * 1000).astype(np.uint16)
    p1, p2 = tmp_path / "a.png", tmp_path / "b.png"
    write_png16(p1, levels)
    write_png16(p2, levels)
    d1 = p1.read_bytes()
    assert d1 == p2.read_bytes()
    assert d1.startswith(b"\x89PNG\r\n\x1a\n")
    assert b"IHDR" in d1 and b"IDAT" in d1 and d1.endswith(b"IEND\xaeB`\x82")


def test_phase_levels_span_and_wrap():
    phase = PhaseMap(np.array([[0.0, math.pi], [3 * math.pi / 2, 2 * math.pi - 1e-9]]))
    levels = phase_to_levels(phase)
    assert levels[0, 0] == 0
    assert levels[0, 1] == pytest.approx(32768, abs=1)
    assert levels[1, 1] == 65535


def test_intensity_levels_db_floor():
    samples = np.array([[1.0, 1e-2], [1e-4, 0.0]])
    slice_ = FieldSlice(1.0, samples, 1e-3)  # intensities 1, 1e-4, 1e-8, 0
    levels = intensity_to_levels(slice_.intensity(), scale="db", db_floor=-60.0)
    assert levels[0, 0] == 65535
    assert levels[0, 1] == pytest.approx(round((1 - 40 / 60) * 65535), abs=1)
    assert levels[1, 0] == 0  # at the floor
    assert levels[1, 1] == 0


# ---------------------------------------------------------------------------
# CLI


def test_cli_capacity_roundtrip(tmp_path):
    code = cli_main([
        "capacity", "--rate", "1e12", "--modes", "1,32", "--qam", "16,1024",
        "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "bandwidth.csv").read_text().splitlines()
    assert "32,16,7.8125e+09" in lines


def test_cli_synthesize_and_propagate(tmp_path):
    code = cli_main([
        "synthesize", "--side-length", "0.02", "--frequency", "3e11",
        "--kind", "bessel", "--spot-fwhm", "0.004",
        "--format", "csv", "--format", "pgm", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "phase_bessel.csv").exists()
    assert (tmp_path / "phase_bessel.pgm").exists()
    code = cli_main([
        "propagate", "--side-length", "0.02", "--frequency", "3e11",
        "--kind", "beamforming", "--z", "0.1", "--format", "png",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "slice_beamforming_z0.1.png").exists()


SYNTHESIZE = ["synthesize", "--side-length", "0.02", "--frequency", "3e11",
              "--kind", "bessel", "--spot-fwhm", "0.004"]


def test_cli_synthesize_writes_the_applied_phase(tmp_path):
    from thzbeam import WavefrontSpec, make_grid, synthesize_applied_phase
    from thzbeam.io import phase_map_csv

    def phase_csv(tag, *flags):
        assert cli_main([*SYNTHESIZE, *flags, "--out", str(tmp_path / tag)]) == 0
        return (tmp_path / tag / "phase_bessel.csv").read_bytes()

    # without overlays: the base map, as before
    base = tmp_path / "base.csv"
    phase_map_csv(base, synthesize_applied_phase(make_grid(0.02, 3e11),
                                                 WavefrontSpec(kind="bessel", spot_fwhm=0.004)))
    plain = phase_csv("plain")
    assert plain == base.read_bytes()
    one_bit = phase_csv("bits", "--bits", "1")
    assert one_bit != plain
    values = {v for line in one_bit.decode().splitlines() for v in line.split(",")}
    assert len(values) <= 2
    assert phase_csv("oam", "--oam-l", "2") != plain


def test_cli_csv_only_calls_map_no_levels(tmp_path, monkeypatch):
    import thzbeam.io

    def refuse(*args, **kwargs):
        raise AssertionError("levels mapped for a CSV-only call")

    monkeypatch.setattr(thzbeam.io, "phase_to_levels", refuse)
    monkeypatch.setattr(thzbeam.io, "intensity_to_levels", refuse)
    assert cli_main([*SYNTHESIZE, "--out", str(tmp_path)]) == 0
    assert cli_main(["propagate", "--side-length", "0.02", "--frequency", "3e11",
                     "--kind", "beamforming", "--z", "0.1", "--format", "csv",
                     "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "phase_bessel.csv",
                                                         "scenario.ini",
                                                         "slice_beamforming_z0.1.csv"]
    blockage = tmp_path / "blockage"
    assert cli_main(["blockage", *STUDY_VERBS["blockage"], "--format", "csv",
                     "--out", str(blockage)]) == 0
    assert sorted(p.name for p in blockage.iterdir()) == ["healing.csv", "manifest.json",
                                                          "scenario.ini"]


# --bits out of [1, 16] is a config error before any output directory exists
BAD_BITS_INPUTS = [(verb, bits) for verb in ("synthesize", "propagate") for bits in ("0", "17")]


@pytest.mark.parametrize("verb,bits", BAD_BITS_INPUTS,
                         ids=[f"{v}--bits={b}" for v, b in BAD_BITS_INPUTS])
def test_cli_wavefront_verbs_reject_bad_bits(tmp_path, capsys, verb, bits):
    out = tmp_path / "out"
    argv = [verb, "--side-length", "0.02", "--frequency", "3e11", "--kind", "beamforming",
            "--bits", bits, "--out", str(out)] + (["--z", "0.1"] if verb == "propagate" else [])
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "wavefront.beamforming.phase_bits: " in err
    assert "Traceback" not in err
    assert not out.exists()


# every other bad flag value of the wavefront verbs: (verb, flags, the start of the error: the
# key path of the rendered phase_map or plane scenario)
BAD_WAVEFRONT_FLAGS = [
    ("propagate", ["--z", "nan"], "plane.z_m:"),
    ("propagate", ["--z", "inf"], "plane.z_m:"),
    ("propagate", ["--z", "-1"], "plane.z_m:"),
    ("propagate", ["--pad", "0.5"], "plane.pad_factor:"),
    ("propagate", ["--db-floor", "1"], "output.db_floor:"),
    ("propagate", ["--pitch-fraction", "2"], "grid.pitch_fraction:"),
    ("propagate", ["--side-length", "nan"], "grid.side_length_m:"),
    ("propagate", ["--side-length", "0.0001"],  # below one pitch: two keys, so the section
     "grid: side_length 0.0001 m is less than one element pitch (0.000499654 m)"),
    ("propagate", ["--steer-deg", "inf"], "wavefront.beamforming.steer_deg:"),
    ("propagate", ["--kind", "beamfocusing"], "wavefront.beamfocusing.focal_length_m:"),
    ("propagate", ["--kind", "beamfocusing", "--focal-length", "-1"],
     "wavefront.beamfocusing.focal_length_m:"),
    ("synthesize", ["--frequency", "nan"], "grid.frequency_hz:"),
    ("synthesize", ["--pitch-fraction", "0"], "grid.pitch_fraction:"),
    ("synthesize", ["--kind", "bessel"], "wavefront.bessel.spot_fwhm_m:"),
    ("synthesize", ["--kind", "bessel", "--spot-fwhm", "nan"], "wavefront.bessel.spot_fwhm_m:"),
    ("synthesize", ["--kind", "caustic", "--curve-a", "2"], "wavefront.caustic.curve_z_end_m:"),
    ("synthesize", ["--kind", "caustic"], "wavefront.caustic.curve_a: a caustic wavefront "
     "needs this key and wavefront.caustic.curve_z_end_m"),
    ("synthesize", ["--kind", "caustic", "--curve-a", "2", "--curve-z-end", "0"],
     "wavefront.caustic.curve_z_end_m:"),
    ("synthesize", ["--kind", "caustic", "--curve-a", "0", "--curve-z-end", "1"],
     "wavefront.caustic.curve_a: curvature a must be nonzero"),
    # from x_start 0 the curve bends to +x, and its tangents reach the aperture at x <= 0 only
    ("synthesize", ["--kind", "caustic", "--curve-a", "2", "--curve-z-end", "1"],
     "wavefront.caustic.curve_a: aperture abscissa not reached"),
    # the same with a range whose square leaves the float range
    ("synthesize", ["--kind", "caustic", "--curve-a", "2", "--curve-z-end", "1e200"],
     "wavefront.caustic.curve_a: aperture abscissa not reached"),
    # a flag that only another kind reads
    ("propagate", ["--curve-x-start", "0.3"], "wavefront.beamforming.curve_x_start_m:"),
    ("synthesize", ["--spot-convention", "first_null"], "wavefront.beamforming.spot_convention:"),
    ("propagate", ["--kind", "beamfocusing", "--focal-length", "1", "--spot-fwhm", "0.004"],
     "wavefront.beamfocusing.spot_fwhm_m:"),
    ("synthesize", ["--kind", "bessel", "--spot-fwhm", "0.004", "--focal-length", "1"],
     "wavefront.bessel.focal_length_m:"),
    ("synthesize", ["--kind", "caustic", "--curve-a", "2", "--curve-z-end", "1",
                    "--spot-convention", "fwhm"], "wavefront.caustic.spot_convention:"),
]


@pytest.mark.parametrize("verb,flags,named", BAD_WAVEFRONT_FLAGS,
                         ids=[f"{v}{' '.join(f)}" for v, f, _ in BAD_WAVEFRONT_FLAGS])
def test_cli_wavefront_verbs_reject_bad_flags(tmp_path, capsys, verb, flags, named):
    out = tmp_path / "out"
    argv = [verb, "--side-length", "0.02", "--frequency", "3e11", "--kind", "beamforming",
            "--out", str(out)] + (["--z", "0.1"] if verb == "propagate" else [])
    for flag, value in zip(flags[::2], flags[1::2]):
        argv = _with_flag(argv, flag, value)
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {named}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_preset_and_run(tmp_path):
    out = tmp_path / "fig5"
    assert cli_main(["preset", "fig5", "--out", str(out)]) == 0
    assert (out / "bandwidth.csv").exists()
    assert (out / "scenario.ini").read_text() == preset_text("fig5")
    rerun = tmp_path / "rerun"
    assert cli_main(["run", str(out / "scenario.ini"), "--out", str(rerun)]) == 0
    first, again = (json.loads((d / "manifest.json").read_text()) for d in (out, rerun))
    assert again["artifacts"] == first["artifacts"]
    assert again["config_digest"] == first["config_digest"]


def test_cli_gain_curve_small(tmp_path):
    code = cli_main([
        "gain-curve", "--side-length", "0.02", "--frequency", "3e11",
        "--spot-fwhm", "0.004", "--z-start", "0.02", "--z-stop", "0.1",
        "--z-step", "0.02", "--out", str(tmp_path),
    ])
    assert code == 0
    header = (tmp_path / "gain_curve.csv").read_text().splitlines()[0]
    assert header == "z_m,beamforming,beamfocusing,bessel"


def test_cli_oam_crosstalk(tmp_path):
    code = cli_main([
        "oam-crosstalk", "--side-length", "0.008", "--frequency", "1e12",
        "--modes", "0,1", "--z", "0.05", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "crosstalk.csv").exists()


def test_cli_exit_codes(tmp_path):
    # config error: QAM order is not a power of two
    assert cli_main(["capacity", "--rate", "1e12", "--modes", "1", "--qam", "3",
                     "--out", str(tmp_path)]) == 2
    # numeric error: a Bessel spot below the 1 mm wavelength is evanescent
    assert cli_main(["gain-curve", "--side-length", "0.02", "--frequency", "3e11",
                     "--spot-fwhm", "0.0005", "--z-start", "0.02", "--z-stop", "0.1",
                     "--z-step", "0.02", "--out", str(tmp_path)]) == 3
    # config error: malformed scenario file
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nstudy = nonsense\n")
    assert cli_main(["run", str(bad)]) == 2
    # io error: output directory path already taken by a file
    blocker = tmp_path / "blocked"
    blocker.write_text("x")
    assert cli_main(["capacity", "--rate", "1e12", "--modes", "1", "--qam", "4",
                     "--out", str(blocker)]) == 4


def test_failed_run_leaves_no_directory_it_made(tmp_path, monkeypatch):
    # a Bessel spot below the 1 mm wavelength fails in the synthesis, before any artifact
    out = tmp_path / "d"
    assert cli_main([*SYNTHESIZE[:-1], "0.0005", "--out", str(out)]) == 3
    assert not out.exists()
    # an obstacle hop that fails after the first map was written
    written = []

    def refuse(*args, **kwargs):
        if not written:
            written.extend(path.name for path in (tmp_path / "new" / "out").iterdir())
        raise GeometryError("obstacle refused")

    monkeypatch.setattr(scenarios, "propagate_with_obstacles", refuse)
    config = tmp_path / "fig4-ci.ini"
    config.write_text(preset_text("fig4-ci"))
    assert cli_main(["run", str(config), "--out", str(tmp_path / "new" / "out")]) == 3
    assert written == ["map_beamforming_reference.pgm"]
    assert not (tmp_path / "new").exists()  # the parent this run made goes too
    # an --out that existed keeps what it held
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("prior")
    assert cli_main(["run", str(config), "--out", str(kept)]) == 3
    assert (kept / "notes.txt").read_text() == "prior"


@pytest.mark.parametrize("key, value", [("obstacle_size_m", "0.5"), ("obstacle_size_m", "3"),
                                        ("knife_x_edge_m", "-0.5"), ("knife_x_edge_m", "0.2")])
def test_an_obstacle_beyond_the_padded_plane_exits_at_parse(tmp_path, capsys, key, value):
    """fig4-ci pads to 840 samples of 0.15 mm, +-0.063 m: a disc wider than that plane, or a
    knife edge beyond it, which would block all of it or none, is refused before any hop."""
    text = preset_text("fig4-ci")
    config = tmp_path / "fig4-ci.ini"
    config.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M))
    assert cli_main(["run", str(config), "--out", str(tmp_path / "new" / "out")]) == 2
    err = capsys.readouterr().err
    assert f"blockage.{key}:" in err and "Traceback" not in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("curve_a", ["0.5", "0"], ids=["curving-away", "straight"])
def test_caustic_curve_no_tangent_reaches_exits_at_parse(tmp_path, capsys, curve_a):
    # a = 0.5 bends the curve away from the aperture's far edge, and a = 0 is a line
    config = tmp_path / "fig4-ci.ini"
    config.write_text(preset_text("fig4-ci").replace("curve_a = -0.14", f"curve_a = {curve_a}"))
    assert cli_main(["run", str(config), "--out", str(tmp_path / "new" / "out")]) == 2
    err = capsys.readouterr().err
    assert "wavefront.caustic.curve_a:" in err and "Traceback" not in err
    assert not (tmp_path / "new").exists()


CAUSTIC = ["synthesize", "--side-length", "0.02", "--frequency", "3e11", "--kind", "caustic",
           "--format", "csv"]


@pytest.mark.parametrize("curve, code", [
    (["--curve-a=-1e308", "--curve-x-start=-1", "--curve-z-end=1"], 0),
    (["--curve-a=-1e-308", "--curve-x-start=-0.01", "--curve-z-end=1e200"], 0),
    (["--curve-a=-1e308", "--curve-x-start=-1e308", "--curve-z-end=1e300"], 2),
], ids=["steep", "shallow", "phase-beyond-floats"])
def test_extreme_caustic_curves_give_finite_phases_or_exit_at_parse(tmp_path, capsys, curve,
                                                                     code):
    """k/(4|a|) and s^2 overflowed on the first two, which ended with non-finite phases;
    the third's phase, k times a distance near 1e308 m, leaves the float range."""
    out = tmp_path / "out"
    with np.errstate(divide="raise", over="raise", invalid="raise"):  # underflow is benign
        assert cli_main([*CAUSTIC, *curve, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    if code:
        assert "wavefront.caustic.curve_a: the caustic phase leaves the float range" in err
        assert not out.exists()
    else:
        phase = np.loadtxt(out / "phase_caustic.csv", delimiter=",")
        assert phase.shape == (40, 40) and np.all(np.isfinite(phase))


@pytest.mark.parametrize("names", ["beamforming, bessel", "beamforming, bessel, beamfocusing, wide"],
                         ids=["kind-missing", "kind-repeated"])
def test_cli_gain_curve_needs_one_wavefront_per_column(tmp_path, capsys, names):
    config = tmp_path / "gain.ini"
    config.write_text(f"""\
[scenario]
study = gain_curve

[grid]
side_length_m = 0.02
frequency_hz = 3e11

[wavefronts]
names = {names}

[wavefront.beamforming]
kind = beamforming

[wavefront.beamfocusing]
kind = beamfocusing

[wavefront.bessel]
kind = bessel
spot_fwhm_m = 0.004

[wavefront.wide]
kind = bessel
spot_fwhm_m = 0.008

[distances]
start_m = 0.02
stop_m = 0.1
step_m = 0.02
""")
    assert cli_main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "wavefronts.names" in err
    assert "Traceback" not in err


def test_split_ffts_do_not_change_output(tmp_path, split_ffts, fig4_ci_run):
    studies = {
        # healing.csv, caustic_blockage.csv, 8 PGM maps and scenario.ini; the shared
        # fig4-ci run, unsplit, stands for its own
        "blockage": (["preset", "fig4-ci"], 11, fig4_ci_run[0]),
        # crosstalk_steer_1deg.csv, spillover.csv and scenario.ini
        "crosstalk": (["oam-crosstalk", "--side-length", "0.02", "--frequency", "1e12",
                       "--modes=-1,0,1,3", "--z", "0.05", "--steer-deg", "1"], 3, None),
    }
    for study, (argv, artifacts, unsplit) in studies.items():
        runs = {}
        for cpus in (1, 3, 8):
            out = tmp_path / study / str(cpus)
            if cpus == 1 and unsplit is not None:
                out = unsplit
            else:
                split_ffts(cpus)  # 1 CPU: one block per pass, as below the threshold
                assert cli_main([*argv, "--out", str(out)]) == 0
            runs[cpus] = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                          if p.name != "manifest.json"}  # the manifest records timings
        assert len(runs[1]) == artifacts, study
        for cpus in (3, 8):
            assert runs[cpus] == runs[1], (study, cpus)


# small inputs for each study verb, and one bad input per exit code
STUDY_VERBS = {
    "synthesize": SYNTHESIZE[1:],
    "propagate": ["--side-length", "0.02", "--frequency", "3e11", "--kind", "beamforming",
                  "--z", "0.1"],
    "gain-curve": ["--side-length", "0.02", "--frequency", "3e11", "--spot-fwhm", "0.004",
                   "--z-start", "0.02", "--z-stop", "0.1", "--z-step", "0.02"],
    "blockage": ["--side-length", "0.02", "--frequency", "3e11", "--spot-fwhm", "0.004",
                 "--obstacle-size", "0.002", "--obstacle-z", "0.05"],
    "oam-crosstalk": ["--side-length", "0.008", "--frequency", "1e12", "--modes", "0,1",
                      "--z", "0.05"],
    "capacity": ["--rate", "1e12", "--modes", "1,32", "--qam", "16,1024"],
}


def _with_flag(argv, flag, value):
    if flag not in argv:
        return argv + [flag, value]
    out = list(argv)
    out[out.index(flag) + 1] = value
    return out


BAD_STUDY_INPUTS = [
    ("gain-curve", 2, "--z-stop", "0.02"),  # z_stop <= z_start
    ("capacity", 2, "--modes", "-1"),  # a mode count below 1
    ("gain-curve", 3, "--spot-fwhm", "0.0005"),  # spot below the 1 mm wavelength
    ("blockage", 3, "--spot-fwhm", "0.0005"),
    ("oam-crosstalk", 3, "--spot-fwhm", "0.0002"),  # 0.3 mm wavelength
    ("capacity", 2, "--qam", "3"),  # not a power of two
]
BAD_STUDY_IDS = [f"{v}-{c}" for v, c, _, _ in BAD_STUDY_INPUTS]
BAD_STUDY_IDS[-1] += "-qam"  # no capacity input fails on physics: both cases exit 2


@pytest.mark.parametrize("verb,code,flag,value", BAD_STUDY_INPUTS, ids=BAD_STUDY_IDS)
def test_cli_study_verb_error_classes(tmp_path, capsys, verb, code, flag, value):
    argv = _with_flag(STUDY_VERBS[verb], flag, value)
    assert cli_main([verb, *argv, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if verb == "gain-curve" and code == 2:
        assert "distances" in err  # config errors name the scenario key path


@pytest.mark.parametrize("verb", sorted(STUDY_VERBS))
def test_cli_study_verb_out_is_a_file(tmp_path, capsys, verb):
    blocker = tmp_path / "blocked"
    blocker.write_text("x")
    assert cli_main([verb, *STUDY_VERBS[verb], "--out", str(blocker)]) == 4
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("verb", sorted(STUDY_VERBS))
def test_cli_study_verb_writes_manifest(tmp_path, verb):
    import thzbeam

    assert cli_main([verb, *STUDY_VERBS[verb], "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["version"] == thzbeam.__version__
    listed = {a["path"] for a in manifest["artifacts"]}
    assert listed == {p.name for p in tmp_path.iterdir()} - {"manifest.json"}


# each verb's flags and the scenario text it renders, run by ``thzbeam run``, write one set of
# bytes; the wavefront verbs also with every key their flags set
RENDERED_VERBS = {
    **{verb: [verb, *argv] for verb, argv in STUDY_VERBS.items()},
    "synthesize-overlays": ["synthesize", "--side-length", "0.02", "--frequency", "3e11",
                            "--kind", "beamfocusing", "--focal-length", "0.1", "--steer-deg", "5",
                            "--oam-l", "2", "--bits", "3", "--circular", "--format", "csv",
                            "--format", "pgm", "--format", "png"],
    "propagate-linear": ["propagate", *SYNTHESIZE[1:], "--spot-convention", "first_null",
                         "--z", "0.05", "--pad", "3", "--scale", "linear", "--db-floor", "-30",
                         "--format", "csv", "--format", "png", "--format", "png"],  # once
}


@pytest.mark.parametrize("case", sorted(RENDERED_VERBS))
def test_cli_run_of_a_verbs_rendered_text_writes_its_bytes(tmp_path, case):
    from thzbeam.cli import _render_scenario

    argv = [*RENDERED_VERBS[case], "--out", str(tmp_path / "verb")]
    args = build_parser().parse_args(argv)
    (tmp_path / "verb.ini").write_text(_render_scenario(args.scenario(args)))
    assert cli_main(argv) == 0
    assert cli_main(["run", str(tmp_path / "verb.ini"), "--out", str(tmp_path / "run")]) == 0
    runs = {}
    for name in ("verb", "run"):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        runs[name] = manifest["config_digest"], {p.name: p.read_bytes() for p in
                                                 (tmp_path / name).iterdir()
                                                 if p.name != "manifest.json"}
    assert runs["run"] == runs["verb"]
    assert len(runs["verb"][1]) == len(manifest["artifacts"]) >= 1


def test_cli_blockage_matches_scenario_run(tmp_path):
    assert cli_main(["blockage", *STUDY_VERBS["blockage"], "--out", str(tmp_path / "cli")]) == 0
    config = tmp_path / "blockage.ini"
    config.write_text("""\
[scenario]
study = blockage

[grid]
side_length_m = 0.02
frequency_hz = 3e11

[wavefronts]
names = bessel

[wavefront.bessel]
kind = bessel
spot_fwhm_m = 0.004
circular = true

[blockage]
obstacle_size_m = 0.002
obstacle_z_m = 0.05
""")
    assert cli_main(["run", str(config), "--out", str(tmp_path / "ini")]) == 0
    cli_rows = (tmp_path / "cli" / "healing.csv").read_text().splitlines()
    assert cli_rows == (tmp_path / "ini" / "healing.csv").read_text().splitlines()
    _, _, shadow, full = cli_rows[1].split(",")
    assert shadow != full  # the shadow window, not the full plane


def test_cli_blockage_writes_requested_maps(tmp_path):
    assert cli_main(["blockage", *STUDY_VERBS["blockage"], "--format", "pgm",
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "map_bessel_reference.pgm").exists()
    assert (tmp_path / "map_bessel_blocked.pgm").exists()
    assert not list(tmp_path.glob("*.csv"))  # csv is not among the formats


def test_blockage_tables_follow_output_formats(tmp_path, fig4_ci_run):
    maps = {f"map_{name}_{view}.pgm" for name in ("beamforming", "beamfocusing", "bessel")
            for view in ("reference", "blocked")}
    maps |= {"map_caustic_blocked.pgm", "map_beamforming_knife.pgm"}
    both, _ = fig4_ci_run  # formats = csv, pgm
    written = {p.name for p in both.iterdir()}
    assert written == maps | {"healing.csv", "caustic_blockage.csv", "manifest.json",
                              "scenario.ini"}

    pgm_only = preset_text("fig4-ci").replace("formats = csv, pgm", "formats = pgm")
    manifest = run_scenario(parse_config(pgm_only), tmp_path / "pgm")
    assert {a["path"] for a in manifest.artifacts} == maps | {"scenario.ini"}
    for name in maps:
        assert (tmp_path / "pgm" / name).read_bytes() == (both / name).read_bytes()


def test_cli_steered_oam_crosstalk_names_its_file(tmp_path):
    assert cli_main(["oam-crosstalk", *STUDY_VERBS["oam-crosstalk"], "--steer-deg", "1",
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "crosstalk_steer_1deg.csv").exists()
    assert (tmp_path / "spillover.csv").exists()
    assert not (tmp_path / "crosstalk.csv").exists()


GAIN_INI = """\
[scenario]
study = gain_curve

[grid]
side_length_m = 0.02
frequency_hz = 3e11

[wavefronts]
names = beamforming, beamfocusing, bessel

[wavefront.beamforming]
kind = beamforming
circular = true

[wavefront.beamfocusing]
kind = beamfocusing
circular = true

[wavefront.bessel]
kind = bessel
spot_fwhm_m = 0.004
circular = true

[distances]
start_m = 0.02
stop_m = 0.1
step_m = 0.02
"""


def _axial_coherence(field, z):
    """|E|^2 / (sum |w|/r)^2 on the axis at z, with E from ``propagate_direct``."""
    X, Y = field.grid.meshgrid()
    r = np.sqrt(X**2 + Y**2 + z * z)
    numerator = abs(propagate_direct(field, [(0.0, 0.0, z)])[0]) ** 2
    return numerator / np.sum(np.abs(field.weights) / r) ** 2


def _gain_column(run_dir, kind):
    header, *rows = (run_dir / "gain_curve.csv").read_text().splitlines()
    column = header.split(",").index(kind)
    return [row.split(",")[column] for row in rows]


# each [wavefront.*] section's taper and quantization act on its own gain-curve column
@pytest.mark.parametrize("old,new", [
    ("spot_fwhm_m = 0.004\n", "spot_fwhm_m = 0.004\nphase_bits = 2\n"),
    ("spot_fwhm_m = 0.004\ncircular = true", "spot_fwhm_m = 0.004\ncircular = false"),
], ids=["phase_bits", "mixed-circular"])
def test_cli_gain_curve_applies_each_sections_keys(tmp_path, old, new):
    text = GAIN_INI.replace(old, new)
    (tmp_path / "gain.ini").write_text(text)
    (tmp_path / "plain.ini").write_text(GAIN_INI)
    for name in ("gain", "plain"):
        assert cli_main(["run", str(tmp_path / f"{name}.ini"), "--out", str(tmp_path / name)]) == 0
    assert _gain_column(tmp_path / "gain", "bessel") != _gain_column(tmp_path / "plain", "bessel")

    # the CSV holds the library's curve, and the curve is the oracle's coherence
    config = parse_config(text)
    specs = {spec.kind: spec for spec in config.wavefronts.values()}
    curve = gain_curve(config.grid, list(specs.values()), config.distances)
    for kind in GAIN_CURVE_KINDS:
        assert _gain_column(tmp_path / "gain", kind) == list(map(format_number, curve.gain[kind]))
    specs["beamfocusing"] = replace(specs["beamfocusing"], focal_length=curve.focal_length)
    fields_ = {kind: synthesize_field(config.grid, spec) for kind, spec in specs.items()}
    peak = _axial_coherence(fields_["bessel"], curve.bessel_peak_distance)
    for i in np.random.default_rng(3).choice(len(config.distances), size=3, replace=False):
        for kind in GAIN_CURVE_KINDS:
            exact = _axial_coherence(fields_[kind], config.distances[i])
            exact /= peak if kind == "bessel" else 1.0
            assert curve.gain[kind][i] == pytest.approx(exact, rel=1e-10), kind


def test_gain_curve_columns_are_named_by_section_in_role_order(tmp_path):
    """Each column is named after the section that fills its role, in the order of
    ``GAIN_CURVE_KINDS`` whatever the order of wavefronts.names."""
    lens = (GAIN_INI.replace("names = beamforming, beamfocusing, bessel",
                             "names = bessel, lens, beamforming")
            .replace("[wavefront.beamfocusing]", "[wavefront.lens]"))
    (tmp_path / "lens.ini").write_text(lens)
    (tmp_path / "plain.ini").write_text(GAIN_INI)
    for name in ("lens", "plain"):
        assert cli_main(["run", str(tmp_path / f"{name}.ini"), "--out", str(tmp_path / name)]) == 0
    header = (tmp_path / "lens" / "gain_curve.csv").read_text().splitlines()[0]
    assert header == "z_m,beamforming,lens,bessel"
    assert _gain_column(tmp_path / "lens", "lens") == _gain_column(tmp_path / "plain",
                                                                   "beamfocusing")


# a spiral overlay nulls the axis, the only place a gain curve looks
@pytest.mark.parametrize("old,new,key_path", [
    ("[wavefront.bessel]\n", "[wavefront.bessel]\noam_mode = 2\n", "wavefront.bessel.oam_mode"),
], ids=["oam_mode"])
def test_cli_gain_curve_rejects_keys_that_do_nothing(tmp_path, capsys, old, new, key_path):
    config = tmp_path / "gain.ini"
    config.write_text(GAIN_INI.replace(old, new))
    assert cli_main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert key_path in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# a missing kind and a spiral: the parse refuses each at its key path with gain_curve's text
@pytest.mark.parametrize("old,new,key_path,specs_of", [
    ("names = beamforming, beamfocusing, bessel", "names = beamforming, bessel",
     "wavefronts.names", lambda specs: specs[0::2]),
    ("[wavefront.bessel]\n", "[wavefront.bessel]\noam_mode = 2\n", "wavefront.bessel.oam_mode",
     lambda specs: specs[:2] + [replace(specs[2], oam_mode=2)]),
], ids=["missing-kind", "oam_mode"])
def test_gain_curve_parse_errors_carry_the_library_text(old, new, key_path, specs_of):
    config = parse_config(GAIN_INI)
    with pytest.raises(ValueError) as library:
        gain_curve(config.grid, specs_of(list(config.wavefronts.values())), config.distances)
    with pytest.raises(ConfigError) as parsed:
        parse_config(GAIN_INI.replace(old, new))
    assert parsed.value.key_path == key_path
    assert str(parsed.value) == f"{key_path}: {library.value}"


# a wavefront name is part of file names: a path separator or NUL in it is refused
@pytest.mark.parametrize("name", ["x/../../escape", "sub/x", "sub\\x", "a\0b"],
                         ids=["parent-escape", "subdirectory", "backslash", "nul"])
def test_cli_run_rejects_wavefront_names_that_are_no_file_name_part(tmp_path, capsys, name):
    config = tmp_path / "scenario.ini"
    config.write_text(WAVEFRONT_INI["phase_map"].replace("focus", name))
    out = tmp_path / "nest" / "out"
    (out / "phase_x").mkdir(parents=True)  # where x/../../escape would climb out of out
    assert cli_main(["run", str(config), "--out", str(out / "run")]) == 2
    err = capsys.readouterr().err
    assert "wavefronts.names:" in err
    assert "Traceback" not in err
    assert not (out / "run").exists()
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "nest", "nest/out", "nest/out/phase_x", "scenario.ini"]


def test_cli_rejects_scenario_seed(tmp_path, capsys):
    config = tmp_path / "seeded.ini"
    config.write_text(MINIMAL_FIG5.replace("name = tiny\n", "name = tiny\nseed = 0\n"))
    assert cli_main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "unknown key" in err and "scenario.seed" in err
    assert "Traceback" not in err


def _verb_parsers():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _verb_parser(verb):
    return _verb_parsers()[verb]


# --db-floor only on the verbs that map intensity to gray levels
FLAG_VERBS = {"--db-floor": {"propagate", "blockage"}}


@pytest.mark.parametrize("flag", sorted(FLAG_VERBS))
def test_cli_offers_each_flag_only_where_it_acts(flag):
    offered = {verb for verb, p in _verb_parsers().items() if flag in p._option_string_actions}
    assert offered == FLAG_VERBS[flag]


# (verb, key) -> (study, section): each "(default <value>)" a help string states, under the
# flag whose dest is the key
VERB_STUDIES = {"synthesize": "phase_map", "propagate": "plane", "gain-curve": "gain_curve",
                "blockage": "blockage", "oam-crosstalk": "oam_crosstalk"}
HELP_DEFAULTS = {
    **{(verb, "pitch_fraction"): (study, "grid") for verb, study in VERB_STUDIES.items()},
    **{(verb, key): (VERB_STUDIES[verb], "wavefront.*")
       for verb in ("synthesize", "propagate") for key in ("spot_convention", "curve_x_start_m")},
    **{(verb, "formats"): (VERB_STUDIES[verb], "output")
       for verb in ("synthesize", "propagate", "blockage")},
    ("propagate", "pad_factor"): ("plane", "plane"),
    ("blockage", "pad_factor"): ("blockage", "blockage"),
    ("propagate", "scale"): ("plane", "output"),
    **{(verb, "db_floor"): (VERB_STUDIES[verb], "output") for verb in ("propagate", "blockage")},
}


def test_cli_help_states_each_default_as_the_schema_has_it():
    """A "(default ...)" in --help reads the section default it names, so a moved default
    cannot leave a stale copy in the help text; "(default: ...)" prose names no value."""
    stated = {(verb, action.dest): value
              for verb, p in _verb_parsers().items() for action in p._actions
              for value in re.findall(r"\(default ([^)]*)\)", action.help or "")}
    assert set(stated) == set(HELP_DEFAULTS)
    for (verb, key), (study, section) in HELP_DEFAULTS.items():
        default = {f.name: f.default for f in fields(_STUDY_SECTIONS[study][section])}[key]
        text = ", ".join(default) if isinstance(default, tuple) else str(default)
        assert stated[verb, key] == text, (verb, key)


# the flags of the study verbs that set no key of their study's sections
KEYLESS_FLAGS = {"-h", "--out", "--taper"}


@pytest.mark.parametrize("verb", sorted(STUDY_VERBS))
def test_cli_flag_dests_are_the_keys_they_set(verb):
    """Each flag's dest names the key it sets, so the rendered sections read the flags by
    name; gain-curve's --taper chooses a key's value for three sections, and sets none."""
    study = {**VERB_STUDIES, "capacity": "oam_bandwidth"}[verb]
    keys = {f.name for section in _STUDY_SECTIONS[study].values() for f in fields(section)
            if f.init}
    assert {a.option_strings[0] for a in _verb_parser(verb)._actions
            if a.dest not in keys} <= KEYLESS_FLAGS


# every float flag of every study verb, with 0, -1, nan and inf in turn
FLOAT_FLAG_CASES = [(verb, action.option_strings[0], value)
                    for verb in STUDY_VERBS for action in _verb_parser(verb)._actions
                    if action.type is float for value in ("0", "-1", "nan", "inf")]
VALID_FLAG_VALUES = {("blockage", "--db-floor", "-1"), ("propagate", "--db-floor", "-1"),
                     *((verb, "--steer-deg", value) for verb in ("synthesize", "propagate",
                                                                 "oam-crosstalk")
                       for value in ("0", "-1"))}


def _run_verb(tmp_path, capsys, verb, *extra):
    out = tmp_path / "out"
    code = cli_main([verb, *_with_flag(STUDY_VERBS[verb], *extra), "--out", str(out)])
    return code, capsys.readouterr().err, out


@pytest.mark.parametrize("verb,flag,value", FLOAT_FLAG_CASES,
                         ids=[f"{v}{f}={x}" for v, f, x in FLOAT_FLAG_CASES])
def test_cli_float_flags_reject_bad_values(tmp_path, capsys, verb, flag, value):
    code, err, out = _run_verb(tmp_path, capsys, verb, flag, value)
    if (verb, flag, value) in VALID_FLAG_VALUES:
        assert code == 0
        return
    assert code in (2, 3), err
    assert "Traceback" not in err
    if code == 2:
        assert not out.exists()


# values whose square, or twice whose product, leaves the float range: (key path, value, exit
# code, what the message says)
OVERFLOW_CASES = [
    ("plane.z_m", "1e200", 3, "cannot carry the field to z = 1e+200 m"),
    ("plane.z_m", "1e308", 3, "cannot carry the field to z = 1e+308 m"),
    ("blockage.obstacle_z_m", "1e200", 3, "cannot carry the field to z = 1e+200 m"),
    ("blockage.obstacle_z_m", "1e308", 3, "cannot carry the field to z = 1e+308 m"),
    ("blockage.caustic_eval_z_m", "1e200", 3, "cannot carry the field to z = 1e+200 m"),
    ("blockage.caustic_eval_z_m", "1e308", 3, "cannot carry the field to z = 1e+308 m"),
    ("blockage.shadow_window_factor", "1e308", 2,
     "blockage.shadow_window_factor: the shadow window radius"),
    ("wavefront.beamfocusing.focal_length_m", "1e308", 3, "focal_length 1e+308 m is too large"),
]


@pytest.mark.parametrize("key_path,value,code,message", OVERFLOW_CASES,
                         ids=[f"{k}={v}" for k, v, _, _ in OVERFLOW_CASES])
def test_values_beyond_the_float_range_exit_with_a_message(tmp_path, capsys, key_path, value,
                                                           code, message):
    section, key = key_path.rsplit(".", 1)
    if section == "plane":
        argv = ["propagate", *STUDY_VERBS["propagate"][:-2], "--z", value]
    elif section == "blockage":
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", _fig4_ci_text(), flags=re.M)
        (tmp_path / "scenario.ini").write_text(text)
        argv = ["run", str(tmp_path / "scenario.ini")]
    else:
        argv = ["propagate", *STUDY_VERBS["propagate"], "--focal-length", value]
        argv[argv.index("beamforming")] = "beamfocusing"
    assert cli_main([*argv, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


def _tiny_distance_argv(verb, z):
    grid = ["--side-length", "0.02", "--frequency", "3e11"]
    return {
        "propagate": ["propagate", *grid, "--kind", "beamforming", "--z", z,
                      "--format", "csv", "--format", "png"],
        "oam-crosstalk": ["oam-crosstalk", *grid, "--modes", "0,1,2", "--z", z],
        "blockage": ["blockage", *grid, "--spot-fwhm", "0.004", "--obstacle-size", "0.002",
                     "--obstacle-z", z],
        # 21 elements a side: one sits on the axis
        "gain-curve": ["gain-curve", "--side-length", "0.0105", "--frequency", "3e11",
                       "--spot-fwhm", "0.004", "--z-start", z, "--z-stop", f"3{z[1:]}",
                       "--z-step", z],
    }[verb]


@pytest.mark.parametrize("z", ["1e-170", "1e-158"])
@pytest.mark.parametrize("verb", ["propagate", "oam-crosstalk", "blockage", "gain-curve"])
def test_distances_whose_square_underflows_exit_with_a_message(tmp_path, capsys, verb, z):
    # the kernel at offset 0, and the on-axis sum's centre element, sit at r = z: below
    # about 1.5e-154 m, r^2 is no normal float and 1/r^2 overflows to NaN and inf
    out = tmp_path / "out"
    assert cli_main([*_tiny_distance_argv(verb, z), "--out", str(out)]) in (2, 3)
    err = capsys.readouterr().err
    assert "Traceback" not in err and "underflows" in err
    assert not out.exists()


def test_a_distance_whose_square_is_normal_runs(tmp_path):
    out = tmp_path / "out"
    assert cli_main([*_tiny_distance_argv("propagate", "1e-150"), "--out", str(out)]) == 0
    rows = (out / "slice_beamforming_z1e-150.csv").read_text().splitlines()[1:]
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.all(np.isfinite(values))


def test_a_distance_whose_square_overflows_exits_2_at_stop_m(tmp_path, capsys):
    # the element sums take each distance squared: 1e200 squares beyond the float range
    out = tmp_path / "out"
    argv = ["gain-curve", "--side-length", "0.02", "--frequency", "3e11", "--spot-fwhm",
            "0.004", "--z-start", "1e199", "--z-stop", "1e200", "--z-step", "1e199"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and squares it without a RuntimeWarning
        assert cli_main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: distances.stop_m: ") and "Traceback" not in err
    assert not out.exists()
    # the square of 1e154 is a finite float
    text = GAIN_INI.replace("start_m = 0.02\nstop_m = 0.1\nstep_m = 0.02",
                            "start_m = 1e153\nstop_m = 1e154\nstep_m = 1e153")
    assert parse_config(text).distances[-1] == 1e154


def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_bytes(b"[scenario]\nstudy = oam_bandwidth\nname = \xff\n")
    out = tmp_path / "out"
    assert cli_main(["run", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "not UTF-8" in err
    assert not out.exists()


@pytest.mark.parametrize("key_path", ["grid.side_length_m", "distances.stop_m"])
def test_counts_beyond_the_float_range_exit_2_at_their_key(tmp_path, capsys, key_path):
    # an element count or a distance count of inf: no integer to size the study with
    key = key_path.rsplit(".", 1)[1]
    text = re.sub(rf"^{key} = .*$", f"{key} = 1e308", preset_text("fig3-ci"), flags=re.M)
    (tmp_path / "scenario.ini").write_text(text)
    out = tmp_path / "out"
    assert cli_main(["run", str(tmp_path / "scenario.ini"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"config error: {key_path}: invalid value '1e+308'" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, key_path", [
    ("step_m", "1e-12", "distances.step_m"),  # 6.5e11 distances
    ("pitch_fraction", "1e-12", "grid.pitch_fraction"),  # 5e13 elements per side
    ("pitch_fraction", "1e-4", "grid.pitch_fraction"),  # 5e5 elements per side
    ("side_length_m", "1e200", "grid.side_length_m"),  # too many even at half-wavelength pitch
])
def test_studies_too_large_to_size_exit_2_at_their_key(tmp_path, capsys, key, value, key_path):
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", preset_text("fig3-ci"), flags=re.M)
    (tmp_path / "scenario.ini").write_text(text)
    out = tmp_path / "out"
    assert cli_main(["run", str(tmp_path / "scenario.ini"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"config error: {key_path}: " in err and "a study may have" in err
    assert not out.exists()


# 0.5 m at 1 THz has 3335 elements per side: under MAX_ELEMENTS_PER_SIDE, but at pad factor
# 2 its planes would pad to 6875 a side
PADDED_SIDE_CASES = {
    "propagate": (["propagate", "--side-length", "0.5", "--frequency", "1e12", "--kind",
                   "beamforming", "--z", "1"], "plane.pad_factor", "3335", "6875"),
    "blockage": (["blockage", "--side-length", "0.5", "--frequency", "1e12", "--spot-fwhm",
                  "0.004", "--obstacle-size", "0.01", "--obstacle-z", "0.5"],
                 "blockage.pad_factor", "3335", "6875"),
    # the crosstalk hops take the default pad factor: the side is at fault
    "oam-crosstalk": (["oam-crosstalk", "--side-length", "0.5", "--frequency", "1e12",
                       "--modes", "0,1", "--z", "0.5"], "grid.side_length_m", "3335", "6875"),
    # 4095 is not 11-smooth: even pad factor 1 pads it past the bound
    "propagate-pad-1": (["propagate", "--side-length", "0.6139", "--frequency", "1e12", "--kind",
                         "beamforming", "--z", "1", "--pad", "1"], "grid.side_length_m", "4095",
                        "4125"),
}


@pytest.mark.parametrize("case", PADDED_SIDE_CASES)
def test_planes_padded_beyond_the_bound_exit_2_at_their_key(tmp_path, capsys, case):
    argv, key_path, n, npad = PADDED_SIDE_CASES[case]
    out = tmp_path / "out"
    assert cli_main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (f"config error: {key_path}: {n} elements per side pad to {npad}, above the "
            f"{MAX_PADDED_SIDE} a study may propagate") in err
    assert not out.exists()


def test_a_receive_disc_whose_adjoint_hops_pad_beyond_the_bound_exits_2(tmp_path, capsys):
    # 0.29 m at 1 THz pads its 1934 elements to 3872, inside the bound; a receive disc as
    # wide as that plane spans 3872 samples, which the adjoint hops would pad to 7744
    out = tmp_path / "out"
    assert cli_main(["oam-crosstalk", "--side-length", "0.29", "--frequency", "1e12",
                     "--modes", "0,1", "--z", "0.5", "--rx-radius", "0.290199099344",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("config error: oam.rx_radius_m: a receive disc of radius 0.290199 m spans 3872 "
            f"samples, and its adjoint hops pad to 7744, above the {MAX_PADDED_SIDE} a study "
            "may propagate") in err
    assert not out.exists()


def _oam_crosstalk_text(rx_radius) -> str:
    return ("[scenario]\nstudy = oam_crosstalk\n[grid]\nside_length_m = 0.008\n"
            f"frequency_hz = 1e12\n[oam]\nmodes = 0, 1\nz_m = 0.05\nrx_radius_m = {rx_radius}\n")


def test_the_receive_disc_may_reach_the_receive_planes_half_extent():
    """The parse asks ``crosstalk_matrix``'s rule: a radius of the half extent passes both,
    and the next float above it fails both."""
    config = parse_config(_oam_crosstalk_text("auto"))
    grid = config.grid
    npad = propagation._padded_size(grid.elements_per_side, 2.0)
    half = npad * grid.element_pitch / 2.0
    base = synthesize_field(grid, config.oam.base)
    config = parse_config(_oam_crosstalk_text(repr(half)))
    assert config.oam.rx_radius_m == half
    [matrix] = oam.crosstalk_matrix(base, (0, 1), 0.05, rx_radius=half)
    assert matrix.power_coupling_db[0, 0] == 0.0
    beyond = math.nextafter(half, math.inf)
    with pytest.raises(ConfigError, match=r"^oam\.rx_radius_m: receiver radius .* exceeds"):
        parse_config(_oam_crosstalk_text(repr(beyond)))
    with pytest.raises(GeometryError):
        oam.crosstalk_matrix(base, (0, 1), 0.05, rx_radius=beyond)


def test_the_blockage_disc_may_span_the_obstacle_planes_extent():
    """The parse asks ``make_obstacle_mask``'s rule: a disc as wide as the padded obstacle
    plane passes both, and the next float above it fails both."""
    from thzbeam import ObstacleSpec, make_obstacle_mask
    from thzbeam.aperture import _Layout

    text = preset_text("fig4-ci")
    grid = parse_config(text).grid
    layout = _Layout(propagation._padded_size(grid.elements_per_side, 2.0), grid.element_pitch,
                     (True, True))

    def sized(size):
        return re.sub(r"^obstacle_size_m = .*$", f"obstacle_size_m = {size!r}", text, flags=re.M)

    assert parse_config(sized(layout.extent)).blockage.obstacle_size_m == layout.extent
    make_obstacle_mask(layout, ObstacleSpec("disc", layout.extent, (0.0, 0.0), 0.125))
    beyond = math.nextafter(layout.extent, math.inf)
    with pytest.raises(ConfigError, match=r"^blockage\.obstacle_size_m: disc obstacle .* exceeds"):
        parse_config(sized(beyond))
    with pytest.raises(GeometryError):
        make_obstacle_mask(layout, ObstacleSpec("disc", beyond, (0.0, 0.0), 0.125))


def test_the_blockage_knife_edge_must_lie_inside_the_obstacle_planes_extent():
    """The parse asks ``make_obstacle_mask``'s rule: a knife edge one float inside
    +-extent/2 of the padded obstacle plane passes both, and one at +-extent/2, which
    would block all of the plane or none of it, fails both."""
    import contextlib

    from thzbeam import ObstacleSpec, make_obstacle_mask
    from thzbeam.aperture import _Layout

    text = preset_text("fig4-ci")
    grid = parse_config(text).grid
    layout = _Layout(propagation._padded_size(grid.elements_per_side, 2.0), grid.element_pitch,
                     (True, False))
    half = layout.extent / 2.0

    def edged(x):
        return re.sub(r"^knife_x_edge_m = .*$", f"knife_x_edge_m = {x!r}", text, flags=re.M)

    for border in (-half, half):
        inside = math.nextafter(border, 0.0)
        assert parse_config(edged(inside)).blockage.knife_x_edge_m == inside
        # just inside the left border the knife blocks every column, which the mask warns of
        with (pytest.warns(UserWarning, match="entire plane") if border < 0
              else contextlib.nullcontext()):
            make_obstacle_mask(layout, ObstacleSpec("half_plane", 0.0, (inside, 0.0), 0.25))
        with pytest.raises(ConfigError, match=r"^blockage\.knife_x_edge_m: half_plane edge .* "
                                              "block all of the plane or none of it"):
            parse_config(edged(border))
        with pytest.raises(GeometryError, match="block all of the plane or none of it"):
            make_obstacle_mask(layout, ObstacleSpec("half_plane", 0.0, (border, 0.0), 0.25))


def test_padded_side_bound_admits_full_scale_fig4_and_pad_factor_1():
    from thzbeam.cli import _render_scenario

    fig4 = preset("fig4")
    npad = propagation._padded_size(fig4.grid.elements_per_side, fig4.blockage.pad_factor)
    assert npad == 3375 < MAX_PADDED_SIDE
    argv = PADDED_SIDE_CASES["propagate"][0]
    args = build_parser().parse_args([*argv, "--pad", "1", "--out", "d"])
    config = parse_config(_render_scenario(args.scenario(args)))  # pads 3335 to 3375
    assert config.grid.elements_per_side == 3335 and config.plane.pad_factor == 1.0


def test_size_limits_admit_their_bound():
    text = preset_text("fig3-ci")
    pitch = parse_config(text).grid.element_pitch

    def sized(key, value):
        return parse_config(re.sub(rf"^{key} = .*$", f"{key} = {value!r}", text, flags=re.M))

    n, count = MAX_ELEMENTS_PER_SIDE, MAX_DISTANCES
    assert sized("side_length_m", (n + 0.5) * pitch).grid.elements_per_side == n
    assert sized("step_m", 0.65 / (count - 1)).distances.size == count  # 0.05 to 0.70 m
    with pytest.raises(ConfigError, match="^grid.side_length_m: "):
        sized("side_length_m", (n + 1.5) * pitch)
    with pytest.raises(ConfigError, match="^distances.step_m: "):
        sized("step_m", 0.65 / count)


def test_cli_pad_hints_name_only_pad_factors_a_plan_takes(tmp_path, capsys):
    argv = ["propagate", "--side-length", "0.02", "--frequency", "3e11", "--kind", "beamforming"]
    # pad factors run from 1 to 8: at 30 m not even 8 carries the hop
    assert cli_main([*argv, "--z", "30", "--out", str(tmp_path / "far")]) == 3
    err = capsys.readouterr().err
    assert "no pad_factor up to 8 carries it" in err
    assert "retry" not in err
    assert cli_main([*argv, "--z", "1", "--out", str(tmp_path / "near")]) == 3
    assert "retry with pad_factor >= 5" in capsys.readouterr().err
    assert cli_main([*argv, "--z", "1", "--pad", "5", "--out", str(tmp_path / "padded")]) == 0


def test_cli_crosstalk_window_refusal_names_no_pad_factor(tmp_path, capsys):
    """Every crosstalk hop takes the fixed pad factor 2, and the study has no key to set
    another, so its window refusal names none."""
    argv = ["oam-crosstalk", "--side-length", "0.02", "--frequency", "3e11", "--modes=-1,0,1",
            "--z", "1", "--out", str(tmp_path / "out")]
    assert cli_main(argv) == 3
    err = capsys.readouterr().err
    assert "cannot carry the field to z = 1 m" in err
    assert "pad_factor" not in err
    assert not (tmp_path / "out").exists()


# config errors that name their key path and exit before the output directory exists
KEY_PATH_CASES = [
    ("gain-curve", "--side-length", "nan", "grid.side_length_m"),
    ("gain-curve", "--frequency", "inf", "grid.frequency_hz"),
    ("gain-curve", "--z-step", "nan", "distances.step_m"),
    ("gain-curve", "--focal-length", "-1", "wavefront.beamfocusing.focal_length_m"),
    ("blockage", "--obstacle-z", "-0.15", "blockage.obstacle_z_m"),
    ("blockage", "--pad", "0.5", "blockage.pad_factor"),
    ("blockage", "--pad", "nan", "blockage.pad_factor"),
    ("propagate", "--pad", "9", "plane.pad_factor"),
    ("oam-crosstalk", "--z", "-0.05", "oam.z_m"),
    ("oam-crosstalk", "--rx-radius", "0", "oam.rx_radius_m"),
    ("oam-crosstalk", "--rx-radius", "1.0", "oam.rx_radius_m"),
    ("oam-crosstalk", "--spot-fwhm", "0", "oam.base_spot_fwhm_m"),
    ("capacity", "--modes", "0", "oam.mode_counts"),
    ("capacity", "--qam", "3", "oam.qam_orders"),
    ("capacity", "--rate", "nan", "oam.target_rate_bps"),
    ("capacity", "--rate", "-1", "oam.target_rate_bps"),
    ("gain-curve", "--side-length", "-1", "grid.side_length_m"),
    ("gain-curve", "--frequency", "0", "grid.frequency_hz"),
    ("gain-curve", "--pitch-fraction", "1.5", "grid.pitch_fraction"),
    # an aperture below one pitch depends on two keys, so it names the section
    ("gain-curve", "--side-length", "0.0001", "grid: "),
]


@pytest.mark.parametrize("verb,flag,value,key_path", KEY_PATH_CASES,
                         ids=[f"{v}{f}={x}" for v, f, x, _ in KEY_PATH_CASES])
def test_cli_config_errors_name_their_key_path(tmp_path, capsys, verb, flag, value, key_path):
    code, err, out = _run_verb(tmp_path, capsys, verb, flag, value)
    assert code == 2
    assert key_path in err
    assert "Traceback" not in err
    assert not out.exists()


OAM_CROSSTALK_INI = """\
[scenario]
study = oam_crosstalk

[grid]
side_length_m = 0.008
frequency_hz = 1e12

[oam]
modes = 0, 1
z_m = 0.05
"""

_FOCUS_INI = """\
[grid]
side_length_m = 0.02
frequency_hz = 3e11

[wavefronts]
names = focus

[wavefront.focus]
kind = beamfocusing
focal_length_m = 0.1
"""
WAVEFRONT_INI = {"phase_map": "[scenario]\nstudy = phase_map\n" + _FOCUS_INI,
                 "plane": "[scenario]\nstudy = plane\n" + _FOCUS_INI + "[plane]\nz_m = 0.1\n"}

UNREAD_OR_BAD = {
    "gain-blockage-section": (GAIN_INI + "[blockage]\nobstacle_size_m = 0.002\n"
                              "obstacle_z_m = 0.05\n", "blockage"),
    "gain-png": (GAIN_INI + "[output]\nformats = csv, png\n", "output.formats"),
    "gain-db-floor": (GAIN_INI + "[output]\ndb_floor = -60\n", "output.db_floor"),
    "gain-unlisted-wavefront": (GAIN_INI + "[wavefront.wide]\nkind = bessel\n", "wavefront.wide"),
    "gain-other-kind-key": (GAIN_INI.replace("kind = beamforming\n",
                                             "kind = beamforming\nspot_fwhm_m = 0.004\n"),
                            "wavefront.beamforming.spot_fwhm_m"),
    "gain-bessel-without-spot": (GAIN_INI.replace("spot_fwhm_m = 0.004\n", ""),
                                 "wavefront.bessel.spot_fwhm_m"),
    "bandwidth-z": (MINIMAL_FIG5 + "z_m = -3\n", "oam.z_m"),
    "bandwidth-nan-rate": (MINIMAL_FIG5.replace("1e12", "nan"), "oam.target_rate_bps"),
    **{f"crosstalk-modes-{case}": (
        OAM_CROSSTALK_INI.replace("modes = 0, 1\n", f"modes = {modes}\n"), "oam.modes")
       for case, modes in (("repeated", "1, 1"), ("empty", ""))},
    "knife-without-x-edge": (_without(_fig4_ci_text(), "knife_x_edge_m = -0.0353"),
                             "blockage.knife_x_edge_m"),
    "knife-without-eval-z": (_without(_fig4_ci_text(), "caustic_eval_z_m = 0.375"),
                             "blockage.caustic_eval_z_m"),
    "knife-eval-before-edge": (_fig4_ci_text().replace("caustic_eval_z_m = 0.375",
                                                      "caustic_eval_z_m = 0.25"),
                               "blockage.caustic_eval_z_m"),
    "caustic-without-knife": (_without(_fig4_ci_text(), "knife_x_edge_m = -0.0353",
                                       "knife_z_m = 0.25", "caustic_eval_z_m = 0.375"),
                              "wavefronts.names"),
    **{f"blockage-phase-bits-{bits}": (
        _fig4_ci_text().replace("[wavefront.bessel]\n", f"[wavefront.bessel]\nphase_bits = {bits}\n"),
        "wavefront.bessel.phase_bits") for bits in (0, 17)},
    "crosstalk-modes-one": (OAM_CROSSTALK_INI.replace("modes = 0, 1\n", "modes = 1\n"),
                            "oam.modes"),
    "blockage-scale": (_fig4_ci_text().replace("db_floor = -60", "db_floor = -60\nscale = db"),
                       "output.scale"),
    # phase_map and plane studies: one wavefront, at no distance to put an auto focus at
    **{f"{study}-two-wavefronts": (
        WAVEFRONT_INI[study].replace("names = focus", "names = focus, flat")
        + "[wavefront.flat]\nkind = beamforming\n", "wavefronts.names") for study in WAVEFRONT_INI},
    **{f"{study}-{case}-focus": (WAVEFRONT_INI[study].replace("focal_length_m = 0.1\n", line),
                                 "wavefront.focus.focal_length_m")
       for study in WAVEFRONT_INI for case, line in (("auto", "focal_length_m = auto\n"),
                                                     ("no", ""))},
    "phase_map-db-floor": (WAVEFRONT_INI["phase_map"] + "[output]\ndb_floor = -60\n",
                           "output.db_floor"),
    "plane-without-z": (WAVEFRONT_INI["plane"].replace("z_m = 0.1\n", ""), "plane.z_m"),
    # an empty name or directory would write into the working directory
    "phase_map-empty-name": (WAVEFRONT_INI["phase_map"].replace("study = phase_map\n",
                                                                "study = phase_map\nname =\n"),
                             "scenario.name"),
    "phase_map-empty-directory": (WAVEFRONT_INI["phase_map"] + "[output]\ndirectory =\n",
                                  "output.directory"),
    "plane-pad-factor-9": (WAVEFRONT_INI["plane"] + "pad_factor = 9\n", "plane.pad_factor"),
    "blockage-pad-factor-nan": (_fig4_ci_text().replace("pad_factor = 2.0", "pad_factor = nan"),
                                "blockage.pad_factor"),
}


@pytest.mark.parametrize("name", sorted(UNREAD_OR_BAD))
def test_cli_run_rejects_what_the_study_does_not_read(tmp_path, capsys, name):
    text, key_path = UNREAD_OR_BAD[name]
    config = tmp_path / "scenario.ini"
    config.write_text(text)
    assert cli_main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{key_path}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["phase_map-empty-name", "phase_map-empty-directory"])
def test_cli_run_without_out_refuses_an_empty_name_in_the_working_directory(
        tmp_path, capsys, monkeypatch, name):
    text, key_path = UNREAD_OR_BAD[name]
    config = tmp_path / "scenario.ini"
    config.write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", str(config)]) == 2
    assert f"{key_path}: invalid value '': must be non-empty" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.ini"]


# spillover.csv sums the middle mode's nearest neighbours in l: l +- 1 where the set holds them
@pytest.mark.parametrize("modes,neighbours", [
    ("-1, 0, 1", (-1, 1)), ("-4, -3, 0, 2, 3", (2,)), ("-4, -1, 1, 3, 4", (-1, 3)),
], ids=["pm1", "gap-2-one-side", "gap-2-both-sides"])
def test_oam_spillover_sums_the_nearest_modes(tmp_path, modes, neighbours):
    text = OAM_CROSSTALK_INI.replace("modes = 0, 1\n", f"modes = {modes}\nsteer_deg_list = 1\n")
    run_scenario(parse_config(text), tmp_path)
    mid = [int(m) for m in modes.split(",")][len(modes.split(",")) // 2]
    _, *rows = (tmp_path / "crosstalk_steer_1deg.csv").read_text().splitlines()
    coupling = {(float(tx), float(rx)): float(db) for tx, rx, db in (r.split(",") for r in rows)}
    expected = 10 * math.log10(sum(10 ** (coupling[(mid, rx)] / 10) for rx in neighbours))
    header, row = (tmp_path / "spillover.csv").read_text().splitlines()
    steer, spill = map(float, row.split(","))
    assert (header, steer) == ("steer_deg,spillover_db", 1.0)
    assert spill == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("angles", ["0.1, 0.1000001", "1e-7, 1.0000001e-7"])
def test_steering_angles_that_name_one_file_exit_2(tmp_path, capsys, angles):
    # each steered matrix is written to crosstalk_steer_{deg:g}deg.csv
    ini = tmp_path / "scenario.ini"
    ini.write_text(OAM_CROSSTALK_INI + f"steer_deg_list = {angles}\n")
    out = tmp_path / "out"
    assert cli_main(["run", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: oam.steer_deg_list: " in err and "Traceback" not in err
    assert not out.exists()
    # angles apart in their sixth significant digit name two files
    parse_config(OAM_CROSSTALK_INI + "steer_deg_list = 0.1, 0.100001, -0.1\n")


def _readme_section(title: str) -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_outline_matches_the_declared_keys():
    outline = _readme_section("Scenario configs").split("```ini\n", 1)[1].split("```", 1)[0]
    declared = {"scenario": {f.name for f in fields(ScenarioSection)}}
    for sections in _STUDY_SECTIONS.values():
        for name, cls in sections.items():
            declared.setdefault(name, set()).update(f.name for f in fields(cls) if f.init)
    listed, section = {}, None
    for line in outline.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = "wavefront.*" if line.startswith("[wavefront.") else line.strip("[]")
        elif "=" in line:
            listed.setdefault(section, set()).add(line.split("=", 1)[0].strip())
    assert listed == declared


def test_readme_library_tour_example_runs(capsys):
    example = _readme_section("Library tour").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    z_max, fwhm, rings = (float(v) for v in capsys.readouterr().out.split())
    assert z_max > 0 and fwhm > 0 and rings >= 1


def test_readme_library_tour_names_each_module_attribute():
    rows = [line for line in _readme_section("Library tour").splitlines()
            if line.startswith("| `thzbeam.")]
    assert rows
    for row in rows:
        module_cell, contents = row.strip("|").split("|", 1)
        module = importlib.import_module(module_cell.strip().strip("`"))
        names = re.findall(r"`(\w+)`", contents)
        assert [name for name in names if not hasattr(module, name)] == [], row


def test_field_slice_csv_schema(tmp_path):
    from thzbeam.io import field_slice_csv

    slice_ = FieldSlice(0.5, np.array([[1 + 2j, 0j], [3j, -1 + 0j]]), 1e-3)
    path = tmp_path / "slice.csv"
    field_slice_csv(path, slice_)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_m,y_m,re,im,intensity"
    assert len(lines) == 5
    x, y, re, im, intensity = (float(v) for v in lines[1].split(","))
    assert (re, im) == (1.0, 2.0)
    assert intensity == pytest.approx(5.0)


def test_phase_map_csv_roundtrip(tmp_path):
    from thzbeam.io import phase_map_csv

    phase = PhaseMap(np.array([[0.25, 1.5], [3.0, 6.0]]))
    path = tmp_path / "phase.csv"
    phase_map_csv(path, phase)
    back = np.array([[float(v) for v in line.split(",")]
                     for line in path.read_text().splitlines()])
    np.testing.assert_allclose(back, phase.values, rtol=1e-8)


def test_output_directory_from_config(tmp_path):
    text = MINIMAL_FIG5 + f"\n[output]\ndirectory = {tmp_path / 'from_config'}\n"
    config = parse_config(text)
    run_scenario(config)
    assert (tmp_path / "from_config" / "bandwidth.csv").exists()


def test_run_without_directory_is_config_error():
    with pytest.raises(ConfigError, match="directory"):
        run_scenario(parse_config(MINIMAL_FIG5))
