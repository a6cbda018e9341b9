import argparse
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import thzbeam.propagation as propagation
from thzbeam import (
    ConfigError,
    FieldSlice,
    PhaseMap,
    axicon_design,
    parse_config,
    preset,
    preset_text,
    run_scenario,
)
from thzbeam.cli import build_parser, main as cli_main
from thzbeam.scenarios import _STUDY_SECTIONS, ScenarioSection
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
    assert len(manifest.artifacts) == 1
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


def test_blockage_run_meets_comparative_criteria(tmp_path):
    run_scenario(preset("fig4-ci"), tmp_path)
    rows = (tmp_path / "healing.csv").read_text().splitlines()[1:]
    table = {r.split(",")[0]: [float(v) for v in r.split(",")[1:]] for r in rows}
    assert table["bessel"][1] >= 0.9
    assert table["bessel"][1] > table["beamforming"][1]
    caustic = (tmp_path / "caustic_blockage.csv").read_text().splitlines()[1]
    assert float(caustic.split(",")[-1]) >= 10.0
    # intensity maps written for every wavefront
    assert (tmp_path / "map_bessel_blocked.pgm").exists()
    assert (tmp_path / "map_caustic_blocked.pgm").exists()


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


def test_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    m_a = run_scenario(preset("fig4-ci"), out_a)
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
    levels = intensity_to_levels(slice_, scale="db", db_floor=-60.0)
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
    from thzbeam import WavefrontSpec, make_grid, synthesize_phase
    from thzbeam.io import phase_map_csv

    def phase_csv(tag, *flags):
        assert cli_main([*SYNTHESIZE, *flags, "--out", str(tmp_path / tag)]) == 0
        return (tmp_path / tag / "phase_bessel.csv").read_bytes()

    # without overlays: the base map, as before
    base = tmp_path / "base.csv"
    phase_map_csv(base, synthesize_phase(make_grid(0.02, 3e11),
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
    assert sorted(p.name for p in tmp_path.iterdir()) == ["phase_bessel.csv",
                                                         "slice_beamforming_z0.1.csv"]


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
    assert "phase_bits" in err and "--bits" in err
    assert "Traceback" not in err
    assert not out.exists()


# every other bad flag value of the wavefront verbs: (verb, flags, the flag the error names)
BAD_WAVEFRONT_FLAGS = [
    ("propagate", ["--z", "nan"], "--z"),
    ("propagate", ["--z", "inf"], "--z"),
    ("propagate", ["--z", "-1"], "--z"),
    ("propagate", ["--pad", "0.5"], "--pad"),
    ("propagate", ["--db-floor", "1"], "--db-floor"),
    ("propagate", ["--pitch-fraction", "2"], "--pitch-fraction"),
    ("propagate", ["--side-length", "nan"], "--side-length"),
    ("propagate", ["--side-length", "0.0001"], "--side-length"),  # below one pitch
    ("propagate", ["--steer-deg", "inf"], "--steer-deg"),
    ("propagate", ["--kind", "beamfocusing"], "--focal-length"),
    ("propagate", ["--kind", "beamfocusing", "--focal-length", "-1"], "--focal-length"),
    ("synthesize", ["--frequency", "nan"], "--frequency"),
    ("synthesize", ["--pitch-fraction", "0"], "--pitch-fraction"),
    ("synthesize", ["--kind", "bessel"], "--spot-fwhm"),
    ("synthesize", ["--kind", "bessel", "--spot-fwhm", "nan"], "--spot-fwhm"),
    ("synthesize", ["--kind", "caustic", "--curve-a", "2"], "--curve-z-end"),
    ("synthesize", ["--kind", "caustic", "--curve-a", "2", "--curve-z-end", "0"],
     "--curve-z-end"),
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
    assert named in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_preset_and_run(tmp_path):
    out = tmp_path / "fig5"
    assert cli_main(["preset", "fig5", "--out", str(out), "--write-config"]) == 0
    assert (out / "bandwidth.csv").exists()
    assert (out / "preset.ini").exists()
    rerun = tmp_path / "rerun"
    assert cli_main(["run", str(out / "preset.ini"), "--out", str(rerun)]) == 0
    assert (rerun / "bandwidth.csv").read_bytes() == (out / "bandwidth.csv").read_bytes()


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


def test_cli_rejects_threads_below_one(tmp_path, capsys):
    # the study verbs that take --threads are covered by BAD_STUDY_INPUTS
    config = tmp_path / "tiny.ini"
    config.write_text(MINIMAL_FIG5)
    for argv in (["propagate", "--side-length", "0.02", "--frequency", "3e11",
                  "--kind", "beamforming", "--z", "0.1"],
                 ["run", str(config)],
                 ["preset", "fig4-ci"]):
        out = tmp_path / "out"
        assert cli_main([*argv, "--out", str(out), "--threads", "0"]) == 2
        err = capsys.readouterr().err
        assert "--threads" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_cli_threads_flag_does_not_change_output(tmp_path, monkeypatch):
    monkeypatch.setattr(propagation.os, "cpu_count", lambda: 8)  # so 3 and 8 split 3 and 8 ways
    runs = {}
    for threads in ("1", "2", "3", "8"):
        out = tmp_path / threads
        assert cli_main(["preset", "fig4-ci", "--out", str(out), "--threads", threads]) == 0
        runs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                         if p.name != "manifest.json"}  # the manifest records timings
    assert len(runs["1"]) == 10  # healing.csv, caustic_blockage.csv and 8 PGM maps
    for threads in ("2", "3", "8"):
        assert runs[threads] == runs["1"], threads


# small inputs for each study verb, and one bad input per exit code
STUDY_VERBS = {
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
    ("blockage", 2, "--threads", "0"),
    ("oam-crosstalk", 2, "--threads", "0"),
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


def test_blockage_tables_follow_output_formats(tmp_path):
    maps = {f"map_{name}_{view}.pgm" for name in ("beamforming", "beamfocusing", "bessel")
            for view in ("reference", "blocked")}
    maps |= {"map_caustic_blocked.pgm", "map_beamforming_knife.pgm"}
    run_scenario(preset("fig4-ci"), tmp_path / "preset")  # formats = csv, pgm
    written = {p.name for p in (tmp_path / "preset").iterdir()}
    assert written == maps | {"healing.csv", "caustic_blockage.csv", "manifest.json"}

    pgm_only = preset_text("fig4-ci").replace("formats = csv, pgm", "formats = pgm")
    manifest = run_scenario(parse_config(pgm_only), tmp_path / "pgm")
    assert {a["path"] for a in manifest.artifacts} == maps
    for name in maps:
        assert (tmp_path / "pgm" / name).read_bytes() == (tmp_path / "preset" / name).read_bytes()


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


@pytest.mark.parametrize("old,new,key_path", [
    ("[wavefront.beamfocusing]\n", "[wavefront.beamfocusing]\nphase_bits = 1\n",
     "wavefront.beamfocusing.phase_bits"),
    ("[wavefront.bessel]\n", "[wavefront.bessel]\noam_mode = 2\n", "wavefront.bessel.oam_mode"),
    ("spot_fwhm_m = 0.004\ncircular = true", "spot_fwhm_m = 0.004\ncircular = false",
     "wavefront.bessel.circular"),
], ids=["phase_bits", "oam_mode", "mixed-circular"])
def test_cli_gain_curve_rejects_keys_that_do_nothing(tmp_path, capsys, old, new, key_path):
    config = tmp_path / "gain.ini"
    config.write_text(GAIN_INI.replace(old, new))
    assert cli_main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert key_path in err
    assert "Traceback" not in err


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


# --threads only on the verbs that make FFTs, --db-floor only on those that map
# intensity to gray levels
FLAG_VERBS = {"--threads": {"propagate", "blockage", "oam-crosstalk", "run", "preset"},
              "--db-floor": {"propagate", "blockage"}}


@pytest.mark.parametrize("flag", sorted(FLAG_VERBS))
def test_cli_offers_each_flag_only_where_it_acts(flag):
    offered = {verb for verb, p in _verb_parsers().items() if flag in p._option_string_actions}
    assert offered == FLAG_VERBS[flag]


# every float flag of every study verb, with 0, -1, nan and inf in turn
FLOAT_FLAG_CASES = [(verb, action.option_strings[0], value)
                    for verb in STUDY_VERBS for action in _verb_parser(verb)._actions
                    if action.type is float for value in ("0", "-1", "nan", "inf")]
VALID_FLAG_VALUES = {("blockage", "--db-floor", "-1"), ("oam-crosstalk", "--steer-deg", "0"),
                     ("oam-crosstalk", "--steer-deg", "-1")}


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


# config errors that name their key path and exit before the output directory exists
KEY_PATH_CASES = [
    ("gain-curve", "--side-length", "nan", "grid.side_length_m"),
    ("gain-curve", "--frequency", "inf", "grid.frequency_hz"),
    ("gain-curve", "--z-step", "nan", "distances.step_m"),
    ("gain-curve", "--focal-length", "-1", "wavefront.beamfocusing.focal_length_m"),
    ("blockage", "--obstacle-z", "-0.15", "blockage.obstacle_z_m"),
    ("blockage", "--pad", "0.5", "blockage.pad_factor"),
    ("oam-crosstalk", "--z", "-0.05", "oam.z_m"),
    ("oam-crosstalk", "--rx-radius", "0", "oam.rx_radius_m"),
    ("oam-crosstalk", "--spot-fwhm", "0", "oam.base_spot_fwhm_m"),
    ("capacity", "--modes", "0", "oam: n_modes"),
    ("capacity", "--rate", "nan", "oam.target_rate_bps"),
]


@pytest.mark.parametrize("verb,flag,value,key_path", KEY_PATH_CASES,
                         ids=[f"{v}{f}={x}" for v, f, x, _ in KEY_PATH_CASES])
def test_cli_config_errors_name_their_key_path(tmp_path, capsys, verb, flag, value, key_path):
    code, err, out = _run_verb(tmp_path, capsys, verb, flag, value)
    assert code == 2
    assert key_path in err
    assert "Traceback" not in err
    assert not out.exists()


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
        "wavefront.bessel") for bits in (0, 17)},
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


def test_readme_outline_matches_the_declared_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    outline = readme.split("## Scenario configs", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
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
