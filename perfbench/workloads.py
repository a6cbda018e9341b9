"""The four study workloads: seeded inputs, the study call and its checks.

Each workload is driven through thzbeam's public API only.  The seed picks
the oracle probe points in every workload, the OAM mode set and the
propagate-csv plane; the amount of work never depends on it.

The studies are sized to take about 2 s each, so that one run measures
several of them and reports medians; a full-scale fig3 or fig4 study takes
about 40 s.  fig3-gain is the fig3 study scaled by s = 0.4 in aperture and
spot (s^2 in distance at the same frequency, which keeps every Fresnel
number); fig4-blockage is the bundled ``fig4-ci`` preset.

Accuracy is reported as ``oracle_digits``: the minimum over probes of
-log10(relative error) against ``propagate_direct`` (or the exact coherence
sum), capped at 9-significant-digit precision, which is what every thzbeam
CSV carries.  The physics predicates are re-implemented here from the
paper's claims; the test suite is not imported.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np

from tracer import call_arguments

# half a unit in the last place of a 9-significant-digit number, relative
FORMAT_REL_ERR = 5e-9
# below this many digits a run counts as failed
FLOOR_DIGITS = 6.0
# probes: candidate field samples taken per plane, and how many of the
# brightest are compared with the oracle (dark samples would measure the
# FFT's absolute round-off rather than the propagator's accuracy)
PLANE_CANDIDATES = 64
PLANE_PROBES = 8
GAIN_PROBES = 4

# fig3 scaled by FIG3_SCALE: aperture 0.25 m -> 0.1 m and spot 20 mm -> 8 mm
# at 1 THz, so distances scale by FIG3_SCALE^2 (the Bessel peak moves from
# 15 m to 2.4 m).  20 distances instead of 59 keep the study near 2 s.
FIG3_SCALE = 0.4
FIG3_TEXT = """\
[scenario]
study = gain_curve
name = bench-fig3

[grid]
side_length_m = 0.1
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
spot_fwhm_m = 0.008
spot_convention = fwhm
circular = true

[distances]
start_m = 0.24
stop_m = 4.8
step_m = 0.24

[output]
formats = csv
"""
FIG3_DISTANCES = 20
# the paper's fig3 claims, in metres at full scale
FIG3_PEAK_BAND_M = (10.8, 16.2)
FIG3_BEATS_BAND_M = (2.0, 20.0)

OAM_TEXT = """\
[scenario]
study = oam_crosstalk
name = bench-oam

[grid]
side_length_m = 0.05
frequency_hz = 1e12
pitch_fraction = 0.5

[oam]
modes = {modes}
z_m = 0.2
steer_deg_list = 0, 0.5, 1.0

[output]
formats = csv
"""

CSV_SIDE_M = 0.04
CSV_FREQUENCY_HZ = 1e12
CSV_SPOT_FWHM_M = 0.002


def digits(rel_errors, floor: float) -> float:
    """Significant digits of agreement: -log10 of the worst relative error."""
    return -math.log10(max(max(rel_errors), floor))


def read_table(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def coherence_exact(field, point) -> float:
    """|sum w e^{-jkr}/r|^2 / (sum |w|/r)^2 with the oracle for the numerator."""
    import thzbeam.propagation as propagation

    px, py, pz = point
    X, Y = field.grid.meshgrid()
    r = np.sqrt((X - px) ** 2 + (Y - py) ** 2 + pz * pz)
    num = abs(propagation.propagate_direct(field, [point])[0]) ** 2
    return float(num / np.sum(np.abs(field.weights) / r) ** 2)


def relative_errors(values, exact) -> list[float]:
    return [abs(v - e) / abs(e) for v, e in zip(values, exact)]


class PlaneProbe:
    """Samples the plane returned by the study's first ``propagate_asm`` call.

    The call's aperture field is kept so the samples can be compared with
    ``propagate_direct`` after the study.  Always keeping the first call's
    field adds the same memory to every run; the seed picks only the
    samples.  Candidates lie in the central aperture-sized window, where
    the padded spectral hop is exact up to round-off.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.calls = 0
        self.field = None
        self.points: list[tuple[float, float, float]] = []
        self.values: list[complex] = []

    def __call__(self, fn, args, kwargs, result):
        self.calls += 1
        if self.calls > 1:
            return
        bound = call_arguments(fn, args, kwargs)
        self.field, z = bound["field"], float(bound["z"])
        n = self.field.grid.elements_per_side
        npad = result.samples.shape[0]
        lo = (npad - n) // 2
        xs = result.axis_coordinates()
        for _ in range(PLANE_CANDIDATES):
            iy, ix = self.rng.randrange(lo, lo + n), self.rng.randrange(lo, lo + n)
            self.points.append((float(xs[ix]), float(xs[iy]), z))
            self.values.append(complex(result.samples[iy, ix]))

    @functools.cached_property
    def errors(self) -> list[float]:
        """Oracle comparison at the brightest candidates (read after the study)."""
        import thzbeam.propagation as propagation

        if self.field is None:
            raise RuntimeError("the study made no propagate_asm call")
        order = sorted(range(len(self.values)), key=lambda i: -abs(self.values[i]))[:PLANE_PROBES]
        exact = propagation.propagate_direct(self.field, [self.points[i] for i in order])
        return relative_errors([self.values[i] for i in order], exact)


class GainProbe:
    """Keeps seeded ``normalized_gain`` calls for an exact-sum comparison."""

    def __init__(self, rng: random.Random, expected_calls: int, count: int = 2):
        self.targets = set(rng.sample(range(expected_calls), count))
        self.calls = 0
        self.kept = []

    def __call__(self, fn, args, kwargs, result):
        if self.calls in self.targets:
            bound = call_arguments(fn, args, kwargs)
            self.kept.append((bound["field"], tuple(float(v) for v in bound["point"]), result))
        self.calls += 1

    @property
    def errors(self) -> list[float]:
        if not self.kept:
            raise RuntimeError(f"no normalized_gain call kept ({self.calls} calls observed)")
        return relative_errors([g for _, _, g in self.kept],
                               [coherence_exact(f, p) for f, p, _ in self.kept])


class Workload:
    """One benchmark workload.  Subclasses fill in the study and its checks."""

    name = ""
    # the study calls propagate_asm, so its first plane can be probed
    calls_asm = False
    # True: the end-to-end oracle probes a propagated plane, not an artifact
    oracle_from_plane = False
    # normalized_gain calls one study makes (traced per-layer probe)
    gain_calls = 0

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, purpose: str) -> random.Random:
        """Seeded generator; string seeds hash the same in every process."""
        return random.Random(f"{self.name}:{self.seed}:{purpose}")

    def plane_probe(self) -> PlaneProbe | None:
        return PlaneProbe(self.rng("plane")) if self.calls_asm else None

    def gain_probe(self) -> GainProbe | None:
        return GainProbe(self.rng("gain"), self.gain_calls) if self.gain_calls else None

    def inputs(self) -> None:
        """Derive the seeded inputs; runs before any instrumentation is installed."""

    def prepare(self, out_dir: Path):
        """Parse the inputs; return (study callable, text that identifies the inputs)."""
        raise NotImplementedError

    def check(self, out_dir: Path, plane: PlaneProbe | None) -> tuple[list[str], list[float]]:
        """Return (failed predicates, relative errors of the checked output)."""
        raise NotImplementedError


class ScenarioWorkload(Workload):
    def config(self):
        raise NotImplementedError

    def prepare(self, out_dir):
        import thzbeam

        config = self.config()
        self.grid = config.grid
        self.wavefronts = config.wavefronts

        def study():
            thzbeam.run_scenario(config, out_dir)
            return 0

        return study, config.text


class Fig3Gain(ScenarioWorkload):
    name = "fig3-gain"
    gain_calls = 3 * FIG3_DISTANCES

    def config(self):
        import thzbeam

        return thzbeam.parse_config(FIG3_TEXT)

    def check(self, out_dir, plane):
        import thzbeam

        header, rows = read_table(out_dir / "gain_curve.csv")
        failures = []
        if header != "z_m,beamforming,beamfocusing,bessel" or len(rows) != FIG3_DISTANCES:
            return [f"gain_curve.csv: header {header!r}, {len(rows)} rows"], []
        table = np.array([[float(v) for v in row] for row in rows])
        z, planar, bessel = table[:, 0], table[:, 1], table[:, 3]
        peak_z = float(z[int(np.argmax(bessel))])
        lo, hi = (v * FIG3_SCALE**2 for v in FIG3_PEAK_BAND_M)
        if not lo <= peak_z <= hi:
            failures.append(f"bessel gain peaks at {peak_z:g} m, outside {lo:g}-{hi:g} m")
        lo, hi = (v * FIG3_SCALE**2 for v in FIG3_BEATS_BAND_M)
        band = (z >= lo) & (z <= hi)
        if not np.all(bessel[band] > planar[band]):
            failures.append(f"bessel gain does not beat beamforming over {lo:g}-{hi:g} m")

        columns = ("beamforming", "beamfocusing", "bessel")
        picks = self.rng("probes").sample(
            [(c, i) for c in range(3) for i in range(len(rows))], GAIN_PROBES)
        fields = {}

        def field(label):
            if label not in fields:
                spec = self.wavefronts[label]
                if label == "beamfocusing":
                    spec = replace(spec, focal_length=peak_z)
                fields[label] = thzbeam.synthesize_field(self.grid, spec)
            return fields[label]

        values, exact = [], []
        for c, i in picks:
            label = columns[c]
            g = coherence_exact(field(label), (0.0, 0.0, float(z[i])))
            if label == "bessel":
                g /= coherence_exact(field(label), (0.0, 0.0, peak_z))
            values.append(float(table[i, c + 1]))
            exact.append(g)
        return failures, relative_errors(values, exact)


class Fig4Blockage(ScenarioWorkload):
    name = "fig4-blockage"
    calls_asm = True
    oracle_from_plane = True

    def config(self):
        import thzbeam

        return thzbeam.preset("fig4-ci")

    def check(self, out_dir, plane):
        failures = []
        # self-healing is claimed inside the obstacle's shadow window; over the
        # full plane the unblocked planar beam correlates better (0.994 vs 0.968)
        _, rows = read_table(out_dir / "healing.csv")
        shadow = {row[0]: float(row[2]) for row in rows}
        if not shadow.get("bessel", 0.0) >= 0.9:
            failures.append(f"bessel correlation_shadow {shadow.get('bessel')} < 0.9")
        if not shadow.get("bessel", 0.0) > shadow.get("beamforming", 1.0):
            failures.append("bessel correlation_shadow does not beat beamforming")
        _, rows = read_table(out_dir / "caustic_blockage.csv")
        advantage = float(rows[0][3])
        if not advantage >= 10.0:
            failures.append(f"caustic advantage {advantage:g} dB < 10 dB")
        maps = sorted(out_dir.glob("map_*.pgm"))
        if len(maps) != 8:
            failures.append(f"{len(maps)} PGM maps, expected 8")
        return failures, plane.errors


class OamCrosstalk(ScenarioWorkload):
    name = "oam-crosstalk"
    calls_asm = True
    oracle_from_plane = True
    steer_deg = (0.0, 0.5, 1.0)

    def modes(self) -> list[int]:
        return sorted(self.rng("modes").sample(range(-4, 5), 5))

    def config(self):
        import thzbeam

        return thzbeam.parse_config(OAM_TEXT.format(modes=", ".join(map(str, self.modes()))))

    def check(self, out_dir, plane):
        failures = []
        modes = self.modes()
        for deg in self.steer_deg:
            stem = "crosstalk.csv" if deg == 0.0 else f"crosstalk_steer_{deg:g}deg.csv"
            _, rows = read_table(out_dir / stem)
            pairs = [(int(float(r[0])), int(float(r[1]))) for r in rows]
            if pairs != [(a, b) for a in modes for b in modes]:
                failures.append(f"{stem}: mode pairs {pairs} do not match modes {modes}")
                continue
            diagonal = [float(r[2]) for r in rows if r[0] == r[1]]
            if any(d != 0.0 for d in diagonal):
                failures.append(f"{stem}: diagonal {diagonal} is not 0 dB")
        _, rows = read_table(out_dir / "spillover.csv")
        if len(rows) != len(self.steer_deg):
            failures.append(f"spillover.csv has {len(rows)} rows")
        return failures, plane.errors


class PropagateCsv(Workload):
    name = "propagate-csv"
    calls_asm = True

    def inputs(self):
        import thzbeam

        grid = thzbeam.make_grid(CSV_SIDE_M, CSV_FREQUENCY_HZ)
        z_max = thzbeam.axicon_design(grid, CSV_SPOT_FWHM_M).z_max
        self.z = z_max * self.rng("plane-z").uniform(0.3, 0.7)

    def prepare(self, out_dir):
        import thzbeam.cli

        argv = ["propagate", "--side-length", repr(CSV_SIDE_M), "--frequency",
                repr(CSV_FREQUENCY_HZ), "--kind", "bessel", "--spot-fwhm", repr(CSV_SPOT_FWHM_M),
                "--z", repr(self.z), "--out", str(out_dir), "--format", "csv", "--format", "png"]
        inputs = " ".join("<out>" if a == str(out_dir) else a for a in argv)
        return (lambda: thzbeam.cli.main(argv)), inputs

    def check(self, out_dir, plane):
        import thzbeam

        stem = f"slice_bessel_z{self.z:g}"
        png = (out_dir / f"{stem}.png").read_bytes()
        if png[:8] != b"\x89PNG\r\n\x1a\n" or png[12:16] != b"IHDR":
            return ["PNG signature or IHDR missing"], []
        npad = int.from_bytes(png[16:20], "big")
        grid = thzbeam.make_grid(CSV_SIDE_M, CSV_FREQUENCY_HZ)
        n = grid.elements_per_side
        lo = (npad - n) // 2
        rng = self.rng("probes")
        wanted = {}
        for _ in range(PLANE_CANDIDATES):
            iy, ix = rng.randrange(lo, lo + n), rng.randrange(lo, lo + n)
            wanted[1 + iy * npad + ix] = (iy, ix)
        found = {}
        with open(out_dir / f"{stem}.csv", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            count = 0
            for count, line in enumerate(fh, start=1):
                if count in wanted:
                    found[wanted[count]] = [float(v) for v in line.split(",")]
        failures = []
        if header != "x_m,y_m,re,im,intensity" or count != npad * npad:
            return [f"CSV header {header!r} with {count} rows for a {npad}^2 plane"], []
        for re_, im_, inten in (row[2:] for row in found.values()):
            # rounding re and im to 9 digits moves re^2 + im^2 by up to 2e-8 relative
            if abs(inten - (re_ * re_ + im_ * im_)) > 5 * FORMAT_REL_ERR * inten:
                failures.append(f"intensity column {inten!r} is not |re + j im|^2")
                break
        brightest = sorted(found.items(), key=lambda kv: -abs(complex(kv[1][2], kv[1][3])))
        brightest = brightest[:PLANE_PROBES]
        pitch = grid.element_pitch
        points = [((ix - (npad - 1) / 2.0) * pitch, (iy - (npad - 1) / 2.0) * pitch, self.z)
                  for (iy, ix), _ in brightest]
        field = thzbeam.synthesize_field(
            grid, thzbeam.WavefrontSpec(kind="bessel", spot_fwhm=CSV_SPOT_FWHM_M))
        exact = thzbeam.propagate_direct(field, points)
        values = [complex(row[2], row[3]) for _, row in brightest]
        return failures, relative_errors(values, exact)


WORKLOADS = {cls.name: cls for cls in (Fig3Gain, Fig4Blockage, OamCrosstalk, PropagateCsv)}
