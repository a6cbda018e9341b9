"""Full-scale preset runs (25 cm aperture at 1 THz).

These take minutes and are excluded from the default suite; run them with
``pytest -m slow``.  The same physics is exercised at CI scale by
test_scenarios.py and at full scale (without artifact output) by the
acceptance suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thzbeam
from thzbeam import preset, run_scenario

pytestmark = pytest.mark.slow


def test_fig3_full_scale(tmp_path):
    run_scenario(preset("fig3"), tmp_path)
    lines = (tmp_path / "gain_curve.csv").read_text().splitlines()
    assert lines[0] == "z_m,beamforming,beamfocusing,bessel"
    data = np.array([[float(v) for v in r.split(",")] for r in lines[1:]])
    z, beamforming, beamfocusing, bessel = data.T
    assert z[0] == 1.0 and z[-1] == 30.0
    peak = z[int(np.argmax(bessel))]
    assert 10.8 <= peak <= 16.2
    band = (z >= 2.0) & (z <= 20.0)
    assert np.all(bessel[band] > beamforming[band])


# `thzbeam preset fig4` peaked at 926 MB RSS with full-grid kernel spectra, at 581 MB with
# kernel quadrants and in-place obstacle hops, and at 375-376 MB with every plane stored as
# its symmetry block (2-core host, Python 3.11, numpy 2.4); the bound is 376 MB plus 9%
FIG4_PEAK_RSS_MB = 410

# runs the CLI verb, then prints the process's own peak RSS (ru_maxrss, in KiB on Linux)
_PEAK_RSS_CHILD = """\
import resource, sys
from thzbeam.cli import main
status = main(["preset", "fig4", "--out", sys.argv[1]])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(status)
"""


def test_fig4_full_scale(tmp_path):
    src = Path(thzbeam.__file__).resolve().parents[1]  # the directory that holds thzbeam
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, str(tmp_path)], env=env,
                           capture_output=True, text=True, check=True)
    peak_mb = int(child.stdout.split()[-1]) / 1024.0
    assert peak_mb <= FIG4_PEAK_RSS_MB, f"preset fig4 peaked at {peak_mb:.0f} MB RSS"
    rows = (tmp_path / "healing.csv").read_text().splitlines()[1:]
    table = {r.split(",")[0]: [float(v) for v in r.split(",")[1:]] for r in rows}
    assert table["bessel"][1] >= 0.9
    assert table["bessel"][1] > table["beamforming"][1]
    advantage = float((tmp_path / "caustic_blockage.csv").read_text().splitlines()[1].split(",")[-1])
    assert advantage >= 10.0
    assert (tmp_path / "map_bessel_blocked.pgm").exists()
