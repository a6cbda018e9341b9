"""One benchmark worker process: set up, run one study, check its output.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the workload name, seed, mode (``run`` or ``traced``), the
output directory and, for traced runs, where to write the spans.  The worker
records the CLOCK_MONOTONIC time at which set-up ends; the parent subtracts
its spawn time to get ``setup_s``.  Timings, peak RSS and CPU time are read
right after the study, before any check runs.

The worker also times a fixed reference task (``reference_s``, no thzbeam
code) right before and right after the study; run.py rescales the set-up
and study times by it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer, call_arguments, capture_only

# oracle agreement of a single layer is reported up to double precision
LAYER_REL_ERR_FLOOR = 1e-17


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def reference_times() -> list[float]:
    """Wall times of three fixed tasks like the studies' work: FFTs,
    elementwise complex exponentials over a large array, and a Python loop
    formatting numbers."""
    import numpy as np

    rng = np.random.default_rng(0)
    plane = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    phases = rng.standard_normal(200_000)

    def ffts():
        for _ in range(48):
            np.fft.ifft2(np.fft.fft2(plane))

    def exps():
        for _ in range(18):
            np.exp(1j * phases).sum()

    def formatting():
        return sum(len(format(i * 1.1, ".9g")) for i in range(240_000))

    times = []
    for task in (ffts, exps, formatting):
        start = now()
        task()
        times.append(now() - start)
    return times


def reference_seconds(before: list[float], after: list[float]) -> float:
    """Geometric mean over the tasks of their mean time before and after."""
    means = [(b + a) / 2.0 for b, a in zip(before, after)]
    return math.prod(means) ** (1.0 / len(means))


def environment() -> dict:
    import numpy
    import scipy
    import scipy.fft

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scipy_fft_workers": scipy.fft.get_workers(),
    }


def artifact_digests(out_dir: Path) -> tuple[dict[str, str], int]:
    """sha256 of every artifact (manifest.json carries timings, so it is left out)."""
    digests, size = {}, 0
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            data = path.read_bytes()
            digests[str(path.relative_to(out_dir))] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return digests, size


class Counters:
    """Work counts the per-layer metrics need, gathered by tracer hooks."""

    def __init__(self):
        self.fft_points = 0
        self.element_terms = 0
        self.hops = 0
        self.hop_keys: set = set()

    def fft(self, fn, args, kwargs, result):
        self.fft_points += (args[0] if args else kwargs["x"]).size

    def gain(self, fn, args, kwargs, result):
        self.element_terms += call_arguments(fn, args, kwargs)["field"].weights.size

    def asm(self, fn, args, kwargs, result):
        a = call_arguments(fn, args, kwargs)
        grid = a["field"].grid
        self._hop(("kernel", result.samples.shape[0], grid.element_pitch, grid.wavenumber,
                   float(a["z"])))

    def slice(self, fn, args, kwargs, result):
        a = call_arguments(fn, args, kwargs)
        self._hop(("transfer", result.samples.shape[0], a["field"].sample_pitch,
                   float(a["wavelength"]), float(a["dz"])))

    def _hop(self, key):
        self.hops += 1
        self.hop_keys.add(key)


def per_layer(tracer: Tracer, counters: Counters, plane, gain) -> dict[str, float]:
    """``<span>.calls`` and ``<span>.self_s`` for every layer seen, plus counters."""
    out = {}
    for name, row in tracer.layers().items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    out["propagation.fft.s"] = out.get("propagation.fft.self_s", 0.0)
    out["propagation.fft.points"] = counters.fft_points
    out["metrics.gain.element_terms"] = counters.element_terms
    out["propagation.spectrum.distinct_ratio"] = (
        len(counters.hop_keys) / counters.hops if counters.hops else 0.0)
    out["propagation.peak_alloc_mb"] = tracer.peak_alloc_bytes / 2**20
    for key, probe in (("propagation.asm.oracle_digits", plane),
                       ("metrics.gain.oracle_digits", gain)):
        out[key] = (workloads.digits(probe.errors, LAYER_REL_ERR_FLOOR)
                    if probe is not None else 0.0)
    return out


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    mode, out_dir = spec["mode"], Path(spec["out_dir"])
    import thzbeam  # noqa: F401  (set-up cost: numpy, scipy and the package)
    import thzbeam.cli  # noqa: F401

    workload = workloads.WORKLOADS[spec["workload"]](spec["seed"])
    workload.inputs()
    tracer = counters = gain = None
    plane = workload.plane_probe()
    if mode == "traced":
        counters = Counters()
        gain = workload.gain_probe()
        hooks = {"propagation.fft": [counters.fft], "metrics.gain": [counters.gain],
                 "propagation.asm": [counters.asm], "propagation.slice": [counters.slice]}
        if plane is not None:
            hooks["propagation.asm"].append(plane)
        if gain is not None:
            hooks["metrics.gain"].append(gain)
        tracer = Tracer(hooks)
        tracer.install()
        restore = tracer.uninstall
    elif plane is not None and workload.oracle_from_plane:
        restore = capture_only("propagation.asm", plane).restore
    else:
        plane = None
        restore = lambda: None  # noqa: E731

    study, inputs = workload.prepare(out_dir)
    result = {"t_ready": now(), "inputs": inputs}
    before = reference_times()
    failures = []
    cpu_start = cpu_seconds()
    study_start = now()
    try:
        status = study()
        if status != 0:
            failures.append(f"study returned exit status {status}")
    except (Exception, SystemExit):
        failures.append("study raised:\n" + traceback.format_exc())
    result["study_wall_s"] = now() - study_start
    result["cpu_s"] = cpu_seconds() - cpu_start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    restore()
    result["reference_s"] = reference_seconds(before, reference_times())

    if not failures:
        try:
            predicate_failures, errors = workload.check(out_dir, plane)
            failures += predicate_failures
            if errors:
                result["oracle_digits"] = workloads.digits(errors, workloads.FORMAT_REL_ERR)
                if result["oracle_digits"] < workloads.FLOOR_DIGITS:
                    failures.append(f"oracle_digits {result['oracle_digits']:.3f} below "
                                    f"the floor {workloads.FLOOR_DIGITS}")
            else:
                failures.append("no oracle probe was compared")
            result["artifacts"], result["bytes_written"] = artifact_digests(out_dir)
            if tracer is not None:
                result["per_layer"] = per_layer(tracer, counters, plane, gain)
                result["per_layer"]["io.bytes_written"] = result["bytes_written"]
        except Exception:
            failures.append("check raised:\n" + traceback.format_exc())
    if tracer is not None:
        Path(spec["trace_path"]).write_text(json.dumps(
            {"workload": spec["workload"], "seed": spec["seed"],
             "spans": [{"name": n, "start": s, "end": e, "parent": p}
                       for n, s, e, p in tracer.spans]}))
    result["failures"] = failures
    result["env"] = environment()
    result["env"]["thread_env"] = {k: v for k, v in os.environ.items()
                                   if k.endswith("_THREADS")}
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
