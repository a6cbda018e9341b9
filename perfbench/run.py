"""thzbeam benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload fig4-blockage --seed 1 --seconds 30 --trace 0

Every measured study runs in a fresh worker process (perfbench/worker.py)
that imports thzbeam from ``src/`` of this checkout, one process at a time
and with the BLAS/OpenMP pools pinned to one thread.  ``--trace 0`` runs
studies back to back for ``--seconds`` and reports the medians of the
end-to-end metrics named in BENCHMARK.json; ``--trace 1`` runs one
untraced and one traced study and reports the per-layer metrics.

The host's speed drifts by up to 1.7x within minutes, and CPU time drifts
with it.  So ``setup_s`` and ``run_s`` are the worker's set-up and study
wall times rescaled to a host on which the worker's reference task takes
``REFERENCE_NOMINAL_S``; the raw times are kept as ``process.*`` metrics.  The last
line of standard output is the JSON result; lines before it give medians,
quartiles and sample counts.  Work files live in ``.bench_work/`` at the
root of the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".bench_work"
# every worker must have ended this long after the run started
DEADLINE_S = 170.0
# about the reference task's time on the 2-core Xeon VM of the baseline
REFERENCE_NOMINAL_S = 0.15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def machine() -> dict:
    """What the run ran on.  /proc is read where present; it is not required."""
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg()}
    for path, key, field in (("/proc/cpuinfo", "cpu_model", "model name"),
                             ("/proc/meminfo", "mem_total", "MemTotal")):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(field):
                        info[key] = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
    return info


def spawn(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run one worker; return its result with ``wall_s``, ``failures`` and, once
    the study has run, the rescaled ``setup_s`` and ``run_s``."""
    rep_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=WORK / "tmp"))
    spec = {"workload": workload, "seed": seed, "mode": mode, "out_dir": str(rep_dir / "out"),
            "trace_path": str(WORK / "traces" / f"{workload}-seed{seed}.json")}
    (rep_dir / "spec.json").write_text(json.dumps(spec))
    result_path = rep_dir / "result.json"
    start = now()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), str(rep_dir / "spec.json"),
                               str(result_path)], env=worker_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL, timeout=max(deadline - now(), 1.0))
        status = f"worker exited with status {proc.returncode}" if proc.returncode else None
    except subprocess.TimeoutExpired:
        status = "worker killed at the run deadline"
    wall = now() - start
    result = json.loads(result_path.read_text()) if result_path.is_file() else {}
    shutil.rmtree(rep_dir)
    result.setdefault("failures", [])
    if status or "reference_s" not in result:
        result["failures"].append(status or "worker wrote no result")
    else:
        result["setup_wall_s"] = result["t_ready"] - start
        scale = REFERENCE_NOMINAL_S / result["reference_s"]
        result["setup_s"] = result["setup_wall_s"] * scale
        result["run_s"] = result["study_wall_s"] * scale
    result["wall_s"] = wall
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_reruns(workload: str, reps: list[dict]) -> None:
    """Artifacts must match, byte for byte, the first run of the same inputs.

    The first run in this checkout of a (workload, inputs, source,
    library versions) combination records its artifact digests; every
    later run, in this or another invocation, is compared against them.
    """
    store_path = WORK / "artifact-digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    src = source_digest()
    for rep in reps:
        if "artifacts" not in rep:
            continue
        env = rep["env"]
        key = hashlib.sha256(json.dumps(
            [workload, rep["inputs"], src, env["python"], env["numpy"], env["scipy"]]
        ).encode()).hexdigest()
        first = store.setdefault(key, rep["artifacts"])
        if first != rep["artifacts"]:
            changed = sorted(set(first.items()) ^ set(rep["artifacts"].items()))
            rep["failures"].append(f"artifacts differ from the first run: {changed[:4]}")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "thzbeam" / "__init__.py").is_file():
        print(f"no thzbeam sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    for sub in ("tmp", "traces", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)

    started = now()
    deadline = started + DEADLINE_S
    reps, traced = [], None
    if args.trace:
        reps.append(spawn("run", args.workload, args.seed, deadline))
        traced = spawn("traced", args.workload, args.seed, deadline)
    else:
        loop_start = now()
        while True:
            reps.append(spawn("run", args.workload, args.seed, deadline))
            mean_wall = statistics.fmean(r["wall_s"] for r in reps)
            if now() - loop_start + mean_wall > args.seconds or now() + mean_wall > deadline:
                break
    studies = reps + ([traced] if traced else [])
    check_reruns(args.workload, studies)

    completed = [r for r in reps if "run_s" in r]
    if not completed:
        for failure in (f for r in studies for f in r["failures"]):
            print(f"failed: {failure}", file=sys.stderr)
        print("no study run completed; no result", file=sys.stderr)
        return 1

    samples = {
        "setup_s": [r["setup_s"] for r in reps if "setup_s" in r],
        "run_s": [r["run_s"] for r in completed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in completed],
        "oracle_digits": [r["oracle_digits"] for r in completed if "oracle_digits" in r],
        "process.cpu_s": [r["cpu_s"] for r in completed],
        "process.wall_s": [r["study_wall_s"] for r in completed],
        "process.setup_wall_s": [r["setup_wall_s"] for r in completed],
        "host.reference_s": [r["reference_s"] for r in completed],
    }
    if traced and "run_s" in traced:
        samples["trace.overhead_s"] = [traced["run_s"] - statistics.median(samples["run_s"])]
    stats = {name: summary(v) for name, v in samples.items() if v}
    layer_values = (traced or {}).get("per_layer", {})

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in stats:
            value = stats[m["name"]]["median"]
        else:
            value = layer_values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    failed_runs = [r for r in studies if r["failures"]]
    for r in failed_runs:
        for failure in r["failures"]:
            print(f"failed: {failure}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": now() - started,
        "env": {**machine(), **(completed[0].get("env") or {})},
        "stats": stats, "per_layer": layer_values,
        "failures": [f for r in failed_runs for f in r["failures"]],
    }
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, s in stats.items():
        print(f"{name:22s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"n {s['n']}")
    print(json.dumps({"correct": not failed_runs, "attempted": len(studies),
                      "failed": len(failed_runs), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
