"""mnewton benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload matrix-sweep --seed 1 --seconds 25 --trace 0

Run from the repository root.  Inputs are generated from the seed under
``.bench_work/<workload>/`` before anything is timed.  Jobs run as a
closed loop with one client: the items of a workload run one after the
other, and passes over all items repeat while another fits in
``--seconds``.  Library items run in a worker process; CLI items run as
``python -m mnewton.cli ...`` subprocesses.  Every verdict is checked
against an answer known by construction.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
items inside a worker with spans around the package's public functions
and reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

import inputs
import manifest
import oracles
import worker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
# fresh-interpreter imports, half before and half after the timed passes
SETUP_REPEATS = 12
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], cwd: Path, stdout=subprocess.DEVNULL,
              stderr=subprocess.DEVNULL) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, its own peak RSS in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=stdout, stderr=stderr)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_seconds(work: Path, count: int) -> list[float]:
    """Wall time of fresh interpreters that only import the package."""
    return [run_child([sys.executable, "-c", "import mnewton"], work)[1] for _ in range(count)]


def subprocess_executor(work: Path, rss: list[float]):
    def execute(item: dict) -> dict:
        with open(work / item["out"], "wb") as out, open(work / (item["out"] + ".err"), "wb") as err:
            code, _, peak = run_child([sys.executable, "-m", "mnewton.cli", *item["argv"]],
                                      work, out, err)
        rss.append(peak)
        return {"code": code}
    return execute


def run_worker(work: Path, items: list[dict], seconds: int, trace: bool) -> tuple[dict, float]:
    job = {"src": str(SRC), "items": items, "seconds": seconds, "trace": trace}
    (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
    with open(work / "worker.err", "wb") as err:
        code, _, peak = run_child([sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
                                   str(work)], work, stderr=err)
    if code != 0:
        raise RuntimeError(f"worker exited {code}: "
                           + (work / "worker.err").read_text(errors="replace")[-2000:])
    return json.loads((work / "worker-result.json").read_text(encoding="utf-8")), peak


def _comparable(rec: dict) -> dict:
    return {k: v for k, v in rec.items() if k not in ("det", "min_eig_re", "eig_newton")}


def verify(items: list[dict], passes: list[dict], work: Path) -> list[tuple[str, str]]:
    """(label, "known:<defect>" | "error:<what>") for every verdict that disagrees."""
    problems = []
    last = passes[-1]["records"]
    for idx, item in enumerate(items):
        recs = [_comparable(p["records"][idx]) for p in passes]
        if any(r != recs[0] for r in recs[1:]):
            problems.append((f"item {idx}", "error:repeated passes disagree"))
        if item["op"] == "matrix":
            problems += oracles.check_matrix(item, last[idx])
        else:
            problems += oracles.check_cli(item, last[idx]["code"], work)
    return problems


def pin_to_one_cpu() -> None:
    """Run this process and every child it starts on one CPU of the allowed set.

    On a small shared VM, runs spread over both vCPUs varied by more than
    half between seeds: the niep-screen thread pool hands the interpreter
    lock across cores, and the vCPUs differ in speed from minute to minute.
    One CPU keeps the program's own threads (the pool, OpenBLAS) but runs
    them on one core, the same way on every commit.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
               if k in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "library default (one per CPU of the affinity set)",
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def latency_line(item_s: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(item_s)
    n = len(xs)
    parts = [f"p50 {statistics.median(xs):.4f} s"]
    for q in (99.9, 99, 90):
        if n * (1 - q / 100) >= 10:
            parts.append(f"p{q:g} {xs[min(n - 1, int(n * q / 100))]:.4f} s")
            break
    return f"item latency {', '.join(parts)}, max {xs[-1]:.4f} s over {n} samples"


def layer_metrics(result: dict, attempted: int) -> dict:
    traced = [p for p in result["passes"] if "layers" in p]
    plain = [p for p in result["passes"] if "layers" not in p]

    def med(key: str) -> float:
        return statistics.median(p["layers"].get(key, 0.0) for p in traced)

    out = {}
    for name, unit, _ in manifest.PER_LAYER:
        if name == "tracing_overhead_s":
            value = (statistics.median(p["pass_s"] for p in traced)
                     - statistics.median(p["pass_s"] for p in plain))
        elif name == "charcoeff.normalized_coeffs.max_rel_err":
            value = result["coeff_max_rel_err"]
        elif name == "forms.psd_check.min_eig_err":
            value = result["min_eig_err"]
        elif name == "pairsums.MinorPairSums.profile.cache_hit_ratio":
            calls = med("pairsums.MinorPairSums.profile.calls")
            value = med("pairsums.MinorPairSums.profile.hits") / calls if calls else 0.0
        elif name == "charcoeff.ensure_conjugate_closed.calls_per_item":
            value = med("charcoeff.ensure_conjugate_closed.calls") / attempted
        elif name.endswith(".self_s"):
            value = med(name[:-len("self_s")] + "s")
        else:
            value = med(name)
        out[name] = {"value": float(value), "unit": unit}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=manifest.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not (SRC / "mnewton" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    work = WORK_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    items = inputs.generate(args.workload, args.seed, work)
    attempted = inputs.verdict_count(items)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    setup = []
    if args.trace:
        result, peak_rss = run_worker(work, items, args.seconds, trace=True)
    else:
        setup = setup_seconds(work, SETUP_REPEATS // 2)
        if items[0]["op"] == "matrix":
            result, peak_rss = run_worker(work, items, args.seconds, trace=False)
        else:
            rss: list[float] = []
            execute = subprocess_executor(work, rss)
            passes = worker.run_passes(lambda i: worker.one_pass(execute, items, work),
                                       args.seconds)
            result, peak_rss = {"passes": passes}, max(rss)
        setup += setup_seconds(work, SETUP_REPEATS - len(setup))

    problems = verify(items, result["passes"], work)
    failed = min(attempted, len({label for label, _ in problems}))
    unexpected = sorted({f"{label}: {what[6:]}" for label, what in problems
                         if what.startswith("error:")})
    known = Counter(what[6:] for _, what in problems if what.startswith("known:"))

    pass_s = [p["pass_s"] for p in result["passes"]]
    kinds = [("traced", [p["pass_s"] for p in result["passes"] if "layers" in p]),
             ("untraced", [p["pass_s"] for p in result["passes"] if "layers" not in p])]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: " + ", ".join(
        f"{len(xs)} {kind} passes, job_s median {statistics.median(xs):.4f} s, max {max(xs):.4f} s"
        for kind, xs in kinds if xs))
    print(latency_line([t for p in result["passes"] for t in p["item_s"]]))
    print(f"error_share {failed / attempted:.6f} ({failed}/{attempted}); known defects "
          + (json.dumps(dict(sorted(known.items()))) if known else "none"))
    for line in unexpected[:20]:
        print("unexpected " + line)

    if args.trace:
        metrics = layer_metrics(result, attempted)
    else:
        values = {"job_s": statistics.median(pass_s), "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_rss, "verdict_ok_share": 1.0 - failed / attempted}
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit, _, _ in manifest.END_TO_END}
    summary = {"correct": not unexpected, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (work / "result.json").write_text(json.dumps({**summary, "env": env, "setup_s": setup,
                                                  "pass_s": pass_s, "known": known},
                                                 indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
