"""casskit benchmark: run workloads, check their outputs, print metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh worker process (``worker.py``), so peak RSS
and garbage-collector state belong to that workload alone.  A worker that
raises, is killed or runs out of time still yields a row: its unfinished
operations count as failed and the remaining workloads still run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer
ones.  For ``--workload all`` the metric names are prefixed with
``<workload>/``.  Exits 0 only when every check passed and no operation
failed; exits 2, printing no result, when the casskit sources are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-small", "train-gst32")
TIME_LIMIT_S = 170.0
# One BLAS thread: every workload is a single closed-loop caller, and one
# thread keeps timings steady on a shared machine.  Same value on every run.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "blas_threads": int(BLAS_THREADS), "commit": commit}


def run_worker(name, seed, seconds, trace, out, deadline):
    """Run one workload in a child process; returns its result dict."""
    out.mkdir(parents=True)
    env = dict(os.environ, **{k: BLAS_THREADS for k in BLAS_ENV})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr.fileno())
    pid = 0
    try:
        while not pid and time.monotonic() < deadline:
            time.sleep(0.05)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not pid:  # out of time, or interrupted: never leave the worker running
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
    timed_out = not pid
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak = [usage.ru_maxrss / 1024.0, "MiB"]  # ru_maxrss is in KiB
    try:
        result = json.loads((out / "result.json").read_text())
    except (OSError, ValueError):
        why = "timed out" if timed_out else f"exit code {proc.returncode}"
        try:
            prog = json.loads((out / "progress.json").read_text())
        except (OSError, ValueError):
            prog = {"attempted": 1, "failed": 1}
        return {"workload": name, "seed": seed, "units": 0, "attempted": prog["attempted"],
                "failed": prog["failed"], "checks": [["worker", False, f"worker {why}"]],
                "metrics": {"peak_rss_mb": peak}, "env": {}}
    if not trace:
        result["metrics"]["peak_rss_mb"] = peak
    return result


def print_result(r):
    frac = r["failed"] / max(r["attempted"], 1)
    print(f"== {r['workload']}  seed={r['seed']}  units={r['units']}  "
          f"attempted={r['attempted']}  failed={r['failed']}  failed_frac={frac:.4f}")
    for name, (value, unit) in r["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for name, ok, detail in r["checks"]:
        print(f"  check {name:28s} {'PASS' if ok else 'FAIL'}  {detail}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    # SIGTERM unwinds like an exception, so the worker is killed and reaped
    # and the scratch directory removed on that path too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "casskit" / "__init__.py").is_file():
        print(f"casskit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        info = machine_info()
        results = []
        for name in names:
            deadline = (start if len(names) == 1 else time.monotonic()) + TIME_LIMIT_S
            results.append(run_worker(name, args.seed, args.seconds, args.trace, tmp / name,
                                      deadline))
            if (tmp / name / "spans.json").is_file():
                spans = scratch / f"spans-{name}-seed{args.seed}.json"
                os.replace(tmp / name / "spans.json", spans)
                print(f"spans of the traced {name} unit: {spans.relative_to(ROOT)}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    info.update(results[0].get("env", {}))
    print("# machine " + json.dumps(info))
    for r in results:
        print_result(r)
    correct = all(ok for r in results for _, ok, _ in r["checks"]) and not any(
        r["failed"] for r in results)
    prefix = len(names) > 1
    metrics = {(f"{r['workload']}/" if prefix else "") + k: {"value": v, "unit": u}
               for r in results for k, (v, u) in r["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
