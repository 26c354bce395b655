"""Benchmark runner for optinfo: one closed-loop caller, one workload per run.

    python3 optbench/run.py --workload search-p2 --seed 0 --seconds 20 --trace 0

Run from the repository root. The program is imported from ./src. Each
iteration's wall time is measured around the workload's entry points
(`optinfo.cli.main([...])` in-process, plus library calls where the CLI has
none); every output is checked outside the timed region. BLAS threads stay
at the library default.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run that alternates untraced and traced iterations. The metric
names and units are those of BENCHMARK.json. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it records the environment and every iteration. --smoke swaps in
tiny problem sizes that run every path and check in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("search-p2", "search-pinf", "evaluate")
SETUP_PROBES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny problem sizes")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import the program and generate inputs, then exit")
    return parser.parse_args(argv)


def import_program():
    """Put ./src first on the path; refuse to benchmark any other optinfo."""
    if not (SRC / "optinfo" / "__init__.py").is_file():
        sys.exit(f"optbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import optinfo

    if Path(optinfo.__file__).resolve().parent != (SRC / "optinfo").resolve():
        sys.exit(f"optbench: imported optinfo from {optinfo.__file__}, not from {SRC}")


def setup_workload(args):
    import workloads

    workdir = ROOT / ".optbench_work" / args.workload
    return workloads.make(args.workload, args.seed, "smoke" if args.smoke else "full", workdir)


def measure_setup(argv) -> float:
    """Median wall time of fresh processes that import the program and
    generate the workload's inputs."""
    walls = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv, "--setup-probe"],
                       check=True, cwd=ROOT)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def iterate(workload, traced, tracer):
    """One closed-loop iteration: untimed prepare, timed run, untimed check."""
    workload.prepare()
    layers = None
    cpu0, start = time.process_time(), time.perf_counter()
    try:
        if traced:
            layers = tracer.run(workload.run)
        else:
            workload.run()
        error = None
    except Exception as exc:  # an iteration that raises is a failed iteration
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
    rec = None
    if error is None:
        try:
            rec = workload.collect()
            failures, design_bpn = workload.check(rec)
        except Exception as exc:  # a malformed output fails its check
            failures, design_bpn = [f"check raised {type(exc).__name__}: {exc}"], float("nan")
    else:
        failures, design_bpn = [error], float("nan")
    return {"traced": traced, "wall_s": wall, "cpu_s": cpu, "failures": failures,
            "design_bpn": design_bpn, "layers": layers, "record": rec}


def closed_loop(workload, seconds, trace):
    """Iterate until `seconds` have passed (at least two iterations); with
    trace, alternate untraced and traced iterations."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    runs = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(runs) < 2:
        runs.append(iterate(workload, bool(trace) and len(runs) % 2 == 1, tracer))
    return runs


def end_to_end(runs, setup_s):
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_frac": sum(1 for r in runs if not r["failures"]) / len(runs),
        "design_bpn": statistics.median([r["design_bpn"] for r in runs if not r["failures"]]
                                        or [float("nan")]),
    }


def per_layer(workload, runs):
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["layers"]]
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["run.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    out["run.traced_wall_s"] = traced_wall
    out["run.trace_overhead_s"] = traced_wall - plain_wall
    recs = [r["record"] for r in runs if r["record"] is not None]
    out["pde.candidates_scored"] = recs[0].get("candidates_scored", 0) if recs else 0
    out["pde.recondition_gap_rel"] = workload.recondition_gap(recs[0]) if recs else float("nan")
    return out


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np
    import scipy
    from optinfo import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": kernels.BACKEND,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "sizes": "smoke" if args.smoke else "full",
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    import_program()
    if args.setup_probe:
        setup_workload(args)
        return 0
    shutil.rmtree(ROOT / ".optbench_work" / args.workload, ignore_errors=True)
    setup_s = None if args.trace else measure_setup(argv)
    workload = setup_workload(args)
    runs = closed_loop(workload, args.seconds, args.trace)
    values = per_layer(workload, runs) if args.trace else end_to_end(runs, setup_s)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = sum(1 for r in runs if r["failures"])
    print(json.dumps({
        "environment": environment(args),
        "iterations": [{k: r[k] for k in ("traced", "wall_s", "cpu_s", "design_bpn", "failures")}
                       for r in runs],
    }))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
