"""Tests of the benchmark itself: a smoke run of every workload, and a
negative test per output check showing it rejects a corrupted result.

    python3 -m pytest -q optbench/test_optbench.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

WORK = ROOT / ".optbench_work" / "test"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(name, trace):
    out = subprocess.run(
        [sys.executable, "optbench/run.py", "--workload", name, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def run_once(name, seed=3):
    w = workloads.make(name, seed, "smoke", WORK / name)
    w.prepare()
    w.run()
    rec = w.collect()
    assert w.check(rec)[0] == []
    return w, rec


def failures(w, rec):
    w.first = None  # judge the corrupted record on its own, not by its difference from the first
    return " | ".join(w.check(rec)[0])


def corrupted(rec, path, change):
    bad = copy.deepcopy(rec)
    *keys, last = path
    target = bad
    for key in keys:
        target = target[key]
    target[last] = change(target[last])
    return bad


def test_search_p2_rejects_perturbed_trace_and_duplicated_point():
    w, rec = run_once("search-p2")
    assert "bpn_trace" in failures(w, corrupted(rec, ["trace", 4], lambda v: v * (1 + 1e-4)))
    assert "duplicated" in failures(w, corrupted(rec, ["points", 1], lambda _: rec["points"][0]))
    assert "off the candidate lattice" in failures(w, corrupted(rec, ["points", 2], lambda p: [p[0] + 1e-3, p[1]]))
    assert "differs from the first" in w.check(corrupted(rec, ["design_json"], lambda s: s + " "))[0][0]


def test_search_pinf_rejects_poor_design_and_duplicated_point():
    w, rec = run_once("search-pinf")
    corner = w.problem.candidates[: w.m].tolist()  # a clustered edge design
    assert "random-design median" in failures(w, corrupted(rec, ["points"], lambda _: corner))
    assert "duplicated" in failures(w, corrupted(rec, ["points", 3], lambda _: rec["points"][0]))


@pytest.mark.parametrize("path, label", [
    (["discrete", 0, "bpn", "values", "e2"], "BPN(e2)"),
    (["discrete", 1, "bdt", "values", "e1"], "BR(e1)"),
    (["mc_gaussian", 0], "pair reduction"),
    (["mc_counterexample", "e2", 0], "bpn_exact"),
    (["quadrature", "bpn_monte_carlo", "estimate"], "quadrature Monte Carlo"),
    (["regression", "D", "values", "x2"], "regression D(x2)"),
    (["greedy_p2"], "greedy p=2 design_bpn"),
])
def test_evaluate_rejects_wrong_value(path, label):
    w, rec = run_once("evaluate")
    assert label in failures(w, corrupted(rec, path, lambda v: v * 1.5 + 0.5))


def test_evaluate_rejects_changed_output_between_iterations():
    w, rec = run_once("evaluate")
    again = corrupted(rec, ["random_p2", 0], lambda v: v * (1 + 1e-15) + 1e-300)
    assert w.check(again)[0] == ["output differs from the first iteration"]
