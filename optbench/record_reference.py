"""Regenerate optbench/reference.json, the recorded values the output
checks compare against.

    PYTHONPATH=src python3 optbench/record_reference.py

Run it only when the program's results are meant to change; a change that
claims a speed-up must leave the reference as it is.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np

from optinfo import pde
from optinfo.criteria import MonteCarloConfig

import workloads


def record(size: str) -> dict:
    s = workloads.SIZES[size]
    search_cfg = MonteCarloConfig(seed=0, n_outer=s["samples"])
    p2 = workloads.make_problem(size, 2.0)
    state2, _, trace2 = pde.greedy_design(p2, s["m"], search_cfg)
    pinf = workloads.make_problem(size, np.inf)
    stateinf, _, _ = pde.greedy_design(pinf, s["m"], search_cfg)
    check_cfg = MonteCarloConfig(seed=workloads.CHECK_SEED, n_outer=s["check_draws"])
    randoms = [pde.design_criterion(pinf, d, check_cfg)[0]
               for d in workloads.criterion8_random_designs()]
    return {
        "search-p2": {
            "points": [list(map(float, p)) for p in state2.points],
            "trace": trace2,
            "design_bpn": pde.design_criterion(p2, state2.points)[0],
        },
        "search-pinf": {
            "points": [list(map(float, p)) for p in stateinf.points],
            "random_median": statistics.median(randoms),
        },
    }


if __name__ == "__main__":
    doc = {size: record(size) for size in workloads.SIZES}
    path = Path(workloads.__file__).with_name("reference.json")
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
