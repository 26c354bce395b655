"""Write what a fixed list of CLI commands prints and writes, for a byte
comparison of two checkouts.

    python tests/cli_outputs.py OUTDIR

Each command runs as ``python -m optinfo.cli`` in a child process on this
checkout's ``src``, with ``OPTINFO_SEED`` unset, in its own directory
``OUTDIR/<case>``. That directory receives the command's ``stdout``,
``stderr`` and ``exit_code``, the input file it reads, if any, and the
files it writes (``pde-design --outdir out``). Paths are relative to the
case directory, so no output names OUTDIR. Two checkouts agree on the
command list when ``diff -r`` of their OUTDIRs is empty:

    python tests/cli_outputs.py /tmp/before   # in the first checkout
    python tests/cli_outputs.py /tmp/after    # in the second
    diff -r /tmp/before /tmp/after

The script uses the standard library alone, and pytest's file name rules
do not collect it. OUTDIR must not exist yet, or be empty.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))

# The finite problem of the README's "Input files" section.
DISCRETE_PROBLEM = {
    "states": [{"name": "rain", "prior": 0.3}, {"name": "dry", "prior": 0.7}],
    "experiments": {
        "radar": [[0.9, 0.1], [0.2, 0.8]],
        "coin": [[0.5, 0.5], [0.5, 0.5]],
    },
    "actions": ["umbrella", "none"],
    "loss": [[0, 1], [0.2, 0]],
    "state_loss": [[0, 1], [1, 0]],
}

# Three linear-Gaussian candidates for a 4-dimensional parameter, with a
# weight matrix and a c-direction, so every alphabet criterion is reported.
REGRESSION_CONFIG = {
    "prior_cov": [[2.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.2, 0.0],
                  [0.0, 0.2, 1.5, 0.3], [0.0, 0.0, 0.3, 1.0]],
    "candidates": {
        "pair": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
        "sum": [[1.0, 1.0, 1.0, 1.0]],
        "three": [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]],
    },
    "lambda": [[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0],
               [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.5]],
    "c": [1.0, 0.0, -1.0, 0.5],
}

# (case, argv, input file name, input document)
COMMANDS = [
    *[(f"pde-p{p}-threads{t}",
       ["pde-design", "--m", "9", "--seed", "0", "--p", p, "--threads", str(t),
        "--outdir", "out"], None, None)
      for p in ("2", "inf") for t in (1, 2)],
    ("pde-pinf-no-boundary",
     ["pde-design", "--m", "2", "--p", "inf", "--n-boundary", "0", "--eval-grid", "6",
      "--candidate-grid", "4", "--samples", "16", "--outdir", "out"], None, None),
    ("quadrature-optimize", ["quadrature", "--n", "4", "--optimize", "--mc", "--seed", "0"],
     None, None),
    ("quadrature-nodes", ["quadrature", "--nodes", "0.1", "0.5", "0.7", "--mc", "--seed", "3"],
     None, None),
    ("discrete-counterexample", ["discrete", "--counterexample", "0.2", "0.3", "0.5"],
     None, None),
    ("discrete-problem", ["discrete", "--problem", "problem.json"],
     "problem.json", DISCRETE_PROBLEM),
    ("regression", ["regression", "--config", "designs.json"],
     "designs.json", REGRESSION_CONFIG),
]


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tests/cli_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = os.path.abspath(argv[0])
    os.makedirs(outdir, exist_ok=True)
    if os.listdir(outdir):
        print(f"{outdir} is not empty", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "OPTINFO_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for case, args, input_name, document in COMMANDS:
        cwd = os.path.join(outdir, case)
        os.mkdir(cwd)
        if input_name is not None:
            with open(os.path.join(cwd, input_name), "w", encoding="utf-8") as f:
                json.dump(document, f, indent=2)
        done = subprocess.run([sys.executable, "-m", "optinfo.cli", *args], cwd=cwd, env=env,
                              capture_output=True)
        for name, data in (("stdout", done.stdout), ("stderr", done.stderr),
                           ("exit_code", f"{done.returncode}\n".encode())):
            with open(os.path.join(cwd, name), "wb") as f:
                f.write(data)
        print(f"{case}: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
