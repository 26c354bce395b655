"""Command-line entry point for the case studies.

Subcommands: quadrature (node-placement case study), pde-design (elliptic
design search with contour-grid export), discrete (finite-state criteria
report, including the built-in counterexample) and regression (alphabet
criteria comparison for linear-Gaussian candidates).

Exit codes: 0 success, 2 invalid arguments/input, 3 numerical failure.
All outputs are deterministic given flags and seed; OPTINFO_SEED is read
on each call and used as a fallback when --seed is not passed. Each
command runs the OpenBLAS pools already loaded on one thread
(``_blas.one_thread``), and the PDE search and criterion and the
regression command load and pin scipy's too, so no command's bytes depend
on OPENBLAS_NUM_THREADS or the core count; pde-design's --threads is the
only parallelism. The parser is built on the first call, not at import,
and reused by later calls in the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import criteria, discrete, gaussian, pde, quadrature
from ._blas import one_thread
from .criteria import MonteCarloConfig
from .errors import InvalidSpec, OptinfoError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _seed(text: str) -> int:
    """A --seed or OPTINFO_SEED value: an integer >= 0."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return seed


def _default_seed() -> int:
    try:
        return _seed(os.environ.get("OPTINFO_SEED", "0"))
    except argparse.ArgumentTypeError:
        return 0


def _dump(doc: dict, output: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def cmd_quadrature(args) -> int:
    if args.optimize:
        if args.n is None:
            raise InvalidSpec("--optimize requires --n")
        design = quadrature.optimize_design(args.n, optimizer="closed-form")
    elif args.n is not None:
        raise InvalidSpec("--n requires --optimize")
    else:
        design = quadrature.QuadratureDesign(args.nodes)
    mc = None
    if args.mc:
        cfg = MonteCarloConfig(seed=args.seed, n_outer=args.n_outer, n_inner=args.n_inner)
        mc = quadrature.bpn_monte_carlo(design, cfg)
    report = quadrature.design_report(design, mc=mc)
    report["seed"] = args.seed
    _dump(report, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pde-design
# ---------------------------------------------------------------------------


def _p_label(p: float) -> str:
    return "inf" if p == np.inf else f"{p:g}"


def _contour_csvs(candidates, grids):
    """Yield the CSV text of each step's criterion grid, one step at a time:
    a line "x,y,bpn" per candidate, every float in its shortest round-trip
    repr ("nan" where the candidate was already picked). The "x,y," prefixes
    are formatted once for all steps, from Python floats rather than numpy
    scalars."""
    prefixes = [f"{x!r},{y!r}," for x, y in candidates.tolist()]
    for grid in grids:
        lines = [prefix + repr(v) for prefix, v in zip(prefixes, grid.ravel().tolist())]
        yield "\n".join(["x,y,bpn", *lines]) + "\n"


def cmd_pde_design(args) -> int:
    p = np.inf if args.p == "inf" else float(args.p)
    problem = pde.EllipticDesignProblem(
        eval_grid=args.eval_grid,
        candidate_grid=args.candidate_grid,
        n_boundary=args.n_boundary,
        p=p,
    )
    criteria._check_integer("samples", args.samples, 1)
    cfg = MonteCarloConfig(seed=args.seed, n_outer=args.samples)
    state, contours, trace = pde.greedy_design(problem, args.m, cfg, threads=args.threads)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    label = _p_label(p)
    for k, text in enumerate(_contour_csvs(problem.candidates, contours), start=1):
        (outdir / f"step_{k}_p{label}.csv").write_text(text)
    summary = {
        "points": [list(map(float, pt)) for pt in state.points],
        "bpn_trace": trace,
        "config": {
            "m": args.m,
            "p": label,
            "eval_grid": args.eval_grid,
            "candidate_grid": args.candidate_grid,
            "n_boundary": args.n_boundary,
            "samples": args.samples,
        },
        "seed": args.seed,
    }
    _dump(summary, str(outdir / "design.json"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# discrete
# ---------------------------------------------------------------------------


def cmd_discrete(args) -> int:
    if args.counterexample is not None:
        p1, p2, p3 = args.counterexample
        problem = discrete.build_counterexample(discrete.CounterexampleSpec(p1, p2, p3))
    else:
        problem = discrete.load_problem(args.problem)
    reports = discrete.criteria_report(problem)
    doc = {name: rep.to_json_dict() for name, rep in reports.items()}
    _dump(doc, args.output)
    # Human-readable table on stderr.
    ids = problem.experiment_ids()
    header = "criterion".ljust(10) + "".join(str(e).rjust(14) for e in ids) + "  optimal"
    print(header, file=sys.stderr)
    for name, rep in doc.items():
        row = name.ljust(10)
        row += "".join(f"{rep['values'][str(e)]:14.6g}" for e in ids)
        row += "  {" + ", ".join(rep["optimal_set"]) + "}"
        print(row, file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# regression
# ---------------------------------------------------------------------------


def cmd_regression(args) -> int:
    doc = discrete._read_json(args.config)
    discrete._require(isinstance(doc, dict), "$", "document must be an object")
    for key in ("prior_cov", "candidates"):
        discrete._require(key in doc, f"$.{key}", "missing required key")
    prior_cov = discrete._array(doc["prior_cov"], "$.prior_cov", (None, None))
    d = prior_cov.shape[0]
    discrete._require(prior_cov.shape[1] == d, "$.prior_cov",
                      f"must be square, not {d} x {prior_cov.shape[1]}")
    lam = discrete._array(doc["lambda"], "$.lambda", (d, d)) if "lambda" in doc else np.eye(d)
    direction = discrete._array(doc["c"], "$.c", (d,)) if "c" in doc else None
    which = ["A", "E", "D"] + (["c"] if direction is not None else [])
    discrete._require(isinstance(doc["candidates"], dict) and doc["candidates"],
                      "$.candidates", "must be a non-empty object")
    designs = {cid: discrete._array(A, f"$.candidates.{cid}", (None, d))
               for cid, A in doc["candidates"].items()}

    # Imported before pinning, so that scipy's pool, which runs the
    # posterior's Cholesky factorisations, is pinned too.
    import scipy.linalg  # noqa: F401

    prior = gaussian.GaussianDensity(np.zeros(d), prior_cov)
    values: dict = {w: {} for w in which}
    with one_thread():
        for cid, A in designs.items():
            post = gaussian.conjugate_posterior(prior, A, np.eye(A.shape[0]),
                                                np.zeros(A.shape[0]))
            for w in which:
                values[w][cid] = criteria.alphabet(post.cov, lam, w, direction=direction)
    out = {
        w: criteria.make_report(f"{w}-optimality", vals).to_json_dict()
        for w, vals in values.items()
    }
    _dump(out, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. Parsing keeps no state in it, and
    --seed defaults to None, filled by ``main`` from OPTINFO_SEED on each
    call."""
    parser = argparse.ArgumentParser(
        prog="optinfo",
        description="Optimality criteria for probabilistic numerical methods",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quadrature", help="node-placement case study")
    q.add_argument("--n", type=int, default=None, help="number of intervals (with --optimize)")
    nodes = q.add_mutually_exclusive_group(required=True)
    nodes.add_argument("--nodes", type=float, nargs="+", default=None,
                       help="explicit interior nodes in [0, 1]")
    nodes.add_argument("--optimize", action="store_true", help="use the optimal equispaced nodes")
    q.add_argument("--mc", action="store_true", help="add a Monte Carlo criterion estimate")
    q.add_argument("--seed", type=_seed, default=None)
    q.add_argument("--n-outer", type=int, default=20000)
    q.add_argument("--n-inner", type=int, default=4)
    q.add_argument("--output", default=None, help="write the JSON report to this file")
    q.set_defaults(func=cmd_quadrature)

    g = sub.add_parser("pde-design", help="elliptic design search with contour export")
    g.add_argument("--m", type=int, required=True, help="number of interior points")
    g.add_argument("--p", default="2", help="loss exponent: 2 or inf")
    g.add_argument("--eval-grid", type=int, default=32)
    g.add_argument("--candidate-grid", type=int, default=25)
    g.add_argument("--n-boundary", type=int, default=32)
    g.add_argument("--samples", type=int, default=pde.SEARCH_PAIRS, help="pair samples per candidate (p=inf)")
    g.add_argument("--seed", type=_seed, default=None)
    g.add_argument("--threads", type=int, default=1,
                   help="parallel candidate evaluation; never changes results")
    g.add_argument("--outdir", required=True)
    g.set_defaults(func=cmd_pde_design)

    d = sub.add_parser("discrete", help="finite-state criteria report")
    source = d.add_mutually_exclusive_group(required=True)
    source.add_argument("--problem", default=None, help="problem description JSON file")
    source.add_argument("--counterexample", type=float, nargs=3, default=None,
                        metavar=("P1", "P2", "P3"),
                        help="built-in two-experiment counterexample with these cell probabilities")
    d.add_argument("--output", default=None)
    d.set_defaults(func=cmd_discrete)

    r = sub.add_parser("regression", help="alphabet-criteria comparison")
    r.add_argument("--config", required=True,
                   help="JSON with prior_cov, candidates {id: design matrix}, "
                        "optional lambda and c")
    r.add_argument("--output", default=None)
    r.set_defaults(func=cmd_regression)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "seed", 0) is None:
        args.seed = _default_seed()
    try:
        with one_thread():
            return args.func(args)
    except (InvalidSpec, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OptinfoError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
