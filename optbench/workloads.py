"""The benchmark's workloads: inputs generated from a seed, the timed body,
and the output checks, which run outside the timed region.

Each workload object is built once per process (the set-up), then the
runner repeats prepare() (untimed), run() (timed), collect() and check()
(untimed). check() returns the failures found and the workload's
design_bpn: the p = 2 criterion of the greedy reference design on
`evaluate`, and the criterion of the returned design on the searches.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
from pathlib import Path

import numpy as np

import oracles
from optinfo import cli, criteria, discrete, pde
from optinfo.criteria import MonteCarloConfig
from optinfo.decisions import GaussianLinearProblem, PNormOnGrid
from optinfo.gaussian import GaussianDensity, derive_rng

HERE = Path(__file__).resolve().parent

SIZES = {
    "full": dict(eval_grid=32, candidate_grid=25, n_boundary=32, m=9, samples=128,
                 random_designs=6, mc_outer=10_000, quad_outer=20_000, triples=50,
                 check_draws=4096),
    "smoke": dict(eval_grid=8, candidate_grid=5, n_boundary=32, m=9, samples=32,
                  random_designs=3, mc_outer=500, quad_outer=2000, triples=5,
                  check_draws=512),
}

# Relative tolerance of the p = 2 trace and design_bpn checks. Switching
# OpenBLAS kernels (OPENBLAS_CORETYPE) moves these values by up to 3e-8:
# the Gram matrices are ill-conditioned, so roundoff is amplified.
ROUNDOFF_RTOL = 1e-6
# Stderr multiple of the Monte Carlo oracle checks: loose enough that a new
# random stream rarely trips them, tight enough to catch a wrong value.
STDERRS = 5.0
# Monte Carlo seed of the p = inf design_bpn evaluation.
CHECK_SEED = 0


def reference(size: str) -> dict:
    return json.loads((HERE / "reference.json").read_text())[size]


def make_problem(size: str, p: float) -> pde.EllipticDesignProblem:
    s = SIZES[size]
    return pde.EllipticDesignProblem(eval_grid=s["eval_grid"], candidate_grid=s["candidate_grid"],
                                     n_boundary=s["n_boundary"], p=p)


def admissible_grid(count: int) -> list:
    """The 50-triple (p1 <= p2 <= p3) grid of acceptance criterion 1."""
    triples = []
    for p1 in np.linspace(0.02, 0.32, 10):
        for p2 in np.linspace(p1, (1 - p1) / 2, 5):
            p3 = 1.0 - p1 - p2
            if p2 <= p3 < 1.0:
                triples.append((float(p1), float(p2), float(p3)))
    return triples[:count]


def criterion8_random_designs() -> list:
    """The 20 random designs that acceptance criterion 8 compares against."""
    return [derive_rng(1000, i).uniform(0.05, 0.95, (9, 2)) for i in range(20)]


def lattice_failures(problem, points, m: int) -> list:
    """A design must be m distinct points of the candidate lattice."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] != m:
        return [f"design has {pts.shape[0]} points, expected {m}"]
    dist = np.max(np.abs(pts[:, None, :] - problem.candidates[None, :, :]), axis=-1)
    if np.any(dist.min(axis=1) > 1e-12):
        return ["design point off the candidate lattice"]
    if len(set(dist.argmin(axis=1).tolist())) != m:
        return ["duplicated design point"]
    return []


def recondition_gap(problem, points, trace) -> float:
    """Largest relative gap between a p = 2 greedy trace and design_criterion
    recomputed by full reconditioning on each prefix of the design."""
    return max(
        abs(value - pde.design_criterion(problem, points[:k])[0]) / value
        for k, value in enumerate(trace, start=1)
    )


class Workload:
    def __init__(self, size: str, workdir: Path):
        self.size = size
        workdir.mkdir(parents=True, exist_ok=True)
        self.outdir = workdir / "out"
        self.first = None

    def prepare(self):
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)

    def same_as_first(self, blob) -> list:
        if self.first is None:
            self.first = blob
        return [] if blob == self.first else ["output differs from the first iteration"]

    def recondition_gap(self, rec: dict) -> float:
        """The diagnostic on the recorded p = 2 reference design."""
        ref = reference(self.size)["search-p2"]
        return recondition_gap(make_problem(self.size, 2.0), ref["points"], ref["trace"])


class Search(Workload):
    """One iteration is `optinfo pde-design --m 9 --p <p>` at default sizes."""

    def __init__(self, p_label: str, seed: int, size: str, workdir: Path):
        super().__init__(size, workdir)
        s = SIZES[size]
        self.name = f"search-p{p_label}"
        self.problem = make_problem(size, np.inf if p_label == "inf" else 2.0)
        self.m = s["m"]
        self.check_cfg = MonteCarloConfig(seed=CHECK_SEED, n_outer=s["check_draws"])
        self.ref = reference(size)[self.name]
        self.argv = ["pde-design", "--m", str(self.m), "--p", p_label,
                     "--eval-grid", str(s["eval_grid"]), "--candidate-grid", str(s["candidate_grid"]),
                     "--n-boundary", str(s["n_boundary"]), "--samples", str(s["samples"]),
                     "--seed", str(seed), "--threads", "1", "--outdir", str(self.outdir)]

    def run(self):
        code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"pde-design exited with code {code}")

    def collect(self) -> dict:
        raw = (self.outdir / "design.json").read_text()
        doc = json.loads(raw)
        scored = 0
        for path in self.outdir.glob("step_*.csv"):
            for line in path.read_text().splitlines()[1:]:
                # Under numpy >= 2 the CLI writes cells as np.float64(...).
                cell = line.rsplit(",", 1)[1].removeprefix("np.float64(").removesuffix(")")
                scored += bool(np.isfinite(float(cell)))
        return {"design_json": raw, "points": doc["points"], "trace": doc["bpn_trace"],
                "candidates_scored": scored}

    def check(self, rec: dict):
        failures = self.same_as_first(rec["design_json"])
        failures += lattice_failures(self.problem, rec["points"], self.m)
        if failures:
            return failures, float("nan")
        if self.problem.p == 2.0:
            # Values only: mirror-image designs tie up to roundoff.
            trace_ok = len(rec["trace"]) == self.m and np.allclose(
                rec["trace"], self.ref["trace"], rtol=ROUNDOFF_RTOL, atol=0.0)
            if not trace_ok:
                failures.append("bpn_trace differs from the reference")
            bpn = pde.design_criterion(self.problem, rec["points"])[0]
            if not np.isclose(bpn, self.ref["design_bpn"], rtol=ROUNDOFF_RTOL, atol=0.0):
                failures.append(f"design_bpn {bpn!r} differs from the reference")
        else:
            bpn = pde.design_criterion(self.problem, rec["points"], self.check_cfg)[0]
            if not bpn <= self.ref["random_median"]:
                failures.append(f"design_bpn {bpn!r} above the random-design median")
        return failures, bpn

    def recondition_gap(self, rec: dict) -> float:
        if self.problem.p == 2.0:
            return recondition_gap(self.problem, rec["points"], rec["trace"])
        return super().recondition_gap(rec)


class Evaluate(Workload):
    """Fixed-design evaluation: random and greedy PDE designs, nested and
    pair-reduced BPN estimators, and the quadrature, discrete and regression
    subcommands."""

    name = "evaluate"

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(size, workdir)
        s = SIZES[size]
        rng = np.random.default_rng(seed)
        self.p2 = make_problem(size, 2.0)
        self.pinf = make_problem(size, np.inf)
        cands = self.p2.candidates
        self.designs = [cands[np.sort(rng.choice(len(cands), 9, replace=False))]
                        for _ in range(s["random_designs"])]
        self.ref = reference(size)
        self.design_cfg = MonteCarloConfig(seed=int(rng.integers(2**31)), n_outer=s["samples"])
        self.mc_cfg = MonteCarloConfig(seed=int(rng.integers(2**31)), n_outer=s["mc_outer"], n_inner=4)
        self.pair_cfg = MonteCarloConfig(seed=int(rng.integers(2**31)), n_outer=s["mc_outer"])
        self.triples = triples = admissible_grid(s["triples"])
        self.counterexample = discrete.build_counterexample(
            discrete.CounterexampleSpec(*triples[int(rng.integers(len(triples)))]))
        d = 4
        L = rng.standard_normal((d, d))
        self.prior = GaussianDensity(rng.standard_normal(d), L @ L.T + np.eye(d))
        self.design_matrix = rng.standard_normal((2, d))
        self.loss_weights = rng.uniform(0.2, 1.0, d)
        M = rng.standard_normal((d, d))
        self.regression = {
            "prior_cov": (M @ M.T + np.eye(d)).tolist(),
            "lambda": np.diag(rng.uniform(0.5, 2.0, d)).tolist(),
            "c": rng.standard_normal(d).tolist(),
            "candidates": {f"x{i}": rng.standard_normal((int(rng.integers(1, 4)), d)).tolist()
                           for i in range(6)},
        }
        config = workdir / "regression.json"
        config.write_text(json.dumps(self.regression))
        out = self.outdir
        self.argvs = [
            ["quadrature", "--n", "4", "--optimize", "--mc", "--seed", str(int(rng.integers(2**31))),
             "--n-outer", str(s["quad_outer"]), "--output", str(out / "quadrature.json")],
            *(["discrete", "--counterexample", *map(repr, t), "--output", str(out / f"discrete_{i}.json")]
              for i, t in enumerate(triples)),
            ["regression", "--config", str(config), "--output", str(out / "regression.json")],
        ]

    def run(self):
        r = {
            "random_p2": [pde.design_criterion(self.p2, d)[0] for d in self.designs],
            "random_pinf": [pde.design_criterion(self.pinf, d, self.design_cfg) for d in self.designs],
            "greedy_p2": pde.design_criterion(self.p2, self.ref["search-p2"]["points"])[0],
            "greedy_pinf": pde.design_criterion(self.pinf, self.ref["search-pinf"]["points"],
                                                self.design_cfg),
            "mc_counterexample": {e: criteria.bpn_mc(self.counterexample, e, self.mc_cfg)
                                  for e in self.counterexample.experiment_ids()},
        }
        gaussian = GaussianLinearProblem(self.prior, {"e": (self.design_matrix, np.eye(2))},
                                         PNormOnGrid(np.inf, self.loss_weights))
        r["mc_gaussian"] = criteria.bpn_mc(gaussian, "e", self.mc_cfg)
        r["pair_reduction"] = criteria.bpn_gaussian_pair_reduction(
            gaussian.posterior_cov("e"), gaussian.loss, self.pair_cfg)
        with contextlib.redirect_stderr(io.StringIO()):
            for argv in self.argvs:
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"optinfo {argv[0]} exited with code {code}")
        self.result = r

    def collect(self) -> dict:
        rec = json.loads(json.dumps(self.result))  # tuples become lists, as in the files
        rec["quadrature"] = json.loads((self.outdir / "quadrature.json").read_text())
        rec["discrete"] = [json.loads((self.outdir / f"discrete_{i}.json").read_text())
                           for i in range(len(self.triples))]
        rec["regression"] = json.loads((self.outdir / "regression.json").read_text())
        return rec

    def check(self, rec: dict):
        failures = self.same_as_first(json.dumps(rec, sort_keys=True))

        def near(label, got, want, tol):
            if not abs(got - want) <= tol:
                failures.append(f"{label}: {got!r} vs {want!r} (tolerance {tol:.3g})")

        bpn = rec["greedy_p2"]
        near("greedy p=2 design_bpn", bpn, self.ref["search-p2"]["design_bpn"],
             ROUNDOFF_RTOL * self.ref["search-p2"]["design_bpn"])
        random_inf = [v for v, _ in rec["random_pinf"]]
        if not all(v > 0 and np.isfinite(v) for v in rec["random_p2"] + random_inf):
            failures.append("random-design criterion not finite and positive")
        if not bpn <= statistics.median(rec["random_p2"]):
            failures.append("greedy p=2 design loses to the random-design median")
        if not rec["greedy_pinf"][0] <= statistics.median(random_inf):
            failures.append("greedy p=inf design loses to the random-design median")

        for e, (est, se) in rec["mc_counterexample"].items():
            near(f"bpn_mc({e}) vs bpn_exact", est, discrete.bpn_exact(self.counterexample, e),
                 max(STDERRS * se, 1e-12))
        (nested, nested_se), (reduced, reduced_se) = rec["mc_gaussian"], rec["pair_reduction"]
        near("bpn_mc vs pair reduction", nested, reduced, STDERRS * np.hypot(nested_se, reduced_se))

        quad = rec["quadrature"]
        closed = 4 * 0.25**3 / 6.0
        near("quadrature closed form", quad["bpn"], closed, 1e-15)
        near("quadrature Monte Carlo", quad["bpn_monte_carlo"]["estimate"], closed,
             STDERRS * quad["bpn_monte_carlo"]["stderr"])

        for triple, doc in zip(self.triples, rec["discrete"]):
            problem = discrete.build_counterexample(discrete.CounterexampleSpec(*triple))
            for e, (risk, bpn_e) in oracles.discrete_brute_force(problem).items():
                near(f"discrete {triple} BR({e})", doc["bdt"]["values"][e], risk, 1e-12)
                near(f"discrete {triple} BPN({e})", doc["bpn"]["values"][e], bpn_e, 1e-12)

        for crit, values in oracles.regression_values(self.regression).items():
            for cid, want in values.items():
                near(f"regression {crit}({cid})", rec["regression"][crit]["values"][cid], want,
                     1e-8 * abs(want))
        return failures, bpn


def make(name: str, seed: int, size: str, workdir: Path):
    if name == "evaluate":
        return Evaluate(seed, size, workdir)
    return Search(name.removeprefix("search-p"), seed, size, workdir)
