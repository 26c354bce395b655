"""Exact finite-state experimental design engine and the two-experiment
counterexample in which the BPN- and BDT-optimal sets differ.

All probabilities are validated at construction and never renormalised;
invalid input fails loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import criteria
from .decisions import posterior_table
from .errors import InvalidSpec, MissingLossTable

PROB_TOL = 1e-12


class DiscreteProblem:
    """Finite states/observations/actions with prior, likelihood tables,
    a state-action loss table and optionally a state-state loss table
    (required by the BPN criterion)."""

    def __init__(self, states, prior, experiments, actions, loss, state_loss=None):
        self.states = list(states)
        self.prior = np.asarray(prior, dtype=float)
        self.experiments = {k: np.asarray(v, dtype=float) for k, v in experiments.items()}
        self.actions = list(actions)
        self.loss = np.asarray(loss, dtype=float)
        self.state_loss = None if state_loss is None else np.asarray(state_loss, dtype=float)
        self._validate()

    def _validate(self):
        # NaN passes every comparison below, and 0 * inf is NaN in the criteria.
        tables = {"prior": self.prior, "loss table": self.loss, "state_loss table": self.state_loss,
                  **{f"likelihood table for {e!r}": v for e, v in self.experiments.items()}}
        for name, table in tables.items():
            if table is not None and not np.all(np.isfinite(table)):
                raise InvalidSpec(f"{name} has non-finite entries")
        n = len(self.states)
        if self.prior.shape != (n,):
            raise InvalidSpec(f"prior must have length {n}")
        if np.any(self.prior < 0):
            raise InvalidSpec("prior probabilities must be nonnegative")
        if abs(self.prior.sum() - 1.0) > PROB_TOL:
            raise InvalidSpec(f"prior sums to {self.prior.sum()!r}, not 1")
        for e, lik in self.experiments.items():
            if lik.ndim != 2 or lik.shape[0] != n:
                raise InvalidSpec(f"likelihood table for {e!r} must have {n} rows")
            if np.any(lik < 0):
                raise InvalidSpec(f"likelihood table for {e!r} has negative entries")
            if np.any(np.abs(lik.sum(axis=1) - 1.0) > PROB_TOL):
                raise InvalidSpec(f"likelihood rows for {e!r} must sum to 1")
        if self.loss.shape != (n, len(self.actions)):
            raise InvalidSpec(f"loss table must be {n} x {len(self.actions)}")
        if self.state_loss is not None and self.state_loss.shape != (n, n):
            raise InvalidSpec(f"state_loss table must be {n} x {n}")

    def experiment_ids(self):
        return list(self.experiments)

    # Sampling interface shared with GaussianLinearProblem: criteria.bpn_mc
    # and the Monte Carlo bayes_risk draw through sample_prior and
    # sample_nested, and take the generator's numbers in the order of a
    # per-draw loop of rng.choice calls, so they return that loop's values.
    def sample_prior(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(len(self.states), size=n, p=self.prior)

    def sample_nested(self, rng: np.random.Generator, e, n: int, n_inner: int):
        """Draw n prior states x, one observation y of each under e and
        n_inner posterior states x' given each y, in one batched pass.

        Returns (xs, ys, losses) with losses[i, k] = state_loss[xs[i], x'_ik],
        an (n, n_inner) array. After the prior states, one
        ``rng.random((n, 1 + n_inner))`` block gives each draw its
        observation uniform and then its n_inner posterior uniforms, and
        each is inverted through the CDF that ``Generator.choice`` builds,
        so the draws equal a loop of ``rng.choice`` calls. Raises
        MissingLossTable before any draw when inner draws are asked for
        and there is no state_loss table.
        """
        if n_inner and self.state_loss is None:
            raise MissingLossTable("state-to-state loss table is required for BPN")
        lik = self.experiments[e]
        xs = self.sample_prior(rng, n)
        u = rng.random((n, 1 + n_inner))
        ys = _inverse_cdf(_choice_cdf(lik)[xs], u[:, :1])[:, 0]
        if n_inner == 0:
            return xs, ys, np.empty((n, 0))
        post = posterior_table(self, e)[2]
        x_primes = _inverse_cdf(_choice_cdf(post[ys]), u[:, 1:])
        return xs, ys, self.state_loss[xs[:, None], x_primes]


def _choice_cdf(probs: np.ndarray) -> np.ndarray:
    """Row-wise CDFs exactly as ``Generator.choice`` forms them from p:
    cumulative sum, then division by the last entry."""
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index drawn by each uniform u[i, k] from the row CDF cdf[i]: the
    number of entries <= u, which is ``searchsorted(side="right")``."""
    return np.sum(cdf[:, None, :] <= u[:, :, None], axis=2)


def bpn_exact(problem: DiscreteProblem, e) -> float:
    """Exact triple sum over (y, x, x') of joint[y, x] * state_loss[x, x']
    * post[y, x']; no sampling."""
    if problem.state_loss is None:
        raise MissingLossTable("state-to-state loss table is required for BPN")
    joint, _, post = posterior_table(problem, e)
    return float(np.sum((joint @ problem.state_loss) * post))


@dataclass(frozen=True)
class CounterexampleSpec:
    """Partition probabilities (p1, p2, p3): strictly positive, ordered
    p1 <= p2 <= p3 and summing to one."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        probs = (self.p1, self.p2, self.p3)
        if any(p <= 0.0 for p in probs) or any(p >= 1.0 for p in probs):
            raise InvalidSpec("probabilities must lie strictly in (0, 1)")
        if not (self.p1 <= self.p2 <= self.p3):
            raise InvalidSpec("require p1 <= p2 <= p3")
        if abs(sum(probs) - 1.0) > PROB_TOL:
            raise InvalidSpec(f"probabilities sum to {sum(probs)!r}, not 1")


def build_counterexample(spec: CounterexampleSpec) -> DiscreteProblem:
    """Three partition cells; e1 reveals membership of cell 1, e2 reveals
    membership of cells {1, 2}; actions guess cell-1 membership under 0-1
    loss on that indicator.

    With this table e1 reveals the indicator the loss scores, so
    BR(e1) = BPN(e1) = 0 and E*_BDT = E*_BPN = {e1}; KL gain prefers e2.
    The module docstring's "optimal sets differ" holds only for an action
    table in which no action has zero loss on cell 1. Which table the
    paper's counterexample uses is the open question behind acceptance
    criterion 1.
    """
    # Observation columns are [y=0, y=1].
    e1 = [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]
    e2 = [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]
    loss = [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]  # actions: [cell1, not-cell1]
    state_loss = [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    return DiscreteProblem(
        states=["cell1", "cell2", "cell3"],
        prior=[spec.p1, spec.p2, spec.p3],
        experiments={"e1": e1, "e2": e2},
        actions=["cell1", "not-cell1"],
        loss=loss,
        state_loss=state_loss,
    )


def criteria_report(problem: DiscreteProblem) -> dict:
    """Per-criterion reports (BDT risk, BPN, KL gain) over all experiments."""
    ids = problem.experiment_ids()
    br = {e: criteria.bdt_criterion(problem, e) for e in ids}
    kl = {e: criteria.kl_gain_discrete(problem, e) for e in ids}
    reports = {
        "bdt": criteria.make_report("bdt", br),
        # KL gain is maximised, so the optimal set minimises its negation.
        "kl_gain": criteria.CriterionReport(
            criterion="kl_gain",
            values=kl,
            optimal=criteria.optimal_set({e: -v for e, v in kl.items()}),
            tie_tol=1e-9,
        ),
    }
    if problem.state_loss is not None:
        bpn = {e: bpn_exact(problem, e) for e in ids}
        reports["bpn"] = criteria.make_report("bpn", bpn)
    return reports


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------


def _require(cond, path, message):
    if not cond:
        raise InvalidSpec(f"{path}: {message}")


def _array(value, path: str, shape: tuple) -> np.ndarray:
    """``value`` as a float array of the given shape, in which None leaves an
    axis length free but nonzero: the one check of the numbers in the CLI's
    input files. Every entry must be a finite JSON number, an int or a
    float: not a boolean, a string or a NaN or Infinity literal. InvalidSpec
    names the JSON path of the first violation."""
    dims = list(shape)

    def check(v, p, depth):
        if depth == len(dims):
            _require(isinstance(v, (int, float)) and not isinstance(v, bool), p, "must be a number")
            _require(abs(v) <= float(np.finfo(float).max), p, "non-finite or out-of-range number")
            return
        want = "a non-empty array" if dims[depth] is None else f"an array of {dims[depth]} entries"
        _require(isinstance(v, list) and v and len(v) == (dims[depth] or len(v)), p, f"must be {want}")
        dims[depth] = len(v)
        for i, entry in enumerate(v):
            check(entry, f"{p}[{i}]", depth + 1)

    check(value, path, 0)
    return np.array(value, dtype=float)


def problem_from_dict(doc: dict) -> DiscreteProblem:
    """Build a DiscreteProblem from the documented JSON schema, reporting
    the JSON path of the first violation."""
    _require(isinstance(doc, dict), "$", "document must be an object")
    for key in ("states", "experiments", "actions", "loss"):
        _require(key in doc, f"$.{key}", "missing required key")
    _require(isinstance(doc["states"], list) and doc["states"], "$.states", "must be a non-empty array")
    names, prior = [], []
    for i, entry in enumerate(doc["states"]):
        path = f"$.states[{i}]"
        _require(isinstance(entry, dict), path, "must be an object")
        for key in ("name", "prior"):
            _require(key in entry, f"{path}.{key}", "missing required key")
        names.append(str(entry["name"]))
        prior.append(float(_array(entry["prior"], f"{path}.prior", ())))
    n = len(names)
    _require(isinstance(doc["experiments"], dict) and doc["experiments"],
             "$.experiments", "must be a non-empty object")
    experiments = {str(e): _array(rows, f"$.experiments.{e}", (n, None))
                   for e, rows in doc["experiments"].items()}
    _require(isinstance(doc["actions"], list) and doc["actions"], "$.actions", "must be a non-empty array")
    actions = [str(a) for a in doc["actions"]]
    loss = _array(doc["loss"], "$.loss", (n, len(actions)))
    state_loss = _array(doc["state_loss"], "$.state_loss", (n, n)) if "state_loss" in doc else None
    try:
        return DiscreteProblem(names, prior, experiments, actions, loss, state_loss)
    except InvalidSpec as exc:
        raise InvalidSpec(f"$: {exc}") from exc


def _read_json(path: str):
    """The JSON document in the file at ``path``: the one reader of the
    CLI's input files. A syntax error raises InvalidSpec naming its line."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"$: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def load_problem(path: str) -> DiscreteProblem:
    return problem_from_dict(_read_json(path))
