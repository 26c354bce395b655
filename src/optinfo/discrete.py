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
from .decisions import bayes_risk_discrete, bayes_rule_discrete, posterior_table
from .errors import (
    InvalidSpec,
    MissingLossTable,
    ZeroProbabilityObservation,
)

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


def posterior(problem: DiscreteProblem, e, y: int) -> np.ndarray:
    """Exact Bayes posterior over states given observation index y."""
    _, marginal, post = posterior_table(problem, e)
    if marginal[y] <= 0.0:
        raise ZeroProbabilityObservation(
            f"observation {y} has zero marginal probability under {e!r}"
        )
    return post[y]


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
    br = {e: bayes_risk_discrete(problem, e, bayes_rule_discrete(problem, e)) for e in ids}
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
        _require("name" in entry, f"{path}.name", "missing required key")
        _require("prior" in entry, f"{path}.prior", "missing required key")
        _require(isinstance(entry["prior"], (int, float)), f"{path}.prior", "must be a number")
        names.append(str(entry["name"]))
        prior.append(float(entry["prior"]))
    n = len(names)
    _require(isinstance(doc["experiments"], dict) and doc["experiments"],
             "$.experiments", "must be a non-empty object")
    experiments = {}
    for e, rows in doc["experiments"].items():
        path = f"$.experiments.{e}"
        _require(isinstance(rows, list) and len(rows) == n, path, f"must be an array of {n} rows")
        for i, row in enumerate(rows):
            _require(isinstance(row, list) and row, f"{path}[{i}]", "must be a non-empty array")
            _require(all(isinstance(v, (int, float)) for v in row), f"{path}[{i}]", "entries must be numbers")
        widths = {len(r) for r in rows}
        _require(len(widths) == 1, path, "rows must have equal length")
        experiments[str(e)] = rows
    _require(isinstance(doc["actions"], list) and doc["actions"], "$.actions", "must be a non-empty array")
    actions = [str(a) for a in doc["actions"]]

    def check_table(key, n_rows, n_cols, required):
        if key not in doc:
            _require(not required, f"$.{key}", "missing required key")
            return None
        table = doc[key]
        _require(isinstance(table, list) and len(table) == n_rows, f"$.{key}",
                 f"must be an array of {n_rows} rows")
        for i, row in enumerate(table):
            _require(isinstance(row, list) and len(row) == n_cols, f"$.{key}[{i}]",
                     f"must be an array of {n_cols} numbers")
            _require(all(isinstance(v, (int, float)) for v in row), f"$.{key}[{i}]",
                     "entries must be numbers")
        return table

    loss = check_table("loss", n, len(actions), required=True)
    state_loss = check_table("state_loss", n, n, required=False)
    try:
        return DiscreteProblem(names, prior, experiments, actions, loss, state_loss)
    except InvalidSpec as exc:
        raise InvalidSpec(f"$: {exc}") from exc


def load_problem(path: str) -> DiscreteProblem:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"$: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return problem_from_dict(doc)
