"""Numerical integration of a Wiener-prior integrand: trapezoid posterior,
closed-form criteria and optimal node placement.

The experiment is a vector of interior nodes on [0, 1] with pinned
endpoints; conditioning the Wiener prior on node values leaves independent
Brownian bridges between nodes, giving the posterior for the integral
N(trapezoid value, sum of interval^3 / 12) and the closed-form
concentration criterion sum of interval^3 / 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import MonteCarloConfig, _check_integer, mean_and_stderr
from .errors import LengthMismatch, OptimizerDiverged
from .gaussian import derive_rng

# Steps of the discretised Brownian bridge on each interval.
BRIDGE_POINTS = 64


@dataclass(frozen=True)
class QuadratureDesign:
    """Interior nodes t_1..t_{n-1} in [0, 1]; endpoints 0 and 1 are implied.

    Nodes are sorted on construction; coincident nodes are permitted and
    contribute zero-length intervals. NaN and infinite nodes are rejected.
    """

    interior: tuple

    def __init__(self, interior=()):
        interior = tuple(sorted(float(t) for t in np.atleast_1d(np.asarray(interior, dtype=float)).ravel()))
        if not all(0.0 <= t <= 1.0 for t in interior):
            raise ValueError("interior nodes must be finite and lie in [0, 1]")
        object.__setattr__(self, "interior", interior)

    @property
    def nodes(self) -> np.ndarray:
        return np.concatenate(([0.0], self.interior, [1.0]))

    @property
    def n_intervals(self) -> int:
        return len(self.interior) + 1

    @property
    def intervals(self) -> np.ndarray:
        return np.diff(self.nodes)


@dataclass(frozen=True)
class QuadraturePosterior:
    """Posterior for the integral: mean is the trapezoid value, variance is
    sum of interval^3 / 12."""

    mean: float
    variance: float


def quadrature_posterior(design: QuadratureDesign, values) -> QuadraturePosterior:
    """Condition on integrand values at all nodes (endpoints included)."""
    values = np.asarray(values, dtype=float)
    nodes = design.nodes
    if values.shape != nodes.shape:
        raise LengthMismatch(
            f"need {nodes.shape[0]} values (one per node incl. endpoints), got {values.shape[0]}"
        )
    deltas = design.intervals
    mean = float(np.sum(0.5 * (values[:-1] + values[1:]) * deltas))
    variance = float(np.sum(deltas**3) / 12.0)
    return QuadraturePosterior(mean=mean, variance=variance)


def bdt_closed_form(design: QuadratureDesign) -> float:
    """Bayes risk of the trapezoid rule under squared loss: sum delta^3 / 12."""
    return float(np.sum(design.intervals**3) / 12.0)


def bpn_closed_form(design: QuadratureDesign) -> float:
    """Closed-form concentration criterion: (1/6) sum of interval^3.

    Exactly twice the posterior variance (squared-loss equivalence)."""
    return float(np.sum(design.intervals**3) / 6.0)


def _bridge_integral_variances(deltas: np.ndarray) -> np.ndarray:
    """Variance of the trapezoid integral of a discretised Brownian bridge
    on each interval, from the K-step bridge construction.

    On the interior grid s_j = j / K (j = 1..K-1) of a unit interval the
    bridge covariance is cov(B_s, B_t) = s (1 - t) for s <= t, and the
    trapezoid weights are 1 / K; the weighted covariance sums to
    (K^2 - 1) / (12 K^2), and an interval of length delta scales it by
    delta^3.
    """
    K = BRIDGE_POINTS
    return deltas**3 * ((K**2 - 1) / (12 * K**2))


def bpn_monte_carlo(design: QuadratureDesign, cfg: MonteCarloConfig):
    """Nested Monte Carlo estimate of the concentration criterion via the
    between-node Brownian bridges.

    Each posterior draw of the integral differs from the trapezoid value by
    the sum of independent per-interval bridge integrals; the pair loss is
    the squared difference of two such draws. Returns (estimate, stderr),
    deterministic given cfg.seed.
    """
    sigmas = np.sqrt(_bridge_integral_variances(design.intervals))
    rng = derive_rng(cfg.seed)
    n_int = design.n_intervals
    # Outer draws: true-state bridge integrals given the node values.
    outer = rng.standard_normal((cfg.n_outer, n_int)) @ sigmas
    # Inner draws: posterior bridge integrals, n_inner per outer sample.
    inner = rng.standard_normal((cfg.n_outer, cfg.n_inner, n_int)) @ sigmas
    losses = (outer[:, None] - inner) ** 2
    estimate, stderr = mean_and_stderr(losses.mean(axis=1))
    return float(estimate), float(stderr)


def optimize_design(n: int, optimizer: str = "closed-form", seed: int = 0,
                    tol: float = 1e-8, max_sweeps: int = 200000) -> QuadratureDesign:
    """Optimal n-interval design: equispaced nodes t_i = i / n.

    The closed-form route returns them exactly; coordinate descent minimises
    the interval-cube objective from a random start by exact coordinate
    updates (each node moves to the midpoint of its neighbours).
    """
    _check_integer("n", n, 1)
    if optimizer == "closed-form":
        return QuadratureDesign(np.arange(1, n) / n)
    if optimizer != "coordinate-descent":
        raise ValueError(f"unknown optimizer {optimizer!r}")
    if n == 1:
        return QuadratureDesign(())
    rng = derive_rng(seed)
    t = np.sort(rng.uniform(0.0, 1.0, size=n - 1))
    full = np.concatenate(([0.0], t, [1.0]))
    for _ in range(max_sweeps):
        biggest = 0.0
        for i in range(1, n):
            target = 0.5 * (full[i - 1] + full[i + 1])
            biggest = max(biggest, abs(full[i] - target))
            full[i] = target
        if biggest < tol:
            return QuadratureDesign(full[1:-1])
    raise OptimizerDiverged("coordinate descent did not converge")


def design_report(design: QuadratureDesign, mc=None) -> dict:
    """CLI-facing JSON summary for one design."""
    out = {
        "nodes": design.nodes.tolist(),
        "posterior_variance": bdt_closed_form(design),
        "bpn": bpn_closed_form(design),
        "bdt": bdt_closed_form(design),
    }
    if mc is not None:
        estimate, stderr = mc
        out["bpn_monte_carlo"] = {"estimate": estimate, "stderr": stderr}
    return out
