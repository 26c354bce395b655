"""Losses, Bayes acts, Bayes rules and Bayes risk."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optinfo.criteria import MonteCarloConfig
from optinfo.decisions import (
    GaussianLinearProblem,
    PNormOnGrid,
    WeightedQuadratic,
    ZeroOne,
    bayes_act_sets_discrete,
    bayes_risk,
    bayes_risk_discrete,
    bayes_rule_discrete,
    verify_mean_is_bayes_act,
)
from optinfo.discrete import CounterexampleSpec, build_counterexample
from optinfo.errors import DimensionMismatch, IntegratorFailure, UnboundedObjective
from optinfo.gaussian import GaussianDensity, _psd_factor, derive_rng

# Property tests replay the same examples on every run and have no deadline,
# so Tier-1 stays deterministic and free of timing failures.
PROPERTY = settings(derandomize=True, deadline=None, database=None)


class SmallProblem:
    """Bare discrete container with the attributes the rule engine needs."""

    def __init__(self, prior, likelihood, loss):
        self.prior = np.asarray(prior, dtype=float)
        self.experiments = {"e": np.asarray(likelihood, dtype=float)}
        self.actions = list(range(np.asarray(loss).shape[1]))
        self.loss = np.asarray(loss, dtype=float)


def unit_problem():
    """Prior N(0, 1) observed once through unit noise, y = x + N(0, 1)."""
    return GaussianLinearProblem(GaussianDensity([0.0], [[1.0]]), {"e": ([[1.0]], [[1.0]])},
                                 WeightedQuadratic([[1.0]]))


def random_instance(rng):
    """Random finite problem. About a third of the instances have an
    observation column that never occurs (zero marginal) and about a third
    a duplicated loss column, so two actions tie exactly everywhere."""
    n_x = rng.integers(2, 6)
    n_y = rng.integers(2, 5)
    n_a = rng.integers(2, 4)
    prior = rng.dirichlet(np.ones(n_x))
    likelihood = rng.dirichlet(np.ones(n_y), size=n_x)
    if rng.random() < 1 / 3:
        likelihood[:, rng.integers(n_y)] = 0.0
        likelihood /= likelihood.sum(axis=1, keepdims=True)
    loss = rng.uniform(0.0, 1.0, (n_x, n_a))
    if rng.random() < 1 / 3:
        loss[:, rng.integers(1, n_a)] = loss[:, 0]
    return SmallProblem(prior, likelihood, loss)


class TestLosses:
    def test_zero_at_identical_arguments(self):
        x = np.array([0.3, -0.7])
        losses = [
            WeightedQuadratic(np.eye(2)),
            PNormOnGrid(2.0, [0.5, 0.5]),
            PNormOnGrid(np.inf, [0.5, 0.5]),
            ZeroOne(0.1),
        ]
        for loss in losses:
            assert loss(x, x) == pytest.approx(0.0, abs=1e-15)

    def test_weighted_quadratic(self):
        loss = WeightedQuadratic([[2.0, 0.0], [0.0, 1.0]])
        assert loss([1.0, 1.0], [0.0, 0.0]) == pytest.approx(3.0)

    def test_pnorm_inf_is_grid_max(self):
        loss = PNormOnGrid(np.inf, [1.0, 1.0, 1.0])
        assert loss([1.0, -3.0, 2.0], [0.0, 0.0, 0.0]) == pytest.approx(3.0)

    def test_pnorm_squared_only_for_p2(self):
        with pytest.raises(ValueError):
            PNormOnGrid(3.0, [1.0], squared=True)
        loss = PNormOnGrid(2.0, [0.25, 0.75], squared=True)
        assert loss([2.0, 2.0], [0.0, 0.0]) == pytest.approx(4.0)

    def test_zero_one_threshold(self):
        loss = ZeroOne(0.5)
        assert loss([0.0], [0.4]) == 0.0
        assert loss([0.0], [0.6]) == 1.0

    def test_zero_one_ball_is_closed_and_nan_misses(self):
        # A distance of exactly eps is inside the ball; a NaN distance is not.
        loss = ZeroOne(0.5)
        np.testing.assert_array_equal(
            loss.pairwise([[0.0], [np.nan], [0.0]], [[0.5], [0.0], [0.6]]), [0.0, 1.0, 1.0])
        assert loss([0.0], [0.5]) == 0.0 and loss([np.nan], [0.0]) == 1.0
        # ||(0.25, 0)||_Lambda = 0.5 exactly for Lambda = diag(4, 1).
        assert ZeroOne(0.5, np.diag([4.0, 1.0]))([0.25, 0.0], [0.0, 0.0]) == 0.0

    @PROPERTY
    @given(d=st.integers(1, 4), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           eps=st.floats(0.05, 5.0))
    def test_call_is_the_one_row_case_of_pairwise(self, d, n, seed, eps):
        rng = np.random.default_rng(seed)
        X, A = rng.standard_normal((2, n, d))
        root = rng.standard_normal((d, d))
        weight, grid_weights = root @ root.T, rng.uniform(0.1, 1.0, d)
        losses = [WeightedQuadratic(weight), PNormOnGrid(2.0, grid_weights, squared=True),
                  ZeroOne(eps), ZeroOne(eps, weight)]
        losses += [PNormOnGrid(p, grid_weights) for p in (1.0, 2.0, 3.5, np.inf)]
        for loss in losses:
            batch = loss.pairwise(X, A)
            assert batch.shape == (n,)
            for x, a, value in zip(X, A, batch):
                assert loss(x, a) == pytest.approx(value, rel=1e-12, abs=1e-15)


class TestBayesRules:
    def test_perfect_information_rule(self):
        # Observation reveals the state; the rule picks the per-state best action.
        problem = SmallProblem(
            prior=[0.3, 0.7],
            likelihood=np.eye(2),
            loss=[[0.0, 1.0], [1.0, 0.0]],
        )
        assert bayes_rule_discrete(problem, "e") == [0, 1]
        assert bayes_risk_discrete(problem, "e", [0, 1]) == pytest.approx(0.0)

    def test_rule_beats_all_enumerated_rules(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            problem = random_instance(rng)
            rule = bayes_rule_discrete(problem, "e")
            br = bayes_risk_discrete(problem, "e", rule)
            n_y = problem.experiments["e"].shape[1]
            for alt in itertools.product(range(len(problem.actions)), repeat=n_y):
                assert br <= bayes_risk_discrete(problem, "e", list(alt)) + 1e-12

    def test_rule_act_equivalence(self):
        # A rule table is risk-minimal iff it selects a Bayes act at every
        # positive-probability observation; checked by full enumeration.
        rng = np.random.default_rng(100)
        for _ in range(100):
            problem = random_instance(rng)
            act_sets = bayes_act_sets_discrete(problem, "e")
            n_y = problem.experiments["e"].shape[1]
            n_a = len(problem.actions)
            risks = {
                alt: bayes_risk_discrete(problem, "e", list(alt))
                for alt in itertools.product(range(n_a), repeat=n_y)
            }
            rmin = min(risks.values())
            minimal = {alt for alt, r in risks.items() if r <= rmin + 1e-12}
            pointwise = {
                alt
                for alt in risks
                if all(act_sets[y] is None or alt[y] in act_sets[y] for y in range(n_y))
            }
            assert minimal == pointwise

    def test_zero_marginal_and_tie_conventions(self):
        # Rule 0 and act set None where an observation never occurs;
        # otherwise the rule is the lowest-index Bayes act.
        rng = np.random.default_rng(100)
        seen_zero = seen_tie = False
        for _ in range(100):
            problem = random_instance(rng)
            rule = bayes_rule_discrete(problem, "e")
            act_sets = bayes_act_sets_discrete(problem, "e")
            marginal = problem.prior @ problem.experiments["e"]
            for y, (action, acts) in enumerate(zip(rule, act_sets)):
                if marginal[y] == 0.0:
                    seen_zero = True
                    assert action == 0 and acts is None
                else:
                    seen_tie |= len(acts) > 1
                    assert action == min(acts)
        assert seen_zero and seen_tie

    def test_fubini_integration_orders_agree(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            problem = random_instance(rng)
            rule = bayes_rule_discrete(problem, "e")
            xy_order = bayes_risk_discrete(problem, "e", rule)
            # y -> x|y order.
            lik = problem.experiments["e"]
            total = 0.0
            for y in range(lik.shape[1]):
                joint = problem.prior * lik[:, y]
                marginal = joint.sum()
                if marginal <= 0:
                    continue
                total += marginal * float((joint / marginal) @ problem.loss[:, rule[y]])
            assert xy_order == pytest.approx(total, abs=1e-12)

    def test_monte_carlo_integrator_matches_closed_form(self):
        prior = GaussianDensity([0.0], [[1.0]])
        problem = GaussianLinearProblem(
            prior, {"e": (np.array([[1.0]]), np.array([[1.0]]))}, WeightedQuadratic([[1.0]])
        )
        # Bayes rule: posterior mean y/2; its risk is the posterior variance 1/2.
        est = bayes_risk(problem, "e", lambda y: np.atleast_1d(y) / 2.0,
                         MonteCarloConfig(seed=0, n_outer=40000))
        assert est == pytest.approx(0.5, abs=0.02)

    def test_monte_carlo_integrator_scores_the_null_experiment(self):
        # Observing nothing, the rule that acts at the prior mean has risk
        # tr(Lambda Sigma), with standard deviation sqrt(2 tr((Lambda Sigma)^2)).
        rng = np.random.default_rng(43)
        L = rng.standard_normal((3, 3))
        prior = GaussianDensity(rng.standard_normal(3), L @ L.T + np.eye(3))
        lam = np.diag([1.0, 0.5, 2.0])
        problem = GaussianLinearProblem(prior, {"null": (np.zeros((0, 3)), np.zeros((0, 0)))},
                                        WeightedQuadratic(lam))
        n = 4000
        est = bayes_risk(problem, "null", lambda y: prior.mean,
                         MonteCarloConfig(seed=2, n_outer=n))
        weighted = lam @ prior.cov
        stderr = np.sqrt(2.0 * np.trace(weighted @ weighted) / n)
        assert abs(est - np.trace(weighted)) <= 5.0 * stderr

    @pytest.mark.parametrize("noise_kind", ["zero", "dense"])
    def test_monte_carlo_integrator_equals_per_draw_loop(self, noise_kind):
        rng = np.random.default_rng(41)
        L = rng.standard_normal((3, 3))
        prior = GaussianDensity(rng.standard_normal(3), L @ L.T + np.eye(3))
        A = rng.standard_normal((2, 3))
        M = rng.standard_normal((2, 2))
        noise = np.zeros((2, 2)) if noise_kind == "zero" else M @ M.T + 0.1 * np.eye(2)
        loss = WeightedQuadratic(np.diag([1.0, 0.5, 2.0]))
        problem = GaussianLinearProblem(prior, {"e": (A, noise)}, loss)

        def rule(y):
            return np.concatenate([y, y[:1]])

        # Reference: one observation at a time, noise drawn per draw.
        sampler = derive_rng(5)
        vals = []
        for x in problem.sample_prior(sampler, 300):
            y = A @ x
            if noise_kind == "dense":
                y = y + _psd_factor(noise) @ sampler.standard_normal(2)
            vals.append(loss(x, rule(y)))
        est = bayes_risk(problem, "e", rule, MonteCarloConfig(seed=5, n_outer=300))
        assert est == pytest.approx(np.mean(vals), rel=1e-12)

    @pytest.mark.parametrize("probs", [(0.2, 0.3, 0.5), (0.1, 0.1, 0.8), (0.3, 0.33, 0.37)])
    def test_monte_carlo_integrator_on_loss_table(self, probs):
        # The 0-1 loss lies in [0, 1], so the estimator's standard deviation
        # is at most 0.5 / sqrt(n).
        problem = build_counterexample(CounterexampleSpec(*probs))
        n = 4000
        for e in problem.experiment_ids():
            rule = bayes_rule_discrete(problem, e)
            exact = bayes_risk_discrete(problem, e, rule)
            est = bayes_risk(problem, e, rule, MonteCarloConfig(seed=3, n_outer=n))
            assert abs(est - exact) <= 5.0 * 0.5 / np.sqrt(n)
            assert bayes_risk(problem, e, lambda y: rule[y],
                              MonteCarloConfig(seed=3, n_outer=n)) == est
        # e1 reveals the indicator the loss scores: every draw has loss 0.
        assert bayes_risk_discrete(problem, "e1", bayes_rule_discrete(problem, "e1")) == 0.0
        assert bayes_risk(problem, "e1", bayes_rule_discrete(problem, "e1"),
                          MonteCarloConfig(seed=3, n_outer=n)) == 0.0

    def test_monte_carlo_integrator_rejects_non_finite_losses(self):
        problem = build_counterexample(CounterexampleSpec(0.2, 0.3, 0.5))
        rule = bayes_rule_discrete(problem, "e2")
        problem.loss = np.full_like(problem.loss, np.nan)
        with pytest.raises(IntegratorFailure):
            bayes_risk(problem, "e2", rule, MonteCarloConfig(seed=0, n_outer=50))


class TestMeanStationarity:
    def test_identity_map(self):
        post = GaussianDensity([0.7], [[0.3]])
        report = verify_mean_is_bayes_act(post, lambda x: x, tol=1e-6)
        assert report.passed
        assert report.minimizer[0] == pytest.approx(0.7, abs=1e-5)

    def test_quadratic_feature_map(self):
        # phi maps R into R^2, so only the first-order condition can hold;
        # its residual must vanish at the numerically found Bayes act.
        post = GaussianDensity([0.5], [[0.8]])
        report = verify_mean_is_bayes_act(post, lambda x: np.array([x, x**2]), tol=1e-6)
        assert report.passed
        assert not report.full_row_rank
        assert report.stationarity_residual < 1e-6
        # Cross-check the minimiser against a Monte Carlo grid search.
        sd = np.sqrt(post.cov[0, 0])
        xs = post.mean[0] + sd * np.random.default_rng(0).standard_normal(200000)
        grid = np.linspace(0.5, 1.3, 81)
        vals = [np.mean((xs - a) ** 2 + (xs**2 - a**2) ** 2) for a in grid]
        assert report.minimizer[0] == pytest.approx(grid[int(np.argmin(vals))], abs=0.02)

    @pytest.mark.parametrize("mean, var, act", [(-2.0, 1.0, -2.2247), (2.0, 3.0, 2.6232)])
    def test_quadratic_feature_map_far_from_origin(self, mean, var, act):
        # E[(X - a)^2 + (X^2 - a^2)^2] has a second basin near -mean; a
        # search started at the mean and bounded over mean +- 8 sd can fall
        # into it and return a point that loses to the mean itself.
        post = GaussianDensity([mean], [[var]])
        report = verify_mean_is_bayes_act(post, lambda x: np.array([x, x**2]), tol=1e-6)
        assert report.passed
        assert report.stationarity_residual < 1e-6
        assert report.minimizer[0] == pytest.approx(act, abs=1e-4)

    def test_non_finite_objective_rejected(self):
        post = GaussianDensity([0.0], [[1.0]])
        with pytest.raises(UnboundedObjective):
            verify_mean_is_bayes_act(post, lambda x: np.nan, tol=1e-6)

    def test_rank_deficient_map_flagged(self):
        # phi(x) = x^3 has zero derivative at the minimiser 0; the report
        # must flag the precondition instead of silently passing.
        post = GaussianDensity([0.0], [[1.0]])
        report = verify_mean_is_bayes_act(post, lambda x: x**3, tol=1e-6)
        assert not report.precondition_ok
        assert report.message


class TestInputChecks:
    @pytest.mark.parametrize("call, error", [
        (lambda: PNormOnGrid(0.5, [1.0]), ValueError),
        (lambda: ZeroOne(0.0), ValueError),
        (lambda: verify_mean_is_bayes_act(GaussianDensity([0.0, 0.0], np.eye(2)), lambda t: t, 1e-6),
         ValueError),
        # The budget is a MonteCarloConfig, which rejects a bad n_outer or
        # seed before bayes_risk draws anything.
        (lambda: bayes_risk(unit_problem(), "e", lambda y: y, MonteCarloConfig(n_outer=0)),
         ValueError),
        (lambda: bayes_risk(unit_problem(), "e", lambda y: y, MonteCarloConfig(n_outer=2.5)),
         ValueError),
        (lambda: bayes_risk(unit_problem(), "e", lambda y: y, MonteCarloConfig(n_outer=True)),
         ValueError),
        (lambda: bayes_risk(unit_problem(), "e", lambda y: y, MonteCarloConfig(seed=1.5)),
         ValueError),
        (lambda: bayes_risk(unit_problem(), "e", lambda y: y, MonteCarloConfig(seed=-1)),
         ValueError),
        (lambda: bayes_risk(unit_problem(), "e", lambda y: y, MonteCarloConfig(seed=True)),
         ValueError),
        # Two actions per draw against one-dimensional states: ZeroOne's
        # pairwise would broadcast them and score 0.7.
        (lambda: bayes_risk(GaussianLinearProblem(GaussianDensity([0.0], [[1.0]]),
                                                  {"e": ([[1.0]], [[1.0]])}, ZeroOne(0.5)),
                            "e", lambda y: np.zeros(2), MonteCarloConfig(n_outer=10)),
         DimensionMismatch),
    ], ids=["pnorm-p-below-1", "zero-one-eps-0", "bayes-act-2d-posterior",
            "bayes-risk-n-0", "bayes-risk-n-fraction", "bayes-risk-n-bool",
            "bayes-risk-seed-fraction", "bayes-risk-seed-negative", "bayes-risk-seed-bool",
            "bayes-risk-action-dim"])
    def test_rejected(self, call, error):
        with pytest.raises(error):
            call()

    def test_weighted_zero_one_measures_the_weighted_norm(self):
        # ||(0.3, 0)||_Lambda is 0.6 for Lambda = diag(4, 1), past eps = 0.5,
        # while the same step along the second axis stays within it.
        loss = ZeroOne(0.5, np.diag([4.0, 1.0]))
        assert loss([0.3, 0.0], [0.0, 0.0]) == 1.0
        assert loss([0.0, 0.3], [0.0, 0.0]) == 0.0
