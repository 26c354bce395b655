"""Experiment-scoring criteria and optimal-set extraction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optinfo.criteria import (
    MonteCarloConfig,
    alphabet,
    bdt_criterion,
    bpn_gaussian_pair_reduction,
    bpn_mc,
    kl_gain_discrete,
    make_report,
    optimal_set,
)
from optinfo.decisions import (
    GaussianLinearProblem,
    PNormOnGrid,
    WeightedQuadratic,
    ZeroOne,
    bayes_risk,
)
from optinfo.discrete import (
    CounterexampleSpec,
    DiscreteProblem,
    bpn_exact,
    build_counterexample,
)
from optinfo.errors import AllValuesNonFinite, MissingLossTable, NonPSDInput, SamplerFailure
from optinfo.gaussian import GaussianDensity, _psd_factor, conjugate_posterior, derive_rng
from reference_impls import discrete_posterior, gaussian_posterior

# Property tests replay the same examples on every run and have no deadline,
# so Tier-1 stays deterministic and free of timing failures.
PROPERTY = settings(derandomize=True, deadline=None, database=None)


def random_gaussian_problem(rng, d=3, n_experiments=2):
    L = rng.standard_normal((d, d))
    prior = GaussianDensity(rng.standard_normal(d), L @ L.T + np.eye(d))
    experiments = {}
    for i in range(n_experiments):
        n = int(rng.integers(1, d + 1))
        experiments[f"e{i}"] = (rng.standard_normal((n, d)), np.eye(n))
    weights = rng.uniform(0.2, 1.0, d)
    loss = PNormOnGrid(2.0, weights, squared=True)
    return GaussianLinearProblem(prior, experiments, loss), weights


def per_draw_bpn_mc(problem, e, cfg):
    """Reference nested estimator: one outer draw at a time, taking the
    generator's numbers in the order ``bpn_mc`` promises. Finite problems
    draw through ``rng.choice``; Gaussian problems draw the observation
    noise through ``_psd_factor`` and the posterior states from the cached
    affine posterior of ``_posterior_pieces``."""
    rng = derive_rng(cfg.seed)
    xs = problem.sample_prior(rng, cfg.n_outer)
    inner_means = np.empty(cfg.n_outer)
    for i, x in enumerate(xs):
        if isinstance(problem, DiscreteProblem):
            row = problem.experiments[e][x]
            y = rng.choice(row.shape[0], p=row)
            x_primes = rng.choice(len(problem.states), size=cfg.n_inner,
                                  p=discrete_posterior(problem, e, y))
            losses = [problem.state_loss[x, xp] for xp in x_primes]
        else:
            A, noise = problem.experiments[e]
            y = A @ x
            if np.max(np.abs(noise)) > 0.0:
                y = y + _psd_factor(noise) @ rng.standard_normal(A.shape[0])
            gain, base, factor = problem._posterior_pieces(e)
            z = rng.standard_normal((cfg.n_inner, base.dim))
            x_primes = (base.mean + gain @ y)[None, :] + z @ factor.T
            losses = [problem.loss(x, xp) for xp in x_primes]
        inner_means[i] = np.mean(losses)
    stderr = np.std(inner_means, ddof=1) / np.sqrt(cfg.n_outer) if cfg.n_outer > 1 else 0.0
    return float(np.mean(inner_means)), float(stderr)


mc_configs = st.builds(
    MonteCarloConfig,
    seed=st.integers(0, 2**31 - 1),
    n_outer=st.integers(1, 30),
    n_inner=st.integers(1, 12),
)


@st.composite
def discrete_problems(draw):
    """Random finite problems with zero-prior states and never-observed
    observation columns."""
    n_states = draw(st.integers(1, 5))
    n_obs = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prior = rng.uniform(0.1, 1.0, n_states)
    prior[draw(st.lists(st.integers(0, n_states - 1), max_size=n_states - 1, unique=True))] = 0.0
    lik = rng.uniform(0.1, 1.0, (n_states, n_obs)) * (rng.uniform(size=(n_states, n_obs)) < 0.6)
    dead = draw(st.lists(st.integers(0, n_obs - 1), max_size=n_obs - 1, unique=True))
    lik[:, min(set(range(n_obs)) - set(dead))] += 0.1  # every row keeps some mass
    lik[:, dead] = 0.0
    return DiscreteProblem(
        states=range(n_states),
        prior=prior / prior.sum(),
        experiments={"e": lik / lik.sum(axis=1, keepdims=True)},
        actions=["a"],
        loss=np.zeros((n_states, 1)),
        state_loss=rng.uniform(0.0, 1.0, (n_states, n_states)),
    )


@st.composite
def gaussian_problems(draw):
    """Random linear-Gaussian problems with zero, diagonal or dense noise and
    a p = 2 (plain or squared) or p = inf grid loss."""
    d = draw(st.integers(1, 4))
    n_obs = draw(st.integers(1, d))
    noise_kind = draw(st.sampled_from(["zero", "diagonal", "dense"]))
    p, squared = draw(st.sampled_from([(2.0, False), (2.0, True), (np.inf, False)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = rng.standard_normal((d, d))
    prior = GaussianDensity(rng.standard_normal(d), L @ L.T + np.eye(d))
    M = rng.standard_normal((n_obs, n_obs))
    noise = {
        "zero": np.zeros((n_obs, n_obs)),
        "diagonal": np.diag(rng.uniform(0.1, 2.0, n_obs)),
        "dense": M @ M.T + 0.1 * np.eye(n_obs),
    }[noise_kind]
    loss = PNormOnGrid(p, rng.uniform(0.2, 1.0, d), squared=squared)
    return GaussianLinearProblem(prior, {"e": (rng.standard_normal((n_obs, d)), noise)}, loss)


class TestAlphabet:
    def test_identity_values(self):
        assert alphabet(np.eye(2), np.eye(2), "A") == pytest.approx(2.0)
        assert alphabet(np.eye(2), np.eye(2), "D") == pytest.approx(1.0)
        assert alphabet(np.eye(2), np.eye(2), "E") == pytest.approx(1.0)

    def test_rank_one_weight_equals_c_value(self):
        rng = np.random.default_rng(0)
        L = rng.standard_normal((3, 3))
        cov = L @ L.T + np.eye(3)
        c = rng.standard_normal(3)
        a_val = alphabet(cov, np.outer(c, c), "A")
        c_val = alphabet(cov, np.eye(3), "c", direction=c)
        assert a_val == pytest.approx(c_val, rel=1e-12)

    def test_e_value_random_direction_oracle(self):
        rng = np.random.default_rng(1)
        L = rng.standard_normal((3, 3))
        cov = L @ L.T + 0.1 * np.eye(3)
        e_val = alphabet(cov, np.eye(3), "E")
        dirs = rng.standard_normal((10_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        best = np.max(np.einsum("ij,jk,ik->i", dirs, cov, dirs))
        assert best <= e_val + 1e-12
        assert e_val == pytest.approx(best, abs=1e-3 * e_val)

    def test_non_psd_rejected(self):
        with pytest.raises(NonPSDInput):
            alphabet([[1.0, 2.0], [2.0, 1.0]], np.eye(2), "A")

    def test_c_requires_direction(self):
        with pytest.raises(ValueError):
            alphabet(np.eye(2), np.eye(2), "c")


class TestKLGain:
    def test_uninformative_experiment_zero(self):
        class P:
            prior = np.array([0.3, 0.7])
            experiments = {"e": np.array([[1.0], [1.0]])}

        assert kl_gain_discrete(P(), "e") == pytest.approx(0.0, abs=1e-15)

    def test_perfectly_revealing_uniform_two_states(self):
        class P:
            prior = np.array([0.5, 0.5])
            experiments = {"e": np.eye(2)}

        assert kl_gain_discrete(P(), "e") == pytest.approx(np.log(2.0), abs=1e-12)

    def test_counterexample_direct_summation_oracle(self):
        problem = build_counterexample(CounterexampleSpec(0.2, 0.3, 0.5))
        # Independent summation: E_y sum_x post log(post / prior).
        lik = problem.experiments["e2"]
        total = 0.0
        for y in range(2):
            joint = problem.prior * lik[:, y]
            marginal = joint.sum()
            post = joint / marginal
            for x in range(3):
                if post[x] > 0:
                    total += marginal * post[x] * np.log(post[x] / problem.prior[x])
        assert kl_gain_discrete(problem, "e2") == pytest.approx(total, abs=1e-12)


class TestBDTCriterion:
    def test_gaussian_quadratic_equals_weighted_trace(self):
        rng = np.random.default_rng(5)
        L = rng.standard_normal((3, 3))
        prior = GaussianDensity(np.zeros(3), L @ L.T + np.eye(3))
        lam_root = rng.standard_normal((3, 3))
        lam = lam_root @ lam_root.T
        problem = GaussianLinearProblem(
            prior, {"e": (rng.standard_normal((2, 3)), np.eye(2))}, WeightedQuadratic(lam)
        )
        val = bdt_criterion(problem, "e")
        assert val == pytest.approx(np.trace(lam @ problem.posterior_cov("e")), abs=1e-10)

    def test_discrete_matches_rule_enumeration(self):
        problem = build_counterexample(CounterexampleSpec(0.2, 0.3, 0.5))
        # Exhaustive over the 4 rule tables for e2.
        from optinfo.decisions import bayes_risk_discrete

        risks = [
            bayes_risk_discrete(problem, "e2", [a0, a1]) for a0 in (0, 1) for a1 in (0, 1)
        ]
        assert bdt_criterion(problem, "e2") == pytest.approx(min(risks), abs=1e-14)


class TestMonteCarloConfig:
    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("n_outer", 0), ("n_outer", 2.5), ("n_inner", 0),
        ("n_inner", 4.0), ("n_outer", True),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MonteCarloConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        assert MonteCarloConfig(seed=np.int64(3), n_outer=np.int32(5)).n_outer == 5


class TestBPNEstimators:
    def test_zero_loss_gives_zero(self):
        problem = build_counterexample(CounterexampleSpec(0.2, 0.3, 0.5))
        problem.state_loss = np.zeros((3, 3))
        est, se = bpn_mc(problem, "e2", MonteCarloConfig(seed=0, n_outer=200, n_inner=2))
        assert est == 0.0
        assert se == 0.0

    def test_non_finite_loss_raises(self):
        problem = build_counterexample(CounterexampleSpec(0.2, 0.3, 0.5))
        problem.state_loss = np.full((3, 3), np.nan)
        with pytest.raises(SamplerFailure):
            bpn_mc(problem, "e2", MonteCarloConfig(seed=0, n_outer=20, n_inner=2))

    def test_counterexample_within_three_stderr(self):
        problem = build_counterexample(CounterexampleSpec(0.2, 0.3, 0.5))
        exact = bpn_exact(problem, "e2")
        assert exact == pytest.approx(0.24, abs=1e-14)
        est, se = bpn_mc(problem, "e2", MonteCarloConfig(seed=3, n_outer=4000, n_inner=4))
        assert abs(est - exact) <= 3.0 * se

    def test_deterministic_given_seed(self):
        problem = build_counterexample(CounterexampleSpec(0.2, 0.3, 0.5))
        cfg = MonteCarloConfig(seed=11, n_outer=500, n_inner=2)
        assert bpn_mc(problem, "e2", cfg) == bpn_mc(problem, "e2", cfg)

    def test_missing_loss_table_raised_before_any_draw(self):
        problem = DiscreteProblem(["a", "b"], [0.5, 0.5], {"e": np.eye(2)}, ["u"], [[0.0], [0.0]])

        def no_draws(rng, n):
            raise AssertionError("prior states drawn before the loss table was checked")

        problem.sample_prior = no_draws
        with pytest.raises(MissingLossTable):
            bpn_mc(problem, "e", MonteCarloConfig(n_outer=10))

    @PROPERTY
    @given(problem=discrete_problems(), cfg=mc_configs)
    @example(problem=build_counterexample(CounterexampleSpec(0.2, 0.3, 0.5)),
             cfg=MonteCarloConfig(seed=5, n_outer=1, n_inner=3))
    def test_batched_equals_per_draw_loop_on_discrete_problems(self, problem, cfg):
        for e in problem.experiment_ids():
            assert bpn_mc(problem, e, cfg) == per_draw_bpn_mc(problem, e, cfg)

    @PROPERTY
    @given(problem=gaussian_problems(), cfg=mc_configs)
    def test_batched_matches_per_draw_loop_on_gaussian_problems(self, problem, cfg):
        est, se = bpn_mc(problem, "e", cfg)
        ref_est, ref_se = per_draw_bpn_mc(problem, "e", cfg)
        assert est == pytest.approx(ref_est, rel=1e-12, abs=0.0)
        assert se == pytest.approx(ref_se, rel=1e-12, abs=0.0)

    def test_gaussian_experiment_conditioned_once(self, cho_factor_calls):
        # posterior_cov, posterior and bpn_mc share one cached conditioning.
        rng = np.random.default_rng(2)
        L = rng.standard_normal((3, 3))
        prior = GaussianDensity(rng.standard_normal(3), L @ L.T + np.eye(3))
        A = rng.standard_normal((2, 3))
        problem = GaussianLinearProblem(prior, {"e": (A, np.eye(2))},
                                        PNormOnGrid(np.inf, np.ones(3)))
        cov = problem.posterior_cov("e")
        np.testing.assert_array_equal(problem.posterior_cov("e"), cov)
        y = rng.standard_normal(2)
        post = gaussian_posterior(problem, "e", y)
        bpn_mc(problem, "e", MonteCarloConfig(n_outer=20, n_inner=2))
        assert len(cho_factor_calls) == 1
        want = conjugate_posterior(prior, A, np.eye(2), y)
        assert post.mean == pytest.approx(want.mean, rel=1e-12, abs=1e-14)
        np.testing.assert_array_equal(post.cov, want.cov)

    def test_pair_reduction_zero_covariance(self):
        loss = PNormOnGrid(2.0, [1.0, 1.0], squared=True)
        est, se = bpn_gaussian_pair_reduction(np.zeros((2, 2)), loss, MonteCarloConfig())
        assert est == pytest.approx(0.0, abs=1e-12)

    def test_pair_reduction_squared_p2_analytic(self):
        rng = np.random.default_rng(8)
        L = rng.standard_normal((4, 4))
        cov = L @ L.T
        weights = rng.uniform(0.1, 1.0, 4)
        loss = PNormOnGrid(2.0, weights, squared=True)
        est, se = bpn_gaussian_pair_reduction(cov, loss, MonteCarloConfig())
        assert se == 0.0
        assert est == pytest.approx(2.0 * np.sum(weights * np.diag(cov)), rel=1e-10)

    def test_pair_reduction_pinf_direct_simulation_oracle(self):
        cov = np.diag([0.5, 2.0])
        loss = PNormOnGrid(np.inf, [1.0, 1.0])
        est, se = bpn_gaussian_pair_reduction(cov, loss, MonteCarloConfig(seed=4, n_outer=200_000))
        rng = np.random.default_rng(999)
        z = rng.standard_normal((1_000_000, 2)) * np.sqrt(2.0 * np.diag(cov))
        direct = np.max(np.abs(z), axis=1)
        d_mean = direct.mean()
        d_se = direct.std(ddof=1) / 1000.0
        assert abs(est - d_mean) <= 3.0 * np.hypot(se, d_se)

    def test_pair_reduction_agrees_with_nested_mc(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            problem, weights = random_gaussian_problem(rng)
            for e in problem.experiment_ids():
                nested, nested_se = bpn_mc(problem, e, MonteCarloConfig(seed=7, n_outer=1500, n_inner=4))
                cov = problem.posterior_cov(e)
                reduced, reduced_se = bpn_gaussian_pair_reduction(
                    cov, problem.loss, MonteCarloConfig(seed=8)
                )
                band = 3.0 * np.hypot(nested_se, reduced_se)
                assert abs(nested - reduced) <= max(band, 1e-12)

    def test_squared_loss_bpn_is_twice_bdt(self):
        # The exactly-half identity: for squared losses BPN = 2 BR.
        rng = np.random.default_rng(31)
        problem, weights = random_gaussian_problem(rng, n_experiments=1)
        cov = problem.posterior_cov("e0")
        bpn, _ = bpn_gaussian_pair_reduction(cov, problem.loss, MonteCarloConfig())
        bdt = np.sum(weights * np.diag(cov))  # posterior expected loss at the mean
        assert bpn == pytest.approx(2.0 * bdt, rel=1e-10)

    def test_nested_weighted_quadratic_bpn_is_twice_bdt(self):
        # The same identity through the nested estimator, which scores every
        # inner draw by WeightedQuadratic.pairwise, against the closed-form
        # Bayes risk tr(Lambda Sigma_e) with a full weight matrix.
        rng = np.random.default_rng(1)
        L, lam_root = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        prior = GaussianDensity(rng.standard_normal(3), L @ L.T + np.eye(3))
        problem = GaussianLinearProblem(
            prior, {"e": (rng.standard_normal((2, 3)), np.eye(2))},
            WeightedQuadratic(lam_root @ lam_root.T))
        bpn, stderr = bpn_mc(problem, "e", MonteCarloConfig(seed=1, n_outer=4000, n_inner=4))
        assert abs(bpn - 2.0 * bdt_criterion(problem, "e")) <= 5.0 * stderr


class TestNullExperiment:
    """The experiment that observes nothing scores the prior: Bayes risk
    tr(Lambda Sigma_prior) and BPN twice that."""

    @staticmethod
    def problem():
        rng = np.random.default_rng(12)
        L = rng.standard_normal((3, 3))
        prior = GaussianDensity(rng.standard_normal(3), L @ L.T + np.eye(3))
        weights = rng.uniform(0.2, 1.0, 3)
        problem = GaussianLinearProblem(prior, {"null": (np.zeros((0, 3)), np.zeros((0, 0)))},
                                        WeightedQuadratic(np.diag(weights)))
        return problem, weights, float(np.trace(np.diag(weights) @ prior.cov))

    def test_bdt_is_the_prior_risk(self):
        problem, _, prior_risk = self.problem()
        assert bdt_criterion(problem, "null") == prior_risk

    def test_pair_reduction_is_twice_the_prior_risk(self):
        problem, weights, prior_risk = self.problem()
        loss = PNormOnGrid(2.0, weights, squared=True)
        est, se = bpn_gaussian_pair_reduction(problem.posterior_cov("null"), loss,
                                              MonteCarloConfig())
        assert se == 0.0 and est == pytest.approx(2.0 * prior_risk, rel=1e-14)

    def test_nested_mc_is_twice_the_prior_risk(self):
        problem, _, prior_risk = self.problem()
        bpn, stderr = bpn_mc(problem, "null", MonteCarloConfig(seed=3, n_outer=4000, n_inner=4))
        assert abs(bpn - 2.0 * prior_risk) <= 5.0 * stderr


class TestZeroOneClosedForms:
    """Prior N(0, 1), y = x + N(0, 1) and the eps-ball 0-1 loss, eps = 0.5.
    The posterior is N(y / 2, 1 / 2) for every y, so the posterior-mean rule
    misses by X - mu ~ N(0, 1 / 2) and a pair of posterior draws differs by
    X - X' ~ N(0, 1): one law, two thresholds. BR = P(|X - mu| > eps) =
    erfc(eps) = 0.479500 and BPN = P(|X - X'| > eps) = erfc(eps / sqrt(2))
    = 0.617075."""

    EPS = 0.5

    def problem(self):
        return GaussianLinearProblem(GaussianDensity([0.0], [[1.0]]), {"e": ([[1.0]], [[1.0]])},
                                     ZeroOne(self.EPS))

    def test_nested_mc_and_bayes_risk_of_the_mean(self):
        problem = self.problem()
        bpn, stderr = bpn_mc(problem, "e", MonteCarloConfig(seed=0, n_outer=20000, n_inner=4))
        assert abs(bpn - math.erfc(self.EPS / math.sqrt(2.0))) <= 5.0 * stderr
        n, exact = 40000, math.erfc(self.EPS)
        risk = bayes_risk(problem, "e", lambda y: y / 2.0, integrator="monte-carlo", seed=0, n=n)
        assert abs(risk - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / n)

    def test_pair_reduction(self):
        problem = self.problem()
        bpn, stderr = bpn_gaussian_pair_reduction(problem.posterior_cov("e"), problem.loss,
                                                  MonteCarloConfig(seed=0, n_outer=20000))
        assert abs(bpn - math.erfc(self.EPS / math.sqrt(2.0))) <= 5.0 * stderr


class TestOptimalSet:
    def test_single_experiment(self):
        assert optimal_set({"a": 1.0}) == ["a"]

    def test_tie_tolerance(self):
        assert optimal_set({"a": 1.0, "b": 1.0 + 1e-12, "c": 2.0}) == ["a", "b"]

    def test_stderr_widens_band(self):
        values = {"a": 1.0, "b": 1.05}
        assert optimal_set(values) == ["a"]
        assert optimal_set(values, stderrs={"b": 0.02}) == ["a", "b"]

    def test_all_nonfinite_rejected(self):
        with pytest.raises(AllValuesNonFinite):
            optimal_set({"a": np.nan, "b": np.inf})

    def test_report_json_roundtrip(self):
        report = make_report("bdt", {"e1": 0.5, "e2": 0.25})
        doc = report.to_json_dict()
        assert doc["optimal_set"] == ["e2"]
        assert doc["values"]["e1"] == 0.5
        assert doc["criterion"] == "bdt"


class TestInputChecks:
    @pytest.mark.parametrize("call, error", [
        (lambda: alphabet(np.eye(2), np.eye(3), "A"), NonPSDInput),
        (lambda: alphabet(np.eye(2), np.eye(2), "Z"), ValueError),
        (lambda: bdt_criterion(GaussianLinearProblem(
            GaussianDensity([0.0], [[1.0]]), {"e": ([[1.0]], [[1.0]])},
            PNormOnGrid(2.0, [1.0], squared=True)), "e"), TypeError),
    ], ids=["alphabet-shape-mismatch", "alphabet-unknown-criterion", "bdt-not-quadratic-loss"])
    def test_rejected(self, call, error):
        with pytest.raises(error):
            call()
