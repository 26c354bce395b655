"""Wiener-prior quadrature: posterior, closed forms, Monte Carlo, optimal nodes."""

import numpy as np
import pytest

from optinfo import quadrature
from optinfo.criteria import MonteCarloConfig
from optinfo.errors import LengthMismatch, OptimizerDiverged
from optinfo.quadrature import (
    QuadratureDesign,
    bdt_closed_form,
    bpn_closed_form,
    bpn_monte_carlo,
    design_report,
    optimize_design,
    quadrature_posterior,
)


class TestDesign:
    def test_nodes_sorted_with_endpoints(self):
        design = QuadratureDesign([0.7, 0.2])
        assert design.nodes == pytest.approx([0.0, 0.2, 0.7, 1.0])
        assert design.n_intervals == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QuadratureDesign([1.2])

    @pytest.mark.parametrize("node", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, node):
        with pytest.raises(ValueError, match="finite"):
            QuadratureDesign([0.5, node])

    def test_coincident_nodes_permitted(self):
        design = QuadratureDesign([0.5, 0.5])
        assert design.intervals == pytest.approx([0.5, 0.0, 0.5])


class TestPosterior:
    def test_constant_function(self):
        design = QuadratureDesign([0.3, 0.8])
        post = quadrature_posterior(design, [2.0, 2.0, 2.0, 2.0])
        assert post.mean == pytest.approx(2.0, abs=1e-15)
        assert post.variance == pytest.approx(np.sum(design.intervals**3) / 12.0, abs=1e-17)

    def test_uniform_n2_hand_values(self):
        post = quadrature_posterior(QuadratureDesign([0.5]), [0.0, 1.0, 0.0])
        assert post.mean == pytest.approx(0.5, abs=1e-15)
        assert post.variance == pytest.approx(1.0 / 48.0, abs=1e-17)

    def test_matches_independent_trapezoid(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            design = QuadratureDesign(np.sort(rng.uniform(0, 1, 4)))
            values = rng.standard_normal(6)
            post = quadrature_posterior(design, values)
            assert post.mean == pytest.approx(np.trapezoid(values, design.nodes), abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            quadrature_posterior(QuadratureDesign([0.5]), [0.0, 1.0])


class TestClosedForms:
    def test_single_interval(self):
        assert bpn_closed_form(QuadratureDesign(())) == pytest.approx(1.0 / 6.0, abs=1e-17)

    def test_uniform_n4_plug_in(self):
        # Plugging the uniform n=4 intervals into the closed form:
        # (1/6) * 4 * (1/4)^3 = 1/96 and (1/12) * 4 * (1/4)^3 = 1/192.
        design = optimize_design(4)
        assert bpn_closed_form(design) == pytest.approx(4 * 0.25**3 / 6.0, abs=1e-17)
        assert bdt_closed_form(design) == pytest.approx(4 * 0.25**3 / 12.0, abs=1e-17)

    def test_bpn_is_exactly_twice_variance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            design = QuadratureDesign(np.sort(rng.uniform(0, 1, rng.integers(0, 6))))
            variance = quadrature_posterior(design, np.zeros(len(design.nodes))).variance
            assert abs(bpn_closed_form(design) - 2.0 * variance) <= 1e-15

    def test_schur_convexity_uniform_is_strictly_optimal(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 5):
            uniform = bpn_closed_form(optimize_design(n))
            for _ in range(20):
                interior = np.sort(rng.uniform(0, 1, n - 1))
                if np.max(np.abs(interior - np.arange(1, n) / n)) < 1e-6:
                    continue
                assert bpn_closed_form(QuadratureDesign(interior)) > uniform


class TestMonteCarlo:
    def test_matches_closed_form_uniform(self):
        design = optimize_design(4)
        est, se = bpn_monte_carlo(design, MonteCarloConfig(seed=0, n_outer=20_000, n_inner=4))
        assert abs(est - bpn_closed_form(design)) <= 3.0 * se

    def test_matches_closed_form_skewed(self):
        design = QuadratureDesign([0.1])
        est, se = bpn_monte_carlo(design, MonteCarloConfig(seed=1, n_outer=20_000, n_inner=4))
        assert bpn_closed_form(design) == pytest.approx((0.1**3 + 0.9**3) / 6.0, abs=1e-17)
        assert abs(est - bpn_closed_form(design)) <= 3.0 * se

    def test_degenerate_design_estimate_vanishes(self):
        design = QuadratureDesign(np.arange(1, 64) / 64.0)
        est, se = bpn_monte_carlo(design, MonteCarloConfig(seed=2, n_outer=2000, n_inner=2))
        # 64 vanishing intervals: closed form 64 (1/64)^3 / 6 ~ 4.1e-5.
        assert abs(est - bpn_closed_form(design)) <= 3.0 * se
        assert est < 1e-4

    @pytest.mark.parametrize("K", [2, 8, 64])
    def test_bridge_variance_closed_form_matches_covariance_sum(self, monkeypatch, K):
        # Oracle: the trapezoid weights 1 / K summed against the bridge
        # covariance s (1 - t), s <= t, on the interior grid j / K.
        s = np.arange(1, K) / K
        cov = np.minimum.outer(s, s) * (1.0 - np.maximum.outer(s, s))
        deltas = np.array([0.1, 0.25, 0.65])
        monkeypatch.setattr(quadrature, "BRIDGE_POINTS", K)
        np.testing.assert_allclose(quadrature._bridge_integral_variances(deltas),
                                   deltas**3 * cov.sum() / K**2, rtol=1e-14)

    def test_deterministic_given_seed(self):
        design = QuadratureDesign([0.3, 0.6])
        cfg = MonteCarloConfig(seed=5, n_outer=1000, n_inner=2)
        assert bpn_monte_carlo(design, cfg) == bpn_monte_carlo(design, cfg)


class TestOptimizeDesign:
    def test_closed_form_equispaced(self):
        for n in (1, 2, 4, 7):
            design = optimize_design(n)
            assert design.nodes == pytest.approx(np.arange(n + 1) / n, abs=1e-15)

    def test_n1_empty_interior(self):
        assert optimize_design(1).interior == ()

    def test_coordinate_descent_converges_from_random_starts(self):
        for seed in range(10):
            design = optimize_design(3, optimizer="coordinate-descent", seed=seed)
            assert design.interior == pytest.approx([1 / 3, 2 / 3], abs=1e-3)

    def test_sweep_budget_exhausted_raises(self):
        # One sweep moves each node to its neighbours' midpoint once, far
        # more than tol from a random start.
        with pytest.raises(OptimizerDiverged):
            optimize_design(4, optimizer="coordinate-descent", seed=0, max_sweeps=1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            optimize_design(0)
        for n in (2.5, True):
            with pytest.raises(ValueError, match="n must be an integer"):
                optimize_design(n)
        with pytest.raises(ValueError):
            optimize_design(3, optimizer="simulated-annealing")


class TestReport:
    def test_report_fields(self):
        design = optimize_design(2)
        report = design_report(design, mc=(0.02, 0.001))
        assert report["nodes"] == pytest.approx([0.0, 0.5, 1.0])
        assert report["bpn"] == pytest.approx(2.0 * report["posterior_variance"])
        assert report["bdt"] == report["posterior_variance"]
        assert report["bpn_monte_carlo"] == {"estimate": 0.02, "stderr": 0.001}
