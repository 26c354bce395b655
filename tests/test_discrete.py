"""Finite-state design engine, counterexample factory and JSON ingestion."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optinfo.decisions import bayes_risk_discrete, bayes_rule_discrete
from optinfo.discrete import (
    CounterexampleSpec,
    DiscreteProblem,
    _choice_cdf,
    _inverse_cdf,
    bpn_exact,
    build_counterexample,
    criteria_report,
    load_problem,
    posterior,
    problem_from_dict,
)
from optinfo.errors import (
    InvalidSpec,
    MissingLossTable,
    ZeroProbabilityObservation,
)


def admissible_triples(count=50):
    """Grid of (p1, p2, p3) with 0 < p1 <= p2 <= p3 < 1 summing to one."""
    triples = []
    for p1 in np.linspace(0.02, 0.32, 10):
        for p2 in np.linspace(p1, (1 - p1) / 2, 5):
            p3 = 1.0 - p1 - p2
            if p2 <= p3 < 1.0:
                triples.append((float(p1), float(p2), float(p3)))
    assert len(triples) >= count
    return triples[:count]


class TestDiscreteProblem:
    def test_invalid_prior_sum(self):
        with pytest.raises(InvalidSpec):
            DiscreteProblem(["a", "b"], [0.5, 0.6], {"e": [[1.0], [1.0]]}, ["u"], [[0.0], [0.0]])

    def test_invalid_likelihood_rows(self):
        with pytest.raises(InvalidSpec):
            DiscreteProblem(["a", "b"], [0.5, 0.5], {"e": [[0.5, 0.4], [1.0, 0.0]]}, ["u"],
                            [[0.0], [0.0]])

    def test_negative_probability_rejected(self):
        with pytest.raises(InvalidSpec):
            DiscreteProblem(["a", "b"], [1.5, -0.5], {"e": [[1.0], [1.0]]}, ["u"], [[0.0], [0.0]])

    def test_loss_shape_checked(self):
        with pytest.raises(InvalidSpec):
            DiscreteProblem(["a", "b"], [0.5, 0.5], {"e": [[1.0], [1.0]]}, ["u", "v"], [[0.0], [0.0]])

    @pytest.mark.parametrize("table", ["prior", "likelihood", "loss", "state_loss"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, table, bad):
        # NaN passes every sign and sum comparison, and 0 * inf is NaN in
        # the criteria, so each table is checked for finite entries.
        tables = {
            "prior": [0.5, 0.5],
            "likelihood": [[1.0, 0.0], [0.0, 1.0]],
            "loss": [[0.0, 1.0], [1.0, 0.0]],
            "state_loss": [[0.0, 1.0], [1.0, 0.0]],
        }
        tables[table] = np.array(tables[table])
        tables[table].flat[0] = bad
        with pytest.raises(InvalidSpec, match="non-finite"):
            DiscreteProblem(["a", "b"], tables["prior"], {"e": tables["likelihood"]},
                            ["u", "v"], tables["loss"], tables["state_loss"])


class TestPosterior:
    def test_uninformative_returns_prior(self):
        problem = DiscreteProblem(["a", "b"], [0.3, 0.7], {"e": [[1.0], [1.0]]}, ["u"],
                                  [[0.0], [0.0]])
        assert posterior(problem, "e", 0) == pytest.approx([0.3, 0.7], abs=1e-15)

    def test_counterexample_hand_values(self):
        problem = build_counterexample(CounterexampleSpec(0.2, 0.3, 0.5))
        assert posterior(problem, "e2", 1) == pytest.approx([0.4, 0.6, 0.0], abs=1e-14)
        assert posterior(problem, "e1", 1) == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)

    @settings(derandomize=True, deadline=None, database=None)
    @given(n_states=st.integers(1, 40), n_obs=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_one_observation_division(self, n_states, n_obs, seed):
        # Seeded posterior draws depend on the last bits of the posterior,
        # so the table must divide exactly as one observation at a time.
        rng = np.random.default_rng(seed)
        prior = rng.dirichlet(np.ones(n_states))
        lik = rng.dirichlet(np.ones(n_obs), size=n_states)
        problem = DiscreteProblem(range(n_states), prior, {"e": lik}, ["u"],
                                  np.zeros((n_states, 1)))
        for y in range(n_obs):
            joint = prior * lik[:, y]
            assert np.array_equal(posterior(problem, "e", y), joint / joint.sum())

    def test_zero_probability_observation(self):
        problem = DiscreteProblem(["a"], [1.0], {"e": [[1.0, 0.0]]}, ["u"], [[0.0]])
        with pytest.raises(ZeroProbabilityObservation):
            posterior(problem, "e", 1)


class TestBatchSampling:
    def test_inverse_cdf_is_generator_choice_rule(self):
        # Generator.choice(len(p), p=p) draws searchsorted(cumsum(p) / cumsum(p)[-1],
        # u, side="right"). The 0.1 row sums to 1 - 2**-53, and the uniforms
        # sit on and just below the CDF steps, where the rule decides the index.
        probs = np.array([[0.1] * 10, [0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0]])
        cdf = _choice_cdf(probs)
        steps = cdf[:, :-1]
        u = np.hstack([np.zeros((2, 1)), steps, np.nextafter(steps, 0.0)])
        for p, row, uu, idx in zip(probs, cdf, u, _inverse_cdf(cdf, u)):
            ref = np.cumsum(p)
            ref /= ref[-1]
            np.testing.assert_array_equal(row, ref)
            np.testing.assert_array_equal(idx, np.searchsorted(ref, uu, side="right"))


class TestBpnExact:
    def test_counterexample_values(self):
        problem = build_counterexample(CounterexampleSpec(0.2, 0.3, 0.5))
        assert bpn_exact(problem, "e1") == pytest.approx(0.0, abs=1e-15)
        assert bpn_exact(problem, "e2") == pytest.approx(0.24, abs=1e-14)

    def test_zero_loss_table(self):
        problem = build_counterexample(CounterexampleSpec(0.2, 0.3, 0.5))
        problem.state_loss = np.zeros((3, 3))
        assert bpn_exact(problem, "e2") == 0.0

    def test_missing_loss_table(self):
        problem = DiscreteProblem(["a"], [1.0], {"e": [[1.0]]}, ["u"], [[0.0]])
        with pytest.raises(MissingLossTable):
            bpn_exact(problem, "e")

    def test_fubini_sum_orders_agree(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            prior = rng.dirichlet(np.ones(n))
            lik = rng.dirichlet(np.ones(3), size=n)
            state_loss = rng.uniform(0, 1, (n, n))
            np.fill_diagonal(state_loss, 0.0)
            problem = DiscreteProblem(
                [str(i) for i in range(n)], prior, {"e": lik}, ["u"],
                np.zeros((n, 1)), state_loss,
            )
            # y -> (x, x') order, re-derived independently.
            total = 0.0
            for y in range(3):
                joint = prior * lik[:, y]
                marginal = joint.sum()
                if marginal <= 0:
                    continue
                post = joint / marginal
                total += marginal * float(post @ state_loss @ post)
            assert bpn_exact(problem, "e") == pytest.approx(total, abs=1e-14)


class TestCounterexampleFactory:
    def test_spec_validation(self):
        with pytest.raises(InvalidSpec):
            CounterexampleSpec(0.5, 0.3, 0.2)  # ordering violated
        with pytest.raises(InvalidSpec):
            CounterexampleSpec(0.2, 0.3, 0.4)  # does not sum to one
        with pytest.raises(InvalidSpec):
            CounterexampleSpec(0.0, 0.4, 0.6)  # not strictly positive

    def test_closed_forms_on_admissible_grid(self):
        # Hand-derived closed forms for the construction: e1 reveals the
        # cell-1 indicator exactly, so both its BPN and its minimal Bayes
        # risk vanish; e2 merges cells 1 and 2, giving BPN(e2) =
        # 2 p1 p2 / (p1 + p2) and minimal risk min(p1, p2) = p1.
        for p1, p2, p3 in admissible_triples():
            problem = build_counterexample(CounterexampleSpec(p1, p2, p3))
            assert bpn_exact(problem, "e1") == pytest.approx(0.0, abs=1e-14)
            assert bpn_exact(problem, "e2") == pytest.approx(2 * p1 * p2 / (p1 + p2), abs=1e-12)
            br1 = bayes_risk_discrete(problem, "e1", bayes_rule_discrete(problem, "e1"))
            br2 = bayes_risk_discrete(problem, "e2", bayes_rule_discrete(problem, "e2"))
            assert br1 == pytest.approx(0.0, abs=1e-14)
            assert br2 == pytest.approx(p1, abs=1e-12)

    def test_e1_risk_matches_full_rule_enumeration(self):
        # Oracle: enumerate all four rule tables for e1 and take the best.
        problem = build_counterexample(CounterexampleSpec(0.2, 0.3, 0.5))
        risks = [bayes_risk_discrete(problem, "e1", [a0, a1]) for a0 in (0, 1) for a1 in (0, 1)]
        engine = bayes_risk_discrete(problem, "e1", bayes_rule_discrete(problem, "e1"))
        assert engine == pytest.approx(min(risks), abs=1e-15)

    def test_boundary_tie_p1_equals_p2(self):
        # p1 = p2 ties the e2 y=1 branch; the reported rule resolves to the
        # lowest action index and any selection attains the same risk.
        problem = build_counterexample(CounterexampleSpec(0.25, 0.25, 0.5))
        rule = bayes_rule_discrete(problem, "e2")
        assert rule[1] == 0
        assert bayes_risk_discrete(problem, "e2", [rule[0], 0]) == pytest.approx(
            bayes_risk_discrete(problem, "e2", [rule[0], 1]), abs=1e-15
        )


class TestCriteriaReport:
    def test_counterexample_reports(self):
        problem = build_counterexample(CounterexampleSpec(0.2, 0.3, 0.5))
        reports = criteria_report(problem)
        assert reports["bpn"].values == pytest.approx({"e1": 0.0, "e2": 0.24}, abs=1e-14)
        assert reports["bpn"].optimal == ["e1"]
        assert reports["bdt"].values["e2"] == pytest.approx(0.2, abs=1e-14)
        assert reports["kl_gain"].optimal == ["e2"]  # e2 is the more informative split

    def test_single_experiment_all_optimal(self):
        problem = DiscreteProblem(
            ["a", "b"], [0.4, 0.6], {"only": np.eye(2)}, ["u", "v"],
            [[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],
        )
        reports = criteria_report(problem)
        for rep in reports.values():
            assert rep.optimal == ["only"]

    def test_random_problem_dual_summation_oracle(self):
        rng = np.random.default_rng(77)
        prior = rng.dirichlet(np.ones(4))
        lik = rng.dirichlet(np.ones(3), size=4)
        loss = rng.uniform(0, 1, (4, 2))
        problem = DiscreteProblem(["a", "b", "c", "d"], prior, {"e": lik}, ["u", "v"], loss)
        rule = bayes_rule_discrete(problem, "e")
        independent = sum(
            prior[x] * lik[x, y] * loss[x, rule[y]] for x in range(4) for y in range(3)
        )
        assert criteria_report(problem)["bdt"].values["e"] == pytest.approx(independent, abs=1e-12)


class TestJsonIngestion:
    def valid_doc(self):
        return {
            "states": [{"name": "a", "prior": 0.4}, {"name": "b", "prior": 0.6}],
            "experiments": {"e": [[1.0, 0.0], [0.0, 1.0]]},
            "actions": ["u", "v"],
            "loss": [[0.0, 1.0], [1.0, 0.0]],
        }

    def test_valid_document(self):
        problem = problem_from_dict(self.valid_doc())
        assert problem.states == ["a", "b"]
        assert problem.prior == pytest.approx([0.4, 0.6])

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda d: d.pop("states"), "$.states"),
            (lambda d: d["states"][0].pop("prior"), "$.states[0].prior"),
            (lambda d: d.update(loss=[[0.0, 1.0]]), "$.loss"),
            (lambda d: d["experiments"].update(e=[[1.0], [1.0, 0.0]]), "$.experiments.e"),
            (lambda d: d.update(actions=[]), "$.actions"),
        ],
    )
    def test_schema_violations_name_the_path(self, mutate, path):
        doc = self.valid_doc()
        mutate(doc)
        with pytest.raises(InvalidSpec) as err:
            problem_from_dict(doc)
        assert path in str(err.value)

    def test_load_problem_malformed_json(self, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text("{not json")
        with pytest.raises(InvalidSpec) as err:
            load_problem(str(target))
        assert "invalid JSON" in str(err.value)

    def test_load_problem_roundtrip(self, tmp_path):
        target = tmp_path / "ok.json"
        target.write_text(json.dumps(self.valid_doc()))
        problem = load_problem(str(target))
        assert problem.experiment_ids() == ["e"]
