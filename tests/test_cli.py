"""CLI subcommands: exit codes, JSON/CSV outputs and determinism."""

import json

import numpy as np
import pytest

from optinfo.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuadratureCommand:
    def test_requires_nodes_or_optimize(self, capsys):
        code, _, err = run(["quadrature"], capsys)
        assert code == EXIT_USAGE
        assert "--nodes" in err or "--optimize" in err

    def test_optimize_uniform_four(self, capsys):
        code, out, _ = run(["quadrature", "--n", "4", "--optimize"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["nodes"] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert doc["bpn"] == pytest.approx(4 * 0.25**3 / 6.0)

    def test_explicit_single_node(self, capsys):
        code, out, _ = run(["quadrature", "--nodes", "0.1"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["bpn"] == pytest.approx((0.1**3 + 0.9**3) / 6.0)

    def test_nodes_and_optimize_conflict(self, capsys):
        code, _, _ = run(["quadrature", "--nodes", "0.5", "--optimize", "--n", "2"], capsys)
        assert code == EXIT_USAGE

    def test_mc_estimate_deterministic(self, capsys):
        argv = ["quadrature", "--n", "2", "--optimize", "--mc",
                "--seed", "3", "--n-outer", "2000"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2
        doc = json.loads(out1)
        mc = doc["bpn_monte_carlo"]
        assert abs(mc["estimate"] - doc["bpn"]) <= 3.0 * mc["stderr"]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(["quadrature", "--n", "2", "--optimize", "--output", str(target)], capsys)
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["nodes"] == [0.0, 0.5, 1.0]


class TestDiscreteCommand:
    def test_counterexample_report(self, capsys):
        code, out, err = run(["discrete", "--counterexample", "0.2", "0.3", "0.5"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["bpn"]["optimal_set"] == ["e1"]
        assert doc["bpn"]["values"] == {"e1": 0.0, "e2": pytest.approx(0.24)}
        assert "criterion" in err  # human-readable table on stderr

    def test_invalid_ordering_exits_2(self, capsys):
        code, _, err = run(["discrete", "--counterexample", "0.5", "0.3", "0.2"], capsys)
        assert code == EXIT_USAGE
        assert "p1 <= p2" in err

    def test_requires_exactly_one_source(self, capsys):
        assert run(["discrete"], capsys)[0] == EXIT_USAGE
        code, _, _ = run(
            ["discrete", "--problem", "x.json", "--counterexample", "0.2", "0.3", "0.5"], capsys
        )
        assert code == EXIT_USAGE

    def test_malformed_problem_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"states": "nope"}')
        code, _, err = run(["discrete", "--problem", str(bad)], capsys)
        assert code == EXIT_USAGE
        assert "$." in err

    def test_non_finite_prior_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({
            "states": [{"name": "a", "prior": float("nan")}, {"name": "b", "prior": 0.5}],
            "experiments": {"e": [[1.0, 0.0], [0.0, 1.0]]},
            "actions": ["u", "v"],
            "loss": [[0.0, 1.0], [1.0, 0.0]],
        }))
        code, _, err = run(["discrete", "--problem", str(bad)], capsys)
        assert code == EXIT_USAGE
        assert "non-finite" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(["discrete", "--problem", "/nonexistent/p.json"], capsys)
        assert code == EXIT_USAGE

    def test_problem_file_roundtrip(self, tmp_path, capsys):
        doc = {
            "states": [{"name": "a", "prior": 0.5}, {"name": "b", "prior": 0.5}],
            "experiments": {"e": [[1.0, 0.0], [0.0, 1.0]]},
            "actions": ["u", "v"],
            "loss": [[0.0, 1.0], [1.0, 0.0]],
            "state_loss": [[0.0, 1.0], [1.0, 0.0]],
        }
        src = tmp_path / "p.json"
        src.write_text(json.dumps(doc))
        code, out, _ = run(["discrete", "--problem", str(src)], capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["bdt"]["values"]["e"] == pytest.approx(0.0)


class TestPdeDesignCommand:
    BASE = ["pde-design", "--m", "1", "--eval-grid", "8", "--candidate-grid", "5",
            "--n-boundary", "12", "--samples", "32", "--seed", "0"]

    def test_unsupported_p_exits_2(self, tmp_path, capsys):
        code, _, _ = run(self.BASE + ["--p", "3", "--outdir", str(tmp_path)], capsys)
        assert code == EXIT_USAGE

    def test_zero_threads_exits_2(self, tmp_path, capsys):
        code, _, err = run(self.BASE + ["--threads", "0", "--outdir", str(tmp_path)], capsys)
        assert code == EXIT_USAGE
        assert "threads" in err

    @pytest.mark.parametrize("flags, name", [
        (["--eval-grid", "0"], "eval_grid"),
        (["--eval-grid", "-3"], "eval_grid"),
        (["--candidate-grid", "0"], "candidate_grid"),
        (["--n-boundary", "-1"], "n_boundary"),
        (["--m", "26"], "candidate_grid"),
    ])
    def test_bad_sizes_exit_2(self, tmp_path, capsys, flags, name):
        code, _, err = run(self.BASE + flags + ["--outdir", str(tmp_path)], capsys)
        assert code == EXIT_USAGE
        assert name in err

    def test_single_sample_pinf_runs(self, tmp_path, capsys):
        code, _, _ = run(self.BASE + ["--p", "inf", "--samples", "1",
                                      "--outdir", str(tmp_path)], capsys)
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "design.json").read_text())
        assert np.isfinite(doc["bpn_trace"][0])

    def test_m1_outputs(self, tmp_path, capsys):
        code, _, _ = run(self.BASE + ["--p", "2", "--outdir", str(tmp_path)], capsys)
        assert code == EXIT_OK
        csv = tmp_path / "step_1_p2.csv"
        assert csv.exists()
        lines = csv.read_text().splitlines()
        assert lines[0] == "x,y,bpn"
        assert len(lines) == 26  # header + 5x5 candidates
        for line in lines[1:]:
            assert len([float(cell) for cell in line.split(",")]) == 3
        doc = json.loads((tmp_path / "design.json").read_text())
        assert len(doc["points"]) == 1
        assert doc["config"]["p"] == "2"

    def test_rerun_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(self.BASE + ["--p", "inf", "--outdir", str(out1)], capsys)
        run(self.BASE + ["--p", "inf", "--outdir", str(out2)], capsys)
        assert (out1 / "step_1_pinf.csv").read_bytes() == (out2 / "step_1_pinf.csv").read_bytes()
        assert (out1 / "design.json").read_text() == (out2 / "design.json").read_text()

    def test_threads_do_not_change_outputs(self, tmp_path, capsys):
        out1, out4 = tmp_path / "t1", tmp_path / "t4"
        run(self.BASE + ["--p", "inf", "--outdir", str(out1), "--threads", "1"], capsys)
        run(self.BASE + ["--p", "inf", "--outdir", str(out4), "--threads", "4"], capsys)
        assert (out1 / "step_1_pinf.csv").read_bytes() == (out4 / "step_1_pinf.csv").read_bytes()
        doc1 = json.loads((out1 / "design.json").read_text())
        doc4 = json.loads((out4 / "design.json").read_text())
        assert doc1["points"] == doc4["points"]
        assert doc1["bpn_trace"] == doc4["bpn_trace"]


class TestRegressionCommand:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_superset_design_weakly_better(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {
            "prior_cov": [[1.0, 0.0], [0.0, 1.0]],
            "candidates": {
                "small": [[1.0, 0.0]],
                "big": [[1.0, 0.0], [0.0, 1.0]],
            },
        })
        code, out, _ = run(["regression", "--config", config], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["A"]["values"]["big"] <= doc["A"]["values"]["small"] + 1e-12
        assert doc["A"]["optimal_set"] == ["big"]

    def test_rank_one_lambda_equals_c_value(self, tmp_path, capsys):
        c = [1.0, 2.0]
        lam = (np.outer(c, c)).tolist()
        config = self.write_config(tmp_path, {
            "prior_cov": [[2.0, 0.3], [0.3, 1.0]],
            "candidates": {"e": [[1.0, 1.0]]},
            "lambda": lam,
            "c": c,
        })
        code, out, _ = run(["regression", "--config", config], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["A"]["values"]["e"] == pytest.approx(doc["c"]["values"]["e"], rel=1e-10)

    def test_missing_key_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {"prior_cov": [[1.0]]})
        code, _, err = run(["regression", "--config", config], capsys)
        assert code == EXIT_USAGE
        assert "candidates" in err

    @pytest.mark.parametrize("doc, path", [
        ({"prior_cov": [[1.0]], "candidates": [[1.0]]}, "$.candidates"),
        ({"prior_cov": [[1.0]], "candidates": {}}, "$.candidates"),
        ({"prior_cov": [[1.0, 0.0], [0.0, 1.0]], "candidates": {"e": [[1.0, 0.0, 0.0]]}},
         "$.candidates.e"),
        ({"prior_cov": [[1.0, 0.0]], "candidates": {"e": [[1.0, 0.0]]}}, "$.prior_cov"),
    ], ids=["candidates-array", "candidates-empty", "width-mismatch", "prior-not-square"])
    def test_bad_shapes_exit_2(self, tmp_path, capsys, doc, path):
        code, _, err = run(["regression", "--config", self.write_config(tmp_path, doc)], capsys)
        assert code == EXIT_USAGE
        assert path in err

    def test_non_psd_prior_exits_3(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {
            "prior_cov": [[1.0, 2.0], [2.0, 1.0]],
            "candidates": {"e": [[1.0, 0.0]]},
        })
        code, _, _ = run(["regression", "--config", config], capsys)
        assert code == EXIT_NUMERICAL


class TestSeedFallback:
    def test_env_seed_used_when_flag_absent(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPTINFO_SEED", "77")
        code, out, _ = run(["quadrature", "--n", "1", "--optimize"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["seed"] == 77

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("OPTINFO_SEED", "77")
        _, out, _ = run(["quadrature", "--n", "1", "--optimize", "--seed", "5"], capsys)
        assert json.loads(out)["seed"] == 5

    def test_garbage_env_falls_back_to_zero(self, capsys, monkeypatch):
        monkeypatch.setenv("OPTINFO_SEED", "not-a-number")
        _, out, _ = run(["quadrature", "--n", "1", "--optimize"], capsys)
        assert json.loads(out)["seed"] == 0


class TestArgparseBehaviour:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()
