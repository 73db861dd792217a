import json

import numpy as np
import pytest

from budgetbandits import env_from_dict, episode_rng
from budgetbandits.cli import main


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def adversarial_doc(rng, t_max=25, n=4):
    return {
        "type": "adversarial",
        "rewards": rng.random((t_max, n)).tolist(),
        "costs": (0.5 + 0.5 * rng.random((t_max, n))).tolist(),
    }


def run_doc(rng):
    return {
        "config": {"n_arms": 4, "plays": 2, "budget": 10.0, "c_min": 0.5,
                   "confidence": 0.1, "horizon": None},
        "policy": {"name": "exp3_mb", "gamma": 0.3},
        "environment": adversarial_doc(rng),
        "replications": 3,
        "base_seed": 7,
    }


class TestRun:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", run_doc(episode_rng(1, 1)))
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_changes_results(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", run_doc(episode_rng(1, 1)))
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--config", cfg, "--out", str(out1), "--seed", "1"])
        main(["run", "--config", cfg, "--out", str(out2), "--seed", "2"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_output_parses_and_has_fields(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", run_doc(episode_rng(1, 1)))
        assert main(["run", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["policy"] == "exp3_mb"
        assert len(doc["per_replication"]) == 3
        assert doc["mean_regret"] == pytest.approx(
            doc["oracle_gain"] - doc["mean_gain"])

    def test_trace_csv_written(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", run_doc(episode_rng(1, 1)))
        trace = tmp_path / "trace.csv"
        out = tmp_path / "r.json"
        assert main(["run", "--config", cfg, "--trace-csv", str(trace),
                     "--out", str(out)]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "replication,t,arms,rewards,costs,budget_remaining"
        assert len(lines) > 3

    def test_bad_config_exits_2(self, tmp_path, capsys):
        doc = run_doc(episode_rng(1, 1))
        doc["config"]["plays"] = 9  # K > N
        cfg = write_json(tmp_path / "bad.json", doc)
        assert main(["run", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("breakage", [
        "nan_mean", "nan_reward", "inf_cost", "neg_inf_reward", "inf_budget", "gamma_on_ucb",
    ])
    def test_bad_value_exits_2(self, tmp_path, capsys, breakage):
        doc = run_doc(episode_rng(1, 1))
        env = doc["environment"]
        if breakage in ("nan_mean", "gamma_on_ucb"):
            doc["policy"] = {"name": "ucb_mb"}
            doc["environment"] = {"type": "stochastic", "mean_rewards": [0.9, 0.8, 0.5, 0.4],
                                  "mean_costs": [0.6] * 4, "c_min": 0.5}
        if breakage == "nan_mean":
            doc["environment"]["mean_rewards"][1] = float("nan")
        elif breakage == "nan_reward":
            env["rewards"][3][1] = float("nan")
        elif breakage == "inf_cost":
            env["costs"][3][1] = float("inf")
        elif breakage == "neg_inf_reward":
            env["rewards"][3][1] = -float("inf")
        elif breakage == "inf_budget":
            doc["config"]["budget"] = float("inf")
        else:
            doc["policy"]["gamma"] = 0.3
        cfg = write_json(tmp_path / "bad.json", doc)
        assert main(["run", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert main(["run", "--config", "/nonexistent/nope.json"]) == 2


class TestBounds:
    def test_bounds_json(self, tmp_path, capsys):
        doc = run_doc(episode_rng(2, 1))
        doc["g"] = 30.0
        cfg = write_json(tmp_path / "b.json", doc)
        assert main(["bounds", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["thm2"]["value"] > 0
        assert out["thm3_lower"]["value"] > 0
        assert out["thm5"]["value"] > 0

    def test_bounds_stochastic_includes_thm1(self, tmp_path, capsys):
        doc = {
            "config": {"n_arms": 3, "plays": 2, "budget": 10.0, "c_min": 0.5},
            "policy": {"name": "ucb_mb"},
            "environment": {"type": "stochastic", "family": "bernoulli_scaled",
                            "mean_rewards": [0.9, 0.6, 0.3],
                            "mean_costs": [0.5, 0.6, 0.7], "c_min": 0.5},
            "replications": 1,
            "base_seed": 1,
        }
        cfg = write_json(tmp_path / "s.json", doc)
        assert main(["bounds", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "thm1" in out
        assert out["thm1"]["constituents"]["gamma_const"] > 0


class TestLbenv:
    def test_materializes_env(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "lb.json", {
            "n_arms": 5, "plays": 2, "budget": 20.0, "c_min": 0.5,
            "eps": 0.1, "base_seed": 3,
        })
        assert main(["lbenv", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eps"] == pytest.approx(0.1)
        env = env_from_dict({k: doc[k] for k in ("type", "rewards", "costs")})
        assert env.t_max == 21 and env.n_arms == 5
        assert set(np.unique(env.costs)) <= {0.5, 1.0}

    def test_default_eps_is_tuned(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "lb.json", {
            "n_arms": 5, "plays": 2, "budget": 20.0, "c_min": 0.5, "base_seed": 3,
        })
        assert main(["lbenv", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        from budgetbandits import tuned_eps
        assert doc["eps"] == pytest.approx(tuned_eps(20.0, 5, 2, 0.5))


class TestSweep:
    def test_csv_columns_and_rows(self, tmp_path):
        doc = run_doc(episode_rng(4, 1))
        doc["environment"] = adversarial_doc(episode_rng(5, 1), t_max=45)
        cfg = write_json(tmp_path / "sw.json", doc)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--budgets", "5,10", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "budget,policy,mean_gain,oracle_gain,mean_regret,std_error,bound"
        assert len(lines) == 3
        assert lines[1].startswith("5,exp3_mb,")

    def test_empty_budgets_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "sw.json", run_doc(episode_rng(4, 1)))
        assert main(["sweep", "--config", cfg, "--budgets", ","]) == 2

    def test_lower_bound_env_rematerializes_per_budget(self, tmp_path):
        doc = run_doc(episode_rng(6, 1))
        doc["environment"] = {"type": "lower_bound", "eps": 0.1, "good_set": None}
        doc["replications"] = 2
        cfg = write_json(tmp_path / "sw.json", doc)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--budgets", "8,16,32", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
