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
        "zero_oracle_gain", "negative_seed", "fractional_replications", "fractional_n_arms",
        "bool_plays", "fractional_horizon", "fractional_seed", "string_replications",
        "fractional_good_set",
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
        elif breakage == "zero_oracle_gain":
            # 3 arms and K c_min = 1 above B: no subset affords a round, so the
            # oracle gain that tunes gamma is 0
            doc["policy"] = {"name": "exp3_mb", "g": "oracle"}
            doc["config"].update(n_arms=3, budget=0.75)
            doc["environment"] = adversarial_doc(episode_rng(1, 2), t_max=3, n=3)
        elif breakage == "negative_seed":
            doc["base_seed"] = -1
        elif breakage == "fractional_replications":
            doc["replications"] = 2.5
        elif breakage == "fractional_n_arms":
            doc["config"]["n_arms"] = 4.7
        elif breakage == "bool_plays":
            doc["config"]["plays"] = True
        elif breakage == "fractional_horizon":
            doc["config"]["horizon"] = 10.5
        elif breakage == "fractional_seed":
            doc["base_seed"] = 7.5
        elif breakage == "string_replications":
            doc["replications"] = "3"
        elif breakage == "fractional_good_set":
            doc["environment"] = {"type": "lower_bound", "eps": 0.1, "good_set": [0.5, 1.9]}
        else:
            doc["policy"]["gamma"] = 0.3
        cfg = write_json(tmp_path / "bad.json", doc)
        assert main(["run", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", run_doc(episode_rng(1, 1)))
        assert main(["run", "--config", cfg, "--seed", "-1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_integral_float_counts_accepted(self, tmp_path):
        doc = run_doc(episode_rng(1, 1))
        plain = write_json(tmp_path / "plain.json", doc)
        doc["config"].update(n_arms=4.0, plays=2.0)
        doc.update(replications=3.0, base_seed=7.0)
        floats = write_json(tmp_path / "floats.json", doc)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "--config", plain, "--out", str(out1)]) == 0
        assert main(["run", "--config", floats, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_file_exits_2(self):
        assert main(["run", "--config", "/nonexistent/nope.json"]) == 2


def stochastic_doc(mean_rewards=(0.9, 0.8, 0.5, 0.4)):
    return {"type": "stochastic", "family": "bernoulli_scaled",
            "mean_rewards": list(mean_rewards), "mean_costs": [0.6] * 4, "c_min": 0.5}


BOUND_POLICIES = {
    "ucb_mb": {"name": "ucb_mb"},
    "exp3_mb": {"name": "exp3_mb", "gamma": 0.3},
    "exp3_1_mb": {"name": "exp3_1_mb"},
    "exp3_pm": {"name": "exp3_pm"},
    "exp3_pmb": {"name": "exp3_pmb"},
}
BOUND_ENVIRONMENTS = {
    "stochastic": stochastic_doc,
    "adversarial": lambda: adversarial_doc(episode_rng(8, 1)),
    "lower_bound": lambda: {"type": "lower_bound", "eps": None, "good_set": None},
}


def bounds_doc(policy, environment):
    doc = run_doc(episode_rng(8, 2))
    doc["policy"] = dict(BOUND_POLICIES[policy])
    doc["environment"] = environment
    doc["replications"] = 1
    if policy == "exp3_pm":
        doc["config"]["horizon"] = 8
    return doc


def bounds_and_run(tmp_path, capsys, doc):
    """(exit code, parsed output) of bounds, then of run, on one config."""
    cfg = write_json(tmp_path / "c.json", doc)
    outcomes = []
    for command in ("bounds", "run"):
        code = main([command, "--config", cfg])
        out = capsys.readouterr().out
        outcomes.append((code, json.loads(out) if code == 0 else None))
    return outcomes


def exact_budget_doc(rows):
    """Four arms that always cost c_min = 0.5: at K = 2 and B = 10 the
    costs reach B exactly after ceil(B / (K c_min)) = 10 rounds."""
    return {"type": "adversarial", "rewards": [[0.5, 0.6, 0.7, 0.8]] * rows,
            "costs": [[0.5] * 4] * rows}


class TestBounds:
    def test_bounds_json(self, tmp_path, capsys):
        doc = run_doc(episode_rng(2, 1))
        cfg = write_json(tmp_path / "b.json", doc)
        assert main(["bounds", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["thm2"] > 0
        assert out["thm3_lower"] > 0
        doc["policy"] = {"name": "exp3_pmb"}
        cfg = write_json(tmp_path / "pmb.json", doc)
        assert main(["bounds", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["thm5"] > 0

    def test_bounds_follow_the_policy_g(self, tmp_path, capsys):
        doc = run_doc(episode_rng(2, 1))
        doc["policy"] = {"name": "exp3_mb", "g": 50.0}
        cfg = write_json(tmp_path / "b.json", doc)
        assert main(["bounds", "--config", cfg]) == 0
        bounds = json.loads(capsys.readouterr().out)
        assert main(["run", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert bounds["thm2_g"] == 50.0
        assert bounds["thm2_g"] == report["bound_values"]["thm2_g"]
        assert bounds["thm2"] == report["bound_values"]["thm2"]

    def test_bounds_oracle_g_above_ten_thousand_subsets(self, tmp_path, capsys):
        # C(16, 7) = 11440 subsets, enumerated exactly, as run does
        doc = run_doc(episode_rng(3, 1))
        doc["config"].update(n_arms=16, plays=7, budget=8.0)
        doc["environment"] = adversarial_doc(episode_rng(3, 2), t_max=4, n=16)
        doc["policy"] = {"name": "exp3_mb", "g": "oracle"}
        doc["replications"] = 1
        cfg = write_json(tmp_path / "b.json", doc)
        assert main(["bounds", "--config", cfg]) == 0
        bounds = json.loads(capsys.readouterr().out)
        assert main(["run", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert bounds["thm2_g"] == report["oracle_gain"] > 0
        assert bounds["thm2"] == report["bound_values"]["thm2"]

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
        assert out["thm1_constituents"]["gamma_const"] > 0

    @pytest.mark.parametrize("env_kind", sorted(BOUND_ENVIRONMENTS))
    @pytest.mark.parametrize("policy", sorted(BOUND_POLICIES))
    @pytest.mark.filterwarnings("ignore:.*reward-covers-cost")
    def test_bounds_equal_run_bound_values(self, tmp_path, capsys, policy, env_kind):
        doc = bounds_doc(policy, BOUND_ENVIRONMENTS[env_kind]())
        (bounds_code, bounds), (run_code, report) = bounds_and_run(tmp_path, capsys, doc)
        assert bounds_code == run_code == (2 if (policy, env_kind) in (
            ("ucb_mb", "adversarial"), ("ucb_mb", "lower_bound")) else 0)
        if run_code == 0:
            assert bounds == report["bound_values"]

    @pytest.mark.parametrize("case", ["zero_gap", "above_ten_thousand_subsets",
                                      "single_arm_exp3_pm", "single_arm_exp3_pmb"])
    def test_bounds_equal_run_bound_values_at_the_edges(self, tmp_path, capsys, case):
        if case == "zero_gap":
            # every ratio equal: Thm 1 needs a positive gap and is omitted
            doc = bounds_doc("ucb_mb", stochastic_doc(mean_rewards=[0.6] * 4))
        elif case == "above_ten_thousand_subsets":
            # C(16, 7) = 11440 subsets, exp3_mb given gamma: thm2 takes the oracle gain
            doc = bounds_doc("exp3_mb", adversarial_doc(episode_rng(3, 2), t_max=4, n=16))
            doc["config"].update(n_arms=16, plays=7, budget=8.0)
        else:
            # Thms 4 and 5 are undefined for one arm and are omitted
            doc = bounds_doc(case[len("single_arm_"):], adversarial_doc(episode_rng(3, 3), n=1))
            doc["config"].update(n_arms=1, plays=1)
        (bounds_code, bounds), (run_code, report) = bounds_and_run(tmp_path, capsys, doc)
        assert bounds_code == run_code == 0
        assert bounds == report["bound_values"]
        assert ("thm2" in bounds) == (case == "above_ten_thousand_subsets")

    @pytest.mark.parametrize("breakage", ["ucb_on_adversarial", "arm_count_mismatch",
                                          "sequence_one_round_short"])
    def test_bounds_exit_2_where_run_does(self, tmp_path, capsys, breakage):
        doc = run_doc(episode_rng(2, 1))
        if breakage == "ucb_on_adversarial":
            doc["policy"] = {"name": "ucb_mb"}
        elif breakage == "sequence_one_round_short":
            # exp3_pmb's bounds do not read the oracle; T_max = ceil(B / (K c_min))
            # is still refused, as run refuses it
            doc["policy"] = {"name": "exp3_pmb"}
            doc["environment"] = exact_budget_doc(rows=10)
        else:
            doc["config"]["n_arms"] = 5  # the matrices have 4 arms
        cfg = write_json(tmp_path / "bad.json", doc)
        for command in ("bounds", "run"):
            assert main([command, "--config", cfg]) == 2
            assert "config error" in capsys.readouterr().err


    @pytest.mark.parametrize("policy", ["exp3_mb", "exp3_1_mb", "exp3_pmb"])
    def test_shortest_allowed_sequence_runs(self, tmp_path, capsys, policy):
        # T_max = ceil(B / (K c_min)) + 1: the eleventh round overdraws, so
        # neither the oracle nor an episode runs out of rows
        doc = bounds_doc(policy, exact_budget_doc(rows=11))
        (bounds_code, bounds), (run_code, report) = bounds_and_run(tmp_path, capsys, doc)
        assert bounds_code == run_code == 0
        assert bounds == report["bound_values"]
        assert report["oracle_gain"] == 10 * (0.7 + 0.8)
        assert report["per_replication"][0]["stopping_time"] == 11

    def test_bounds_skip_an_oracle_they_do_not_read(self, tmp_path, capsys, monkeypatch):
        import budgetbandits.harness as harness

        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("the exact oracle was enumerated")

        monkeypatch.setattr(harness, "oracle_gain_adversarial", enumerate_nothing)
        cfg = write_json(tmp_path / "b.json", bounds_doc("exp3_pmb", adversarial_doc(
            episode_rng(8, 1))))
        assert main(["bounds", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["thm5"] > 0
        with pytest.raises(AssertionError, match="enumerated"):
            main(["run", "--config", cfg])


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

    @pytest.mark.parametrize("breakage", ["fractional_n_arms", "bool_plays", "negative_seed",
                                          "fractional_good_set", "negative_seed_flag"])
    def test_bad_value_exits_2(self, tmp_path, capsys, breakage):
        doc = {"n_arms": 4, "plays": 2, "budget": 20.0, "c_min": 0.5, "base_seed": 3}
        flags = []
        if breakage == "fractional_n_arms":
            doc["n_arms"] = 4.7
        elif breakage == "bool_plays":
            doc["plays"] = True
        elif breakage == "negative_seed":
            doc["base_seed"] = -1
        elif breakage == "fractional_good_set":
            doc["good_set"] = [0.5, 1.9]
        else:
            flags = ["--seed", "-1"]
        cfg = write_json(tmp_path / "lb.json", doc)
        assert main(["lbenv", "--config", cfg] + flags) == 2
        assert "config error" in capsys.readouterr().err

    def test_integral_float_counts_accepted(self, tmp_path):
        doc = {"n_arms": 5, "plays": 2, "budget": 20.0, "c_min": 0.5, "eps": 0.1,
               "good_set": [1, 3], "base_seed": 3}
        plain = write_json(tmp_path / "plain.json", doc)
        doc.update(n_arms=5.0, plays=2.0, good_set=[1.0, 3.0], base_seed=3.0)
        floats = write_json(tmp_path / "floats.json", doc)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["lbenv", "--config", plain, "--out", str(out1)]) == 0
        assert main(["lbenv", "--config", floats, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


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
