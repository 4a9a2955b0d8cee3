import json
from pathlib import Path

import numpy as np
import pytest

import polcomp as pc
from polcomp import cli
from polcomp import equilibrium1d as eq1d
from polcomp import equilibriumkd as eqkd
from polcomp.cli import main, run, validate_result_record, SchemaError
from polcomp.errors import InternalConsistencyError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def base_scenario(**task):
    return {
        "distribution": {"types": [
            {"bliss": [0.0], "share": 0.5, "label": "left"},
            {"bliss": [1.0], "share": 0.5, "label": "right"},
        ]},
        "payoff": {"preset": "quadratic"},
        "shock": {"half_width": 1.0},
        "seed": 7,
        "task": task,
    }


def scenario_2d():
    return {
        "distribution": {"types": [
            {"bliss": [0.0, 0.0], "share": 0.5, "label": "sw"},
            {"bliss": [1.0, 1.0], "share": 0.5, "label": "ne"},
        ]},
        "payoff": {"preset": "quadratic"},
        "shock": {"half_width": 5.0},
        "task": {},
    }


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return str(path)


class TestEq1d:
    def test_reference_record(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(monte_carlo_draws=200_000))
        code = main(["eq1d", "--scenario", path, "--out", str(tmp_path), "--format", "both"])
        assert code == 0
        record = json.loads((tmp_path / "eq1d.json").read_text())
        validate_result_record(record)
        res = record["result"]
        assert res["x_low"] == pytest.approx(0.25, abs=1e-12)
        assert res["x_high"] == pytest.approx(0.75, abs=1e-12)
        assert res["payoff"] == pytest.approx(0.625, abs=1e-12)
        assert res["monte_carlo_payoff"] == pytest.approx(0.625, abs=5e-3)
        weights = (tmp_path / "eq1d_weights.csv").read_text().splitlines()
        assert weights[0] == "label,bliss,share,weight_low,weight_high"
        assert len(weights) == 3

    def test_byte_identical_reruns(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(monte_carlo_draws=1000))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["eq1d", "--scenario", path, "--out", str(out),
                         "--format", "both"]) == 0
        for name in ("eq1d.json", "eq1d_weights.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_monte_carlo_only(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(monte_carlo_draws=500))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["eq1d", "--scenario", path, "--out", str(out1)])
        main(["eq1d", "--scenario", path, "--out", str(out2), "--seed", "99"])
        r1 = json.loads((out1 / "eq1d.json").read_text())
        r2 = json.loads((out2 / "eq1d.json").read_text())
        assert r1["result"]["x_low"] == r2["result"]["x_low"]
        assert r1["result"]["monte_carlo_payoff"] != r2["result"]["monte_carlo_payoff"]
        assert r2["seed"] == 99

    def test_internal_error_exit_code(self, tmp_path):
        # platforms land outside the shock support: the payoff identity breaks
        scenario = base_scenario()
        scenario["distribution"]["types"][0]["bliss"] = [-0.5]
        scenario["distribution"]["types"][1]["bliss"] = [1.5]
        path = write_scenario(tmp_path, scenario)
        assert main(["eq1d", "--scenario", path, "--out", str(tmp_path)]) == 4


class TestSchemaHandling:
    def test_unknown_top_level_key(self, tmp_path):
        scenario = base_scenario()
        scenario["extra"] = 1
        path = write_scenario(tmp_path, scenario)
        assert main(["eq1d", "--scenario", path, "--out", str(tmp_path)]) == 2

    def test_unknown_task_key(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(bogus=3))
        assert main(["eq1d", "--scenario", path, "--out", str(tmp_path)]) == 2

    def test_missing_required_block(self, tmp_path):
        scenario = base_scenario()
        del scenario["shock"]
        path = write_scenario(tmp_path, scenario)
        assert main(["eq1d", "--scenario", path, "--out", str(tmp_path)]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["eq1d", "--scenario", str(path), "--out", str(tmp_path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["eq1d", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_unreadable_scenario(self, tmp_path, capsys):
        assert main(["eq1d", "--scenario", str(tmp_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read scenario file")

    def test_threads_below_one_rejected(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario())
        assert main(["eq1d", "--scenario", path, "--out", str(tmp_path),
                     "--threads", "0"]) == 2

    def test_unknown_subcommand_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["solve-everything", "--scenario", "x.json"])

    def test_run_validates_format(self, tmp_path):
        with pytest.raises(SchemaError):
            run("eq1d", base_scenario(), tmp_path, fmt="yaml")

    @pytest.mark.parametrize("subcommand,where,value,message", [
        ("eq1d", "distribution.types.0.share", True, "distribution.types[0].share must be a number"),
        ("eq1d", "distribution.types.0.bliss", [True],
         "distribution.types[0].bliss must be a number or list of numbers"),
        ("eq1d", "distribution.types.1.bliss", [1.0, 0.0],
         "all bliss points in distribution must share one dimension"),
        ("eq1d", "seed", True, "seed must be an integer"),
        ("eq1d", "seed", 1.5, "seed must be an integer"),
        ("eq1d", "task.monte_carlo_draws", 0, "task.monte_carlo_draws must be a positive integer"),
        ("eq1d", "task.monte_carlo_draws", True,
         "task.monte_carlo_draws must be a positive integer"),
        ("dynamics", "task.horizon", -1, "task.horizon must be a nonnegative integer"),
        ("welfare", "task.platforms", [0.0, 0.5, 1.0],
         "task.platforms must be a list of two numbers [x_a, x_b]"),
        ("premium-sweep", "task.premiums", [], "task.premiums must be a non-empty list of numbers"),
        ("eq1d", "payoff.normalize", 1, "payoff.normalize must be a boolean"),
        ("eq1d", "payoff", {"direct": {"kind": "power", "exponent": 0}},
         "payoff.direct.exponent must lie in (0, 1]"),
        ("eq1d", "payoff", {"direct": {"kind": "power", "exponent": 1.5}},
         "payoff.direct.exponent must lie in (0, 1]"),
        ("eq1d", "payoff", {"direct": {"kind": "cubic"}}, "unknown direct payoff kind 'cubic'"),
    ])
    def test_type_rules_exit_two(self, tmp_path, capsys, subcommand, where, value, message):
        scenario = base_scenario()
        if subcommand == "dynamics":
            scenario["task"] = dict(gap=1.0, theta_high=0.4, theta_low=0.2, cost=0.01, horizon=2)
        *parents, key = where.split(".")
        block = scenario
        for p in parents:
            block = block[int(p)] if p.isdigit() else block[p]
        block[key] = value
        path = write_scenario(tmp_path, scenario)
        assert main([subcommand, "--scenario", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / f"{subcommand}.json").exists()

    @pytest.mark.parametrize("labels,message", [
        ([None, "right"], "{where}.types[0].label must be a string"),
        (["left", [1, 2]], "{where}.types[1].label must be a string"),
        ([3, "right"], "{where}.types[0].label must be a string"),
        (["x", "x"], "repeated labels in {where}.types: ['x']"),
        (["type1", ...], "repeated labels in {where}.types: ['type1']"),   # ... : no label
    ], ids=["null", "list", "number", "duplicate", "default-clash"])
    @pytest.mark.parametrize("subcommand,where", [("classify", "distribution"),
                                                  ("spread", "task.candidate")])
    def test_label_rules_exit_two(self, tmp_path, capsys, subcommand, where, labels, message):
        scenario = base_scenario(candidate={"types": [{"bliss": [-0.5], "share": 0.5},
                                                      {"bliss": [1.5], "share": 0.5}]})
        types = (scenario["distribution"] if where == "distribution"
                 else scenario["task"]["candidate"])["types"]
        for t, label in zip(types, labels):
            t.pop("label", None)
            if label is not ...:
                t["label"] = label
        path = write_scenario(tmp_path, scenario)
        assert main([subcommand, "--scenario", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(where=where)}\n"
        assert not list(tmp_path.glob(f"{subcommand}*"))

    @pytest.mark.parametrize("seed,flag", [(-1, []), (7, ["--seed", "-3"])])
    def test_negative_seed_exit_two(self, tmp_path, capsys, seed, flag):
        scenario = base_scenario(monte_carlo_draws=100)
        scenario["seed"] = seed
        path = write_scenario(tmp_path, scenario)
        assert main(["eq1d", "--scenario", path, "--out", str(tmp_path)] + flag) == 2
        name = "--seed" if flag else "seed"
        assert capsys.readouterr().err == f"error: {name} must be at least 0\n"

    @pytest.mark.parametrize("preset,params", [
        ("sqrt-sharing", {"insiders": True}),
        ("sqrt-sharing", {"insiders": "3"}),
        ("placement-linear", {"intercept": True}),
        ("placement-linear", {"capacity": True}),
    ])
    def test_non_number_payoff_params_exit_two(self, tmp_path, capsys, preset, params):
        scenario = base_scenario()
        scenario["payoff"] = {"preset": preset, "params": params}
        path = write_scenario(tmp_path, scenario)
        assert main(["eq1d", "--scenario", path, "--out", str(tmp_path)]) == 2
        key, = params
        assert capsys.readouterr().err == f"error: payoff.params.{key} must be a number\n"

    def test_fractional_insiders_exit_three(self, tmp_path, capsys):
        scenario = base_scenario()
        scenario["payoff"] = {"preset": "sqrt-sharing", "params": {"insiders": 2.5}}
        path = write_scenario(tmp_path, scenario)
        assert main(["eq1d", "--scenario", path, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "error: insider count must be an integer >= 1\n"


class TestInternalErrorHandling:
    def test_unexpected_exception_exit_four(self, tmp_path, monkeypatch, capsys):
        def broken(*args):
            raise ValueError("operands could not be broadcast")

        _, keys = cli._COMMANDS["info"]
        monkeypatch.setitem(cli._COMMANDS, "info", (broken, keys))
        path = write_scenario(tmp_path, base_scenario(
            salience=0.6, prior_common=0.5, prior_conflict=0.5, posterior_conflict=1.0))
        assert main(["info", "--scenario", path, "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err == "internal error: ValueError: operands could not be broadcast\n"


class TestPreconditionHandling:
    def test_bad_shares_exit_three(self, tmp_path):
        scenario = base_scenario()
        scenario["distribution"]["types"][0]["share"] = 0.4
        path = write_scenario(tmp_path, scenario)
        assert main(["eq1d", "--scenario", path, "--out", str(tmp_path)]) == 3

    def test_asymmetric_eqkd_exit_three(self, tmp_path):
        scenario = scenario_2d()
        scenario["distribution"]["types"][0]["share"] = 0.6
        scenario["distribution"]["types"][1]["share"] = 0.4
        path = write_scenario(tmp_path, scenario)
        assert main(["eqkd", "--scenario", path, "--out", str(tmp_path)]) == 3

    def test_validate_flags_linear_payoff(self, tmp_path):
        scenario = base_scenario()
        scenario["payoff"] = {"direct": {"kind": "linear"}}
        path = write_scenario(tmp_path, scenario)
        assert main(["validate", "--scenario", path, "--out", str(tmp_path)]) == 3
        record = json.loads((tmp_path / "validate.json").read_text())
        assert record["result"]["checks"]["minority_gain_strict"] is False

    @pytest.mark.parametrize("subcommand", ["eq1d", "validate"])
    @pytest.mark.parametrize("where,value,message", [
        ("share", float("nan"), "every share must lie in (0, 1]"),
        ("bliss", float("nan"), "bliss points must be finite"),
        ("bliss", float("inf"), "bliss points must be finite"),
        ("half_width", float("inf"), "shock half-width must be positive and finite"),
    ])
    def test_non_finite_numbers_exit_three(self, tmp_path, capsys, subcommand, where, value,
                                           message):
        scenario = base_scenario()
        if where == "half_width":
            scenario["shock"]["half_width"] = value
        else:
            scenario["distribution"]["types"][0][where] = value
        path = write_scenario(tmp_path, scenario)
        assert ("NaN" if value != value else "Infinity") in Path(path).read_text()
        assert main([subcommand, "--scenario", path, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / f"{subcommand}.json").exists()

    def test_validate_passes_reference(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario())
        assert main(["validate", "--scenario", path, "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "validate.json").read_text())
        checks = record["result"]["checks"]
        assert checks["minority_gain_strict"] and checks["shock_support_ok"]


class TestSubcommands:
    def test_eqkd_artifacts(self, tmp_path):
        path = write_scenario(tmp_path, scenario_2d())
        assert main(["eqkd", "--scenario", path, "--out", str(tmp_path),
                     "--format", "both"]) == 0
        record = json.loads((tmp_path / "eqkd.json").read_text())
        validate_result_record(record)
        assert record["result"]["max_sq_distance"] == pytest.approx(0.5, abs=1e-12)
        scatter = (tmp_path / "eqkd_scatter.csv").read_text().splitlines()
        assert scatter[0] == "kind,label,share,coord_1,coord_2"
        kinds = {line.split(",")[0] for line in scatter[1:]}
        assert kinds == {"voter", "platform_a", "platform_b", "direction"}
        inventory = (tmp_path / "eqkd_inventory.csv").read_text().splitlines()
        assert inventory[0] == "index,sq_distance,payoff,ranking,x_a_1,x_a_2,x_b_1,x_b_2"
        assert len(inventory) == 3

    def test_classify(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario())
        assert main(["classify", "--scenario", path, "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "classify.json").read_text())
        validate_result_record(record)
        assert record["result"]["stances"]["right"]["A"] == "attract"
        assert record["result"]["stances"]["right"]["B"] == "alienate"

    def test_classify_solves_once_and_matches_classify_group(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        bliss = np.sort(rng.uniform(-1.0, 1.0, size=9))
        shares = rng.uniform(0.5, 1.5, size=9)
        shares /= shares.sum()
        scenario = base_scenario()
        scenario["distribution"]["types"] = [{"bliss": [float(b)], "share": float(s)}
                                             for b, s in zip(bliss, shares)]
        scenario["shock"]["half_width"] = 5.0
        dist = cli._parse_distribution(scenario["distribution"])
        nu, shock = pc.payoff_preset("quadratic"), pc.Shock(5.0)
        want = {dist.labels[i]: {p: pc.classify_group(dist, nu, shock, i, p).value
                                 for p in ("A", "B")} for i in range(dist.n_types)}
        calls = []
        solve = eq1d.equilibrium_1d

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(eq1d, "equilibrium_1d", counted)
        record = run("classify", scenario, tmp_path)
        assert record["result"]["stances"] == want
        assert len(calls) == 1

    def test_spread(self, tmp_path):
        scenario = base_scenario(candidate={"types": [
            {"bliss": [-0.5], "share": 0.5}, {"bliss": [1.5], "share": 0.5}]})
        scenario["shock"]["half_width"] = 4.0
        path = write_scenario(tmp_path, scenario)
        assert main(["spread", "--scenario", path, "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "spread.json").read_text())
        validate_result_record(record)
        assert record["result"]["candidate_payoff"] > record["result"]["base_payoff"]

    def test_dspread_emits_both_scatter_files(self, tmp_path):
        scenario = scenario_2d()
        scenario["task"] = {"candidate": {"types": [
            {"bliss": [-0.25, -0.25], "share": 0.5},
            {"bliss": [1.25, 1.25], "share": 0.5}]}}
        path = write_scenario(tmp_path, scenario)
        assert main(["dspread", "--scenario", path, "--out", str(tmp_path),
                     "--format", "both"]) == 0
        record = json.loads((tmp_path / "dspread.json").read_text())
        validate_result_record(record)
        assert record["result"]["candidate_sq_distance"] == pytest.approx(1.125, abs=1e-12)
        for name in ("dspread_scatter_base.csv", "dspread_scatter_candidate.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "kind,label,share,coord_1,coord_2"

    def test_dspread_solves_each_electorate_once(self, tmp_path, monkeypatch):
        calls = []
        solve = eqkd.party_preferred_equilibria

        def counted(dist, *args, **kwargs):
            calls.append(dist)
            return solve(dist, *args, **kwargs)

        monkeypatch.setattr(eqkd, "party_preferred_equilibria", counted)
        scenario = scenario_2d()
        scenario["task"] = {"candidate": {"types": [
            {"bliss": [-0.25, -0.25], "share": 0.5},
            {"bliss": [1.25, 1.25], "share": 0.5}]}}
        run("dspread", scenario, tmp_path, fmt="both")
        assert len(calls) == 2

    def test_welfare_defaults_to_equilibrium(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario())
        assert main(["welfare", "--scenario", path, "--out", str(tmp_path),
                     "--format", "both"]) == 0
        record = json.loads((tmp_path / "welfare.json").read_text())
        validate_result_record(record)
        assert record["result"]["x_a"] == pytest.approx(0.75, abs=1e-12)
        assert record["result"]["variance"] == pytest.approx(1.0 / 32.0, abs=1e-12)
        lines = (tmp_path / "welfare_lottery.csv").read_text().splitlines()
        assert lines[0] == "outcome,probability"

    def test_premium_sweep_threads_identical(self, tmp_path):
        scenario = {
            "distribution": {"types": [
                {"bliss": [-1.0], "share": 0.3}, {"bliss": [0.0], "share": 0.4},
                {"bliss": [1.0], "share": 0.3}]},
            "payoff": {"preset": "quadratic"},
            "shock": {"half_width": 5.0},
            "task": {"premiums": [0.0, 0.5, 0.9, 0.99]},
        }
        path = write_scenario(tmp_path, scenario)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["premium-sweep", "--scenario", path, "--out", str(out1),
                     "--format", "both"]) == 0
        assert main(["premium-sweep", "--scenario", path, "--out", str(out2),
                     "--format", "both", "--threads", "3"]) == 0
        assert (out1 / "premium-sweep.json").read_bytes() == \
            (out2 / "premium-sweep.json").read_bytes()
        assert (out1 / "premium_sweep.csv").read_bytes() == \
            (out2 / "premium_sweep.csv").read_bytes()
        lines = (out1 / "premium_sweep.csv").read_text().splitlines()
        assert lines[0] == "rho_m,x_low,x_high,distance,mean,variance,bias_sq,welfare"
        record = json.loads((out1 / "premium-sweep.json").read_text())
        validate_result_record(record)

    def test_info(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(
            salience=0.6, prior_common=0.5, prior_conflict=0.5, posterior_conflict=1.0))
        assert main(["info", "--scenario", path, "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "info.json").read_text())
        validate_result_record(record)
        assert record["result"]["separation"] == pytest.approx(0.5, abs=1e-12)
        assert record["result"]["common_interest_welfare_gain"] == \
            pytest.approx(0.1, abs=1e-12)

    def test_dynamics(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(
            gap=1.0, theta_high=0.4, theta_low=0.2, cost=0.01, horizon=2))
        assert main(["dynamics", "--scenario", path, "--out", str(tmp_path),
                     "--format", "both"]) == 0
        record = json.loads((tmp_path / "dynamics.json").read_text())
        validate_result_record(record)
        assert record["result"]["self_reinforcing"] is True
        assert record["result"]["final_platform_gap"] == pytest.approx(0.78, abs=1e-12)
        lines = (tmp_path / "dynamics_trajectory.csv").read_text().splitlines()
        assert lines[0] == "period,voter_gap,platform_gap,closed_form_gap"
        assert len(lines) == 4

    @pytest.mark.parametrize("theta_high,period", [(1.2693483709273183, 2970),
                                                   (2.147142857142857, 929)])
    def test_dynamics_overflow_exit_three(self, tmp_path, capsys, theta_high, period):
        # these runs exited 4, and 0 with "inf" in the record, before the overflow check
        scenario = json.loads((SCENARIOS / "dynamics.json").read_text())
        scenario["task"].update(theta_high=theta_high, horizon=3000)
        path = write_scenario(tmp_path, scenario)
        out = tmp_path / "out"
        assert main(["dynamics", "--scenario", path, "--out", str(out), "--format", "both"]) == 3
        assert capsys.readouterr().err == (
            f"error: platform gap leaves the floating-point range at period {period}\n")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("horizon", [0, 1, 50])
    def test_dynamics_infinite_growth_ratio_exit_three(self, tmp_path, capsys, horizon):
        # with horizon 0 no period ran, and this exited 4 serializing growth_ratio inf
        scenario = json.loads((SCENARIOS / "dynamics.json").read_text())
        scenario["task"].update(theta_high=1e308, horizon=horizon)
        path = write_scenario(tmp_path, scenario)
        out = tmp_path / "out"
        assert main(["dynamics", "--scenario", path, "--out", str(out), "--format", "both"]) == 3
        assert capsys.readouterr().err == (
            "error: growth ratio 2 * theta_high * separation is inf, not finite\n")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("value", [float("inf"), -np.inf, np.float64("nan")])
    def test_non_finite_numbers_are_not_serialized(self, tmp_path, value):
        with pytest.raises(InternalConsistencyError, match="non-finite"):
            cli._to_json({"ok": 1.0, "rows": [[0.5, value]]})

    def test_direct_power_payoff(self, tmp_path):
        scenario = base_scenario()
        scenario["payoff"] = {"direct": {"kind": "power", "exponent": 0.5}}
        path = write_scenario(tmp_path, scenario)
        assert main(["eq1d", "--scenario", path, "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "eq1d.json").read_text())
        gamma = 2.0 * np.sqrt(0.5) - 1.0
        assert record["result"]["distance"] == pytest.approx(gamma, abs=1e-12)
