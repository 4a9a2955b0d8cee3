"""Scenario-driven command line interface.

Usage::

    polcomp <subcommand> --scenario scenario.json [--out DIR]
            [--format {json,csv,both}] [--threads N] [--seed SEED]

Subcommands: eq1d, eqkd, classify, spread, dspread, welfare,
premium-sweep, info, dynamics, validate.

Exit codes: 0 success, 2 schema violation, 3 model precondition failure,
4 internal consistency failure or any other unexpected error. No record is
written with an infinite or NaN number: that is an internal error.

``--threads N`` (N >= 1) is accepted but has no effect: sweep rows run sequentially.

Scenario files are strict JSON; unknown keys are rejected anywhere. A
type's ``label`` must be a string (default ``type<i>``, its index), and
the labels of one electorate, defaults included, must be distinct::

    {
      "distribution": {"types": [{"bliss": [0.0], "share": 0.5,
                                  "label": "left"}, ...]},
      "payoff": {"preset": "quadratic" | "sqrt-sharing" | "placement-linear",
                 "params": {...},            # optional preset parameters
                 "total_power": 1.0,         # optional
                 "majority_premium": 0.0,    # optional
                 "normalize": true},         # optional
      "shock": {"half_width": 1.0},
      "seed": 0,                             # optional, >= 0
      "task": {...}                          # per-subcommand block
    }

A payoff block may carry ``"direct": {"kind": "linear"}`` or
``{"kind": "power", "exponent": e}`` instead of ``preset`` to specify the
vote-share payoff without a microfoundation (used for boundary checks).

Task blocks: eq1d {"monte_carlo_draws": n?}; eqkd {};
classify {}; spread {"candidate": {"types": [...]}};
dspread {"candidate": {...}}; welfare {"platforms": [a, b]?};
premium-sweep {"premiums": [...]}; info {"salience", "prior_common",
"prior_conflict", "posterior_conflict"}; dynamics {"gap", "theta_high",
"theta_low", "cost", "horizon"}; validate ignores the task block (it
belongs to whichever subcommand will consume the scenario). dynamics
exits 3 when a platform gap leaves the floating-point range, naming the
period, and when its growth ratio is not finite, whatever the horizon.
validate's
``checks.shares_valid`` is always true: invalid or non-finite shares exit 3
while the scenario is parsed, before any record is written.

Every run writes ``<out>/<subcommand>.json``; with ``--format csv`` or
``both`` the subcommands below add fixed-column CSVs (17 significant
digits, UTF-8, LF):

    eq1d          eq1d_weights.csv: label,bliss,share,weight_low,weight_high
    eqkd          eqkd_inventory.csv: index,sq_distance,payoff,ranking,
                      x_a_1..K,x_b_1..K
                  eqkd_scatter.csv: kind,label,share,coord_1..coord_K
    dspread       dspread_scatter_base.csv, dspread_scatter_candidate.csv
                      (same columns as eqkd_scatter.csv)
    welfare       welfare_lottery.csv: outcome,probability
    premium-sweep premium_sweep.csv: rho_m,x_low,x_high,distance,mean,
                      variance,bias_sq,welfare
    dynamics      dynamics_trajectory.csv: period,voter_gap,platform_gap,
                      closed_form_gap

Identical scenario files (and seed) produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter, namedtuple
from pathlib import Path

import numpy as np

from . import applications as apps
from . import equilibrium1d as eq1d
from . import equilibriumkd as eqkd
from . import model
from . import payoffs
from . import welfare as welf
from .errors import InternalConsistencyError, PolcompError, PreconditionError

EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class SchemaError(PolcompError, ValueError):
    """The scenario file violates the documented schema."""


# ---------------------------------------------------------------------------
# deterministic serialization


def _to_json(obj, indent=0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {_to_json(v, indent + 2)}'
                 for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{inner}{_to_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise InternalConsistencyError(f"cannot serialize the non-finite number {obj}")
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InternalConsistencyError(f"cannot serialize {type(obj).__name__}")


def _write_json(path: Path, record: dict):
    path.write_text(_to_json(record) + "\n", encoding="utf-8", newline="\n")


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else _to_json(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# strict scenario parsing


def _expect(block, where, required=(), optional=()):
    if not isinstance(block, dict):
        raise SchemaError(f"{where} must be an object")
    unknown = set(block) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(block)
    if missing:
        raise SchemaError(f"missing keys in {where}: {sorted(missing)}")
    return block


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(block, key, where):
    if not _is_number(block[key]):
        raise SchemaError(f"{where}.{key} must be a number")
    return float(block[key])


def _integer(value, name, minimum, noun=None):
    """``value`` as an int >= ``minimum``; with ``noun``, one message for both rules."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{name} must be {noun or 'an integer'}")
    if value < minimum:
        raise SchemaError(f"{name} must be {noun or f'at least {minimum}'}")
    return value


def _numbers(value, name, noun, size=None):
    """``value`` as a non-empty list of floats, of length ``size`` when given."""
    if (not isinstance(value, list) or not value or size not in (None, len(value))
            or not all(map(_is_number, value))):
        raise SchemaError(f"{name} must be {noun}")
    return [float(v) for v in value]


def _parse_distribution(block, where="distribution") -> model.VoterDistribution:
    _expect(block, where, required=("types",))
    types = block["types"]
    if not isinstance(types, list) or not types:
        raise SchemaError(f"{where}.types must be a non-empty list")
    bliss, shares, labels = [], [], []
    for i, t in enumerate(types):
        _expect(t, f"{where}.types[{i}]", required=("bliss", "share"), optional=("label",))
        b = t["bliss"]
        bliss.append(_numbers(b if isinstance(b, list) else [b], f"{where}.types[{i}].bliss",
                              "a number or list of numbers"))
        shares.append(_number(t, "share", f"{where}.types[{i}]"))
        labels.append(t.get("label", f"type{i}"))
        if not isinstance(labels[-1], str):
            raise SchemaError(f"{where}.types[{i}].label must be a string")
    if len({len(b) for b in bliss}) != 1:
        raise SchemaError(f"all bliss points in {where} must share one dimension")
    if len(set(labels)) != len(labels):
        repeated = sorted(label for label, n in Counter(labels).items() if n > 1)
        raise SchemaError(f"repeated labels in {where}.types: {repeated}")
    return model.VoterDistribution(np.array(bliss), np.array(shares), labels)


PayoffBundle = namedtuple("PayoffBundle", "nu utility power total")


def _parse_payoff(block) -> PayoffBundle:
    _expect(block, "payoff",
            optional=("preset", "params", "direct", "total_power", "majority_premium",
                      "normalize"))
    has_preset = "preset" in block
    has_direct = "direct" in block
    if has_preset == has_direct:
        raise SchemaError("payoff block needs exactly one of 'preset' or 'direct'")
    total = _number(block, "total_power", "payoff") if "total_power" in block else 1.0
    premium = _number(block, "majority_premium", "payoff") if "majority_premium" in block else 0.0
    normalize = block.get("normalize", True)
    if not isinstance(normalize, bool):
        raise SchemaError("payoff.normalize must be a boolean")
    if has_direct:
        spec = _expect(block["direct"], "payoff.direct", required=("kind",),
                       optional=("exponent",))
        kind = spec["kind"]
        if kind == "linear":
            nu = model.ReducedPayoff(lambda s: np.asarray(s, dtype=float),
                                     normalize=normalize, provenance="direct[linear]")
        elif kind == "power":
            exponent = _number(spec, "exponent", "payoff.direct") if "exponent" in spec else 0.5
            if not 0.0 < exponent <= 1.0:
                raise SchemaError("payoff.direct.exponent must lie in (0, 1]")
            nu = model.ReducedPayoff(lambda s, e=exponent: np.asarray(s, dtype=float) ** e,
                                     normalize=normalize,
                                     provenance=f"direct[power {exponent:g}]")
        else:
            raise SchemaError(f"unknown direct payoff kind {kind!r}")
        return PayoffBundle(nu, None, None, total)
    params = block.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("payoff.params must be an object")
    for key in params:      # checked, not converted: "insiders" 3 stays "n=3" in provenance
        _number(params, key, "payoff.params")
    name = block["preset"]
    if not isinstance(name, str):
        raise SchemaError("payoff.preset must be a string")
    try:
        utility = payoffs.utility_preset(name, total_power=total, **params)
    except TypeError as exc:
        raise SchemaError(f"bad payoff params: {exc}") from exc
    power = payoffs.majority_premium_power(total, premium)
    nu = payoffs.compose_reduced_payoff(utility, power, normalize=normalize)
    return PayoffBundle(nu, utility, power, total)


def _parse_shock(block) -> model.Shock:
    _expect(block, "shock", required=("half_width",))
    return model.Shock(half_width=_number(block, "half_width", "shock"))


def _parse_scenario(raw: dict):
    _expect(raw, "scenario", required=("distribution", "payoff", "shock"),
            optional=("seed", "task"))
    seed = _integer(raw.get("seed", 0), "seed", 0)
    task = raw.get("task", {})
    if not isinstance(task, dict):
        raise SchemaError("task must be an object")
    return (_parse_distribution(raw["distribution"]), _parse_payoff(raw["payoff"]),
            _parse_shock(raw["shock"]), seed, task)


# ---------------------------------------------------------------------------
# subcommand implementations; each returns
# (record, {csv_name: (header, rows)}, *failure messages)


def _scatter_rows(dist, report):
    rows = []
    for i in range(dist.n_types):
        rows.append(["voter", dist.labels[i], dist.shares[i]] + list(dist.bliss[i]))
    ref = report.party_preferred[0]
    rows.append(["platform_a", "preferred", 0.0] + list(ref.pair.x_a))
    rows.append(["platform_b", "preferred", 0.0] + list(ref.pair.x_b))
    rows.append(["direction", "a_minus_b", 0.0] + list(ref.pair.x_a - ref.pair.x_b))
    header = ["kind", "label", "share"] + [f"coord_{k + 1}" for k in range(dist.dimension)]
    return header, rows


def _cmd_eq1d(dist, bundle, shock, seed, task):
    _expect(task, "task", optional=("monte_carlo_draws",))
    eq = eq1d.equilibrium_1d(dist, bundle.nu, shock)
    record = {
        "x_low": eq.x_low, "x_high": eq.x_high, "distance": eq.distance,
        "payoff": eq.payoff, "x_risk_neutral": eq.x_risk_neutral, "median": eq.median,
        "diverse": eq.diverse,
        "weights_low": list(eq.weights_low), "weights_high": list(eq.weights_high),
        "type_order": [int(i) for i in eq.order],
    }
    if "monte_carlo_draws" in task:
        draws = _integer(task["monte_carlo_draws"], "task.monte_carlo_draws", 1,
                         "a positive integer")
        record["monte_carlo_payoff"] = model.monte_carlo_payoff(
            dist, bundle.nu, shock, eq.pair, "A", n_draws=draws, seed=seed)
        record["monte_carlo_draws"] = draws
    order = eq.order
    rows = [[dist.labels[t], dist.bliss[t, 0], dist.shares[t],
             eq.weights_low[p], eq.weights_high[p]]
            for p, t in enumerate(order)]
    return record, {"eq1d_weights.csv":
                    (["label", "bliss", "share", "weight_low", "weight_high"], rows)}


def _cmd_eqkd(dist, bundle, shock, seed, task):
    _expect(task, "task")
    report = eqkd.party_preferred_equilibria(dist, bundle.nu, shock)
    record = {
        "max_sq_distance": report.max_sq_distance,
        "payoff": report.party_preferred[0].payoff,
        "n_local_equilibria": len(report.inventory),
        "n_party_preferred": len(report.party_preferred),
        "party_preferred": [
            {"ranking": list(eq.ranking), "sq_distance": eq.sq_distance,
             "payoff": eq.payoff, "x_a": list(eq.pair.x_a), "x_b": list(eq.pair.x_b)}
            for eq in report.party_preferred],
    }
    inv_header = (["index", "sq_distance", "payoff", "ranking"]
                  + [f"x_a_{k + 1}" for k in range(dist.dimension)]
                  + [f"x_b_{k + 1}" for k in range(dist.dimension)])
    inv_rows = [[i, eq.sq_distance, eq.payoff, "|".join(str(j) for j in eq.ranking)]
                + list(eq.pair.x_a) + list(eq.pair.x_b)
                for i, eq in enumerate(report.inventory)]
    header, rows = _scatter_rows(dist, report)
    return record, {"eqkd_inventory.csv": (inv_header, inv_rows),
                    "eqkd_scatter.csv": (header, rows)}


def _cmd_classify(dist, bundle, shock, seed, task):
    _expect(task, "task")
    eq = eq1d.equilibrium_1d(dist, bundle.nu, shock)
    stances = {}
    for label, (xi,) in zip(dist.labels, dist.bliss):
        stances[label] = {party: eq1d._stance(eq, float(xi), party).value
                          for party in ("A", "B")}
    return {"stances": stances}, {}


def _cmd_spread(dist, bundle, shock, seed, task):
    _expect(task, "task", required=("candidate",))
    candidate = _parse_distribution(task["candidate"], "task.candidate")
    cmp = eq1d.compare_spread_payoffs(dist, candidate, bundle.nu, shock)
    return {"base_payoff": cmp.base_payoff, "candidate_payoff": cmp.candidate_payoff,
            "base_distance": cmp.base_distance,
            "candidate_distance": cmp.candidate_distance}, {}


def _cmd_dspread(dist, bundle, shock, seed, task):
    _expect(task, "task", required=("candidate",))
    candidate = _parse_distribution(task["candidate"], "task.candidate")
    cmp = eqkd.compare_directional_spread_payoffs(dist, candidate, bundle.nu, shock)
    record = {"base_payoff": cmp.base_payoff, "candidate_payoff": cmp.candidate_payoff,
              "base_sq_distance": cmp.base_sq_distance,
              "candidate_sq_distance": cmp.candidate_sq_distance,
              "direction": list(cmp.direction)}
    hdr_b, rows_b = _scatter_rows(dist, cmp.base_report)
    hdr_c, rows_c = _scatter_rows(candidate, cmp.candidate_report)
    return record, {"dspread_scatter_base.csv": (hdr_b, rows_b),
                    "dspread_scatter_candidate.csv": (hdr_c, rows_c)}


def _cmd_welfare(dist, bundle, shock, seed, task):
    _expect(task, "task", optional=("platforms",))
    if bundle.power is None:
        raise PreconditionError("welfare requires a payoff with a power map (use a preset)")
    if "platforms" in task:
        x_a, x_b = _numbers(task["platforms"], "task.platforms",
                            "a list of two numbers [x_a, x_b]", size=2)
        pair = model.PlatformPair([x_a], [x_b])
    else:
        eq = eq1d.equilibrium_1d(dist, bundle.nu, shock)
        pair = eq.pair
    lot = welf.policy_lottery(pair, dist, bundle.power, shock)
    rep = welf.welfare_decomposition(lot, dist)
    record = {"x_a": float(pair.x_a[0]), "x_b": float(pair.x_b[0]),
              "welfare": rep.welfare, "first_best": rep.first_best,
              "bias_sq": rep.bias_sq, "variance": rep.variance,
              "x_optimum": rep.x_optimum, "mean_policy": rep.mean_policy,
              "outcomes": list(lot.outcomes), "probabilities": list(lot.probabilities)}
    rows = [[o, p] for o, p in zip(lot.outcomes, lot.probabilities)]
    return record, {"welfare_lottery.csv": (["outcome", "probability"], rows)}


def _cmd_premium_sweep(dist, bundle, shock, seed, task):
    _expect(task, "task", required=("premiums",))
    prem = _numbers(task["premiums"], "task.premiums", "a non-empty list of numbers")
    if bundle.utility is None:
        raise PreconditionError("premium sweep requires a utility preset payoff")
    sweep = welf.premium_sweep(dist, bundle.utility, bundle.total, prem, shock)
    record = {"median": sweep.median, "median_share": sweep.median_share,
              "limit_assertions": sweep.limit_assertions,
              "rows": [dict(zip(welf.SWEEP_COLUMNS, r.astuple())) for r in sweep.rows]}
    rows = [list(r.astuple()) for r in sweep.rows]
    return record, {"premium_sweep.csv": (list(welf.SWEEP_COLUMNS), rows)}


def _cmd_info(dist, bundle, shock, seed, task):
    _expect(task, "task",
            required=("salience", "prior_common", "prior_conflict", "posterior_conflict"))
    scenario = apps.InfoScenario(
        salience=_number(task, "salience", "task"),
        prior_common=_number(task, "prior_common", "task"),
        prior_conflict=_number(task, "prior_conflict", "task"),
        posterior_conflict=_number(task, "posterior_conflict", "task"))
    platforms = apps.information_platforms(scenario, bundle.nu)
    record = {"x_high": platforms.x_high, "x_low": platforms.x_low,
              "separation": platforms.separation,
              "separation_coefficient": apps.separation_coefficient(bundle.nu),
              "common_interest_welfare_gain": apps.common_interest_welfare_gain(
                  scenario.salience, scenario.prior_common)}
    return record, {}


def _cmd_dynamics(dist, bundle, shock, seed, task):
    _expect(task, "task", required=("gap", "theta_high", "theta_low", "cost", "horizon"))
    horizon = _integer(task["horizon"], "task.horizon", 0, "a nonnegative integer")
    params = apps.FeedbackParams(
        gap=_number(task, "gap", "task"),
        theta_high=_number(task, "theta_high", "task"),
        theta_low=_number(task, "theta_low", "task"),
        cost=_number(task, "cost", "task"),
        half_width=shock.half_width,
        separation=apps.separation_coefficient(bundle.nu),
        horizon=horizon)
    traj = apps.polarization_feedback_trajectory(params)
    record = {"regime": traj.regime, "growth_ratio": params.growth_ratio,
              "separation_coefficient": params.separation,
              "self_reinforcing": apps.is_self_reinforcing(params),
              "initial_platform_gap": traj.records[0].platform_gap,
              "final_platform_gap": traj.records[-1].platform_gap,
              "limit_gap": traj.limit_gap if traj.regime == "converging" else None}
    rows = [[r.period, r.voter_gap, r.platform_gap, r.closed_form_gap] for r in traj.records]
    return record, {"dynamics_trajectory.csv":
                    (["period", "voter_gap", "platform_gap", "closed_form_gap"], rows)}


def _cmd_validate(dist, bundle, shock, seed, task):
    # the task block belongs to whichever subcommand will consume the
    # scenario; assumption checks ignore it
    nu = bundle.nu
    support = model.check_shock_support(dist, shock)
    checks = {
        "shares_valid": True,
        "payoff_normalized": nu.unit_span,
        "payoff_strictly_concave": nu.strictly_concave,
        "minority_gain_strict": nu.minority_gain_strict,
        "minority_gain_at_half": list(nu.minority_gain_at_half),
        "shock_support_ok": support.ok,
        "shock_support_message": support.message,
        "symmetric": eqkd.is_symmetric(dist),
        "has_jump": nu.has_jump,
        "provenance": nu.provenance,
    }
    record = {"checks": checks}
    failures = []
    if not checks["minority_gain_strict"]:
        failures.append(
            "payoff lacks the strict minority-gain asymmetry "
            "(equal vote-share gains are worth no more to the trailing party)")
    if not support.ok:
        failures.append(support.message)
    return (record, {}, *failures)


# every subcommand, in the order help and docs list them: its handler and the
# keys its result record must carry
_COMMANDS = {
    "eq1d": (_cmd_eq1d, "x_low x_high distance payoff x_risk_neutral median diverse "
                        "weights_low weights_high type_order"),
    "eqkd": (_cmd_eqkd, "max_sq_distance payoff n_local_equilibria n_party_preferred "
                        "party_preferred"),
    "classify": (_cmd_classify, "stances"),
    "spread": (_cmd_spread, "base_payoff candidate_payoff base_distance candidate_distance"),
    "dspread": (_cmd_dspread, "base_payoff candidate_payoff base_sq_distance "
                              "candidate_sq_distance direction"),
    "welfare": (_cmd_welfare, "x_a x_b welfare first_best bias_sq variance x_optimum "
                              "mean_policy outcomes probabilities"),
    "premium-sweep": (_cmd_premium_sweep, "median median_share limit_assertions rows"),
    "info": (_cmd_info, "x_high x_low separation separation_coefficient "
                        "common_interest_welfare_gain"),
    "dynamics": (_cmd_dynamics, "regime growth_ratio separation_coefficient self_reinforcing "
                                "initial_platform_gap final_platform_gap limit_gap"),
    "validate": (_cmd_validate, "checks"),
}
SUBCOMMANDS = tuple(_COMMANDS)


# ---------------------------------------------------------------------------


def run(subcommand: str, scenario: dict, out_dir, fmt: str = "json", threads: int = 1,
        seed_override=None) -> dict:
    """Execute one subcommand on a parsed scenario dict; returns the record.

    Writes the JSON record (and CSVs per ``fmt``) into ``out_dir``. Raises
    SchemaError / PreconditionError / InternalConsistencyError; the
    ``main`` wrapper maps those onto exit codes. ``threads`` has no
    effect: sweep rows are computed sequentially.
    """
    if subcommand not in SUBCOMMANDS:
        raise SchemaError(f"unknown subcommand {subcommand!r}")
    if fmt not in ("json", "csv", "both"):
        raise SchemaError(f"unknown format {fmt!r}")
    dist, bundle, shock, seed, task = _parse_scenario(scenario)
    if seed_override is not None:
        seed = _integer(seed_override, "--seed", 0)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    handler, _ = _COMMANDS[subcommand]
    record, csvs, *failures = handler(dist, bundle, shock, seed, task)
    full = {"subcommand": subcommand, "seed": seed, "result": record}
    _write_json(out / f"{subcommand}.json", full)
    if fmt in ("csv", "both"):
        for name, (header, rows) in csvs.items():
            _write_csv(out / name, header, rows)
    if failures:
        raise PreconditionError("; ".join(failures))
    return full


def validate_result_record(record: dict) -> None:
    """Check an emitted record against the documented structure."""
    if not isinstance(record, dict):
        raise SchemaError("record must be an object")
    if set(record) != {"subcommand", "seed", "result"}:
        raise SchemaError("record must have exactly subcommand, seed, result")
    if record["subcommand"] not in SUBCOMMANDS:
        raise SchemaError(f"unknown subcommand {record['subcommand']!r}")
    if not isinstance(record["seed"], int):
        raise SchemaError("seed must be an integer")
    if not isinstance(record["result"], dict):
        raise SchemaError("result must be an object")
    _, keys = _COMMANDS[record["subcommand"]]
    missing = set(keys.split()) - set(record["result"])
    if missing:
        raise SchemaError(f"result record missing keys: {sorted(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polcomp",
        description="Platform-competition equilibria, comparative statics, and welfare")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--scenario", required=True, help="path to the scenario JSON file")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    parser.add_argument("--format", default="json", choices=("json", "csv", "both"),
                        dest="fmt", help="artifacts to write besides the JSON record")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; sweep rows run sequentially")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    args = parser.parse_args(argv)
    try:
        raw = json.loads(Path(args.scenario).read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"error: scenario file not found: {args.scenario}", file=sys.stderr)
        return EXIT_SCHEMA
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read scenario file: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except json.JSONDecodeError as exc:
        print(f"error: scenario is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        run(args.subcommand, raw, args.out, fmt=args.fmt, threads=args.threads,
            seed_override=args.seed)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
