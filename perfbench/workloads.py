"""The benchmark's three workloads: instance pools, ops and output summaries.

Every workload draws its instances from a pool of ``POOL`` instances per
size class. An instance is generated from its name alone
(``workload/class/index``), so the recorded reference outputs in
``reference.json`` apply to every run; the workload seed only chooses which
pool instances fill each slot of the op mix.

An op solves one instance end to end through the public API, with every
call into the program wrapped in a tracer span, and returns a summary of
its outputs. ``compare`` checks a summary against the recorded one.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path

import numpy as np

POOL = 16
ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "scenarios"


def instance_rng(workload, cls, index):
    return np.random.default_rng(zlib.crc32(f"{workload}/{cls}/{index}".encode()))


def digest(obj) -> str:
    """SHA-256 of a JSON-able object (arrays by their float64 bytes)."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(np.ascontiguousarray(o, dtype=float).tobytes())
        elif isinstance(o, dict):
            for k in sorted(o):
                h.update(k.encode())
                feed(o[k])
        elif isinstance(o, (list, tuple)):
            for v in o:
                feed(v)
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


def compare(summary, ref, tol) -> list:
    """Mismatches between an op summary and its reference.

    Floats (and lists of floats) agree within ``tol``; everything else
    (rankings, strings, hashes, integers) must be identical.
    """
    bad = []
    if set(summary) != set(ref):
        return [f"keys differ: {sorted(set(summary) ^ set(ref))}"]
    for key, want in ref.items():
        got = summary[key]
        if _is_floaty(want):
            a = np.asarray(got, dtype=float)
            b = np.asarray(want, dtype=float)
            if a.shape != b.shape or not np.allclose(a, b, rtol=0.0, atol=tol):
                bad.append(f"{key}: {got!r} != {want!r}")
        elif got != want:
            bad.append(f"{key}: {got!r} != {want!r}")
    return bad


def _is_floaty(v):
    if isinstance(v, float):
        return True
    if isinstance(v, list) and v and all(isinstance(x, float) for x in _flat(v)):
        return True
    return False


def _flat(v):
    for x in v:
        if isinstance(x, list):
            yield from _flat(x)
        else:
            yield x


def _floats(a):
    return [float(x) for x in np.asarray(a, dtype=float).ravel()]


def _aggregate(values):
    """Sum, index-weighted sum and max |.| of a long vector (order-sensitive)."""
    v = np.asarray(values, dtype=float).ravel()
    w = np.arange(1, v.size + 1) / v.size
    return [float(v.sum()), float(v @ w), float(np.abs(v).max())]


def _shock_width(bliss, margin=1.0):
    b = np.asarray(bliss, dtype=float).reshape(len(bliss), -1)
    return float(np.sum((b.max(axis=0) - b.min(axis=0)) ** 2)) + margin


def _symmetric(rng, n_types, dim):
    """Electorate symmetric through its mean, with a centre type when n is odd."""
    n_pairs = n_types // 2
    center = rng.uniform(-0.5, 0.5, size=dim)
    while True:
        offsets = rng.uniform(0.1, 1.0, size=(n_pairs, dim))
        offsets *= rng.choice([-1.0, 1.0], size=(n_pairs, dim))
        pts = np.vstack([center + offsets, center - offsets])
        gaps = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() > 0.05:
            break
    pair_shares = rng.uniform(0.5, 1.5, size=n_pairs)
    if n_types % 2:
        total = pair_shares.sum() * rng.uniform(1.1, 1.6)
        pair_shares = pair_shares / total
        pts = np.vstack([pts, center])
        shares = np.concatenate([pair_shares / 2.0, pair_shares / 2.0,
                                 [1.0 - 2.0 * (pair_shares / 2.0).sum()]])
    else:
        pair_shares = pair_shares / pair_shares.sum()
        shares = np.concatenate([pair_shares / 2.0, pair_shares / 2.0])
    return pts, shares


def _interleave(cheap, dear):
    """``cheap[0], dear[0], cheap[1], dear[1], ...`` for lists of equal length."""
    return [cls for pair in zip(cheap, dear) for cls in pair]


def _line(rng, n_types):
    """Raw 1-D electorate: unsorted distinct bliss points, interior shares."""
    bliss = rng.uniform(-1.0, 1.0, size=n_types)
    shares = rng.uniform(0.5, 1.5, size=n_types)
    return bliss, shares / shares.sum()


# ---------------------------------------------------------------------------
# kd-solve


class KdSolve:
    """Party-preferred equilibria, Nash checks and dynamics on symmetric electorates."""

    name = "kd-solve"
    tol = 1e-9
    sizes = {
        # "fixed" ops run once per timed phase, spread evenly over it; the
        # round repeats until time is up; ops_per_s weighs the classes as the
        # fixed ops plus ``rounds`` rounds. The tail is the median of the 17
        # fixed n=6 ops (2 n=7 ops and 8 n=6 ops lie beyond it). As many fixed
        # n=4 ops lie below the n=5 round ops as fixed ops lie above them, so
        # the p50 is the median of the n=5 ops.
        "full": {"fixed": _interleave(["n4"] * 19,
                                      ["n6"] * 8 + ["n7"] + ["n6"] * 8 + ["n7"] + ["n6"]),
                 "round": ["n5"], "rounds": 250},
        "smoke": {"fixed": ["n4", "n5"], "round": ["n3", "n4"], "rounds": 2},
    }
    # placement-linear is left out: on the seed, best_response and
    # best_response_dynamics raise a raw numpy ValueError with it (known defect)
    presets = ("quadratic", "sqrt-sharing")
    # modules expected to hold most of the traced self time, and ones expected to hold little
    stress = {"dominant": ("equilibriumkd",), "small": ("model", "equilibrium1d", "cli")}

    def make(self, pc, cls, index):
        n = int(cls[1:])
        rng = instance_rng(self.name, cls, index)
        dim = index % 3 + 1
        bliss, shares = _symmetric(rng, n, dim)
        return {"bliss": bliss, "shares": shares, "dim": dim,
                "preset": self.presets[(index // 3) % 2],
                "shock": pc.Shock(_shock_width(bliss))}

    def op(self, pc, inst, ctx, tr, counts):
        dist = tr.call("model.VoterDistribution", pc.VoterDistribution,
                       inst["bliss"], inst["shares"], tag=f"N{len(inst['shares'])}")
        nu, shock = ctx["nus"][inst["preset"]], inst["shock"]
        rep = tr.call("equilibriumkd.party_preferred_equilibria", pc.party_preferred_equilibria,
                      dist, nu, shock, tag=f"n{dist.n_types}")
        responses = []
        for eq in rep.party_preferred:
            br_a = tr.call("equilibriumkd.best_response", pc.best_response,
                           eq.pair.x_b, dist, nu, shock)
            br_b = tr.call("equilibriumkd.best_response", pc.best_response,
                           eq.pair.x_a, dist, nu, shock)
            responses.append((eq, br_a, br_b))
        start = min(rep.inventory, key=lambda e: e.sq_distance)
        dyn = tr.call("equilibriumkd.best_response_dynamics", pc.best_response_dynamics,
                      start.pair, dist, nu, shock)
        eq1 = None
        if dist.dimension == 1:
            eq1 = tr.call("equilibrium1d.equilibrium_1d", pc.equilibrium_1d, dist, nu, shock)

        moves = sum(1 for a, b in zip(dyn.trajectory, dyn.trajectory[1:])
                    if not (np.array_equal(a.x_a, b.x_a) and np.array_equal(a.x_b, b.x_b)))
        counts["model.types_built"] += dist.n_types
        counts["equilibriumkd.local_equilibria"] += len(rep.inventory)
        counts["equilibriumkd.party_preferred"] += len(rep.party_preferred)
        counts["equilibriumkd.dynamics_steps"] += len(dyn.trajectory) - 1
        counts["equilibriumkd.dynamics_moves"] += moves

        nash_gap = max(max(np.max(np.abs(br_a - eq.pair.x_a)), np.max(np.abs(br_b - eq.pair.x_b)))
                       for eq, br_a, br_b in responses)
        summary = {
            "rankings": ["|".join(map(str, e.ranking)) for e in rep.inventory],
            "sq_distances": [float(e.sq_distance) for e in rep.inventory],
            "payoffs": [float(e.payoff) for e in rep.inventory],
            "preferred": ["|".join(map(str, e.ranking)) for e in rep.party_preferred],
            "best_responses": [_floats(br_a) + _floats(br_b) for _, br_a, br_b in responses],
            "dynamics_end": _floats(dyn.trajectory[-1].x_a) + _floats(dyn.trajectory[-1].x_b),
            "dynamics_sq": _floats(dyn.sq_distances),
            "dynamics_converged": bool(dyn.converged),
        }
        checks = {"nash_fixed_point": nash_gap <= self.tol}
        if eq1 is not None:
            highs = [float(e.pair.x_a[0]) for e in rep.party_preferred]
            checks["matches_equilibrium_1d"] = (abs(max(highs) - eq1.x_high) <= 1e-10
                                                and abs(min(highs) - eq1.x_low) <= 1e-10)
        return summary, checks


# ---------------------------------------------------------------------------
# electorate-1d


class Electorate1D:
    """Closed-form 1-D solve plus everything built on it, on large raw electorates."""

    name = "electorate-1d"
    tol = 1e-10
    mc_tol = 5e-3
    mc_draws = 100_000
    # sizes stop at N=800: at N >= 3000 the seed's O(N^2) duplicate check
    # makes an op take minutes (known defect). The tail is the median of the
    # 17 fixed N=200 ops; the 19 fixed N=50 ops balance the 19 dearer fixed
    # ops, so the p50 is the median of the N=100 round ops.
    sizes = {
        "full": {"fixed": _interleave(["N50"] * 19, ["N200"] * 8 + ["N800"] + ["N200"] * 8
                                      + ["N400"] + ["N200"]),
                 "round": ["N100"], "rounds": 70},
        "smoke": {"fixed": ["N40", "N20"], "round": ["N10", "N20"], "rounds": 2},
    }
    presets = ("quadratic", "sqrt-sharing")
    stress = {"dominant": ("model", "equilibrium1d"), "small": ("equilibriumkd", "cli")}

    def make(self, pc, cls, index):
        rng = instance_rng(self.name, cls, index)
        bliss, shares = _line(rng, int(cls[1:]))
        return {"bliss": bliss, "shares": shares, "preset": self.presets[index % 2],
                "strength": float(rng.uniform(0.05, 0.3)), "mc_seed": index,
                "shock": pc.Shock(_shock_width(bliss.reshape(-1, 1), margin=1.5))}

    def op(self, pc, inst, ctx, tr, counts):
        nu, shock = ctx["nus"][inst["preset"]], inst["shock"]
        n = len(inst["shares"])
        dist = tr.call("model.VoterDistribution", pc.VoterDistribution,
                       inst["bliss"], inst["shares"], tag=f"N{n}")
        eq = tr.call("equilibrium1d.equilibrium_1d", pc.equilibrium_1d, dist, nu, shock)
        stances = []
        for i in range(n):
            for party in ("A", "B"):
                st = tr.call("equilibrium1d.classify_group", pc.classify_group,
                             dist, nu, shock, i, party)
                stances.append(st.value[:2])
        grads = [tr.call("equilibrium1d.payoff_gradient", pc.payoff_gradient, dist, nu, shock, i)
                 for i in range(n)]
        x = inst["bliss"]
        outward = np.where(x > eq.median, x + 0.1, np.where(x < eq.median, x - 0.1, x))
        cand = tr.call("model.VoterDistribution", pc.VoterDistribution,
                       outward, inst["shares"], tag=f"N{n}")
        cmp = tr.call("equilibrium1d.compare_spread_payoffs", pc.compare_spread_payoffs,
                      dist, cand, nu, shock)
        lot = tr.call("welfare.policy_lottery", pc.policy_lottery,
                      eq.pair, dist, nu.power_map, shock)
        rep = tr.call("welfare.welfare_decomposition", pc.welfare_decomposition, lot, dist)
        shifted, unshifted = tr.call("applications.identity_adjusted_distribution",
                                     pc.identity_adjusted_distribution,
                                     dist, eq.pair, inst["strength"])
        exact = tr.call("model.expected_payoff", pc.expected_payoff, dist, nu, shock, eq.pair, "A")
        mc = tr.call("model.monte_carlo_payoff", pc.monte_carlo_payoff, dist, nu, shock, eq.pair,
                     "A", n_draws=self.mc_draws, seed=inst["mc_seed"])

        counts["model.types_built"] += 3 * n
        counts["welfare.lottery_support"] += len(lot.outcomes)
        summary = {
            "platforms": [eq.x_low, eq.x_high],
            "payoff": float(eq.payoff),
            "weights": _aggregate(eq.weights_low) + _aggregate(eq.weights_high),
            "stances": hashlib.sha256("".join(stances).encode()).hexdigest(),
            "gradients": _aggregate(grads),
            "spread": [cmp.base_payoff, cmp.candidate_payoff,
                       cmp.base_distance, cmp.candidate_distance],
            "welfare": [rep.welfare, rep.first_best, rep.bias_sq, rep.variance,
                        rep.x_optimum, rep.mean_policy],
            "lottery": _aggregate(lot.outcomes) + _aggregate(lot.probabilities),
            "identity": _aggregate(shifted.bliss),
            "unshifted": list(unshifted),
            "exact_payoff": float(exact),
        }
        checks = {"payoff_identity": abs(exact - eq.payoff) <= self.tol,
                  "monte_carlo": abs(mc - exact) <= self.mc_tol}
        return summary, checks


# ---------------------------------------------------------------------------
# scenario-replay


# bundled scenarios, each with a subcommand the seed accepts it for and the
# error class expected (None for success). README's classify and welfare
# commands on two_type_reference.json exit 2 on the seed (its eq1d task block
# is rejected), a known defect, so they are left out.
BUNDLED_RUNS = {
    "bundled-eq1d": ("eq1d", "two_type_reference.json", None),
    "bundled-validate": ("validate", "two_type_reference.json", None),
    "bundled-eqkd": ("eqkd", "clustered_2d.json", None),
    "bundled-dspread": ("dspread", "coherence_dspread.json", None),
    "bundled-premium-sweep": ("premium-sweep", "premium_sweep.json", None),
    "bundled-info": ("info", "info.json", None),
    "bundled-dynamics": ("dynamics", "dynamics.json", None),
    "bundled-validate-boundary": ("validate", "risk_neutral_boundary.json", "PreconditionError"),
}

def _types(bliss, shares):
    b = np.asarray(bliss, dtype=float).reshape(len(shares), -1)
    return [{"bliss": _floats(row), "share": float(s), "label": f"t{i}"}
            for i, (row, s) in enumerate(zip(b, shares))]


def _scenario(bliss, shares, preset, task, margin=1.0, seed=0):
    return {"distribution": {"types": _types(bliss, shares)},
            "payoff": {"preset": preset},
            "shock": {"half_width": _shock_width(np.asarray(bliss).reshape(len(shares), -1),
                                                 margin)},
            "seed": seed, "task": task}


class ScenarioReplay:
    """In-process ``cli.run`` of every subcommand: parse, compute, serialize."""

    name = "scenario-replay"
    tol = 0.0  # artifacts are compared by hash
    sizes = {
        "full": {
            # the tail is the median of the 19 fixed 2-thread sweeps. The p50
            # falls near the middle of the 6 ops of ~15 ms (eqkd n=5, dspread
            # n=4, the bundled dspread): 12 round ops are cheaper, by 2x or
            # more, and 11 are dearer, as is about one fixed op per round
            "fixed": ["sweep-t2"] * 10 + ["sweep-placement-linear"] + ["sweep-t2"] * 9,
            "round": ["sweep-t1", "info", "eqkd-n5", "bundled-eq1d", "validate", "bundled-info",
                      "dspread-n4", "classify", "spread", "welfare", "eqkd-n6",
                      "bundled-validate", "eqkd-n5", "eq1d", "dynamics", "eqkd-n4",
                      "bundled-dspread", "classify", "bundled-dynamics", "dspread-n5",
                      "dspread-n4", "bundled-premium-sweep", "eq1d", "sweep-t1",
                      "bundled-validate-boundary", "eqkd-n5", "bundled-eqkd", "classify",
                      "bundled-eq1d"],
            "rounds": 40,
        },
        "smoke": {
            "fixed": ["smoke-sweep-t2", "smoke-sweep-placement-linear"],
            "round": ["smoke-sweep-t1", "smoke-eq1d", "eqkd-n3", "dspread-n3", "classify",
                      "welfare", "spread", "info", "dynamics", "validate"] + list(BUNDLED_RUNS),
            "rounds": 2,
        },
    }
    n_sweep_types = 50
    n_line_types = 40
    stress = {"dominant": ("cli",), "small": ("equilibriumkd", "model")}

    def make(self, pc, cls, index):
        inst = self._make(cls, index)
        inst["cls"] = cls
        return inst

    def _make(self, cls, index):
        rng = instance_rng(self.name, cls, index)
        smoke = cls.startswith("smoke-")
        kind = cls[len("smoke-"):] if smoke else cls
        if kind.startswith("sweep-"):
            # the quadratic and sqrt-sharing sweeps alternate through the pool
            preset = ("placement-linear" if kind == "sweep-placement-linear"
                      else ("quadratic", "sqrt-sharing")[index % 2])
            threads = 2 if kind.endswith("-t2") else 1
            count = 10 if preset == "placement-linear" else 100
            count = 4 if smoke else count
            bliss, shares = _line(rng, 8 if smoke else self.n_sweep_types)
            premiums = _floats(np.sort(rng.uniform(0.0, 0.95, size=count)))
            return {"sub": "premium-sweep", "threads": threads,
                    "scenario": _scenario(bliss, shares, preset, {"premiums": premiums})}
        if kind.startswith(("eqkd-", "dspread-")):
            kind, n = kind.split("-n")
            pts, shares = _symmetric(rng, int(n), 2)
            preset = ("quadratic", "sqrt-sharing")[index % 2]
            task = {}
            margin = 1.0
            if kind == "dspread":
                center = shares @ pts
                wider = center + (1.0 + rng.uniform(0.05, 0.3)) * (pts - center)
                task = {"candidate": {"types": _types(wider, shares)}}
                margin = float(np.sum((wider.max(axis=0) - wider.min(axis=0)) ** 2)) \
                    - float(np.sum((pts.max(axis=0) - pts.min(axis=0)) ** 2)) + 1.0
            return {"sub": kind, "threads": 1,
                    "scenario": _scenario(pts, shares, preset, task, margin=margin)}
        preset = ("quadratic", "sqrt-sharing")[index % 2]
        if kind == "eq1d":
            bliss, shares = _line(rng, 3 if smoke else self.n_line_types)
            task = {"monte_carlo_draws": 1000 if smoke else 1_000_000}
            return {"sub": "eq1d", "threads": 1,
                    "scenario": _scenario(bliss, shares, preset, task, seed=index)}
        if kind in ("classify", "welfare", "validate"):
            bliss, shares = _line(rng, self.n_line_types)
            task = {}
            if kind == "welfare" and index % 2:
                lo, hi = np.sort(rng.uniform(-0.5, 0.5, size=2))
                task = {"platforms": [float(hi), float(lo)]}
            return {"sub": kind, "threads": 1,
                    "scenario": _scenario(bliss, shares, preset, task)}
        if kind == "spread":
            bliss, shares = _line(rng, self.n_line_types)
            order = np.argsort(bliss)
            median = bliss[order][np.searchsorted(np.cumsum(shares[order]), 0.5)]
            wider = np.where(bliss > median, bliss + 0.1, np.where(bliss < median, bliss - 0.1,
                                                                   bliss))
            task = {"candidate": {"types": _types(wider, shares)}}
            return {"sub": "spread", "threads": 1,
                    "scenario": _scenario(bliss, shares, preset, task, margin=1.5)}
        if kind == "info":
            task = {"salience": float(rng.uniform(0.1, 0.9)),
                    "prior_common": float(rng.uniform(0.1, 0.9)),
                    "prior_conflict": float(rng.uniform(0.1, 0.9)),
                    "posterior_conflict": float(rng.uniform(0.0, 1.0))}
            return {"sub": "info", "threads": 1,
                    "scenario": _scenario([0.0, 1.0], [0.5, 0.5], preset, task)}
        if kind == "dynamics":
            low = float(rng.uniform(0.05, 0.3))
            task = {"gap": float(rng.uniform(0.5, 1.5)), "theta_high": low + 0.1,
                    "theta_low": low, "cost": float(rng.uniform(0.005, 0.05)), "horizon": 50}
            return {"sub": "dynamics", "threads": 1,
                    "scenario": _scenario([0.0, 1.0], [0.5, 0.5], preset, task)}
        if kind in BUNDLED_RUNS:
            sub, fname, expect = BUNDLED_RUNS[kind]
            raw = json.loads((BUNDLED / fname).read_text(encoding="utf-8"))
            return {"sub": sub, "threads": 1, "scenario": raw, "expect": expect,
                    "file": fname}
        raise KeyError(cls)

    def op(self, pc, inst, ctx, tr, counts):
        """One cli.run into ``ctx["out_dir"]`` (emptied before each op).

        The summary is the SHA-256 of every artifact written, plus the name of
        the expected error if one was raised.
        """
        from polcomp import cli

        sub = inst["sub"]
        out_dir = ctx["out_dir"]
        expect = getattr(pc, inst["expect"]) if inst.get("expect") else ()
        raised = "none"
        try:
            tr.call("cli.run", cli.run, sub, inst["scenario"], out_dir, fmt="both",
                    threads=inst["threads"], tag=f"{sub}/{inst['cls']}", expect=expect)
        except expect as exc:
            raised = type(exc).__name__
        artifacts = []
        for path in sorted(Path(out_dir).iterdir()):
            data = path.read_bytes()
            counts["cli.bytes_written"] += len(data)
            artifacts.append(f"{path.name}:{hashlib.sha256(data).hexdigest()}")
        summary = {"artifacts": artifacts, "raised": raised}
        return summary, {"expected_outcome": raised == (inst.get("expect") or "none")}


WORKLOADS = {w.name: w for w in (KdSolve(), Electorate1D(), ScenarioReplay())}


def classes(workload, size):
    spec = workload.sizes[size]
    return sorted(set(spec["fixed"]) | set(spec["round"]))
