#!/usr/bin/env python3
"""polcomp benchmark: one seeded, closed-loop workload per run, one client.

    python3 perfbench/run.py --workload kd-solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The program is imported from ``src/`` of the
same checkout; nothing is installed. Each run:

1. sets up ``SETUP_REPS`` times (fresh import of polcomp, input generation,
   the three payoff presets) and reports the median as ``setup_s``;
2. warms up with one op of every round class;
3. runs the timed phase: whole rounds until ``--seconds`` of wall time is
   reached, with the workload's fixed ops spread evenly over it. Output
   checks run between ops and are not timed. A single-threaded op's latency
   is its process CPU time, not wall time: on a shared virtual machine the
   hypervisor can steal a large share of a busy CPU's time in bursts (up to
   40 % measured on a 2-vCPU Xeon guest), which wall time would report as
   the program's. An op that runs on 2 threads is timed on the wall clock,
   since its CPU time adds up both threads. ``ops_per_s`` is the throughput
   of the workload's nominal op mix, each size class timed at its median
   latency in the run;
4. checks every op's outputs against ``reference.json`` (recorded on the
   seed commit by ``record.py``) and against invariants of the model.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the time is split into an untraced and a traced half,
and the last line carries the per-layer metrics derived from the spans of
the traced half. Full records go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS pools would otherwise add threads on top of the CLI's own sweep
# workers; one op may use at most nproc (2) threads
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402 - after the thread settings above

from spans import SpanStats, Tracer  # noqa: E402
from workloads import POOL, WORKLOADS, classes, compare, digest  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_REPS = 15
PRESETS = ("quadratic", "sqrt-sharing", "placement-linear")
TAIL_BEYOND = 10

SPANNED = (
    "model.VoterDistribution", "model.expected_payoff", "model.monte_carlo_payoff",
    "equilibrium1d.equilibrium_1d", "equilibrium1d.classify_group",
    "equilibrium1d.payoff_gradient", "equilibrium1d.compare_spread_payoffs",
    "equilibriumkd.party_preferred_equilibria", "equilibriumkd.best_response",
    "equilibriumkd.best_response_dynamics",
    "welfare.policy_lottery", "welfare.welfare_decomposition",
    "applications.identity_adjusted_distribution",
)
WITH_P50 = ("model.VoterDistribution", "equilibriumkd.party_preferred_equilibria",
            "equilibriumkd.best_response")
COUNTS = ("model.types_built", "equilibriumkd.local_equilibria",
          "equilibriumkd.party_preferred", "equilibriumkd.dynamics_steps",
          "equilibriumkd.dynamics_moves", "welfare.lottery_support", "cli.bytes_written")
MODULES = ("model", "equilibrium1d", "equilibriumkd", "welfare", "applications", "cli")
SUBCOMMANDS = ("eq1d", "eqkd", "classify", "spread", "dspread", "welfare",
               "premium-sweep", "info", "dynamics", "validate")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.self_check:
        return self_check()
    if not (SRC / "polcomp" / "__init__.py").is_file():
        print(f"error: no polcomp sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE.name}; run perfbench/record.py", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    spec = workload.sizes[args.size]
    refs = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]

    # -- set-up, repeated; the last repetition's objects are used
    setups = []
    for _ in range(SETUP_REPS):
        gc.collect()
        setups.append(set_up(workload, classes(workload, args.size)))
    pc, pool, nus = setups[-1]["objects"]
    for (cls, index), inst in pool.items():
        if digest(inst) != refs[cls][index]["input"]:
            print(f"error: generated input {cls}/{index} differs from the recorded one",
                  file=sys.stderr)
            return 2

    OUT.mkdir(exist_ok=True)
    out_dir = OUT / "replay"
    out_dir.mkdir(exist_ok=True)
    ctx = {"nus": nus, "out_dir": out_dir}
    failures = []

    def run_op(cls, index, tracer, counts):
        for f in out_dir.iterdir():
            f.unlink()
        inst = pool[(cls, index)]
        t0, w0 = process_time(), perf_counter()
        try:
            summary, checks = tracer.call("op", workload.op, pc, inst, ctx, tracer, counts,
                                          tag=cls)
            problems = []
        except Exception as exc:  # noqa: BLE001 - any raise fails the op, the run goes on
            summary, checks, problems = None, {}, [f"raised {type(exc).__name__}: {exc}"]
        cpu, wall = process_time() - t0, perf_counter() - w0
        if summary is not None:
            problems += compare(summary, refs[cls][index]["output"], workload.tol)
            problems += [f"check {k} failed" for k, ok in checks.items() if not ok]
        if problems:
            failures.append({"op": f"{cls}/{index}", "problems": problems[:5]})
        latency = wall if inst.get("threads", 1) > 1 else cpu
        return latency, wall, not problems

    def run_phase(seconds, tracer):
        """Whole rounds until the boundary nearest ``seconds``; fixed op i is due at
        ``i * seconds / len(fixed)``, and every fixed op runs before the phase ends.

        The window (the fixed ops and the first round) is the same work in every
        run of a seed; its counts and op ids feed the per-layer volume metrics."""
        fixed = slots(spec["fixed"], args.seed, 0)
        ops = []
        window = defaultdict(int)
        window_ops = set()
        scratch = defaultdict(int)

        def run(cls, index, counts):
            tracer.op_id = len(ops)
            if counts is window:
                window_ops.add(len(ops))
            ops.append((cls,) + run_op(cls, index, tracer, counts))

        start, start_cpu = perf_counter(), process_time()
        done = rounds = 0
        round_time = 0.0
        while True:
            while done < len(fixed) and perf_counter() - start >= done * seconds / len(fixed):
                run(*fixed[done], window)
                done += 1
            if rounds and perf_counter() - start + 0.5 * round_time / rounds >= seconds:
                break
            t0 = perf_counter()
            for cls, index in slots(spec["round"], args.seed, rounds + 1):
                run(cls, index, window if rounds == 0 else scratch)
            round_time += perf_counter() - t0
            rounds += 1
        for cls, index in fixed[done:]:
            run(cls, index, window)
        cpu_of_wall = (process_time() - start_cpu) / (perf_counter() - start)
        return ops, rounds, (window, window_ops), cpu_of_wall

    warmup = slots(spec["round"], args.seed, 10**6)   # untimed, but checked
    for cls, index in warmup:
        run_op(cls, index, Tracer(False), defaultdict(int))
    warmup_failures = len(failures)

    phases = {}
    tracer = Tracer(bool(args.trace))
    if args.trace:
        phases["untraced"] = run_phase(args.seconds / 2.0, Tracer(False))
        phases["traced"] = run_phase(args.seconds / 2.0, tracer)
    else:
        phases["untraced"] = run_phase(args.seconds, tracer)

    all_ops = [op for ops, _, _, _ in phases.values() for op in ops]
    attempted = len(warmup) + len(all_ops)
    failed = sum(1 for op in all_ops if not op[3]) + warmup_failures
    ops, rounds, _, cpu_of_wall = phases["untraced"]
    latencies = sorted(op[1] for op in ops)
    tail_rank = max(0, len(latencies) - TAIL_BEYOND - 1)
    setup_s = statistics.median(s["total_s"] for s in setups)

    detail = {
        "environment": environment(args, workload),
        "setup": {"reps": [{k: v for k, v in s.items() if k != "objects"} for s in setups],
                  "median_s": setup_s},
        "timed_phase": {
            "rounds": rounds, "ops": len(ops),
            "ops_per_class": class_stats(ops),
            "tail": {"percentile": 100.0 * (tail_rank + 1) / len(latencies),
                     "samples": len(latencies),
                     "samples_beyond": len(latencies) - tail_rank - 1},
            "fail_ratio": failed / max(1, attempted),
            "ops_per_s_raw": len(ops) / sum(latencies),
            # below 1 when the hypervisor steals CPU time from the process
            "cpu_of_wall": cpu_of_wall,
        },
        "failures": failures[:20],
    }
    ops_per_s = throughput(ops, spec)
    if not args.trace:
        metrics = {
            "ops_per_s": (ops_per_s, "ops/s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1e3 * latencies[tail_rank], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        t_ops, _, t_window, _ = phases["traced"]
        traced_rate = throughput(t_ops, spec)
        metrics = per_layer(SpanStats(tracer.spans), t_window, t_ops, setups,
                            traced_rate / ops_per_s)
        detail["stress_matrix"] = stress_matrix(workload, metrics)
        detail["trace"] = {"spans": len(tracer.spans), "traced_ops": len(t_ops),
                           "untraced_ops_per_s": ops_per_s, "traced_ops_per_s": traced_rate}
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz")
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    stem = f"{workload.name}-{args.size}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    correct = failed == 0
    report(detail, workload, args, correct)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": detail["metrics"]}))
    return 0 if correct else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny instances on the same code paths")
    p.add_argument("--self-check", action="store_true",
                   help="run every workload at smoke size and check the emitted metrics")
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(workload, cls_names):
    """Fresh import of polcomp, the instance pool, and the three payoff presets."""
    t0 = process_time()
    for name in [m for m in sys.modules if m == "polcomp" or m.startswith("polcomp.")]:
        del sys.modules[name]
    pc = importlib.import_module("polcomp")
    t1 = process_time()
    pool = {(cls, i): workload.make(pc, cls, i) for cls in cls_names for i in range(POOL)}
    t2 = process_time()
    nus, preset_ms = {}, {}
    for name in PRESETS:
        t = process_time()
        nus[name] = pc.payoff_preset(name)
        preset_ms[name] = 1e3 * (process_time() - t)
    t3 = process_time()
    return {"import_s": t1 - t0, "inputs_s": t2 - t1, "presets_ms": preset_ms,
            "total_s": t3 - t0, "objects": (pc, pool, nus)}


def slots(classes_, seed, round_index):
    """Seeded pool indices for one list of op classes."""
    rng = np.random.default_rng([seed, round_index])
    return [(cls, int(rng.integers(POOL))) for cls in classes_]


def throughput(ops, spec):
    """Ops per second of the nominal mix: the fixed ops plus ``spec["rounds"]`` rounds.

    Each class is timed at its median latency in ``ops``. The fixed mix
    keeps the figure from depending on how many rounds fitted into the run;
    the medians keep it from following the shared machine's slow stretches
    while they cover less than half of a class's ops.
    """
    by = by_class(ops)
    weight = defaultdict(int)
    for cls in spec["fixed"]:
        weight[cls] += 1
    for cls in spec["round"]:
        weight[cls] += spec["rounds"]
    return sum(weight.values()) / sum(w * statistics.median(by[c]) for c, w in weight.items())


def by_class(ops, column=1):
    """Latencies (column 1) or wall times (column 2) of ``ops`` per class."""
    by = defaultdict(list)
    for op in ops:
        by[op[0]].append(op[column])
    return by


def class_stats(ops):
    walls = by_class(ops, 2)
    return {cls: {"ops": len(v), "p50_ms": 1e3 * statistics.median(v),
                  "wall_p50_ms": 1e3 * statistics.median(walls[cls]),
                  "latencies_ms": [round(1e3 * x, 3) for x in v]}
            for cls, v in sorted(by_class(ops).items())}


def per_layer(stats, window, ops, setups, overhead_ratio):
    """Per-layer metrics from the traced half: ``{name: (value, unit)}``.

    Volumes (``calls``, ``self_s``, ``failed`` and the counts) cover only the
    window's ops, a fixed amount of work for a seed; ``p50_ms`` values are
    medians over every op of the traced half.
    """
    counts, window_ops = window
    m = {}
    for name in SPANNED:
        rows = stats.select(name, ops=window_ops)
        m[f"{name}.calls"] = (stats.calls(rows), "count")
        m[f"{name}.self_s"] = (stats.self_s(rows), "s")
        if name in WITH_P50:
            m[f"{name}.p50_ms"] = (stats.p50_ms(stats.select(name)), "ms")
        m[f"{name}.failed"] = (stats.failed(rows), "count")
    m["model.VoterDistribution.N800.p50_ms"] = (
        stats.p50_ms(stats.select("model.VoterDistribution", lambda t: t == "N800")), "ms")
    m["equilibriumkd.party_preferred_equilibria.n7.p50_ms"] = (
        stats.p50_ms(stats.select("equilibriumkd.party_preferred_equilibria",
                                  lambda t: t == "n7")), "ms")
    for sub in SUBCOMMANDS:
        rows = stats.select("cli.run", lambda t, s=sub: t.split("/")[0] == s)
        m[f"cli.run.{sub}.calls"] = (stats.calls([r for r in rows if r[0] in window_ops]),
                                     "count")
        m[f"cli.run.{sub}.p50_ms"] = (stats.p50_ms(rows), "ms")
    sweeps = {"placement-linear": "sweep-placement-linear", "threads1": "sweep-t1",
              "threads2": "sweep-t2"}
    for label, kind in sweeps.items():
        rows = stats.select("cli.run",
                            lambda t, k=kind: t.split("/")[1].removeprefix("smoke-") == k)
        m[f"cli.run.premium-sweep.{label}.p50_ms"] = (stats.p50_ms(rows), "ms")
    # the wall clock shows whether the 2 sweep workers run in parallel
    walls = {cls.removeprefix("smoke-"): v for cls, v in by_class(ops, 2).items()}
    for label in ("threads1", "threads2"):
        v = walls.get(sweeps[label])
        m[f"cli.run.premium-sweep.{label}.wall_p50_ms"] = (
            1e3 * statistics.median(v) if v else 0.0, "ms")
    m["cli.run.failed"] = (stats.failed(stats.select("cli.run", ops=window_ops)), "count")
    for name in PRESETS:
        m[f"payoffs.payoff_preset.{name}.ms"] = (
            statistics.median(s["presets_ms"][name] for s in setups), "ms")
    for name in COUNTS:
        m[name] = (counts[name], "B" if name == "cli.bytes_written" else "count")
    steps = counts["equilibriumkd.dynamics_steps"]
    m["equilibriumkd.dynamics_useful_ratio"] = (
        counts["equilibriumkd.dynamics_moves"] / steps if steps else 0.0, "1")
    total = sum(r[2] for r in stats.select("op"))
    shares = stats.module_self_s()
    for module in MODULES + ("op",):
        label = "bench" if module == "op" else module
        m[f"{label}.self_share"] = (shares.get(module, 0.0) / total if total else 0.0, "1")
    m["trace.overhead_ratio"] = (overhead_ratio, "1")
    return m


def stress_matrix(workload, metrics):
    """Each expected cell with the measured self-time share and whether it holds."""
    share = {mod: metrics[f"{mod}.self_share"][0] for mod in MODULES}
    dominant = workload.stress["dominant"]
    cells = [{"modules": list(dominant), "expect": "most (>= 0.5) of op self time",
              "share": sum(share[m] for m in dominant),
              "holds": sum(share[m] for m in dominant) >= 0.5}]
    for mod in workload.stress["small"]:
        cells.append({"modules": [mod], "expect": "little (< 0.1) of op self time",
                      "share": share[mod], "holds": share[mod] < 0.1})
    return cells


def environment(args, workload):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit, "workload": workload.name, "size": args.size,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }


def report(detail, workload, args, correct):
    env = detail["environment"]
    phase = detail["timed_phase"]
    print(f"# {workload.name} size={args.size} seed={args.seed} trace={args.trace} "
          f"commit={env['git_commit'][:12]}")
    print(f"# nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} threads={env['thread_env']}")
    print(f"# rounds={phase['rounds']} ops={phase['ops']} "
          f"per class: " + ", ".join(f"{c}={v['ops']} (p50 {v['p50_ms']:.1f} ms)"
                                     for c, v in phase["ops_per_class"].items()))
    tail = phase["tail"]
    print(f"# tail: p{tail['percentile']:.1f} of {tail['samples']} samples, "
          f"{tail['samples_beyond']} beyond; fail_ratio={phase['fail_ratio']:.4g}")
    for name, m in detail["metrics"].items():
        print(f"{name:58s} {m['value']:14.6g} {m['unit']}")
    for cell in detail.get("stress_matrix", []):
        print(f"# stress {'+'.join(cell['modules'])}: share {cell['share']:.3f}, "
              f"expected {cell['expect']}: {'holds' if cell['holds'] else 'DOES NOT HOLD'}")
    for f in detail["failures"][:5]:
        print(f"# FAILED {f['op']}: {'; '.join(f['problems'])}", file=sys.stderr)
    if not correct:
        print("# output check failed", file=sys.stderr)


def self_check() -> int:
    """Every workload at smoke size, both trace modes: names, units, correctness."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    ok = True
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result, problems = None, ["no result line"]
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            if result is not None:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if not result.get("correct") or result.get("failed") or not result.get("attempted"):
                    problems.append("outputs not correct")
                got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
                if got != expected[trace]:
                    diff = sorted(set(got.items()) ^ set(expected[trace].items()))
                    problems.append(f"metric names/units differ: {diff[:6]}")
            ok = ok and not problems
            print(f"{w['name']:16s} trace={trace}: {'ok' if not problems else problems}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
