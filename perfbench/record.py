#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs every pool instance of every class (full and smoke sizes) once,
untimed, and writes its input digest and output summary to
``perfbench/reference.json``. Run it on a commit whose outputs are the
reference, then commit the file; a later commit that changes an output
fails the benchmark's check.
"""

from __future__ import annotations

import json
import shutil
import sys
from collections import defaultdict

from run import OUT, REFERENCE, SRC, set_up
from spans import Tracer
from workloads import WORKLOADS, classes, digest


def main() -> int:
    sys.path.insert(0, str(SRC))
    refs = {}
    out_dir = OUT / "record"
    for workload in WORKLOADS.values():
        names = sorted(set(classes(workload, "full")) | set(classes(workload, "smoke")))
        pc, pool, nus = set_up(workload, names)["objects"]
        table = defaultdict(list)
        for (cls, index), inst in sorted(pool.items()):
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir(parents=True)
            summary, checks = workload.op(pc, inst, {"nus": nus, "out_dir": out_dir},
                                          Tracer(False), defaultdict(int))
            bad = [k for k, ok in checks.items() if not ok]
            if bad:
                raise SystemExit(f"{workload.name} {cls}/{index}: checks failed: {bad}")
            table[cls].append({"input": digest(inst), "output": summary})
            print(f"{workload.name} {cls}/{index}", flush=True)
        refs[workload.name] = dict(table)
    shutil.rmtree(out_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
