"""Every bundled scenario with one numeric leaf set to an extreme value.

A run may write its record (exit 0), reject the scenario (exit 2) or meet a
model limit (exit 3). An internal error (exit 4), a warning or a record
that does not parse is a defect. The (scenario, subcommand) pairs are those
that exit 0 unchanged, the keys of ``golden_artifacts.json``.
"""

import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from polcomp.cli import main, validate_result_record

ROOT = Path(__file__).resolve().parent.parent
EXTREMES = [0.0, 5e-324, -5e-324, 1e-300, 2e-5, 3e-5, 1e300, -1e300, 1.7e308, -1.7e308, 1e16]


def _leaves(node, path=()):
    """Paths of the numeric leaves under ``node``."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaves(child, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _cases():
    golden = json.loads((ROOT / "tests" / "golden_artifacts.json").read_text(encoding="utf-8"))
    pairs = sorted({tuple(key.split(" ")[:2]) for key in golden})
    return [(name, subcommand, path) for name, subcommand in pairs
            for path in _leaves(json.loads((ROOT / "scenarios" / name).read_text()))]


CASES = _cases()
SECOND_BLISS = ("distribution", "types", 1, "bliss", 0)
# inputs that exited 4 with an internal error before float-resolution limits were named
PINNED = ([("two_type_plain.json", sub, v) for sub in ("eq1d", "classify", "welfare")
           for v in (5e-324, -5e-324, 2e-5, 3e-5)]
          + [("two_type_reference.json", "eq1d", v) for v in (2e-5, 3e-5)]
          + [("two_type_plain.json", "eqkd", v) for v in (1e-300, 5e-324, -5e-324, 2e-5, 3e-5)])


def _pinned(test):
    for name, subcommand, value in PINNED:
        test = example(case=(name, subcommand, SECOND_BLISS), value=value)(test)
    return test


@settings(max_examples=250)
@given(case=st.sampled_from(CASES), value=st.sampled_from(EXTREMES))
@_pinned
def test_extreme_leaf_exits_cleanly(case, value):
    name, subcommand, path = case
    scenario = json.loads((ROOT / "scenarios" / name).read_text())
    node = scenario
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        scenario_path = Path(tmp) / "scenario.json"
        scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([subcommand, "--scenario", str(scenario_path), "--out", tmp])
        assert code in (0, 2, 3)
        assert [str(w.message) for w in caught] == []
        if code == 0:
            validate_result_record(json.loads((Path(tmp) / f"{subcommand}.json").read_text()))
