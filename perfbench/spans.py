"""In-memory spans around the benchmark's calls into the program.

A span is ``[id, parent, op, name, tag, start, end, failed]``, with start
and end on the process CPU clock. Spans nest by call order: the op span is
the parent of every call the op makes. Self time is a span's duration minus
the durations of its children.
"""

from __future__ import annotations

import gzip
import json
import statistics
from collections import defaultdict
from time import process_time


class Tracer:
    """Records a span per call when enabled; otherwise calls straight through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.op_id = None
        self._parent = None

    def call(self, name, fn, *args, tag="", expect=(), **kwargs):
        """``fn(*args, **kwargs)`` in a span; raising ``expect`` does not mark it failed."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [len(self.spans), self._parent, self.op_id, name, tag, process_time(), 0.0, False]
        self.spans.append(span)
        outer, self._parent = self._parent, span[0]
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span[7] = not isinstance(exc, expect)
            raise
        finally:
            span[6] = process_time()
            self._parent = outer

    def write(self, path):
        keys = ("id", "parent", "op", "name", "tag", "start", "end", "failed")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class SpanStats:
    """Spans of one run grouped by name, each as ``(op, tag, duration, self time, failed)``."""

    def __init__(self, spans):
        child_time = defaultdict(float)
        for _, parent, _, _, _, start, end, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.by_name = defaultdict(list)
        for sid, _, op, name, tag, start, end, failed in spans:
            self.by_name[name].append((op, tag, end - start, end - start - child_time[sid],
                                       failed))

    def select(self, name, tag=None, ops=None):
        """Rows of ``name`` whose tag passes ``tag`` and whose op id is in ``ops``."""
        return [r for r in self.by_name.get(name, [])
                if (tag is None or tag(r[1])) and (ops is None or r[0] in ops)]

    @staticmethod
    def calls(rows):
        return len(rows)

    @staticmethod
    def self_s(rows):
        return sum(r[3] for r in rows)

    @staticmethod
    def p50_ms(rows):
        return 1e3 * statistics.median(r[2] for r in rows) if rows else 0.0

    @staticmethod
    def failed(rows):
        return sum(r[4] for r in rows)

    def module_self_s(self):
        """Self time per module: the text before the first dot of a span name."""
        out = defaultdict(float)
        for name, rows in self.by_name.items():
            out[name.split(".")[0]] += self.self_s(rows)
        return out
