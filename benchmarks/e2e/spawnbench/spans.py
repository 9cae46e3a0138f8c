"""Harness-side spans: recorded in memory around calls into each layer.

One *op* is a root span ``op`` with child spans for its phases
(``build`` / ``launch`` / ``drain`` / ``reap``); ``floor`` probes and
the layer probes' ``ping`` round trips are parentless siblings.  The op
loop stamps phase boundaries (``perf_counter_ns``) and hands them to
:class:`SpanLog`, which keeps them as flat tuples until the workload
ends and only then writes JSONL — nothing touches the filesystem while
the clock is running.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence, Tuple

PHASES = ("build", "launch", "drain", "reap")

#: Ops written to the JSONL file per run; aggregates always use every op.
JSONL_OP_LIMIT = 20_000

Interval = Tuple[int, int]


def self_time(start: int, end: int, children: Iterable[Interval]) -> int:
    """A span's duration minus the part of it its child spans cover.

    Children are clipped to ``[start, end]`` and overlapping children
    are counted once, so the result is never negative.
    """
    covered = 0
    cursor = start
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, cursor), min(c1, end)
        if c1 > c0:
            covered += c1 - c0
            cursor = c1
    return (end - start) - covered


class SpanLog:
    """Every traced op of one run.

    ``add`` takes the op's id, its tag dict (shape, reap mode, ...), the
    root span's ``[start, end]`` and ``len(PHASES) + 1`` phase-boundary
    stamps; phase *i* is ``[marks[i], marks[i + 1]]``.
    """

    def __init__(self):
        self.ops: List[tuple] = []
        self.siblings: List[Tuple[str, int, int]] = []

    def add(self, op_id: str, tags: Dict[str, str], start: int, end: int,
            marks: Sequence[int]) -> None:
        if len(marks) != len(PHASES) + 1:
            raise ValueError(f"op {op_id}: {len(marks)} marks for {len(PHASES)} phases")
        self.ops.append((op_id, tags, start, end, tuple(marks)))

    def add_sibling(self, name: str, start: int, end: int) -> None:
        self.siblings.append((name, start, end))

    def merge(self, other: "SpanLog") -> None:
        self.ops.extend(other.ops)
        self.siblings.extend(other.siblings)

    # -- aggregates (nanoseconds) ----------------------------------------

    def select(self, **tags: str) -> List[tuple]:
        """Ops whose tags include every given ``key=value``."""
        return [op for op in self.ops if all(op[1].get(k) == v for k, v in tags.items())]

    @staticmethod
    def phase_ns(ops: Sequence[tuple], phase: str) -> List[int]:
        i = PHASES.index(phase)
        return [op[4][i + 1] - op[4][i] for op in ops]

    @staticmethod
    def op_ns(ops: Sequence[tuple]) -> List[int]:
        return [op[3] - op[2] for op in ops]

    @staticmethod
    def self_ns(ops: Sequence[tuple]) -> List[int]:
        return [self_time(op[2], op[3], zip(op[4], op[4][1:])) for op in ops]

    # -- output ------------------------------------------------------------

    def records(self, limit: int = JSONL_OP_LIMIT) -> Iterable[dict]:
        """``{name, t0, t1, parent, op_id}`` dicts, children after their root."""
        span_id = 0
        for op_id, tags, start, end, marks in self.ops[:limit]:
            span_id += 1
            root = span_id
            yield {"id": root, "name": "op", "t0": start, "t1": end, "parent": None,
                   "op_id": op_id, "tags": tags}
            for i, phase in enumerate(PHASES):
                if marks[i + 1] > marks[i]:
                    span_id += 1
                    yield {"id": span_id, "name": phase, "t0": marks[i], "t1": marks[i + 1],
                           "parent": root, "op_id": op_id}
        for name, t0, t1 in self.siblings[:limit]:
            span_id += 1
            yield {"id": span_id, "name": name, "t0": t0, "t1": t1, "parent": None,
                   "op_id": None}

    def write_jsonl(self, path: str) -> int:
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
                count += 1
        return count
