"""Tests of the ruler itself (not tier-1): ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``."""

import itertools
import json
import os
import re
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from spawnbench import catalog, stats  # noqa: E402
from spawnbench.ops import op_stream  # noqa: E402
from spawnbench.spans import PHASES, SpanLog, self_time  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- percentiles and the ten-beyond rule --------------------------------------

def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 0.99) == 99
    assert stats.percentile(samples, 0.5) == 50
    assert stats.percentile(samples, 1.0) == 100
    assert stats.percentile([7], 0.99) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_tail_needs_ten_samples_beyond():
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.qualifying_tail(1000, 0.99) == 0.99
    assert stats.qualifying_tail(999, 0.99) == 0.95   # 9 beyond p99 is not enough
    assert stats.qualifying_tail(100, 0.99) == 0.90
    assert stats.qualifying_tail(100, 0.90) == 0.90
    assert stats.qualifying_tail(30, 0.99) is None
    value, q = stats.tail(list(range(30)), 0.99)
    assert q == 0.5 and value == 14.5                  # falls back to the median
    value, q = stats.tail(list(range(1, 1001)), 0.99)
    assert (value, q) == (990, 0.99)


def test_quartile_spread_and_worse_by():
    assert stats.quartile_spread([10.0] * 10) == 0
    assert stats.worse_by(100, 110, "lower") == pytest.approx(0.10)
    assert stats.worse_by(100, 110, "higher") == pytest.approx(-0.10)
    assert stats.worse_by(100, 90, "higher") == pytest.approx(0.10)


# -- span arithmetic ------------------------------------------------------------

def test_self_time_counts_overlap_once_and_clips():
    assert self_time(0, 100, []) == 100
    assert self_time(0, 100, [(10, 30), (20, 50), (90, 120)]) == 100 - 40 - 10
    assert self_time(0, 100, [(0, 100)]) == 0
    assert self_time(0, 100, [(-50, 200)]) == 0


def test_phases_plus_self_equal_the_op_span():
    log = SpanLog()
    log.add("0:0", {"kind": "single", "shape": "null"}, 100, 1000, (110, 150, 400, 400, 990))
    log.add("0:1", {"kind": "single", "shape": "capture"}, 2000, 2600,
            (2005, 2050, 2300, 2400, 2590))
    ops = log.ops
    phases = sum(sum(log.phase_ns(ops, phase)) for phase in PHASES)
    assert phases + sum(log.self_ns(ops)) == sum(log.op_ns(ops))
    assert log.self_ns(ops) == [20, 15]
    assert len(log.select(shape="capture")) == 1
    records = list(log.records())
    roots = [r for r in records if r["name"] == "op"]
    assert len(roots) == 2 and all(r["parent"] is None for r in roots)
    # Zero-length phases (no drain on a null op) are not written as spans.
    assert [r["name"] for r in records if r["op_id"] == "0:0"] == ["op", "build", "launch", "reap"]
    with pytest.raises(ValueError):
        log.add("0:2", {}, 0, 1, (0, 1))


# -- the seeded op stream -------------------------------------------------------

@pytest.mark.parametrize("workload", catalog.workload_names())
def test_same_seed_same_sequence_other_seed_other_inputs(workload):
    def take(seed, caller=0, **kwargs):
        return list(itertools.islice(op_stream(workload, seed, caller, **kwargs), 400))

    assert take(7) == take(7)
    assert [op.token for op in take(7)] != [op.token for op in take(8)]
    assert [op.token for op in take(7)] != [op.token for op in take(7, caller=1)]
    if workload != "template_lease":  # its exec/zygote alternation is fixed by design
        assert [op.shape for op in take(7)] != [op.shape for op in take(8)]
    # The gated stream reaps blocking; the mixed one differs in nothing but the reap mode.
    assert {op.reap for op in take(7)} == {"block"}
    mixed = take(7, mixed=True)
    assert all(op.reap == ("block" if op.index % 2 == 0 else "timed") for op in mixed)
    assert [op._replace(reap="block") for op in mixed] == take(7)


def test_template_modes_do_not_alias_with_reap_parity():
    ops = list(itertools.islice(op_stream("template_lease", 1, mixed=True), 8))
    assert {(op.shape, op.reap) for op in ops} == {
        ("exec", "block"), ("exec", "timed"), ("zygote", "block"), ("zygote", "timed")}


def test_floor_clock_reads_the_local_floor():
    probes = [(100, 10), (200, 10), (300, 20), (400, 20), (500, 20)]
    floor = stats.FloorClock(probes)
    assert floor.local == [10, 15, 20, 20, 20]          # median of the 5 (fewer at the ends)
    assert (floor.at(0), floor.at(260), floor.at(10_000)) == (10, 20, 20)
    # [0, 600] in floors: 150/10 + 100/15 + 100/20 + 100/20 + 150/20
    assert floor.elapsed(0, 600) == pytest.approx(15 + 100 / 15 + 5 + 5 + 7.5)
    assert floor.elapsed(160, 240) == pytest.approx(80 / 15)
    # A box twice as slow reads the same op twice as long and the floor too.
    slow = stats.FloorClock([(t, 2 * d) for t, d in probes])
    assert 40 / floor.at(300) == 80 / slow.at(300)
    with pytest.raises(ValueError):
        stats.FloorClock([])


def test_floor_probes_run_with_every_other_caller_parked():
    from spawnbench.runner import FLOOR_EVERY, run_phase
    from spawnbench.workloads import Workload

    class Busy(Workload):
        """Counts callers inside an op; a probe must always find none."""

        callers = 4  # more threads than this box has cores

        def __init__(self):
            self.lock = threading.Lock()
            self.inside = 0
            self.seen = []

        def run_op(self, op, mark, caller):
            with self.lock:
                self.inside += 1
            time.sleep(0.0002 * (1 + caller))
            with self.lock:
                self.inside -= 1
            return 1

        def floor_probe(self):
            self.seen.append(self.inside)
            return 0, 1

    wl = Busy()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        phase = run_phase(wl, [op_stream("direct_seq", 1, i) for i in range(wl.callers)],
                          max_ops=200, floor=True)
    finally:
        sys.setswitchinterval(interval)
    assert phase.failed == 0 and phase.children == 200 * wl.callers
    # One probe before the callers start, then one per FLOOR_EVERY ops of caller 0.
    assert len(wl.seen) == 1 + 200 // FLOOR_EVERY and not any(wl.seen)


def test_a_phase_too_short_for_an_interleaved_probe_still_has_a_floor():
    # --smoke on a 4-core box: 20 warm-up ops over 4 callers is 5 each, fewer than FLOOR_EVERY.
    from spawnbench.runner import FLOOR_EVERY, run_phase
    from spawnbench.workloads import Workload

    class Quick(Workload):
        callers = 4

        def __init__(self):
            pass

        def run_op(self, op, mark, caller):
            return 1

        def floor_probe(self):
            return 100, 150

    assert 5 < FLOOR_EVERY
    phase = run_phase(Quick(), [op_stream("pool_conc", 1, i) for i in range(4)],
                      max_ops=5, floor=True)
    assert phase.children == 20 and phase.floors == [(150, 50)]
    assert stats.FloorClock(phase.floors).elapsed(0, 1000) == 20


# -- determinism of the simulator's virtual clock ---------------------------------

def test_sim_virtual_cost_repeats_bit_for_bit():
    from spawnbench.runner import run_phase
    from spawnbench.workloads import SimCreation

    def virtual(seed):
        wl = SimCreation(seed, os.path.join(HERE, "results", "run-test"))
        wl.boot()
        try:
            phase = run_phase(wl, [op_stream(wl.name, seed, 0)], max_ops=300)
            assert phase.failed == 0 and phase.children == 300
            return wl.virtual_us_per_op()
        finally:
            wl.close()

    first = virtual(3)
    assert first > 0
    assert virtual(3) == first
    assert virtual(4) != first


# -- BENCHMARK.json and the catalogue agree ------------------------------------

def test_benchmark_json_matches_the_catalogue():
    doc = declared()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert ([(w["name"], w["why"]) for w in doc["workloads"]]
            == [tuple(w) for w in catalog.WORKLOADS])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    for group, metrics in (("end_to_end", catalog.END_TO_END), ("per_layer", catalog.PER_LAYER)):
        assert ([(m["name"], m["unit"], m["better"]) for m in doc[group]]
                == [(m.name, m.unit, m.better) for m in metrics])
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + catalog.workload_names()
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])
               for m in doc["end_to_end"] + doc["per_layer"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in doc["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in doc["per_layer"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in doc["end_to_end"])
    assert len(doc["per_layer"]) <= 128 and 2 <= len(doc["workloads"]) <= 8
    assert doc["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_run_emits_exactly_the_declared_names(trace):
    doc = declared()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "direct_seq", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    group = doc["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in group}
    units = {m["name"]: m["unit"] for m in group}
    assert all(entry["unit"] == units[name] for name, entry in line["metrics"].items())
    if trace:
        m = {name: entry["value"] for name, entry in line["metrics"].items()}
        parts = sum(m[f"span.{phase}_us"] for phase in PHASES) + m["span.self_us"]
        assert parts == pytest.approx(m["span.op_us"], rel=1e-9)
        assert m["span.self_ratio"] < 0.05
        # direct_seq is the control: no wire, pool, template, gateway or sim layer works.
        assert all(value == 0 for name, value in m.items()
                   if name.startswith(("core.forkserver", "core.framecache", "core.templates",
                                       "gateway.", "sim.", "core.xproc")))
        assert os.path.exists(os.path.join(HERE, "results", "spans-direct_seq.jsonl"))
    else:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())
