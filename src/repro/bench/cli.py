"""``repro-bench`` / ``python -m repro.bench``: run the paper's artifacts.

Usage::

    repro-bench list                 # every experiment and what it maps to
    repro-bench run fig1-sim         # one experiment, full settings
    repro-bench run fig1-real --quick
    repro-bench run all --quick      # everything, reduced settings
    repro-bench run all --parallel   # ... across a pool of spawned workers
    repro-bench run t1-api,t3-overcommit --quick
    repro-bench run t1-api --json
    repro-bench run fig1-sim --quick --set sizes=[1048576,2097152]
                                     # kwarg overrides, JSON-decoded
    repro-bench run t7-templates --quick --trace out.jsonl
    repro-bench metrics              # live sample: p50/p95/p99 per strategy
    repro-bench metrics --from out.jsonl
    repro-bench run t7-templates --quick --faults plan.json   # chaos soak
    repro-bench run t7-templates --quick --json > t7.json
    repro-bench compare benchmarks/baselines/t7_baseline.json t7.json
    repro-bench compare benchmarks/baselines/t7_baseline.json t7.json \
        --metric speedup --tolerance 0.65   # the template >=2x bar

``--faults`` activates a :mod:`repro.faults` plan for the duration of
the run — the chaos soak: the same experiments, now with helpers dying
and frames corrupting underneath them.  ``compare`` is the regression
gate: it checks a fresh ``run --json`` result against a committed
baseline and exits non-zero when throughput drops below tolerance.

``--parallel`` dogfoods the repo's own :class:`~repro.core.pool.SpawnPool`:
each experiment runs in a spawned (never forked) worker interpreter, and
results print in the same deterministic order as a serial run.

``--trace`` flips :data:`repro.obs.TELEMETRY` on for the duration of the
run, so every spawn the experiments perform emits its per-stage JSONL
timeline; ``metrics`` renders the aggregated histograms, either from a
fresh in-process sample or from a trace file written earlier.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import List, Optional, Sequence

from ..errors import ObsError, ReproError
from ..obs import JsonlSink, StderrSink, TELEMETRY, read_jsonl
from .experiments import base
from .render import render_table
from .stats import format_ns, percentile


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the figures and tables of "
                    "'A fork() in the road' (HotOS 2019).")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list experiments")
    runner = sub.add_parser(
        "run", help="run experiments ('all', one id, or a comma list)")
    runner.add_argument("experiment",
                        help="experiment id from 'list', a comma-separated "
                             "list of ids, or 'all'")
    runner.add_argument("--quick", action="store_true",
                        help="reduced sizes/repeats for smoke runs")
    runner.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override an experiment keyword argument; "
                             "VALUE is parsed as JSON when possible "
                             "(--set sizes=[1048576,2097152] "
                             "--set concurrency=4), else as a string; "
                             "repeatable")
    runner.add_argument("--json", action="store_true",
                        help="emit rows as JSON instead of tables")
    runner.add_argument("--parallel", action="store_true",
                        help="run independent experiments across a pool of "
                             "spawned worker processes")
    runner.add_argument("--jobs", type=int, default=4, metavar="N",
                        help="worker processes for --parallel (default 4)")
    runner.add_argument("--trace", metavar="PATH",
                        help="enable spawn telemetry and append per-stage "
                             "trace events to PATH as JSONL ('-' for stderr)")
    runner.add_argument("--faults", metavar="PLAN",
                        help="activate a repro.faults plan for the run "
                             "(a JSON file path, or inline JSON)")
    compare = sub.add_parser(
        "compare", help="gate a fresh 'run --json' result against a "
                        "committed baseline")
    compare.add_argument("baseline", help="baseline JSON (see "
                                          "benchmarks/baselines/)")
    compare.add_argument("current", help="output of 'run <id> --json'")
    compare.add_argument("--metric", default=None, metavar="KEY",
                         help="row key to compare (default: the "
                              "baseline's 'metric' field)")
    compare.add_argument("--tolerance", type=float, default=None,
                         metavar="FRAC",
                         help="allowed fractional drop below baseline "
                              "(default: the baseline's 'tolerance' "
                              "field, else 0.30)")
    metrics = sub.add_parser(
        "metrics", help="spawn latency percentiles per strategy")
    metrics.add_argument("--from", dest="trace_file", metavar="PATH",
                         help="aggregate a trace file written by "
                              "'run --trace' instead of sampling live")
    metrics.add_argument("--samples", type=int, default=40, metavar="N",
                         help="live mode: spawns per strategy (default 40)")
    metrics.add_argument("--strategies", metavar="A,B",
                         help="live mode: comma list of strategies to "
                              "sample (default: all registered)")
    metrics.add_argument("--json", action="store_true",
                         help="emit the full metrics snapshot as JSON")
    return parser


def _result_payload(result: base.ExperimentResult) -> dict:
    """Everything the CLI prints, as one plain (picklable) dict."""
    payload = result.as_dict()
    payload["text"] = result.text
    return payload


def _parse_overrides(pairs: Sequence[str]) -> dict:
    """``--set KEY=VALUE`` pairs -> experiment kwargs.

    Values are decoded as JSON when they parse (numbers, lists,
    booleans) and passed through as strings otherwise, so
    ``--set sizes=[1048576,2097152] --set concurrency=4`` does what it
    looks like it does.
    """
    overrides = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ReproError(f"--set needs KEY=VALUE, got {pair!r}")
        try:
            overrides[key] = json.loads(value)
        except ValueError:
            overrides[key] = value
    return overrides


def _parallel_run_one(payload) -> dict:
    """Worker-side entry point: run one experiment, return its payload.

    Must stay module-level: :class:`~repro.core.pool.SpawnPool` workers
    are fresh spawned interpreters that re-import it by name.
    """
    experiment_id, quick, overrides = payload
    return _result_payload(base.run(experiment_id, quick=quick,
                                    **overrides))


def _print_payload(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps({k: v for k, v in payload.items() if k != "text"},
                         indent=2, default=str))
        return
    print(f"== {payload['id']}: {payload['title']} ==")
    print(payload["text"])
    if payload["notes"]:
        print(f"\nnotes: {payload['notes']}")
    print()


def _run_serial(targets: List[str], quick: bool, as_json: bool,
                overrides: dict) -> None:
    for experiment_id in targets:
        _print_payload(
            _result_payload(base.run(experiment_id, quick=quick,
                                     **overrides)), as_json)


def _run_parallel(targets: List[str], quick: bool, as_json: bool,
                  jobs: int, overrides: dict) -> None:
    """Run ``targets`` across a SpawnPool; print in input order.

    ``map`` returns results in input order regardless of which worker
    finished first, so the output is byte-deterministic with the serial
    path (modulo the measurements themselves).
    """
    from ..core.pool import SpawnPool
    for experiment_id in targets:
        base.get(experiment_id)  # fail fast, before any worker spawns
    with SpawnPool(max(1, min(jobs, len(targets)))) as pool:
        payloads = pool.map(_parallel_run_one,
                            [(t, quick, overrides) for t in targets])
    for payload in payloads:
        _print_payload(payload, as_json)


@contextlib.contextmanager
def _tracing(target: Optional[str]):
    """Enable TELEMETRY around a run; ``'-'`` streams to stderr."""
    if target is None:
        yield
        return
    sink = StderrSink() if target == "-" else JsonlSink(target)
    TELEMETRY.enable(sink, reset_metrics=True)
    try:
        yield
    finally:
        closing = TELEMETRY.disable()
        if closing is not None:
            closing.close()


@contextlib.contextmanager
def _faulting(spec: Optional[str]):
    """Activate a fault plan around a run (file path or inline JSON)."""
    if spec is None:
        yield
        return
    from ..faults import FAULTS, FaultPlan
    with FAULTS.active(FaultPlan.from_env_value(spec)):
        yield


def _sample_live_metrics(samples: int,
                         strategy_names: Optional[List[str]]) -> None:
    """Spawn ``/bin/true`` ``samples`` times per strategy, metrics only."""
    from ..core.policy import SpawnPolicy
    from ..core.spawn import ProcessBuilder
    from ..core.strategies import get_strategy, strategies
    names = strategy_names or strategies()
    for name in names:
        get_strategy(name)  # fail fast on typos, before any sampling
    # A modest retry budget so an injected fault (REPRO_FAULTS) shows up
    # as spawn_retry/breaker_open counts instead of aborting the sample.
    policy = SpawnPolicy(retries=2, backoff=0.01, deadline=30.0)
    TELEMETRY.enable(sink=None, reset_metrics=True)
    try:
        for name in names:
            for _ in range(samples):
                child = (ProcessBuilder("/bin/true").strategy(name)
                         .policy(policy).spawn())
                child.wait(timeout=30)
    finally:
        TELEMETRY.disable()


def _metrics_rows_from_registry() -> List[List[str]]:
    """``strategy | spawns | failures | p50 | p95 | p99`` rows."""
    registry = TELEMETRY.metrics
    failures = {labels.get("strategy", ""): counter.value
                for name, labels, counter in registry.counters()
                if name == "spawn_failures"}
    spawns = {labels.get("strategy", ""): counter.value
              for name, labels, counter in registry.counters()
              if name == "spawns"}
    rows = []
    for name, labels, histogram in registry.histograms():
        if name != "spawn_latency_ns" or not histogram.count:
            continue
        strategy = labels.get("strategy", "")
        quantiles = histogram.quantile_summary()
        rows.append([strategy, str(spawns.get(strategy, histogram.count)),
                     str(failures.get(strategy, 0)),
                     format_ns(quantiles["p50"]), format_ns(quantiles["p95"]),
                     format_ns(quantiles["p99"])])
    for strategy, count in sorted(failures.items()):
        if count and strategy not in {row[0] for row in rows}:
            rows.append([strategy, str(spawns.get(strategy, 0)), str(count),
                         "-", "-", "-"])
    return rows


def _metrics_rows_from_trace(path: str) -> List[List[str]]:
    """The same table, rebuilt from a ``run --trace`` JSONL file."""
    latencies: dict = {}
    spawns: dict = {}
    failures: dict = {}
    for event in read_jsonl(path):
        strategy = event.get("strategy", "")
        kind = event.get("event")
        if kind == "spawn":
            spawns[strategy] = spawns.get(strategy, 0) + 1
            if event.get("launch_ns") is not None:
                latencies.setdefault(strategy, []).append(
                    float(event["launch_ns"]))
        elif kind == "error":
            failures[strategy] = failures.get(strategy, 0) + 1
    rows = []
    for strategy in sorted(set(spawns) | set(failures)):
        samples = latencies.get(strategy)
        if samples:
            p50, p95, p99 = (format_ns(percentile(samples, f))
                             for f in (0.50, 0.95, 0.99))
        else:
            p50 = p95 = p99 = "-"
        rows.append([strategy, str(spawns.get(strategy, 0)),
                     str(failures.get(strategy, 0)), p50, p95, p99])
    return rows


#: Counters the resilience layer emits (see repro.core.policy and the
#: forkserver pool); surfaced by ``metrics`` so retries, breaker trips
#: and degradations are operator-visible, not just test-visible.
RESILIENCE_COUNTERS = ("spawn_retry", "breaker_open", "fallback",
                       "pool_retire")


def _resilience_rows_from_registry() -> List[List[str]]:
    """``event | target | count`` rows for the resilience counters."""
    rows = []
    for name, labels, counter in TELEMETRY.metrics.counters():
        if name in RESILIENCE_COUNTERS and counter.value:
            target = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            rows.append([name, target or "-", str(counter.value)])
    return rows


def _run_metrics(args) -> int:
    if args.trace_file is None:
        _sample_live_metrics(max(1, args.samples),
                             [s for s in args.strategies.split(",") if s]
                             if args.strategies else None)
        source = f"live sample, {max(1, args.samples)} spawns per strategy"
    else:
        source = args.trace_file
    if args.json and args.trace_file is None:
        print(json.dumps(TELEMETRY.metrics.snapshot(), indent=2))
        return 0
    rows = (_metrics_rows_from_trace(args.trace_file)
            if args.trace_file else _metrics_rows_from_registry())
    if args.json:
        print(json.dumps([dict(zip(("strategy", "spawns", "failures",
                                    "p50", "p95", "p99"), row))
                          for row in rows], indent=2))
        return 0
    if not rows:
        print(f"no spawn events found ({source})")
        return 0
    print(render_table(
        ["strategy", "spawns", "failures", "p50", "p95", "p99"], rows,
        title=f"spawn launch latency ({source})"))
    if args.trace_file is None:
        resilience = _resilience_rows_from_registry()
        if resilience:
            print()
            print(render_table(["event", "target", "count"], resilience,
                               title="resilience events (retries, breaker "
                                     "trips, degradations)"))
    return 0


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "rows" not in data:
        raise ReproError(f"{path}: expected a JSON object with 'rows' "
                         f"(a baseline file or 'run --json' output)")
    return data


def _run_compare(args) -> int:
    """The bench regression gate: current vs committed baseline.

    Rows are matched on ``concurrency``; for each matched row the
    chosen metric must not fall more than ``tolerance`` below the
    baseline.  Being *faster* than baseline never fails the gate.
    """
    baseline = _load_json(args.baseline)
    current = _load_json(args.current)
    metric = args.metric or baseline.get("metric")
    if not metric:
        raise ReproError("no metric to compare: pass --metric or put a "
                         "'metric' field in the baseline")
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(baseline.get("tolerance", 0.30))
    if not 0 <= tolerance < 1:
        raise ReproError(f"tolerance must be in [0, 1): {tolerance}")
    current_rows = {row.get("concurrency"): row for row in current["rows"]}
    table = []
    failures = 0
    compared = 0
    for base_row in baseline["rows"]:
        key = base_row.get("concurrency")
        expect = base_row.get(metric)
        got_row = current_rows.get(key)
        if expect is None or got_row is None or got_row.get(metric) is None:
            continue
        compared += 1
        got = float(got_row[metric])
        floor = float(expect) * (1.0 - tolerance)
        ok = got >= floor
        failures += 0 if ok else 1
        table.append([str(key), f"{float(expect):.0f}", f"{got:.0f}",
                      f"{floor:.0f}", "ok" if ok else "REGRESSION"])
    if not compared:
        raise ReproError(
            f"nothing to compare: no shared rows carry {metric!r}")
    print(render_table(
        ["concurrency", "baseline", "current", "floor", "verdict"], table,
        title=f"{metric} vs {args.baseline} "
              f"(tolerance -{tolerance:.0%})"))
    if failures:
        print(f"FAIL: {failures}/{compared} rows regressed more than "
              f"{tolerance:.0%} below baseline", file=sys.stderr)
        return 1
    print(f"ok: {compared} rows within {tolerance:.0%} of baseline")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list" or args.command is None:
        print(f"{'id':14s} {'paper artifact':22s} title")
        for experiment in base.all_experiments():
            print(f"{experiment.experiment_id:14s} "
                  f"{experiment.paper_artifact:22s} {experiment.title}")
        return 0
    if args.command == "run":
        targets = ([e.experiment_id for e in base.all_experiments()]
                   if args.experiment == "all"
                   else [t for t in args.experiment.split(",") if t])
        if not targets:
            print("error: no experiment ids given", file=sys.stderr)
            return 2
        try:
            overrides = _parse_overrides(args.overrides)
            with _tracing(args.trace), _faulting(args.faults):
                if args.parallel:
                    _run_parallel(targets, args.quick, args.json, args.jobs,
                                  overrides)
                else:
                    _run_serial(targets, args.quick, args.json, overrides)
        except ReproError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        return 0
    if args.command == "compare":
        try:
            return _run_compare(args)
        except (ReproError, OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    if args.command == "metrics":
        try:
            return _run_metrics(args)
        except (ObsError, ReproError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
