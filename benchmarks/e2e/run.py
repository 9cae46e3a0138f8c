#!/usr/bin/env python3
"""The spawn-path benchmark: six workloads, end-to-end + per-layer budget.

Contract mode (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/e2e/run.py --workload wire_seq --seed 7 --seconds 18 --trace 0

prints a few human-readable lines and, last, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, every per-layer metric with ``--trace 1``.

Set mode (no ``--workload``) runs all six and prints every metric by name::

    python3 benchmarks/e2e/run.py --seed 7 [--traced] [--smoke] [--repeat N] [--label 11]
    python3 benchmarks/e2e/run.py --aa          # two sets of --repeat 3 vs the bounds
    python3 benchmarks/e2e/run.py --list        # names + units
    python3 benchmarks/e2e/run.py trajectory    # all results/BENCH_*.json as one table

Every measurement runs in a fresh, session-leading child interpreter of
this driver; the driver itself never imports ``repro``.
"""

from __future__ import annotations

import time

_ENTERED = time.perf_counter()  # the child's setup clock starts before any heavy import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from spawnbench import catalog, report, stats  # noqa: E402

SETUP_RUNS = 3
#: Seconds a child may take beyond its measured time (boots, probes, teardown).
CHILD_SLACK = 150


def load_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

def child_main(args) -> int:
    sys.path.insert(0, SRC)
    from spawnbench.runner import WARMUP_OPS, run_workload
    result = run_workload(args.workload, args.seed, args.seconds, trace=bool(args.trace),
                          results_dir=RESULTS, started=_ENTERED, setup_only=args.setup_only,
                          warmup=args.warmup if args.warmup is not None else WARMUP_OPS)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------

class WorkloadFailed(Exception):
    pass


def _reap_session(pgid: int) -> None:
    """Kill whatever the child interpreter left in its session and wait for it to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    limit = time.monotonic() + 5
    while time.monotonic() < limit:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def run_child(workload: str, seed: int, seconds: float, trace: int, *,
              setup_only: bool = False, warmup=None) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--child", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    if warmup is not None:
        command += ["--warmup", str(warmup)]
    proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            start_new_session=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=seconds + CHILD_SLACK)
    except subprocess.TimeoutExpired:
        _reap_session(proc.pid)
        proc.wait()
        raise WorkloadFailed(f"{workload}: no result within {seconds + CHILD_SLACK:.0f} s")
    finally:
        _reap_session(proc.pid)
    if proc.returncode != 0:
        raise WorkloadFailed(f"{workload}: child exited with {proc.returncode}")
    try:
        return json.loads(stdout.decode().strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise WorkloadFailed(f"{workload}: unreadable child report ({exc})")


def measure(workload: str, seed: int, seconds: float, trace: int, *,
            setup_runs: int = SETUP_RUNS, warmup=None) -> dict:
    """One measurement of one workload: the child's report, ``setup_s`` made a median."""
    setups = []
    if not trace:
        for _ in range(setup_runs - 1):
            extra = run_child(workload, seed, seconds, trace, setup_only=True, warmup=warmup)
            if not extra["correct"]:
                raise WorkloadFailed(f"{workload}: setup-only run failed: {extra}")
            setups.append(extra["setup_s"])
    result = run_child(workload, seed, seconds, trace, warmup=warmup)
    if "metrics" not in result:
        raise WorkloadFailed(f"{workload}: {result['failed']} of {result['attempted']} ops "
                             f"failed: {result.get('errors')}")
    if not trace:
        setups.append(result["setup_s"])
        result["setup_runs"] = setups
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def describe(result: dict, trace: int) -> str:
    names = [m.name for m in (catalog.PER_LAYER if trace else catalog.END_TO_END)]
    rows = [[f"{name} [{catalog.UNITS[name]}]", report.fmt(result["metrics"][name])]
            for name in names if result["metrics"][name] or not trace]
    rows += [[f"({name} [{catalog.UNITS[name]}])", report.fmt(value)]
             for name, value in result.get("absolute", {}).items() if value]
    head = (f"{result['workload']} seed={result['seed']} callers={result['callers']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            f"samples={result['samples']} leaked_procs={result['leaked_procs']} "
            f"leaked_fds={result['leaked_fds']} setup_wall_s={result['setup_wall_s']:.3f} "
            f"correct={result['correct']}")
    return head + "\n" + report.table(["metric", "value"], rows)


def contract_main(args) -> int:
    """``--workload W --seed S --seconds N --trace T``: one result line, last."""
    result = measure(args.workload, args.seed, args.seconds, args.trace, warmup=args.warmup)
    print(describe(result, args.trace))
    if result.get("errors"):
        print("errors:", result["errors"], file=sys.stderr)
    line = {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {name: {"value": value, "unit": catalog.UNITS[name]}
                        for name, value in result["metrics"].items()}}
    print(json.dumps(line))
    return 0


# -- set mode -----------------------------------------------------------------

def run_set(seed: int, seconds: float, traced: bool, *, setup_runs: int, warmup) -> dict:
    """All workloads once: ``{workload: {end_to_end, per_layer, ...}}``."""
    out = {}
    for workload in catalog.workload_names():
        print(f"[{workload}] seed={seed} seconds={seconds:g}", file=sys.stderr, flush=True)
        plain = measure(workload, seed, seconds, 0, setup_runs=setup_runs, warmup=warmup)
        entry = {"end_to_end": plain["metrics"], "absolute": plain["absolute"],
                 "samples": plain["samples"],
                 "attempted": plain["attempted"], "failed": plain["failed"],
                 "leaked_procs": plain["leaked_procs"], "leaked_fds": plain["leaked_fds"],
                 "correct": plain["correct"], "callers": plain["callers"]}
        if traced:
            layered = measure(workload, seed, seconds, 1, warmup=warmup)
            entry["per_layer"] = layered["metrics"]
            entry["correct"] = entry["correct"] and layered["correct"]
            entry["spans_written"] = layered["spans_written"]
        out[workload] = entry
    return out


def median_set(sets: list) -> dict:
    """Per workload and metric, the median over repeated sets plus the quartile spread."""
    merged = {}
    for workload in sets[0]:
        entry = dict(sets[-1][workload])
        for group in ("end_to_end", "absolute", "per_layer"):
            if group not in entry:
                continue
            names = entry[group].keys()
            columns = {name: [s[workload][group][name] for s in sets] for name in names}
            entry[group] = {name: statistics.median(values) for name, values in columns.items()}
            if group == "end_to_end" and len(sets) >= 4:
                entry["spread"] = {name: stats.quartile_spread(values)
                                   for name, values in columns.items()}
        entry["correct"] = all(s[workload]["correct"] for s in sets)
        merged[workload] = entry
    return merged


def print_set(workloads: dict, traced: bool) -> None:
    names = list(workloads)
    e2e = {w: workloads[w]["end_to_end"] for w in names}
    print(report.metric_table("end-to-end (untraced run; gated)", catalog.UNITS, names, e2e,
                              [m.name for m in catalog.END_TO_END]))
    wall = {w: workloads[w]["absolute"] for w in names}
    shown = [name for name in wall[names[0]] if any(wall[w][name] for w in names)]
    print("\n" + report.metric_table("the same run, reported but not gated (wall clock)",
                                     catalog.UNITS, names, wall, shown))
    rows = [[w, workloads[w]["callers"], workloads[w]["attempted"], workloads[w]["failed"],
             workloads[w]["samples"]["block"], workloads[w]["samples"]["timed"],
             workloads[w]["leaked_procs"], workloads[w]["leaked_fds"], workloads[w]["correct"]]
            for w in names]
    print("\n" + report.table(["workload", "callers", "attempted", "failed", "n_block",
                               "n_timed", "leaked_procs", "leaked_fds", "correct"], rows))
    if any("spread" in workloads[w] for w in names):
        spread = {w: workloads[w].get("spread", {}) for w in names}
        print("\n" + report.metric_table("quartile spread / median over the repeats",
                                         catalog.UNITS, names, spread,
                                         [m.name for m in catalog.END_TO_END]))
    if traced:
        layers = {w: {k: v for k, v in workloads[w]["per_layer"].items() if v}
                  for w in names}
        shown = [m.name for m in catalog.PER_LAYER if any(m.name in layers[w] for w in names)]
        print("\n" + report.metric_table("per-layer (traced run; '-' = layer not exercised)",
                                         catalog.UNITS, names, layers, shown))


def repeated_sets(args, repeat: int, first_seed: int) -> dict:
    sets = [run_set(first_seed + i, args.seconds, args.traced, setup_runs=args.setup_runs,
                    warmup=args.warmup)
            for i in range(repeat)]
    return median_set(sets) if repeat > 1 else sets[0]


def set_main(args) -> int:
    env = report.fingerprint(ROOT)
    noisy = env["loadavg_1m"] > env["nproc"]
    workloads = repeated_sets(args, args.repeat, args.seed)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    doc = {"schema": 1, "label": args.label, "claim": None, "env": env, "seed": args.seed,
           "seconds": args.seconds, "repeat": args.repeat, "noisy": noisy,
           "workloads": workloads}
    print_set(workloads, args.traced)
    print(f"\nenv: {json.dumps(env)}" + ("  ** noisy: loadavg > nproc at start **"
                                         if noisy else ""))
    os.makedirs(RESULTS, exist_ok=True)
    name = f"BENCH_{args.label}.json" if args.label else "last.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(os.path.join(RESULTS, name))}")
    return 0 if all(w["correct"] for w in workloads.values()) else 1


def aa_main(args) -> int:
    """Two sets of ``--repeat`` runs of the same code; medians must agree within bounds."""
    declared = {m["name"]: m for m in load_benchmark_json()["end_to_end"]}
    repeat = max(args.repeat, 3)
    first = repeated_sets(args, repeat, args.seed)
    second = repeated_sets(args, repeat, args.seed + repeat)
    rows, disagree = [], 0
    for workload in first:
        for name, spec in declared.items():
            a = first[workload]["end_to_end"][name]
            b = second[workload]["end_to_end"][name]
            worse = max(stats.worse_by(a, b, spec["better"]), stats.worse_by(b, a, spec["better"]))
            verdict = "ok" if worse <= spec["bound"] else "DISAGREE"
            disagree += verdict != "ok"
            rows.append([f"{workload}.{name}", report.fmt(a), report.fmt(b),
                         f"{worse:.3f}", f"{spec['bound']:.2f}", verdict])
    print(report.table(["workload.metric", "set A", "set B", "worse by", "bound", ""], rows))
    return 1 if disagree else 0


def list_main() -> int:
    print(report.table(["workload", "why"], [[w.name, w.why] for w in catalog.WORKLOADS]))
    for title, metrics in (("end-to-end", catalog.END_TO_END), ("per-layer", catalog.PER_LAYER)):
        print(f"\n{title} metrics")
        print(report.table(["name", "unit", "better", "should move"],
                           [[m.name, m.unit, m.better, m.moves or "-"] for m in metrics]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", nargs="?", choices=["trajectory"],
                        help="'trajectory' renders results/BENCH_*.json as one table")
    parser.add_argument("--workload", choices=catalog.workload_names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", "--duration", type=float, default=None,
                        help="timed-phase length per workload (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_true",
                        help="set mode: add a traced run per workload (layer table + spans)")
    parser.add_argument("--smoke", action="store_true", help="1 s per workload, light setup")
    parser.add_argument("--repeat", type=int, default=1, help="set mode: sets to take medians of")
    parser.add_argument("--aa", action="store_true", help="two repeated sets vs the bounds")
    parser.add_argument("--label", help="write results/BENCH_<label>.json (set mode)")
    parser.add_argument("--list", action="store_true", help="names and units, then exit")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--warmup", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.list:
        return list_main()
    if args.mode == "trajectory":
        print(report.trajectory(RESULTS, [m.name for m in catalog.END_TO_END], catalog.UNITS))
        return 0
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: no repro package under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    args.setup_runs = SETUP_RUNS
    if args.smoke:
        args.seconds, args.setup_runs, args.warmup = 1.0, 1, 20
    if args.seconds is None:
        args.seconds = float(load_benchmark_json()["run_seconds"])
    if args.child:
        return child_main(args)
    try:
        if args.workload:
            return contract_main(args)
        if args.aa:
            return aa_main(args)
        return set_main(args)
    except WorkloadFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
