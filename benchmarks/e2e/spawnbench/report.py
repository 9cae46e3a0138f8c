"""Plain-text tables, the environment fingerprint, and the trajectory view."""

from __future__ import annotations

import glob
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Sequence


def fingerprint(root: str) -> Dict[str, object]:
    """Where and on what these numbers were taken."""
    try:
        commit = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"git_commit": commit or "unknown",
            "python": sys.version.split()[0],
            "kernel": platform.release(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0]}


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.3g}"


def table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(str(cell)) for cell in column) for column in zip(headers, *rows)]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        # Words to the left, figures to the right.
        cells = [str(cell).ljust(w) if any(c.isalpha() for c in str(cell)) else str(cell).rjust(w)
                 for cell, w in zip(row, widths)]
        lines.append("  ".join(cells))
    return "\n".join(line.rstrip() for line in lines)


def metric_table(title: str, units: Dict[str, str], workloads: List[str],
                 values: Dict[str, Dict[str, float]], names: Sequence[str]) -> str:
    """One row per metric, one column per workload (``-`` where not reported)."""
    rows = []
    for name in names:
        cells = [fmt(values[w][name]) if name in values.get(w, {}) else "-" for w in workloads]
        rows.append([f"{name} [{units[name]}]"] + cells)
    return f"{title}\n" + table(["metric"] + workloads, rows)


def trajectory(results_dir: str, names: Sequence[str], units: Dict[str, str]) -> str:
    """Every ``BENCH_*.json`` under ``results_dir`` as one table, oldest first."""
    paths = sorted(glob.glob(os.path.join(results_dir, "BENCH_*.json")),
                   key=lambda p: (len(os.path.basename(p)), p))
    if not paths:
        return f"no BENCH_*.json under {results_dir}"
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    labels = [str(doc.get("label", "?")) for doc in docs]
    rows = []
    for workload in docs[-1]["workloads"]:
        for name in names:
            cells = []
            for doc in docs:
                value = doc["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
                cells.append("-" if value is None else fmt(value))
            rows.append([f"{workload}.{name} [{units[name]}]"] + cells)
    header = "trajectory: " + ", ".join(
        f"{label} = {doc['env']['git_commit']}" for label, doc in zip(labels, docs))
    return header + "\n" + table(["workload.metric"] + labels, rows)
