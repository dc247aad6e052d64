#!/usr/bin/env python
"""Render the perf trajectory and diff it for regressions.

``BENCH_trajectory.json`` accumulates one entry per PR/run (see
``repro.eval.runtime.run_perf_trajectory``).  This script turns that artifact
into a per-kernel speedup-over-time view and, with ``--check``, fails when the
latest entry regresses a kernel's speedup by more than the tolerance against
the previous entry at the same benchmark config — the trajectory's regression
gate, run by CI after the benchmarks append the current revision's sample.

Usage::

    python benchmarks/plot_trajectory.py                 # render the chart
    python benchmarks/plot_trajectory.py --check         # exit 1 on >20% drop
    python benchmarks/plot_trajectory.py --check --tolerance 0.35

Speedup ratios (reference over fast path on the *same* host and run) are far
more machine-stable than raw milliseconds, which is why the gate compares
speedups, not latencies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

_DEFAULT_ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_trajectory.json"
)

#: A kernel regresses when its speedup drops below (1 - tolerance) times the
#: previous entry's speedup.  0.2 == "fail on >20% regressions".
DEFAULT_TOLERANCE = 0.2

_BAR_WIDTH = 40


def load_trajectory(path: str) -> Dict:
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        raise ValueError(f"{path} is not a perf-trajectory artifact")
    return payload


def host_tag(entry: Dict) -> str:
    """One-line summary of the host an entry was measured on ("" if unrecorded)."""
    host = entry.get("host")
    if not host:
        return ""
    threads = " ".join(
        f"{key}={host.get(key) or '-'}" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    )
    return (
        f"{host.get('cpu_count')} cpu {host.get('machine')}, py {host.get('python')}, "
        f"numpy {host.get('numpy')}, scipy {host.get('scipy')}, {threads}"
    )


def _series(payload: Dict) -> Dict[str, List[Tuple[str, float, bool, str]]]:
    """Per-kernel list of (entry label, speedup, equivalent, host) in entry order."""
    series: Dict[str, List[Tuple[str, float, bool, str]]] = {}
    for entry in payload["entries"]:
        for kernel in entry.get("kernels", []):
            series.setdefault(kernel["name"], []).append(
                (
                    entry.get("label", "unlabeled"),
                    float(kernel.get("speedup", 0.0)),
                    bool(kernel.get("equivalent", False)),
                    host_tag(entry),
                )
            )
    return series


def render(payload: Dict) -> str:
    """ASCII chart: one bar row per (kernel, entry), scaled per kernel."""
    lines: List[str] = []
    for name, points in _series(payload).items():
        lines.append(f"{name}:")
        top = max((speedup for _, speedup, _, _ in points), default=1.0) or 1.0
        for label, speedup, equivalent, host in points:
            bar = "#" * max(int(round(_BAR_WIDTH * speedup / top)), 1)
            flag = "" if equivalent else "  !! NOT EQUIVALENT"
            host = f"  [{host}]" if host else ""
            lines.append(f"  {label:>10}  {speedup:7.2f}x  |{bar:<{_BAR_WIDTH}}|{flag}{host}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def find_regressions(
    payload: Dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """Regression messages for the latest entry vs its predecessor.

    Compares each kernel's speedup in the newest entry against the most
    recent *earlier* entry recorded at the same benchmark config (entries
    without a config field all predate config tagging and match any).
    Kernels present in only one of the two entries are skipped — a kernel
    appearing (new fast path) or disappearing (machine-gated, e.g.
    ``sharded_eval`` below 4 cores) is not a regression.  A non-equivalent
    kernel in the latest entry always fails: broken numerics outrank any
    speedup.
    """
    entries = payload["entries"]
    if not entries:
        return []
    latest = entries[-1]
    problems: List[str] = []
    for kernel in latest.get("kernels", []):
        if not kernel.get("equivalent", False):
            problems.append(f"{kernel['name']}: latest entry is NOT equivalent")

    config = latest.get("config")
    previous: Optional[Dict] = None
    for entry in reversed(entries[:-1]):
        if config is None or entry.get("config", config) == config:
            previous = entry
            break
    if previous is None:
        return problems

    earlier = {kernel["name"]: kernel for kernel in previous.get("kernels", [])}
    for kernel in latest.get("kernels", []):
        name = kernel["name"]
        if name not in earlier:
            continue
        old = float(earlier[name].get("speedup", 0.0))
        new = float(kernel.get("speedup", 0.0))
        if old > 0 and new < old * (1.0 - tolerance):
            problems.append(
                f"{name}: speedup fell {old:.2f}x -> {new:.2f}x "
                f"({(1 - new / old) * 100:.0f}% drop, tolerance "
                f"{tolerance * 100:.0f}%) vs entry '{previous.get('label')}'"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "path",
        nargs="?",
        default=os.environ.get("BENCH_TRAJECTORY_JSON", _DEFAULT_ARTIFACT),
        help="trajectory artifact (default: BENCH_trajectory.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if the latest entry regresses any kernel",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional speedup drop before --check fails (default 0.2)",
    )
    args = parser.parse_args(argv)

    payload = load_trajectory(args.path)
    print(render(payload), end="")

    if not args.check:
        return 0
    problems = find_regressions(payload, tolerance=args.tolerance)
    if problems:
        print("\nPerf trajectory regressions:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("\nNo perf regressions against the previous trajectory entry.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
