"""The simulator's benchmark: one workload, end to end or layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 30 --trace 0

A run of a workload is a few sub-runs, each the workload at its own
seed (``specs.sub_seeds``) in a fresh process (``child.py``).
``--trace 0`` makes one pass over the sub-runs, then more passes while
another fits in ``--seconds``, and reports the end-to-end metrics: host
figures scaled to a nominal host (``probe.py``) and taken as medians,
simulated figures pooled over the sub-runs.  ``--trace 1`` runs the first sub-run once
untraced and once traced and reports the traced run's per-layer ledger,
with the tracing overhead.

Every run is checked (``outcome.check``) and every repeat of a sub-run
must reproduce its simulated digest; a failed check, a changed digest
or a crash counts all of that run's queries as failed.  The last line
of output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import outcome  # noqa: E402
from specs import WORKLOADS, sub_seeds  # noqa: E402

#: end-to-end metrics and their units, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_p50_s", "s"),
    ("sim_latency_tail_s", "s"),
    ("sim_goodput_qps", "1/s"),
    ("sim_served_ratio", "ratio"),
)

#: the whole benchmark ends within this many seconds, stuck runs included.
DEADLINE_S = 170.0


def run_child(workload: str, seed: int, size: str, traced: bool, deadline: float) -> dict:
    """One run in a fresh interpreter, stopped at the ``time.monotonic()``
    instant ``deadline``; its report, or a failure report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return {"ok": False, "offered": 0, "problems": ["out of time before the run"]}
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        workload,
        str(seed),
        size,
        "1" if traced else "0",
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining, text=True
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "offered": 0, "problems": ["run timed out"]}
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {
            "ok": False,
            "offered": 0,
            "problems": [f"run exited {done.returncode} without a report"],
        }


def provenance(seed: int) -> dict:
    """Where and on what a result was measured."""
    sources = hashlib.sha256()
    for folder, _dirs, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                sources.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    sources.update(handle.read())
    commit = ""
    # Only this checkout's own history: a checkout copied inside another
    # repository must not report that repository's commit.
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = ""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit or "unknown (not a git checkout)",
        "sources_sha256": sources.hexdigest()[:16],
        "seed": seed,
    }


def judge(reports: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over ``{sub-seed: [report, ...]}``.

    A report that fails its check or crashes fails all its queries; so
    do all repeats of a sub-seed whose simulated digests disagree.
    """
    attempted = failed = 0
    problems = []
    for sub_seed, repeats in reports.items():
        offered = max(r["offered"] for r in repeats)
        attempted += offered * len(repeats)
        digests = {r["digest"] for r in repeats if r["ok"]}
        if len(digests) > 1:
            failed += offered * len(repeats)
            problems.append(f"seed {sub_seed}: repeats disagree, digests {sorted(digests)}")
            continue
        for index, report in enumerate(repeats):
            if not report["ok"]:
                failed += offered
                problems.extend(f"seed {sub_seed} run {index}: {p}" for p in report["problems"])
    return max(attempted, 1), failed, problems


def measure(workload: str, seed: int, seconds: float, size: str, deadline: float) -> dict:
    """Untraced passes over the run's sub-runs: one, then more while
    another fits in ``seconds``.  Returns ``{sub-seed: [report, ...]}``."""
    seeds = sub_seeds(workload, seed, size)
    reports: dict = {s: [] for s in seeds}
    start = time.perf_counter()
    passes = 0
    while True:
        for sub_seed in seeds:
            reports[sub_seed].append(run_child(workload, sub_seed, size, False, deadline))
        passes += 1
        elapsed = time.perf_counter() - start
        failed = any(not r["ok"] for repeats in reports.values() for r in repeats)
        if failed or elapsed * (passes + 1) / passes > seconds:
            return reports


def end_to_end(reports: dict, beyond: int, scale: bool = True) -> dict:
    """The end-to-end metrics of a run whose every report passed.

    Host figures, scaled to the nominal host unless ``scale`` is false,
    are medians over each sub-run's repeats, then medians over the
    sub-runs: the host's speed also changes in episodes of seconds, and
    a median ignores the sub-runs one falls on.  Simulated figures pool
    the sub-runs' completions.
    """

    key = "host" if scale else "measured"

    def host(name):
        return statistics.median(
            statistics.median(r[key][name] for r in repeats) for repeats in reports.values()
        )

    metrics = {name: host(name) for name, _unit in END_TO_END[:4]}
    metrics.update(outcome.simulated([repeats[0]["sim"] for repeats in reports.values()], beyond))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: the self-test's quick inputs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    info = provenance(args.seed)
    print("provenance: " + json.dumps(info, sort_keys=True))
    if args.trace:
        first = sub_seeds(args.workload, args.seed, args.size)[0]
        reports = {first: [
            run_child(args.workload, first, args.size, False, deadline),
            run_child(args.workload, first, args.size, True, deadline),
        ]}
    else:
        reports = measure(args.workload, args.seed, args.seconds, args.size, deadline)
    attempted, failed, problems = judge(reports)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if failed:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    runs = sum(len(repeats) for repeats in reports.values())
    digests = " ".join(f"{s}:{repeats[0]['digest']}" for s, repeats in reports.items())
    print(f"workload {args.workload}: {runs} runs, seed:digest {digests}")
    out = {}
    if args.trace:
        untraced, traced = next(iter(reports.values()))
        layers = dict(traced["layers"])
        traced_s, untraced_s = traced["measured"]["wall_s"], untraced["measured"]["wall_s"]
        layers["trace_overhead_s"] = (traced_s - untraced_s, "s")
        print(f"  traced wall {traced_s:.3f} s, untraced {untraced_s:.3f} s")
        for name, (value, unit) in layers.items():
            print(f"  {name:34s} {value:>16.6g} {unit}")
            out[name] = {"value": value, "unit": unit}
        print("  spans (calls, inclusive s, self s):")
        for name, (calls, total, own) in traced["spans"].items():
            print(f"    {name:32s} {calls:>8d} {total:>12.6f} {own:>12.6f}")
    else:
        beyond = outcome.TAIL_BEYOND if args.size == "full" else 1
        metrics = end_to_end(reports, beyond)
        measured = end_to_end(reports, beyond, scale=False)
        print("  host figures on the nominal host (measured on this one):")
        for name, unit in END_TO_END:
            note = ""
            if name in ("setup_s", "wall_s", "queries_per_s"):
                note = f"  (measured {measured[name]:.6g})"
            if name == "sim_latency_tail_s":
                note = (f"  (p{metrics['tail_percentile']:.3f} of "
                        f"{metrics['tail_samples']} completions)")
            print(f"  {name:20s} {metrics[name]:>16.6g} {unit}{note}")
            out[name] = {"value": metrics[name], "unit": unit}
        print(f"  {'sim_refused_ratio':20s} {metrics['sim_refused_ratio']:>16.6g} ratio")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
