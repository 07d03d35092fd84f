"""End-to-end benchmark of the PAO flow, timed layer by layer.

Run from the repository root, with no install step::

    python3 flowbench/run.py --workload flow_route --seed 1 \\
        --seconds 25 --trace 0

The workload's set-up, measured passes and output checks all run in
this one process (jobs=1, no AP cache, no forks).  The program is
imported from ``src/`` next to this directory.  Every metric measured
is printed as ``name value unit``; the last line of standard output is
one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

whose metrics are the ``end_to_end`` entries of ``BENCHMARK.json``
with ``--trace 0`` and its ``per_layer`` entries with ``--trace 1`` (a
layer the workload does not run reports 0).  A traced run also writes
its spans to ``flowbench/out/<workload>-seed<N>.trace.json``.

Exit codes: 0 when every check passed; 1 when a check failed (the
JSON line still prints, with ``correct`` false), the workload raised,
or the wall-clock guard expired; 2 when the program or
``BENCHMARK.json`` cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
#: Every run must end within 180 s; the guard leaves room to report.
GUARD_S = 170
MAX_REPORTED_FAILURES = 20


class GuardExpired(Exception):
    """The run outlived its wall-clock guard."""


def _on_alarm(signum, frame):
    raise GuardExpired(f"still running after {GUARD_S} s")


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _error(message: str) -> None:
    print(f"flowbench: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        _error(f"cannot read BENCHMARK.json: {exc}")
        return 2
    args = _parse_args(argv, [w["name"] for w in spec["workloads"]])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        _error(f"cannot import the program from {ROOT}/src: {exc}")
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(GUARD_S)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), OUT_DIR
        )
    except GuardExpired as exc:
        _error(f"workload {args.workload}: check wall-clock guard: {exc}")
        return 1
    except Exception:  # noqa: BLE001 -- report which workload broke
        traceback.print_exc()
        _error(f"workload {args.workload}: raised before its checks completed")
        return 1
    finally:
        signal.alarm(0)
    # ru_maxrss is in KiB on Linux.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outcome.metrics["peak_rss_mb"] = peak_kib / 1024.0
    return _report(args, spec, outcome)


def _report(args, spec, outcome) -> int:
    catalogue = spec["end_to_end"] + spec["per_layer"]
    units = {m["name"]: m["unit"] for m in catalogue}
    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = [
        m["name"]
        for m in spec["end_to_end"]
        if m["name"] not in outcome.metrics
    ]
    if missing:
        raise KeyError(f"workload {args.workload} did not measure {missing}")

    failed = len(outcome.failures)
    print(
        f"flowbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    for name in sorted(outcome.metrics):
        print(f"  {name:<26} {outcome.metrics[name]:.6g} {units[name]}")
    print(f"  {'error_rate':<26} {failed / max(1, outcome.attempted):.6g}")
    for check, detail in outcome.failures[:MAX_REPORTED_FAILURES]:
        _error(f"workload {args.workload}: check {check} failed: {detail}")

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {
                "value": outcome.metrics.get(m["name"], 0),
                "unit": m["unit"],
            }
            for m in chosen
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
