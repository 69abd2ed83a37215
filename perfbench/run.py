"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fd-64 --seed 1 --seconds 30 --trace 0

``--trace 0`` runs ``--workload`` for about ``--seconds`` and prints the
end-to-end metrics; ``--trace 1`` runs the traced pass of every workload,
``plan-16k`` included, and prints the per-layer metrics (see
``perfbench/README.md``).  Metric names and units come from
``BENCHMARK.json``.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 1 when any output failed its check, 2 when the program cannot be
imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_PROBES = 5


def _import_workloads():
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    return workloads


def setup_probe(workload: str, seed: int) -> None:
    """Print the seconds from a cold interpreter to a ready workload."""
    t0 = time.perf_counter()
    workloads = _import_workloads()
    workloads.WORKLOADS[workload](seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def setup_seconds(workload: str, seed: int) -> float:
    """Median cold start over :data:`SETUP_PROBES` fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(2)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def end_to_end(workload: str, seed: int, seconds: float):
    setup_s = setup_seconds(workload, seed)
    workloads = _import_workloads()
    ops = workloads.WORKLOADS[workload](seed).ops(seconds)
    times = [op.seconds for op in ops]
    metrics = {
        "op_s": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, len(ops), sum(not op.ok for op in ops)


def traced():
    _import_workloads()
    import tracing

    metrics: dict = {}
    checks: list[bool] = []
    for trace in tracing.TRACES:
        m, c = trace(tracing.SEED)
        metrics.update(m)
        checks += c
    return metrics, len(checks), checks.count(False)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values, attempted, failed = traced()
    else:
        values, attempted, failed = end_to_end(args.workload, args.seed, args.seconds)
    names = [d["name"] for d in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(values))}, "
            f"undeclared {sorted(set(values) - set(names))}"
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": float(values[d["name"]]), "unit": d["unit"]}
                    for d in declared},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
