"""Simulation wall-time: steady-state fast path vs the exact event loop.

Measures best-of-N :meth:`SpMTSimulator.run` per paper kernel (SMS and
TMS schedules of the table2/table3 golden population) at a long
iteration count, through the **default** vectorised/fast-forward path,
and compares the total against
``benchmarks/baselines/bench_sim_seed.json`` — the same measurement
through the **reference event loop** (``SimConfig(exact=True)``),
captured by ``scripts/regen_sim_golden.py --timing``.  Both paths
produce byte-identical ``SimStats`` (tests/test_sim_golden.py pins
that), so the ratio is pure overhead removed.

Standalone, for CI and local runs::

    PYTHONPATH=src python benchmarks/bench_sim.py --quick \
        --out obs/bench-sim.json

``--quick`` drops to a single repeat per kernel (CI-friendly; the
default best-of-3 smooths machine noise).  ``--exact`` measures the
reference loop instead — handy for re-deriving the baseline shape
without writing it.  Timings are machine-specific: speedups are only
meaningful against a baseline captured on the same machine, so the
script reports the ratio but never fails on it unless ``--min-speedup``
is given.

The report also carries ``work_counts``: the totals of the simulator's
deterministic work counters over one pass of the population (threads
the resolver ran, threads committed without it, cycle jumps, and
misspeculations).  They do not depend on the machine, so CI compares
them exactly against ``benchmarks/baselines/bench_sim_counts.json``; a
fast-path change that alters them must update that file in the same
commit.

Also collectable by the pytest-benchmark harness like its siblings::

    pytest benchmarks/bench_sim.py --benchmark-only -s
"""

from __future__ import annotations

import argparse
import json
import time
from contextlib import nullcontext
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "benchmarks" / "baselines" / "bench_sim_seed.json"

#: deterministic work counters totalled into the report's ``work_counts``.
WORK_COUNTERS = ("sim.resolved_threads", "sim.fastforward_threads",
                 "sim.fastforwards", "sim.violations")

#: population cap and workload matching the seed baseline.
MAX_LOOPS = 4
ITERATIONS = 20000
SEED = 0xACE5


def _pipelined_kernels():
    """(kernel-key, pipelined, arch) for every benchmarked simulation."""
    from repro.config import ArchConfig
    from repro.experiments.validate import suite_loops
    from repro.graph import build_ddg
    from repro.machine import LatencyModel, ResourceModel
    from repro.sched import run_postpass, schedule_sms, schedule_tms

    arch = ArchConfig.paper_default()
    resources = ResourceModel.default(arch.issue_width)
    latency = LatencyModel.for_arch(arch)
    out = []
    for _benchmark, loop in suite_loops(("table2", "table3"), MAX_LOOPS):
        ddg = build_ddg(loop, latency)
        for alg, sched in (("SMS", schedule_sms(ddg, resources)),
                           ("TMS", schedule_tms(ddg, resources, arch))):
            out.append((f"{loop.name}/{alg}",
                        run_postpass(sched, arch), arch))
    return out


def measure_sim(repeats: int = 3, *, exact: bool = False,
                iterations: int = ITERATIONS) -> dict:
    """Best-of-``repeats`` simulation seconds per kernel/schedule pair
    (the exact measurement behind the seed baseline when ``exact``),
    plus the work counters' totals over the first repeat."""
    from repro.config import SimConfig
    from repro.obs.aggregate import collecting
    from repro.spmt.sim import SpMTSimulator

    sim = SimConfig(iterations=iterations, seed=SEED, exact=exact)
    per_kernel = {}
    counts = dict.fromkeys(WORK_COUNTERS, 0)
    for key, pipelined, arch in _pipelined_kernels():
        best = float("inf")
        for rep in range(repeats):
            # the first repeat counts into fresh instruments
            with (collecting() if rep == 0 else nullcontext()) as task:
                start = time.perf_counter()
                SpMTSimulator(pipelined, arch, sim).run()
                best = min(best, time.perf_counter() - start)
            if task is not None:
                for name in WORK_COUNTERS:
                    counts[name] += task.registry.counter(name).value
        per_kernel[key] = best
    return {
        "max_loops": MAX_LOOPS,
        "iterations": iterations,
        "repeats": repeats,
        "mode": "exact" if exact else "fast",
        "total_seconds": sum(per_kernel.values()),
        "per_kernel_seconds": per_kernel,
        "work_counts": counts,
    }


def compare_to_baseline(result: dict,
                        baseline_path: Path = BASELINE) -> dict:
    """``result`` plus the exact-loop baseline comparison (speedup,
    slowest kernels), JSON-able."""
    report = dict(result)
    report["baseline_path"] = str(baseline_path)
    if not baseline_path.exists():
        report["baseline"] = None
        report["speedup_over_exact"] = None
        return report
    baseline = json.loads(baseline_path.read_text())
    report["baseline"] = {
        "total_seconds": baseline["total_seconds"],
        "repeats": baseline.get("repeats"),
        "iterations": baseline.get("iterations"),
        "max_loops": baseline.get("max_loops"),
    }
    total = result["total_seconds"]
    report["speedup_over_exact"] = (
        baseline["total_seconds"] / total if total > 0 else None)
    base_per = baseline.get("per_kernel_seconds", {})
    slowest = sorted(result["per_kernel_seconds"].items(),
                     key=lambda kv: kv[1], reverse=True)[:5]
    report["slowest_kernels"] = [
        {"kernel": k, "seconds": s, "exact_seconds": base_per.get(k)}
        for k, s in slowest
    ]
    return report


def render(report: dict) -> str:
    lines = [f"sim ({report['mode']}): {report['total_seconds']:.3f}s over "
             f"{len(report['per_kernel_seconds'])} kernel simulations "
             f"x {report['iterations']} iterations "
             f"(best of {report['repeats']})",
             "work: " + ", ".join(f"{name} {count}" for name, count
                                  in report["work_counts"].items())]
    if report.get("baseline"):
        lines.append(
            f"exact-loop baseline: "
            f"{report['baseline']['total_seconds']:.3f}s "
            f"-> {report['speedup_over_exact']:.2f}x speedup")
        for row in report.get("slowest_kernels", []):
            exact = (f"{row['exact_seconds']:.3f}s"
                     if row["exact_seconds"] is not None else "n/a")
            lines.append(f"  {row['kernel']}: {row['seconds']:.3f}s "
                         f"(exact {exact})")
    else:
        lines.append("exact-loop baseline missing; speedup not computed")
    return "\n".join(lines)


def test_bench_sim(benchmark):
    """pytest-benchmark entry: one quick fast-path pass, printed with -s."""
    result = benchmark.pedantic(measure_sim, kwargs={"repeats": 1},
                                rounds=1, iterations=1)
    report = compare_to_baseline(result)
    print("\n" + render(report))
    assert len(result["per_kernel_seconds"]) > 0
    assert result["total_seconds"] > 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="single repeat per kernel (CI mode)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="override repeats (default 3; --quick => 1)")
    parser.add_argument("--exact", action="store_true",
                        help="measure the reference event loop instead of "
                             "the fast path")
    parser.add_argument("--iterations", type=int, default=ITERATIONS)
    parser.add_argument("--baseline", default=BASELINE, type=Path)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless speedup over the exact-loop "
                             "baseline reaches this ratio (timings are "
                             "machine-specific; use only with a same-"
                             "machine baseline)")
    args = parser.parse_args()

    repeats = args.repeats if args.repeats is not None \
        else (1 if args.quick else 3)
    start = time.perf_counter()
    result = measure_sim(repeats=repeats, exact=args.exact,
                         iterations=args.iterations)
    result["quick"] = bool(args.quick)
    report = compare_to_baseline(result, Path(args.baseline))
    print(render(report))
    # one run-ledger record per invocation (no-op unless REPRO_LEDGER_DIR
    # is set); the report CLI renders/gates on these.
    import sys

    from repro.obs.ledger import append_run_record
    append_run_record(
        "bench_sim", sys.argv[1:],
        duration_seconds=time.perf_counter() - start,
        extra={"total_seconds": report["total_seconds"],
               "kernels": len(report["per_kernel_seconds"]),
               "iterations": report["iterations"],
               "mode": report["mode"],
               "repeats": report["repeats"],
               "speedup_over_exact": report.get("speedup_over_exact")})
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"[json report written to {out}]")
    if args.min_speedup is not None:
        speedup = report.get("speedup_over_exact")
        if speedup is None or speedup < args.min_speedup:
            print(f"FAIL: speedup {speedup} below --min-speedup "
                  f"{args.min_speedup}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
