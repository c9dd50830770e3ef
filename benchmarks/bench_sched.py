"""Cold TMS scheduling wall-time: unified engine vs the seed baseline.

Measures the same thing ``scripts/regen_sched_golden.py --timing`` does —
best-of-N cold ``ThreadSensitiveScheduler.schedule()`` per synthetic
SPECfp kernel, fresh scheduler each run, no session cache — and compares
the total against ``benchmarks/baselines/bench_sched_seed.json`` (captured
from the pre-engine implementation on the same population).

Standalone, for CI and local runs::

    PYTHONPATH=src python benchmarks/bench_sched.py --quick \
        --out obs/bench-sched.json

``--quick`` drops to a single repeat per kernel (CI-friendly; the default
best-of-3 smooths scheduler-external noise).  Timings are
machine-specific: speedups are only meaningful against a baseline
captured on the same machine, so the script reports the ratio but never
fails on it unless ``--min-speedup`` is given.  The committed seed
baseline comes from another machine, so its ratio is labelled
cross-machine.  ``us_per_probe`` (TMS seconds per
``sched.engine.slot_probes``) is the same-job rate: it moves when the
cost of one slot probe changes, whatever the search does.

The report also carries ``work_counts``: the totals of the search's
deterministic work counters over one pass of the population (placements
attempted, candidates pruned by each rule, slots probed, and the probes
rejected by C1 and by C2).  They do not
depend on the machine, so CI compares them exactly against
``benchmarks/baselines/bench_sched_counts.json``; a placement or pruning
change that alters them must update that file in the same commit.

Also collectable by the pytest-benchmark harness like its siblings::

    pytest benchmarks/bench_sched.py --benchmark-only -s
"""

from __future__ import annotations

import argparse
import json
import time
from contextlib import nullcontext
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "benchmarks" / "baselines" / "bench_sched_seed.json"

#: deterministic work counters totalled into the report's ``work_counts``.
WORK_COUNTERS = ("tms.candidates", "tms.pruned_bound",
                 "tms.pruned_certificate", "sched.engine.slot_probes",
                 "tms.probes_c1_rejected", "tms.probes_c2_rejected")

#: population cap matching the golden file and the seed baseline.
MAX_LOOPS = 4


def measure_cold_tms(repeats: int = 3) -> dict:
    """Best-of-``repeats`` cold TMS schedule seconds per synthetic-SPECfp
    kernel (the exact measurement behind the seed baseline), plus the
    work counters' totals over the first repeat."""
    from repro.config import ArchConfig
    from repro.experiments.validate import suite_loops
    from repro.graph import build_ddg
    from repro.machine import LatencyModel, ResourceModel
    from repro.obs.aggregate import collecting
    from repro.sched.tms import ThreadSensitiveScheduler

    arch = ArchConfig.paper_default()
    resources = ResourceModel.default(arch.issue_width)
    latency = LatencyModel.for_arch(arch)
    per_kernel = {}
    counts = dict.fromkeys(WORK_COUNTERS, 0)
    for _benchmark, loop in suite_loops(("table2",), MAX_LOOPS):
        ddg = build_ddg(loop, latency)
        best = float("inf")
        for rep in range(repeats):
            # the first repeat counts into fresh instruments
            with (collecting() if rep == 0 else nullcontext()) as task:
                start = time.perf_counter()
                ThreadSensitiveScheduler(ddg, resources, arch).schedule()
                best = min(best, time.perf_counter() - start)
            if task is not None:
                for name in WORK_COUNTERS:
                    counts[name] += task.registry.counter(name).value
        per_kernel[loop.name] = best
    total = sum(per_kernel.values())
    probes = counts["sched.engine.slot_probes"]
    return {
        "max_loops": MAX_LOOPS,
        "repeats": repeats,
        "total_seconds": total,
        "us_per_probe": total * 1e6 / probes if probes else None,
        "per_kernel_seconds": per_kernel,
        "work_counts": counts,
    }


def compare_to_baseline(result: dict,
                        baseline_path: Path = BASELINE) -> dict:
    """``result`` plus the seed-baseline comparison (speedup, slowest
    kernels), JSON-able."""
    report = dict(result)
    report["baseline_path"] = str(baseline_path)
    if not baseline_path.exists():
        report["baseline"] = None
        report["speedup_over_seed"] = None
        return report
    baseline = json.loads(baseline_path.read_text())
    report["baseline"] = {
        "total_seconds": baseline["total_seconds"],
        "repeats": baseline.get("repeats"),
        "max_loops": baseline.get("max_loops"),
    }
    total = result["total_seconds"]
    report["speedup_over_seed"] = (
        baseline["total_seconds"] / total if total > 0 else None)
    base_per = baseline.get("per_kernel_seconds", {})
    slowest = sorted(result["per_kernel_seconds"].items(),
                     key=lambda kv: kv[1], reverse=True)[:5]
    report["slowest_kernels"] = [
        {"kernel": k, "seconds": s, "seed_seconds": base_per.get(k)}
        for k, s in slowest
    ]
    return report


def render(report: dict) -> str:
    per_probe = report.get("us_per_probe")
    lines = [f"cold TMS: {report['total_seconds']:.3f}s over "
             f"{len(report['per_kernel_seconds'])} kernels "
             f"(best of {report['repeats']})"
             + (f", {per_probe:.3f} us per slot probe"
                if per_probe is not None else ""),
             "work: " + ", ".join(f"{name} {count}" for name, count
                                  in report["work_counts"].items())]
    if report.get("baseline"):
        lines.append(
            f"seed baseline: {report['baseline']['total_seconds']:.3f}s "
            f"-> {report['speedup_over_seed']:.2f}x speedup (cross-machine: "
            f"the baseline was captured on another host)")
        for row in report.get("slowest_kernels", []):
            seed = (f"{row['seed_seconds']:.3f}s"
                    if row["seed_seconds"] is not None else "n/a")
            lines.append(f"  {row['kernel']}: {row['seconds']:.3f}s "
                         f"(seed {seed})")
    else:
        lines.append("seed baseline missing; speedup not computed")
    return "\n".join(lines)


def test_bench_sched(benchmark):
    """pytest-benchmark entry: one quick cold pass, printed with -s."""
    result = benchmark.pedantic(measure_cold_tms, kwargs={"repeats": 1},
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
    parser.add_argument("--baseline", default=BASELINE, type=Path)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless speedup over the seed baseline "
                             "reaches this ratio (timings are machine-"
                             "specific; use only with a same-machine "
                             "baseline)")
    args = parser.parse_args()

    repeats = args.repeats if args.repeats is not None \
        else (1 if args.quick else 3)
    start = time.perf_counter()
    result = measure_cold_tms(repeats=repeats)
    result["quick"] = bool(args.quick)
    report = compare_to_baseline(result, Path(args.baseline))
    print(render(report))
    # one run-ledger record per invocation (no-op unless REPRO_LEDGER_DIR
    # is set); the report CLI renders/gates on these.
    import sys

    from repro.obs.ledger import append_run_record
    append_run_record(
        "bench_sched", sys.argv[1:],
        duration_seconds=time.perf_counter() - start,
        extra={"total_seconds": report["total_seconds"],
               "kernels": len(report["per_kernel_seconds"]),
               "repeats": report["repeats"],
               "us_per_probe": report["us_per_probe"],
               "speedup_over_seed": report.get("speedup_over_seed")})
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"[json report written to {out}]")
    if args.min_speedup is not None:
        speedup = report.get("speedup_over_seed")
        if speedup is None or speedup < args.min_speedup:
            print(f"FAIL: speedup {speedup} below --min-speedup "
                  f"{args.min_speedup}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
