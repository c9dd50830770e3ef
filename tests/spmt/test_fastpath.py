"""Memoised fast path: differential oracle, memo gating, and the
event-loop bugfixes that rode along (spawn-chain estimate, lazy cache rng,
the event bound).
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.config import ArchConfig, SimConfig
from repro.errors import SimulationError
from repro.graph import build_ddg
from repro.machine import LatencyModel, ResourceModel
from repro.obs import metrics
from repro.sched import run_postpass, schedule_sms, schedule_tms
from repro.spmt import simulate
from repro.spmt.sim import SpMTSimulator
from repro.spmt.violations import RealisationTable
from repro.workloads.specfp import SPECFP_BENCHMARKS, generate_benchmark_loops


@pytest.fixture
def fig1_pipelined_sms(fig1_ddg, fig1_machine, arch):
    return run_postpass(schedule_sms(fig1_ddg, fig1_machine), arch)


@pytest.fixture
def axpy_pipelined(axpy_ddg, resources, arch):
    """Speculation-free kernel: any misspeculation is one we forced."""
    return run_postpass(schedule_sms(axpy_ddg, resources), arch)


@pytest.fixture
def fig1_pipelined_tms(fig1_ddg, fig1_machine, arch):
    return run_postpass(schedule_tms(fig1_ddg, fig1_machine, arch), arch)


def _both(pipelined, arch, **sim_kwargs):
    fast = simulate(pipelined, arch, SimConfig(**sim_kwargs))
    exact = simulate(pipelined, arch, SimConfig(exact=True, **sim_kwargs))
    return fast, exact


# -- differential oracle -----------------------------------------------------


@pytest.mark.parametrize("iterations", [1, 7, 60, 500, 5000])
@pytest.mark.parametrize("seed", [0xACE5, 3])
def test_fast_matches_exact_sms(fig1_pipelined_sms, arch, iterations, seed):
    fast, exact = _both(fig1_pipelined_sms, arch,
                        iterations=iterations, seed=seed)
    assert fast == exact


@pytest.mark.parametrize("iterations", [60, 500, 5000])
@pytest.mark.parametrize("seed", [0xACE5, 3])
def test_fast_matches_exact_tms(fig1_pipelined_tms, arch, iterations, seed):
    """TMS kernels carry manifest-unsafe speculated dependences, so skips
    must stop exactly at each violating thread."""
    fast, exact = _both(fig1_pipelined_tms, arch,
                        iterations=iterations, seed=seed)
    assert fast == exact


@pytest.mark.parametrize("arch_variant", [
    ArchConfig(ncore=2),
    ArchConfig(ncore=8),
    ArchConfig(spawn_overhead=0),
    ArchConfig(reg_comm_latency=7, commit_overhead=0),
    ArchConfig.single_core(),
])
def test_fast_matches_exact_arch_grid(fig1_pipelined_tms, arch_variant):
    fast, exact = _both(fig1_pipelined_tms, arch_variant,
                        iterations=900, seed=5)
    assert fast == exact


def test_fastforward_engages_and_is_counted(axpy_pipelined, arch):
    counter = metrics.counter("sim.fastforward_threads",
                              "threads skipped analytically")
    before = counter.value
    fast, exact = _both(axpy_pipelined, arch, iterations=20_000)
    assert fast == exact
    # spec-free kernel: one clean skip covers nearly the whole run
    assert counter.value - before > 15_000


def test_exact_env_var_forces_reference_loop(fig1_pipelined_sms, arch,
                                             monkeypatch):
    monkeypatch.setenv("REPRO_SIM_EXACT", "1")
    sim = SpMTSimulator(fig1_pipelined_sms, arch)
    assert sim._exact
    monkeypatch.setenv("REPRO_SIM_EXACT", "0")
    assert not SpMTSimulator(fig1_pipelined_sms, arch)._exact


def test_trace_records_identical_and_disable_fastforward(fig1_pipelined_sms,
                                                         arch):
    """Tracing keeps every per-thread record, so the fast-forward must
    stay out of the way — and the vectorised resolver must produce the
    same records the scalar one does."""
    traced = simulate(fig1_pipelined_sms, arch,
                      SimConfig(iterations=300, trace=True))
    exact = simulate(fig1_pipelined_sms, arch,
                     SimConfig(iterations=300, trace=True, exact=True))
    assert len(traced.thread_records) == 300
    assert traced.thread_records == exact.thread_records
    assert traced == exact


# -- memo gating -------------------------------------------------------------


def _thread_counts():
    return {name: metrics.counter(name, "").value
            for name in ("sim.resolved_threads", "sim.fastforward_threads",
                         "sim.fastforwards")}


def _counted(pipelined, arch, sim):
    """``(stats, counter deltas)`` of one default-path run."""
    before = _thread_counts()
    stats = simulate(pipelined, arch, sim)
    after = _thread_counts()
    return stats, {k: after[k] - before[k] for k in after}


def test_detector_rejects_fractional_spawn(fig1_pipelined_sms):
    """A fractional C_spn makes timings fractional, so no state is
    translation-exact: the memo stays off and every thread runs through
    the resolver."""
    arch = ArchConfig(spawn_overhead=1.5)
    _stats, counts = _counted(fig1_pipelined_sms, arch,
                              SimConfig(iterations=800, seed=2))
    assert counts == {"sim.resolved_threads": 800,
                      "sim.fastforward_threads": 0, "sim.fastforwards": 0}


def test_fractional_spawn_still_matches_exact(fig1_pipelined_tms):
    arch = ArchConfig(spawn_overhead=1.5)
    fast, counts = _counted(fig1_pipelined_tms, arch,
                            SimConfig(iterations=800, seed=2))
    assert counts["sim.fastforward_threads"] == 0
    assert fast == simulate(fig1_pipelined_tms, arch,
                            SimConfig(iterations=800, seed=2, exact=True))


def test_counters_partition_threads(fig1_pipelined_tms, arch):
    """Every committed thread is either resolved or replayed, and a long
    run of a kernel with coin-flip dependences takes cycle jumps."""
    stats, counts = _counted(fig1_pipelined_tms, arch,
                             SimConfig(iterations=5000, seed=3))
    assert counts["sim.resolved_threads"] \
        + counts["sim.fastforward_threads"] == 5000
    assert counts["sim.fastforward_threads"] > counts["sim.resolved_threads"]
    assert counts["sim.fastforwards"] > 0
    assert stats.misspeculations > 0


@lru_cache(maxsize=None)
def _specfp_kernel(name: str, alg: str, ncore: int):
    arch = replace(ArchConfig.paper_default(), ncore=ncore)
    resources = ResourceModel.default(arch.issue_width)
    latency = LatencyModel.for_arch(arch)
    loop = next(loop for spec in SPECFP_BENCHMARKS
                for loop in generate_benchmark_loops(spec, 4)
                if loop.name == name)
    ddg = build_ddg(loop, latency)
    sched = schedule_sms(ddg, resources) if alg == "SMS" \
        else schedule_tms(ddg, resources, arch)
    return run_postpass(sched, arch), arch


#: speculative kernels: art_loop3/SMS has a p = 1 dependence violating
#: almost every thread, the others coin-flip dependences
_SPECULATIVE = ["art_loop3/SMS", "swim_loop2/SMS", "applu_loop3/SMS",
                "ammp_loop0/SMS", "facerec_loop1/TMS"]


@pytest.mark.parametrize("ncore", [2, 4, 8])
@pytest.mark.parametrize("iterations", [250, 3000])
@pytest.mark.parametrize("kernel", _SPECULATIVE)
def test_speculative_specfp_kernels_match_exact(kernel, iterations, ncore):
    pipelined, arch = _specfp_kernel(*kernel.split("/"), ncore)
    fast, exact = _both(pipelined, arch, iterations=iterations)
    assert exact.misspeculations > 0
    assert fast == exact


@pytest.mark.parametrize("ncore", [2, 4, 8])
@pytest.mark.parametrize("iterations", [97, 98, 99, 100])
def test_violations_in_tail_threads_match_exact(iterations, ncore):
    """art_loop3/SMS violates on every thread after the first, and each
    violation squashes one more speculative thread — except on the last
    thread, whose squash cap ``n - 1 - j`` is 0.  The tail threads must
    therefore not replay transitions recorded earlier in the run."""
    pipelined, arch = _specfp_kernel("art_loop3", "SMS", ncore)
    probs = [p for (_x, _y, _k, p)
             in SpMTSimulator(pipelined, arch).template.speculated]
    assert 1.0 in probs
    fast, exact = _both(pipelined, arch, iterations=iterations)
    assert exact.misspeculations == iterations - 1
    assert exact.squashed_threads == 2 * exact.misspeculations - 1
    assert fast == exact


def _raised(pipelined, arch, sim) -> str:
    with pytest.raises(SimulationError, match="max_events") as info:
        simulate(pipelined, arch, sim)
    return str(info.value)


@pytest.mark.parametrize("kernel", ["mesa_loop3/SMS", "art_loop3/SMS"])
def test_max_events_bounds_the_fast_path(kernel):
    """Replayed and jumped threads count ``1 + restarts`` events each, so
    the default path raises at the thread the reference loop raises at."""
    pipelined, arch = _specfp_kernel(*kernel.split("/"), 4)
    n = 10_000
    exact = simulate(pipelined, arch, SimConfig(iterations=n, exact=True))
    needed = n + exact.misspeculations
    for bound in (5_000, needed - 1):
        messages = {_raised(pipelined, arch, SimConfig(
            iterations=n, max_events=bound, exact=exact_mode))
            for exact_mode in (False, True)}
        assert len(messages) == 1, messages
    assert simulate(pipelined, arch, SimConfig(
        iterations=n, max_events=needed)) == exact


# -- realisation block draws -------------------------------------------------


def test_block_draws_match_sequential(fig1_pipelined_tms, arch):
    sim = SpMTSimulator(fig1_pipelined_tms, arch)
    seq = RealisationTable(sim.template, seed=42)
    batched = RealisationTable(sim.template, seed=42)
    mat = batched.block(0, 64)
    for j in range(64):
        assert tuple(bool(x) for x in mat[j]) == seq.realised(j)
    # draws after the block continue the same stream
    assert batched.realised(64) == seq.realised(64)


def test_block_overlap_does_not_redraw(fig1_pipelined_tms, arch):
    sim = SpMTSimulator(fig1_pipelined_tms, arch)
    seq = RealisationTable(sim.template, seed=9)
    tab = RealisationTable(sim.template, seed=9)
    first = tab.block(0, 32)
    again = tab.block(16, 32)  # [16, 48): 16 overlap + 16 fresh
    assert np.array_equal(first[16:], again[:16])
    for j in range(48, 52):
        assert tab.realised(j) == seq_realised_at(seq, j)


def seq_realised_at(table, j):
    for i in range(j + 1):
        got = table.realised(i)
    return got


# -- spawn-chain squash estimate (satellite bugfix) --------------------------


class _ForcedViolation(SpMTSimulator):
    """Forces one violation on thread 5, detected ``gap`` cycles in."""

    GAP = 1.0

    def _inject_violation(self, j, core, attempt, timing):
        if j == 5 and attempt == 0:
            return timing.start + self.GAP
        return None


def _forced(axpy_ddg, resources, arch):
    pipelined = run_postpass(schedule_sms(axpy_ddg, resources), arch)
    return _ForcedViolation(pipelined, arch,
                            SimConfig(iterations=50, seed=1)).run()


def test_started_after_zero_spawn_squashes_window(axpy_ddg, resources):
    """With free spawns the whole speculative window was already running
    at detection time; the old estimate divided by max(C_spn, 1) and
    squashed only int(gap) threads."""
    arch = ArchConfig(ncore=4, spawn_overhead=0)
    stats = _forced(axpy_ddg, resources, arch)
    assert stats.misspeculations == 1
    assert stats.squashed_threads == 1 + (arch.ncore - 1)


def test_started_after_fractional_spawn_uses_true_chain(axpy_ddg, resources):
    """gap // C_spn with C_spn = 0.5 admits two spawned threads for a
    1-cycle gap (the old floor-by-1 admitted one)."""
    arch = ArchConfig(ncore=4, spawn_overhead=0.5)
    stats = _forced(axpy_ddg, resources, arch)
    assert stats.misspeculations == 1
    assert stats.squashed_threads == 1 + 2


def test_started_after_integer_spawn_unchanged(axpy_ddg, resources):
    """The estimate for the paper machine (C_spn = 3) is untouched: a
    1-cycle gap outruns no spawn."""
    arch = ArchConfig(ncore=4, spawn_overhead=3)
    stats = _forced(axpy_ddg, resources, arch)
    assert stats.misspeculations == 1
    assert stats.squashed_threads == 1


# -- lazy cache-perturbation state (satellite bugfix) ------------------------


def test_reused_simulator_replays_cache_stream(fig1_pipelined_sms):
    """run() twice on one simulator must give identical stats: the miss
    rng is re-derived per run instead of continuing the previous run's
    stream (the old eager state made reuse order-dependent)."""
    sim = SpMTSimulator(fig1_pipelined_sms, ArchConfig(l1_miss_rate=0.4),
                        SimConfig(iterations=200, seed=6))
    assert sim.run() == sim.run()


def test_cache_rng_seed_mix_pinned(fig1_pipelined_sms):
    """The miss stream is seeded with ``sim.seed ^ 0xCAC4E`` over the
    template's load instructions — pinned so the derivation cannot drift
    silently (it was previously unexercised on the default path)."""
    arch = ArchConfig(l1_miss_rate=1.0, l2_miss_rate=0.0)
    seed = 1234
    sim = SpMTSimulator(fig1_pipelined_sms, arch, SimConfig(seed=seed))
    extra = sim._draw_cache_extra()
    rng = np.random.default_rng(seed ^ 0xCAC4E)
    loads = [i for i, name in enumerate(sim.template.names)
             if fig1_pipelined_sms.schedule.ddg.node(name).opcode.is_load]
    expected = [0] * len(sim.template.names)
    for i in loads:
        assert rng.random() < 1.0  # l1 always misses at rate 1.0
        expected[i] = arch.l2_hit_latency - arch.l1_hit_latency
    assert extra == expected
    assert loads, "fig1 kernel has loads"


def test_cache_state_lazy_until_first_draw(fig1_pipelined_sms, arch):
    deterministic = SpMTSimulator(fig1_pipelined_sms, arch)
    assert deterministic._cache_rng is None
    assert deterministic._draw_cache_extra() is None
    assert deterministic._cache_rng is None  # zero miss rate never builds
    probabilistic = SpMTSimulator(fig1_pipelined_sms,
                                  ArchConfig(l1_miss_rate=0.9))
    assert probabilistic._cache_rng is None
    assert probabilistic._draw_cache_extra() is not None
    assert probabilistic._cache_rng is not None
