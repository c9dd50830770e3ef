"""Property-based tests: TMS's fused window scan equals the per-probe scan.

:meth:`TMSPolicy.choose` folds a node's placed neighbours into integer
pairs once and inlines the MRT probe.  The reference here is the scan
that folding replaces, one probe at a time: the resource probe
(``PartialSchedule.fits``), the probe's new dependences from
:meth:`TMSPolicy._deps`, C1 on their largest sync delay, C2 recomputed
from scratch over every committed dependence (no cached *preserved*
flags), and the depth/height-tiebreak score.  On hypothesis loops with
memory edges, self edges and non-pipelined units, in both speculation
modes, and on random partial schedules, both scans must agree on the
slot, the probe count, the failure certificate and the C1/C2 rejection
tallies.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ArchConfig, SchedulerConfig
from repro.graph import build_ddg
from repro.ir import FUClass
from repro.machine import FUSpec, LatencyModel, ResourceModel
from repro.sched import ThreadSensitiveScheduler
from repro.sched.engine import PartialSchedule, TMSPolicy
from repro.workloads import LoopShape, SyntheticLoopGenerator

ARCH = ArchConfig.paper_default()
RES = ResourceModel.default()
#: single non-pipelined FP adder and multiplier: most FP ops hold their
#: unit for several rows, so the scan leaves the pipelined-unit probe.
NON_PIPELINED = ResourceModel({FUClass.FPADD: FUSpec(count=1, occupancy=2),
                               FUClass.FPMUL: FUSpec(count=1, occupancy=3)})
LAT = LatencyModel.for_arch(ARCH)

shapes = st.builds(
    LoopShape,
    n_instr=st.integers(8, 24),
    n_counters=st.integers(1, 2),
    n_reg_recurrences=st.integers(0, 2),
    reg_recurrence_len=st.integers(1, 3),
    serial_recurrence=st.booleans(),
    n_mem_recurrences=st.integers(0, 2),
    mem_rec_ops=st.integers(1, 2),
    mem_rec_distance=st.integers(1, 3),
    n_spec_deps=st.integers(1, 3),
    spec_probability=st.floats(0.0, 0.5),
    mul_fraction=st.floats(0.0, 0.5),
    div_fraction=st.floats(0.0, 0.4),
    store_fraction=st.floats(0.0, 1.0),
)


def _reference_c2(policy, v, new_reg, new_mem, committed_reg,
                  committed_mem):
    """Figure 3's C2 by full rescan: the misspeculation frequency of
    every non-preserved memory dependence, committed then new, against
    every register dependence, committed and new."""
    ancestors = policy._tms.ancestors
    regs = committed_reg + new_reg
    prod = 1.0
    for row_x, req, prob, y in committed_mem + [
            (row, req, prob, y) for row, _sync, req, prob, y in new_mem]:
        if req <= 0 or any(row_u < row_x and sync >= req
                           and dst in ancestors[y]
                           for row_u, sync, dst in regs):
            continue
        prod *= 1.0 - prob
    return 1.0 - prod <= policy._p_max


def _reference_score(policy, v, cycle, slots, worst):
    tms = policy._tms
    ii = policy._ii
    row = cycle % ii
    need_below = tms.depth[v]
    if need_below > 0 and any(p not in slots for p in tms.pred0[v]):
        shortfall = need_below - row
        if shortfall > 0:
            worst += min(0.45, 0.45 * shortfall / need_below)
    need_above = tms.height[v]
    if need_above > 0 and any(s not in slots for s in tms.succ0[v]):
        shortfall = need_above - (ii - 1 - row)
        if shortfall > 0:
            worst += min(0.45, 0.45 * shortfall / need_above)
    return worst


def _reference_choose(policy, v, candidates, ps, committed_reg,
                      committed_mem):
    """``(cycle, probes, certificate, c1_rejected, c2_rejected)`` of the
    probe-at-a-time scan, starting from the policy's certificate."""
    slots = ps.slots
    certificate = policy.certificate
    best_cycle = None
    best_score = 0.0
    probes = c1 = c2 = 0
    for cycle in candidates:
        probes += 1
        if not ps.fits(v, cycle):
            continue
        new_reg, new_mem = policy._deps(v, cycle, slots)
        worst = policy._cworst
        if worst > policy._c_delay:
            certificate = min(certificate, worst)
            c1 += 1
            continue
        if policy._speculation and new_mem and not _reference_c2(
                policy, v, new_reg, new_mem, committed_reg, committed_mem):
            c2 += 1
            continue
        s = _reference_score(policy, v, cycle, slots, worst)
        if best_cycle is None or s < best_score:
            best_cycle, best_score = cycle, s
            if s <= 0.0:
                break
    return best_cycle, probes, certificate, c1, c2


@pytest.mark.parametrize("speculation", [True, False])
@given(shape=shapes, seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=30, deadline=None)
def test_choose_matches_the_per_probe_scan(speculation, shape, seed, data):
    ddg = build_ddg(SyntheticLoopGenerator(shape, seed).generate("prop"), LAT)
    resources = data.draw(st.sampled_from([RES, NON_PIPELINED]),
                          label="resources")
    s = ThreadSensitiveScheduler(ddg, resources, ARCH,
                                 SchedulerConfig(speculation=speculation))
    ii = data.draw(st.integers(s.mii, s.mii + 3), label="ii")
    c_delay = data.draw(
        st.integers(s._c_delay_min(), s._c_delay_cap(ii)), label="c_delay")
    p_max = data.draw(st.sampled_from([0.0, 0.01, 0.1, 1.0]), label="p_max")
    seed_high = data.draw(st.booleans(), label="seed_high")
    policy = TMSPolicy(s._tms_ctx, ARCH, s.config, ii, c_delay, p_max)
    table = s.engine.windows.table(ii)
    ps = PartialSchedule(s.engine.ctx, ii)
    policy.begin_attempt(ps)
    committed_reg: list = []
    committed_mem: list = []
    tallies = [0, 0]
    for v in s.order:
        start, end, scan_down = table.window(
            v, ps.slots, s.order_directions.get(v) == "bottom-up",
            seed_high)
        candidates = (range(end, start - 1, -1) if scan_down
                      else range(start, end + 1))
        want = _reference_choose(policy, v, candidates, ps, committed_reg,
                                 committed_mem)
        got = policy.choose(v, candidates, ps)
        tallies[0] += want[3]
        tallies[1] += want[4]
        assert got == want[:2], (v, got, want)
        assert policy.certificate == want[2]
        assert [policy.c1_rejected, policy.c2_rejected] == tallies
        # grow a random partial schedule: the chosen slot, or any
        # resource-feasible one the policy may well have rejected
        feasible = [c for c in candidates if ps.fits(v, c)]
        if not feasible:
            break
        cycle = got[0] if got[0] is not None and data.draw(
            st.booleans(), label="take_choice") else data.draw(
            st.sampled_from(feasible), label="cycle")
        new_reg, new_mem = policy._deps(v, cycle, ps.slots)
        ps.place(v, cycle)
        policy.on_place(v, cycle, ps.slots)
        committed_reg.extend(new_reg)
        if speculation:
            committed_mem.extend((row, req, prob, y)
                                 for row, _sync, req, prob, y in new_mem)

