"""Property-based tests: the TMS search's two pruning rules are exact.

* every threshold below the recurrence bound admits no placement;
* a failed attempt's certificate ``r`` covers every threshold in
  ``[c, r)``: the same attempt fails the same way;
* a search that never prunes returns the identical schedule.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ArchConfig, SchedulerConfig
from repro.graph import build_ddg
from repro.machine import LatencyModel, ResourceModel
from repro.obs import metrics
from repro.sched import ThreadSensitiveScheduler
from repro.workloads import LoopShape, SyntheticLoopGenerator
from repro.workloads.motivating import motivating_ddg, motivating_machine

ARCH = ArchConfig.paper_default()
RES = ResourceModel.default()
LAT = LatencyModel.for_arch(ARCH)

shapes = st.builds(
    LoopShape,
    n_instr=st.integers(8, 24),
    n_counters=st.integers(1, 2),
    n_reg_recurrences=st.integers(0, 2),
    reg_recurrence_len=st.integers(1, 3),
    serial_recurrence=st.booleans(),
    n_mem_recurrences=st.integers(0, 1),
    mem_rec_ops=st.integers(1, 2),
    mem_rec_distance=st.integers(1, 3),
    n_spec_deps=st.integers(0, 2),
    spec_probability=st.floats(0.0, 0.05),
    mul_fraction=st.floats(0.0, 0.5),
    store_fraction=st.floats(0.0, 1.0),
)


def _scheduler(shape, seed, speculation, cls=ThreadSensitiveScheduler,
               **config):
    ddg = build_ddg(SyntheticLoopGenerator(shape, seed).generate("prop"), LAT)
    return cls(ddg, RES, ARCH,
               SchedulerConfig(speculation=speculation, **config))


class _NeverPrune(ThreadSensitiveScheduler):
    """The same search with both skip predicates disabled."""

    def _pruned_by_bound(self, cd):
        return False

    def _pruned_by_certificate(self, ii, cd, certificates):
        return False


@pytest.mark.parametrize("speculation", [True, False])
@given(shape=shapes, seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=10, deadline=None)
def test_no_placement_below_the_bound(speculation, shape, seed, data):
    s = _scheduler(shape, seed, speculation)
    p_max = s.config.p_max
    for ii in data.draw(st.lists(st.integers(s.mii, s.max_ii()),
                                 min_size=1, max_size=2, unique=True)):
        for cd in range(s._c_delay_min(), s.c_delay_bound):
            slots, _certificate = s._try_tms(ii, cd, p_max)
            assert slots is None, (ii, cd, s.c_delay_bound)


@pytest.mark.parametrize("speculation", [True, False])
@given(shape=shapes, seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=20, deadline=None)
def test_certificate_covers_higher_thresholds(speculation, shape, seed, data):
    s = _scheduler(shape, seed, speculation)
    p_max = s.config.p_max
    ii = data.draw(st.integers(s.mii, min(s.max_ii(), s.mii + 4)))
    cap = s._c_delay_cap(ii)
    # thresholds near the bound, where attempts fail most often
    cd = data.draw(st.integers(s._c_delay_min(),
                               min(cap, s.c_delay_bound + 3)))
    slots, certificate = s._try_tms(ii, cd, p_max)
    if slots is not None:
        return
    assert certificate > cd
    top = cap if math.isinf(certificate) else math.ceil(certificate) - 1
    for higher in range(cd + 1, min(top, cap) + 1):
        # same accept/reject on every probe: same failure, same certificate
        assert s._try_tms(ii, higher, p_max) == (None, certificate)


def _search(scheduler):
    """``schedule()`` plus the search's work counters."""
    names = ("tms.candidates", "tms.pruned_bound", "tms.pruned_certificate")
    before = [metrics.counter(n).value for n in names]
    sched = scheduler.schedule()
    after = [metrics.counter(n).value for n in names]
    return sched, dict(zip(names, (a - b for a, b in zip(after, before))))


def _assert_same_search(pruned, unpruned):
    sched, counts = _search(pruned)
    ref, ref_counts = _search(unpruned)
    assert (sched.ii, dict(sched.slots), sched.meta) == \
        (ref.ii, dict(ref.slots), ref.meta)
    assert ref_counts["tms.pruned_bound"] == 0
    assert ref_counts["tms.pruned_certificate"] == 0
    assert sum(counts.values()) == ref_counts["tms.candidates"]
    return sched, counts


@pytest.mark.parametrize("speculation", [True, False])
@given(shape=shapes, seed=st.integers(0, 10_000),
       try_p_max=st.booleans())
@settings(max_examples=10, deadline=None)
def test_pruned_search_matches_unpruned(speculation, shape, seed, try_p_max):
    config = dict(try_p_max_values=try_p_max,
                  p_max_candidates=(0.0, 0.05, 1.0))
    _assert_same_search(
        _scheduler(shape, seed, speculation, **config),
        _scheduler(shape, seed, speculation, cls=_NeverPrune, **config))


@pytest.mark.parametrize("try_p_max", [False, True])
def test_pruned_search_matches_unpruned_through_the_fallback(try_p_max):
    # Figure 1 without speculation needs C_delay 11; a 40-candidate
    # budget ends below it, so both searches exhaust it and fall back
    config = SchedulerConfig(speculation=False, max_candidates=40,
                             try_p_max_values=try_p_max,
                             p_max_candidates=(0.0, 1.0))
    args = (motivating_ddg(), motivating_machine(), ARCH, config)
    sched, counts = _assert_same_search(
        ThreadSensitiveScheduler(*args), _NeverPrune(*args))
    assert sched.meta["fallback"]
    assert counts["tms.candidates"] == 0
    assert counts["tms.pruned_bound"] == 40 * (2 if try_p_max else 1)
