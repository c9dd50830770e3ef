"""Definitions 2 and 3: synchronisation delay and preserved dependences.

**Definition 2 (sync delay).**  For an inter-iteration register dependence
``x -> y`` with kernel distance 1::

    sync(x, y) = issue_slot(x)%II - issue_slot(y)%II + lat(x) + C_reg_com

This is the minimum skew between consecutive threads that lets thread
``i+1``'s ``y`` receive the value produced by thread ``i``'s ``x`` over the
operand network.

**Generalisation to kernel distance k > 1.**  The post-pass turns a
distance-``k`` dependence into ``k`` neighbouring hops through register
copies, so the *per-thread* skew it demands is::

    sync_k(x, y) = (row(x) - row(y) + lat(x)) / k + C_reg_com

(each hop pays the full communication latency, while the issue-cycle
difference is amortised over ``k`` threads).  For ``k = 1`` this reduces to
Definition 2 exactly.

**Definition 3 (preserved memory dependence).**  An inter-iteration memory
dependence ``x -> y`` is *preserved* by a set ``D`` of synchronised register
dependences if some ``u -> v`` in ``D`` with ``row(u) < row(x)`` imposes a
skew at least::

    required_skew(x, y) = (row(x) + lat(x) - row(y)) / d_ker(x, y)

so that, by the time ``y`` executes in the consuming thread, ``x`` has
already completed in the producing thread — the dependence cannot
misspeculate.  (The paper's formula is garbled in the available text; this
reconstruction matches the visible ``sync(u,v) >= (...)/d_ker(x,y)``
fragment and the motivating example, where SMS's 11-cycle sync delay
"accidentally preserves" ``n5 -> n0/n2/n3``.  See DESIGN.md.)

**Recurrence lower bound on C_delay.**  Summed around a circuit of
synchronised flow edges, the spans ``row(x) - row(y) + lat(x)`` lose their
row terms and total ``sum(lat)``, while the kernel distances total
``sum(d) >= 1``.  With ``t = C_delay - C_reg_com``, C1 gives every edge
with ``k >= 1`` a span of at most ``k * t``; any valid schedule gives
every edge a span of at most ``k * II`` (a flow edge's delay is at least
its producer's latency), which is ``<= k * t`` when ``k <= 0`` and
``t <= II``.  So ``sum(lat) <= sum(d) * t`` when ``t <= II``, and
``sum(lat) <= sum(d) * II < sum(d) * t`` otherwise: no schedule meets a
threshold below ``C_reg_com + ceil(sum(lat) / sum(d))`` —
:func:`c_delay_lower_bound`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Protocol

from ..config import ArchConfig
from ..errors import DDGError
from ..graph.ddg import DDG
from ..graph.dependence import Dependence
from ..graph.mii import rec_mii

__all__ = [
    "ScheduleView",
    "c_delay_lower_bound",
    "sync_delay",
    "required_skew",
    "is_preserved",
    "non_preserved_memory_deps",
]


class ScheduleView(Protocol):
    """Anything that can answer row/stage queries — a complete
    :class:`~repro.sched.schedule.Schedule` or a scheduler's partial view."""

    ii: int
    ddg: DDG

    def row(self, name: str) -> int: ...
    def stage(self, name: str) -> int: ...
    def d_ker(self, edge: Dependence) -> int: ...


def sync_delay(view: ScheduleView, edge: Dependence, c_reg_com: int) -> float:
    """Per-thread skew demanded by synchronising register dependence
    ``edge`` (Definition 2 / its multi-hop generalisation)."""
    k = view.d_ker(edge)
    if k < 1:
        raise DDGError(
            f"sync delay is defined for inter-iteration dependences; "
            f"{edge.src}->{edge.dst} has d_ker={k}")
    lat = view.ddg.latency(edge.src)
    return (view.row(edge.src) - view.row(edge.dst) + lat) / k + c_reg_com


def required_skew(view: ScheduleView, edge: Dependence) -> float:
    """Per-thread skew above which memory dependence ``edge`` cannot be
    violated (Definition 3's threshold)."""
    k = view.d_ker(edge)
    if k < 1:
        raise DDGError(
            f"required skew is defined for inter-iteration dependences; "
            f"{edge.src}->{edge.dst} has d_ker={k}")
    lat = view.ddg.latency(edge.src)
    return (view.row(edge.src) + lat - view.row(edge.dst)) / k


def is_preserved(view: ScheduleView, mem_edge: Dependence,
                 reg_deps: Iterable[Dependence], c_reg_com: int,
                 *, sync_cache: Mapping[Dependence, float] | None = None) -> bool:
    """Definition 3: is ``mem_edge`` preserved by the synchronised
    dependences in ``reg_deps``?

    ``sync_cache`` optionally maps register dependences to their
    pre-computed sync delays (the schedulers maintain one incrementally).
    """
    threshold = required_skew(view, mem_edge)
    if threshold <= 0:
        # the producer completes no later than the consumer issues even with
        # zero skew: preserved unconditionally.
        return True
    x_row = view.row(mem_edge.src)
    for dep in reg_deps:
        if view.row(dep.src) >= x_row:
            continue  # the synchronisation happens after x; no help
        delay = (sync_cache[dep] if sync_cache is not None and dep in sync_cache
                 else sync_delay(view, dep, c_reg_com))
        if delay >= threshold:
            return True
    return False


def non_preserved_memory_deps(view: ScheduleView,
                              mem_deps: Iterable[Dependence],
                              reg_deps: Iterable[Dependence],
                              c_reg_com: int) -> list[Dependence]:
    """The subset of ``mem_deps`` not preserved by ``reg_deps`` — the
    dependences that can actually misspeculate (the set ``M`` feeding
    Equation 3)."""
    reg_list = list(reg_deps)
    cache = {dep: sync_delay(view, dep, c_reg_com) for dep in reg_list}
    return [e for e in mem_deps
            if not is_preserved(view, e, reg_list, c_reg_com, sync_cache=cache)]


def c_delay_lower_bound(ddg: DDG, arch: ArchConfig, *,
                        speculation: bool = True) -> int:
    """A lower bound on the ``C_delay`` threshold of every complete TMS
    placement of ``ddg``: ``C_reg_com`` plus the smallest integer
    ``t >= 1`` under which no circuit of synchronised flow edges (register
    flow, plus memory flow when ``speculation`` is off) has
    ``sum(lat(src)) > t * sum(distance)``.

    Without such a circuit this is ``1 + C_reg_com``, the TMS search's
    smallest threshold.  The per-edge weight is the producer's latency,
    capped at the edge's scheduling delay so that a hand-built edge with
    a shorter delay keeps the bound sound.
    """
    def synchronised(e: Dependence) -> bool:
        return e.is_register_flow or (not speculation and e.is_memory_flow)

    def span(e: Dependence) -> int:
        return min(ddg.latency(e.src), e.delay)

    return arch.reg_comm_latency + rec_mii(ddg, edge_filter=synchronised,
                                           delay=span)
