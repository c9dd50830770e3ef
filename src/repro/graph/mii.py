"""Minimum initiation interval computation.

``MII = max(ResMII, RecMII)``:

* ``ResMII`` comes from the resource model (functional-unit pressure and
  issue width) — :meth:`repro.machine.resources.ResourceModel.res_mii`.
* ``RecMII`` is the smallest II for which no dependence cycle has positive
  slack deficit, i.e. for every cycle C:
  ``sum(delay(e)) <= II * sum(distance(e))``.  We test a candidate II by
  looking for a positive-weight cycle under edge weights
  ``delay(e) - II * distance(e)`` (Bellman-Ford style relaxation) and
  binary-search the smallest feasible integer II.  This avoids enumerating
  elementary circuits, which can be exponential in loops like lucas's
  169-instruction bodies.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from ..errors import DDGError
from ..machine.resources import ResourceModel
from .ddg import DDG
from .dependence import Dependence

__all__ = ["res_mii", "rec_mii", "compute_mii", "is_feasible_ii", "scc_rec_mii"]


def res_mii(ddg: DDG, resources: ResourceModel) -> int:
    """Resource-constrained MII."""
    return resources.res_mii(ddg.opcodes())


EdgeFilter = Callable[[Dependence], bool]
EdgeDelay = Callable[[Dependence], int]


def _arcs(ddg: DDG, node_set: set[str], edge_filter: EdgeFilter | None,
          delay: EdgeDelay | None) -> list[tuple[str, str, int, int]]:
    """``(src, dst, delay, distance)`` of the selected edges within
    ``node_set``."""
    return [(e.src, e.dst, e.delay if delay is None else delay(e), e.distance)
            for e in ddg.edges
            if e.src in node_set and e.dst in node_set
            and (edge_filter is None or edge_filter(e))]


def _no_positive_cycle(arcs: Sequence[tuple[str, str, int, int]],
                       ii: int) -> bool:
    """Bellman-Ford: True iff no cycle of ``arcs`` has positive weight
    under ``delay - ii * distance``."""
    if not arcs:
        return True
    dist: dict[str, float] = {}
    for src, dst, _d, _k in arcs:
        dist[src] = dist[dst] = 0.0
    for _round in range(len(dist)):
        changed = False
        for src, dst, d, k in arcs:
            w = dist[src] + (d - ii * k)
            if w > dist[dst]:
                dist[dst] = w
                changed = True
        if not changed:
            return True
    return False  # still relaxing after |V| rounds -> positive cycle


def is_feasible_ii(ddg: DDG, ii: int, nodes: Iterable[str] | None = None) -> bool:
    """True iff no dependence cycle (within ``nodes``) requires II > ``ii``.

    Uses Bellman-Ford positive-cycle detection on edge weights
    ``delay - ii * distance``.
    """
    if ii < 1:
        return False
    node_set = set(nodes) if nodes is not None else set(ddg.node_names)
    return _no_positive_cycle(_arcs(ddg, node_set, None, None), ii)


def rec_mii(ddg: DDG, nodes: Iterable[str] | None = None, *,
            edge_filter: EdgeFilter | None = None,
            delay: EdgeDelay | None = None) -> int:
    """Recurrence-constrained MII (1 when there are no recurrences).

    ``edge_filter`` restricts the cycles to the edges it accepts, and
    ``delay`` replaces ``Dependence.delay`` as the per-edge weight: the
    result is the smallest II >= 1 under which no cycle of the accepted
    edges has ``sum(delay) > II * sum(distance)``.
    """
    node_set = set(nodes) if nodes is not None else set(ddg.node_names)
    arcs = _arcs(ddg, node_set, edge_filter, delay)
    if not any(k > 0 for _src, _dst, _d, k in arcs):
        return 1
    hi = max(1, sum(d for _src, _dst, d, _k in arcs))
    if not _no_positive_cycle(arcs, hi):
        raise DDGError(
            f"DDG {ddg.name!r}: no feasible II up to {hi} "
            f"(a zero-distance cycle slipped through?)")
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _no_positive_cycle(arcs, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def compute_mii(ddg: DDG, resources: ResourceModel) -> int:
    """``max(ResMII, RecMII)``."""
    return max(res_mii(ddg, resources), rec_mii(ddg))


def scc_rec_mii(ddg: DDG, components: Sequence[Sequence[str]]) -> list[int]:
    """Per-SCC RecMII (1 for trivial single-node components without a
    self-dependence)."""
    out: list[int] = []
    for comp in components:
        if len(comp) == 1:
            name = comp[0]
            self_edges = [e for e in ddg.succs(name) if e.dst == name]
            if not self_edges:
                out.append(1)
                continue
            out.append(max(1, max(math.ceil(e.delay / e.distance)
                                  for e in self_edges)))
            continue
        out.append(rec_mii(ddg, comp))
    return out
