"""The SlotPolicy protocol: pluggable slot selection.

A placement attempt (:meth:`PlacementEngine.try_place`) walks the swing
node order and, per node, hands the node's dependence window to the
policy.  What makes a scheduler SMS or TMS is *policy*: which
conflict-free slot of the window wins, and what incremental state a
commitment updates.  A :class:`SlotPolicy` packages exactly that:

``choose(v, candidates, partial)``
    scan the window's cycles (in scan order) against the
    :class:`~repro.sched.engine.partial.PartialSchedule` and return
    ``(cycle or None, slots probed)`` — the one call the engine makes
    per node;
``on_place(v, cycle, slots)``
    commit incremental state after a placement (``slots`` already
    updated);
``on_eject(v, slots)``
    notification when backtracking (IMS) evicts a node (``slots``
    already updated);
``begin_attempt(partial)``
    reset per-attempt state.

The base :meth:`SlotPolicy.choose` is the generic scan over two optional
per-probe hooks, ``accept(v, cycle, slots)`` (veto a conflict-free slot)
and ``score(v, cycle, slots)`` (rank survivors; unset means first-fit in
window order — SMS's lifetime-minimal strategy).  :class:`HookPolicy`
fills them from loose callables.  Commit hooks are *attributes*: a
policy that doesn't participate leaves them ``None`` and the engine
skips the call.

:class:`TMSPolicy` is the paper's Figure-3 slot acceptance.  Its
placements are byte-identical to the seed implementation; only the work
per probe changes:

* all per-DDG state (incident flow-edge tables, latencies, the
  intra-thread ancestor closures, depth/height tiebreak inputs) lives in
  a :class:`TMSContext` built once per scheduler and shared by every
  ``(II, C_delay)`` candidate;
* :meth:`TMSPolicy.choose` fuses C1, C2 and the score into one window
  scan: the placed neighbours are folded into integer pairs once per
  node, so a probe is an inlined MRT check plus a few divisions, and the
  dependence lists (:meth:`TMSPolicy._deps`) are built only for C2 and
  for the commit;
* the C2 misspeculation product no longer rescans every scheduled
  memory dependence against every scheduled register dependence:
  committed memory dependences carry a cached *preserved* flag
  (monotone — synchronised dependences are only ever added within an
  attempt), so a probe only checks committed non-preserved dependences
  against the *new* register dependences, and the new memory
  dependences against the committed register set.  The survivors'
  ``(1 - p_e)`` factors are multiplied in the exact order the seed used
  (commit order, then the tentative placement's), keeping the float
  product bit-identical.

A failed :class:`TMSPolicy` attempt also leaves a *failure certificate*
(:attr:`TMSPolicy.certificate`): the smallest, over every probe C1
rejected, of the probe's largest new synchronised delay.  Only C1 reads
``C_delay`` (C2 and the score never do), so at any threshold ``c'``
with ``c <= c' < certificate`` every probe is accepted or rejected
exactly as at ``c`` and the attempt fails at the same node.
"""

from __future__ import annotations

import math
from typing import Mapping

from ...config import ArchConfig, SchedulerConfig
from ...graph.ddg import DDG
from .context import EngineContext

__all__ = ["HookPolicy", "SlotPolicy", "TMSContext", "TMSPolicy"]


class SlotPolicy:
    """Base policy: first-fit, no veto, no state (plain SMS placement)."""

    name = "firstfit"

    #: hooks of the generic :meth:`choose`; ``None`` means "not used".
    accept = None
    score = None
    #: commit hooks; ``None`` means "not used" and is skipped by the engine.
    on_place = None
    on_eject = None

    def begin_attempt(self, partial) -> None:
        """Reset per-attempt incremental state (called by the engine
        before every placement attempt)."""

    def choose(self, v: str, candidates, ps) -> tuple[int | None, int]:
        """Scan ``candidates`` (window cycles, in scan order) for ``v``:
        ``(cycle or None, slots probed)``.

        A resource-feasible slot survives when ``accept`` is unset or
        passes it; without ``score`` the first survivor wins, with it
        the minimum-score survivor wins (ties to scan order) and a
        perfect ``score <= 0`` ends the scan.
        """
        accept = self.accept
        score = self.score
        slots = ps.slots
        fits = ps.fits
        best_cycle: int | None = None
        best_score = 0.0
        probes = 0
        for cycle in candidates:
            probes += 1
            if not fits(v, cycle):
                continue
            if accept is not None and not accept(v, cycle, slots):
                continue
            if score is None:
                return cycle, probes
            s = score(v, cycle, slots)
            if best_cycle is None or s < best_score:
                best_cycle, best_score = cycle, s
                if s <= 0.0:
                    break  # cannot do better than "no new sync at all"
        return best_cycle, probes


class HookPolicy(SlotPolicy):
    """Adapter wrapping loose ``accept``/``on_place``/``score`` callables
    (the legacy :meth:`SwingModuloScheduler.try_ii` hook signature) into
    the generic :meth:`SlotPolicy.choose` scan."""

    name = "hooks"

    def __init__(self, accept=None, on_place=None, score=None,
                 on_eject=None) -> None:
        self.accept = accept
        self.on_place = on_place
        self.score = score
        self.on_eject = on_eject


class TMSContext:
    """Per-DDG facts of the TMS acceptance conditions, computed once per
    scheduler and shared across every ``(II, C_delay)`` candidate.

    Incident register/memory flow edges are folded to positional tuples
    (``(neighbour, distance, producer_latency[, probability])``) in DDG
    edge order — the order the seed's ``new_deps`` walked them, which the
    C2 product depends on.  ``sync_in`` / ``sync_out`` are the
    register-flow tables with the memory flow edges appended as
    3-tuples: C1's synchronised edges when speculation is off.
    ``mem_nbrs`` / ``mem_self`` say whether a placement can create a
    memory dependence (a placed memory-flow neighbour, or a memory-flow
    self edge); ``pred0`` / ``succ0`` are the distance-0 neighbours the
    score's tiebreak checks.
    """

    __slots__ = ("reg_in", "reg_out", "mem_in", "mem_out", "sync_in",
                 "sync_out", "mem_self", "mem_nbrs", "ancestors", "pred0",
                 "succ0", "depth", "height")

    def __init__(self, ddg: DDG, ctx: EngineContext) -> None:
        lat = ctx.latency
        self.reg_in: dict[str, tuple] = {}
        self.reg_out: dict[str, tuple] = {}
        self.mem_in: dict[str, tuple] = {}
        self.mem_out: dict[str, tuple] = {}
        self.sync_in: dict[str, tuple] = {}
        self.sync_out: dict[str, tuple] = {}
        self.mem_self: dict[str, bool] = {}
        self.mem_nbrs: dict[str, frozenset[str]] = {}
        self.pred0: dict[str, frozenset[str]] = {}
        self.succ0: dict[str, frozenset[str]] = {}
        for node in ddg.nodes:
            v = node.name
            preds = ddg.preds(v)
            succs = ddg.succs(v)
            self.reg_in[v] = tuple(
                (e.src, e.distance, lat[e.src])
                for e in preds if e.is_register_flow)
            # self edges are covered by the in-edge walk
            self.reg_out[v] = tuple(
                (e.dst, e.distance, lat[v])
                for e in succs if e.is_register_flow and e.dst != v)
            self.mem_in[v] = tuple(
                (e.src, e.distance, lat[e.src], e.probability)
                for e in preds if e.is_memory_flow)
            self.mem_out[v] = tuple(
                (e.dst, e.distance, lat[v], e.probability)
                for e in succs if e.is_memory_flow and e.dst != v)
            self.sync_in[v] = self.reg_in[v] + tuple(
                m[:3] for m in self.mem_in[v])
            self.sync_out[v] = self.reg_out[v] + tuple(
                m[:3] for m in self.mem_out[v])
            self.mem_self[v] = any(e.src == v for e in preds
                                   if e.is_memory_flow)
            self.mem_nbrs[v] = frozenset(
                [e.src for e in preds if e.is_memory_flow and e.src != v]
                + [e.dst for e in succs if e.is_memory_flow and e.dst != v])
            self.pred0[v] = frozenset(
                e.src for e in preds if e.distance == 0 and e.src != v)
            self.succ0[v] = frozenset(
                e.dst for e in succs if e.distance == 0 and e.dst != v)

        # Intra-thread ancestors (distance-0 flow closure) per node.  Our
        # cores issue out of order, so a synchronisation wait only delays
        # the RECV's *dependents*; a memory dependence is preserved by a
        # synchronised dependence u -> v (Definition 3) only when v feeds
        # the memory consumer within the same iteration — otherwise the
        # consumer issues regardless of the wait and the "preserved"
        # dependence can still be violated at run time.
        ancestors: dict[str, frozenset[str]] = {}
        order_by_pos = sorted(ddg.nodes, key=lambda n: n.position)
        for node in order_by_pos:
            anc: set[str] = {node.name}
            for e in ddg.preds(node.name):
                if e.distance == 0 and e.dtype.value == "flow" \
                        and e.src in ancestors:
                    anc |= ancestors[e.src]
            ancestors[node.name] = frozenset(anc)
        self.ancestors = ancestors
        self.depth = ctx.depth
        self.height = ctx.height


class TMSPolicy(SlotPolicy):
    """Figure 3's C1/C2 slot acceptance for one ``(II, C_delay, P_max)``
    candidate.

    The ``speculation=False`` mode (Section 5.2's ablation) treats memory
    flow dependences as synchronised: they join C1 and never
    misspeculate.

    ``certificate`` accumulates over every attempt made with the policy
    (both of TMS's seed passes): the smallest largest-new-sync of the
    probes C1 rejected, ``inf`` while C1 has rejected none.
    ``c1_rejected`` / ``c2_rejected`` count, over the same span, the
    resource-feasible probes each condition rejected.
    """

    name = "tms"

    def __init__(self, tms_ctx: TMSContext, arch: ArchConfig,
                 config: SchedulerConfig, ii: int, c_delay: int,
                 p_max: float) -> None:
        self._tms = tms_ctx
        self._ii = ii
        self._c_delay = c_delay
        self._p_max = p_max
        self._ccom = arch.reg_comm_latency
        self._speculation = config.speculation
        self.certificate = math.inf
        self.c1_rejected = 0
        self.c2_rejected = 0
        # incremental Definition-4 sets over the scheduled prefix:
        #   committed register deps as (row_of_src, sync_delay, consumer)
        #   committed memory deps as [row_of_src, required_skew,
        #                             probability, consumer, preserved]
        self._sreg: list[tuple[int, float, str]] = []
        self._smem: list[list] = []
        # last (v, cycle) dependence sets and their largest synchronised
        # delay (0 if none) — C2 and on_place for the same probe share
        # one computation.
        self._ck: tuple[str, int] | None = None
        self._creg: list = []
        self._cmem: list = []
        self._cworst = 0.0

    def begin_attempt(self, partial) -> None:
        self._sreg.clear()
        self._smem.clear()
        self._ck = None

    # -- the fused window scan ------------------------------------------------

    def choose(self, v: str, candidates, ps) -> tuple[int | None, int]:
        """The acceptable slot of ``v`` with the shortest synchronisation
        delay (Section 4.1), ties to scan order: ``(cycle or None, slots
        probed)``.

        Nothing but the probed cycle changes while one node's window is
        scanned, so each placed register-flow neighbour (memory flow
        too without speculation) is folded once into an integer pair
        ``(a, b)``: for a producer at ``s``, ``(row(s) + lat(src),
        dist - stage(s))``, giving ``k = stage + b`` and ``span = a -
        row``; for a consumer at ``s``, ``(lat(v) - row(s), dist +
        stage(s))``, giving ``k = b - stage`` and ``span = a + row``.  A
        self edge is a constant ``lat / dist + C_reg_com``.  A probe's
        largest new sync delay is then the max of ``span / k +
        C_reg_com`` over its pairs with ``k >= 1`` — the same integers
        and the same float expression as :meth:`_deps`, so C1, the
        certificate and the score are bit-identical to it.  C2 (via
        :meth:`_deps`) runs only for probes that pass C1 while a memory
        neighbour is placed.

        The score is that delay plus a sub-unit tiebreak preferring rows
        that leave same-stage room for the node's still-unplaced
        same-iteration neighbours — *below* for its feeder chain
        (depth), *above* for its consumer chain (height).  Placing a
        node flush against a stage boundary forces that chain across the
        boundary and turns intra-thread dependences into synchronised
        ones.
        """
        slots = ps.slots
        placed = slots.keys()
        ii = self._ii
        ccom = self._ccom
        c_delay = self._c_delay
        tms = self._tms
        if self._speculation:
            edges_in, edges_out = tms.reg_in[v], tms.reg_out[v]
            c2 = tms.mem_self[v] or not placed.isdisjoint(tms.mem_nbrs[v])
        else:
            edges_in, edges_out = tms.sync_in[v], tms.sync_out[v]
            c2 = False
        const = 0.0
        ins = []
        for src, dist, lat_s in edges_in:
            if src == v:
                if dist >= 1:
                    sync = lat_s / dist + ccom
                    if sync > const:
                        const = sync
                continue
            s = slots.get(src)
            if s is not None:
                ins.append((s % ii + lat_s, dist - s // ii))
        outs = []
        for dst, dist, lat_v in edges_out:
            s = slots.get(dst)
            if s is not None:
                outs.append((lat_v - s % ii, dist + s // ii))
        need_below = tms.depth[v]
        below = need_below > 0 and not placed >= tms.pred0[v]
        need_above = tms.height[v]
        above = need_above > 0 and not placed >= tms.succ0[v]

        issue_use = ps.issue_use
        issue_width = ps.issue_width
        fu_use = ps.fu_use
        fu, count, occ = ps.ctx.spec[v]
        fits = ps.fits
        certificate = self.certificate
        best_cycle: int | None = None
        best_score = 0.0
        probes = c1_rejected = c2_rejected = 0
        for cycle in candidates:
            probes += 1
            row = cycle % ii
            if occ == 1:
                if issue_use[row] >= issue_width or \
                        fu_use[row][fu] >= count:
                    continue
            elif not fits(v, cycle):
                continue
            stage = cycle // ii
            worst = const
            for a, b in ins:
                k = stage + b
                if k >= 1:
                    sync = (a - row) / k + ccom
                    if sync > worst:
                        worst = sync
            for a, b in outs:
                k = b - stage
                if k >= 1:
                    sync = (a + row) / k + ccom
                    if sync > worst:
                        worst = sync
            if worst > c_delay:
                if worst < certificate:
                    certificate = worst
                c1_rejected += 1
                continue
            if c2 and not self._c2(v, cycle, slots):
                c2_rejected += 1
                continue
            if below:
                shortfall = need_below - row
                if shortfall > 0:
                    worst += min(0.45, 0.45 * shortfall / need_below)
            if above:
                shortfall = need_above - (ii - 1 - row)
                if shortfall > 0:
                    worst += min(0.45, 0.45 * shortfall / need_above)
            if best_cycle is None or worst < best_score:
                best_cycle, best_score = cycle, worst
                if worst <= 0.0:
                    break  # cannot do better than "no new sync at all"
        self.certificate = certificate
        self.c1_rejected += c1_rejected
        self.c2_rejected += c2_rejected
        return best_cycle, probes

    # -- new-dependence enumeration ---------------------------------------

    def _deps(self, v: str, cycle: int, slots: Mapping[str, int]):
        """The inter-iteration dependences placing ``v`` at ``cycle``
        would create: ``(reg, mem)`` where reg entries are
        ``(row_src, sync_delay, consumer)`` and mem entries
        ``(row_src, sync_delay, required_skew, probability, consumer)``.

        For edge ``e`` under tentative slots the kernel distance is
        ``k = d(e) + stage(dst) - stage(src)``; ``k < 1`` means the
        dependence stays intra-iteration.  ``sync = span/k + C_reg_com``
        with ``span = row(src) - row(dst) + latency(src)`` (Definition
        2); ``req = span/k`` is C2's required skew.  Also caches the
        largest synchronised delay among them (``_cworst``, 0 if none).
        """
        key = (v, cycle)
        if self._ck == key:
            return self._creg, self._cmem
        ii = self._ii
        ccom = self._ccom
        tms = self._tms
        stage_v = cycle // ii
        row_v = cycle % ii
        new_reg = []
        for src, dist, lat_s in tms.reg_in[v]:
            s = cycle if src == v else slots.get(src)
            if s is None:
                continue
            k = dist + stage_v - s // ii
            if k < 1:
                continue
            row_s = s % ii
            span = row_s - row_v + lat_s
            new_reg.append((row_s, span / k + ccom, v))
        for dst, dist, lat_v in tms.reg_out[v]:
            s = slots.get(dst)
            if s is None:
                continue
            k = dist + s // ii - stage_v
            if k < 1:
                continue
            span = row_v - s % ii + lat_v
            new_reg.append((row_v, span / k + ccom, dst))
        new_mem = []
        for src, dist, lat_s, prob in tms.mem_in[v]:
            s = cycle if src == v else slots.get(src)
            if s is None:
                continue
            k = dist + stage_v - s // ii
            if k < 1:
                continue
            row_s = s % ii
            req = (row_s - row_v + lat_s) / k
            new_mem.append((row_s, req + ccom, req, prob, v))
        for dst, dist, lat_v, prob in tms.mem_out[v]:
            s = slots.get(dst)
            if s is None:
                continue
            k = dist + s // ii - stage_v
            if k < 1:
                continue
            req = (row_v - s % ii + lat_v) / k
            new_mem.append((row_v, req + ccom, req, prob, dst))
        worst = 0.0
        for _row, sync, _dst in new_reg:
            if sync > worst:
                worst = sync
        if not self._speculation:
            # no-speculation mode: memory deps are synchronised too
            for _row, sync, _req, _prob, _dst in new_mem:
                if sync > worst:
                    worst = sync
        self._ck = key
        self._creg = new_reg
        self._cmem = new_mem
        self._cworst = worst
        return new_reg, new_mem

    # -- condition C2 -------------------------------------------------------

    def _c2(self, v: str, cycle: int, slots: Mapping[str, int]) -> bool:
        """Whether placing ``v`` at ``cycle`` keeps the misspeculation
        frequency of the non-preserved memory dependences within
        ``P_max`` (speculation mode; trivially true when the placement
        creates no inter-iteration memory dependence).

        The ``(1 - p)`` factors multiply in commit order then tentative
        order — the same sequence the seed's full rescan produced.
        """
        new_reg, new_mem = self._deps(v, cycle, slots)
        if not new_mem:
            return True
        ancestors = self._tms.ancestors
        prod = 1.0
        for ent in self._smem:
            if ent[4]:
                continue  # preserved by a committed register dep (cached)
            row_x = ent[0]
            req = ent[1]
            anc_y = ancestors[ent[3]]
            preserved = False
            for row_u, sync, dst in new_reg:
                if row_u < row_x and sync >= req and dst in anc_y:
                    preserved = True
                    break
            if preserved:
                continue
            prod *= (1.0 - ent[2])
        sreg = self._sreg
        for row_x, _sync, req, prob, y in new_mem:
            if req <= 0:
                continue  # preserved (Definition 3, ancestor-refined)
            anc_y = ancestors[y]
            preserved = False
            for row_u, sync, dst in sreg:
                if row_u < row_x and sync >= req and dst in anc_y:
                    preserved = True
                    break
            if not preserved:
                for row_u, sync, dst in new_reg:
                    if row_u < row_x and sync >= req and dst in anc_y:
                        preserved = True
                        break
            if preserved:
                continue
            prod *= (1.0 - prob)
        return 1.0 - prod <= self._p_max

    # -- committing a placement ---------------------------------------------

    def on_place(self, v: str, cycle: int, slots: Mapping[str, int]) -> None:
        new_reg, new_mem = self._deps(v, cycle, slots)
        sreg = self._sreg
        smem = self._smem
        if new_reg:
            sreg.extend(new_reg)
            # the new synchronised deps may preserve previously committed
            # memory deps: refresh the cached flags (monotone within an
            # attempt — register deps are only ever added).
            ancestors = self._tms.ancestors
            for ent in smem:
                if ent[4]:
                    continue
                row_x = ent[0]
                req = ent[1]
                anc_y = ancestors[ent[3]]
                for row_u, sync, dst in new_reg:
                    if row_u < row_x and sync >= req and dst in anc_y:
                        ent[4] = True
                        break
        if self._speculation:
            ancestors = self._tms.ancestors
            for row_x, _sync, req, prob, y in new_mem:
                preserved = req <= 0
                if not preserved:
                    anc_y = ancestors[y]
                    for row_u, sync, dst in sreg:
                        if row_u < row_x and sync >= req and dst in anc_y:
                            preserved = True
                            break
                smem.append([row_x, req, prob, y, preserved])
