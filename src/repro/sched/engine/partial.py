"""The incremental partial schedule: MRT + slots + optional MaxLive.

:class:`PartialSchedule` is the engine's mutable state for one placement
attempt.  It subsumes :class:`repro.machine.reservation.ModuloReservationTable`
with a flat list-of-int-rows layout and per-node pre-resolved FU specs
(from :class:`~repro.sched.engine.context.EngineContext`), making the
resource probe — by far the hottest call of a modulo-scheduling search —
a few list indexings with no enum hashing or spec lookups.

``track_live=True`` additionally maintains the kernel's MaxLive
incrementally (a :class:`LiveTracker`): every ``place``/``remove``
updates the per-row live counts of exactly the value intervals the
placement touches, so the register-pressure figure is available at any
point of a partial schedule without rescanning — and provably equals
:func:`repro.sched.maxlive.max_live` on a completed one.
"""

from __future__ import annotations

from ...errors import MachineError
from .context import EngineContext

__all__ = ["LiveTracker", "PartialSchedule"]


class LiveTracker:
    """Incremental per-row live-value counts (the MaxLive invariant).

    A value born at flat cycle ``b`` and dying at ``d`` contributes
    ``|{k >= 0 : b <= r + k*II < d}|`` live instances to kernel row
    ``r``.  Births are producer issue slots; deaths the latest *placed*
    consumer's ``slot + distance*II`` (``birth+1`` when no placed
    consumer outlives the birth — a zero-length lifetime still occupies a
    register).  Placements extend producers' deaths; removals shrink
    them; each change re-applies one interval in O(II).
    """

    __slots__ = ("ii", "_uses", "_prods", "_rows", "_birth", "_cons")

    def __init__(self, ctx: EngineContext, ii: int) -> None:
        self.ii = ii
        self._uses = ctx.reg_uses
        self._prods = ctx.reg_prods
        self._rows = [0] * ii
        self._birth: dict[str, int] = {}
        self._cons: dict[str, int | None] = {}

    def _apply(self, u: str, sign: int) -> None:
        birth = self._birth[u]
        cons = self._cons[u]
        death = cons if (cons is not None and cons > birth) else birth + 1
        ii = self.ii
        rows = self._rows
        for r in range(ii):
            k0 = -(-(birth - r) // ii)  # ceil((birth - r) / ii)
            if k0 < 0:
                k0 = 0
            k1 = (death - 1 - r) // ii  # floor((death - 1 - r) / ii)
            if k1 >= k0:
                rows[r] += sign * (k1 - k0 + 1)

    def _recompute_cons(self, u: str, slots: dict[str, int]) -> int | None:
        cons = None
        for dst, dist in self._uses[u]:
            s = slots.get(dst)
            if s is not None:
                flat = s + dist * self.ii
                if cons is None or flat > cons:
                    cons = flat
        return cons

    def on_place(self, v: str, cycle: int, slots: dict[str, int]) -> None:
        """``slots`` must already contain ``v``."""
        if self._uses[v]:
            self._birth[v] = cycle
            self._cons[v] = self._recompute_cons(v, slots)
            self._apply(v, +1)
        for src, dist in self._prods[v]:
            if src == v or src not in self._birth:
                continue
            flat = cycle + dist * self.ii
            cons = self._cons[src]
            if cons is None or flat > cons:
                self._apply(src, -1)
                self._cons[src] = flat
                self._apply(src, +1)

    def on_remove(self, v: str, slots: dict[str, int]) -> None:
        """``slots`` must no longer contain ``v``."""
        if v in self._birth:
            self._apply(v, -1)
            del self._birth[v]
            del self._cons[v]
        for src, _dist in self._prods[v]:
            if src == v or src not in self._birth:
                continue
            self._apply(src, -1)
            self._cons[src] = self._recompute_cons(src, slots)
            self._apply(src, +1)

    @property
    def max_live(self) -> int:
        return max(self._rows) if self._birth else 0


class PartialSchedule:
    """Slots + modulo reservation state for one attempt at one II.

    ``issue_use[row]`` (ops issued per kernel row) and
    ``fu_use[row][fu]`` (units busy per row and FU class) are public so a
    slot policy's window scan can inline the pipelined-unit probe;
    only :meth:`place` and :meth:`remove` write them.
    """

    __slots__ = ("ii", "ctx", "slots", "live", "issue_width", "_spec",
                 "fu_use", "issue_use")

    def __init__(self, ctx: EngineContext, ii: int, *,
                 track_live: bool = False) -> None:
        if ii < 1:
            raise MachineError(f"II must be >= 1, got {ii}")
        self.ii = ii
        self.ctx = ctx
        self.slots: dict[str, int] = {}
        self.live = LiveTracker(ctx, ii) if track_live else None
        self.issue_width = ctx.issue_width
        self._spec = ctx.spec
        self.fu_use: list[list[int]] = [[0] * ctx.n_fu for _ in range(ii)]
        self.issue_use: list[int] = [0] * ii

    # -- queries -----------------------------------------------------------

    def fits(self, name: str, cycle: int) -> bool:
        """Resource probe: O(1) for pipelined units (the common case)."""
        ii = self.ii
        row0 = cycle % ii
        if self.issue_use[row0] >= self.issue_width:
            return False
        fu, count, occ = self._spec[name]
        fu_use = self.fu_use
        if occ == 1:
            return fu_use[row0][fu] < count
        if occ >= ii:
            # a single op monopolises every row of this class; it fits
            # only if no other op of the class is present anywhere.
            for row in fu_use:
                if row[fu] >= count:
                    return False
            return True
        for k in range(occ):
            if fu_use[(cycle + k) % ii][fu] >= count:
                return False
        return True

    def occupancy_rows(self, name: str, cycle: int) -> list[int]:
        occ = min(self._spec[name][2], self.ii)
        return [(cycle + k) % self.ii for k in range(occ)]

    def fu_index(self, name: str) -> int:
        return self._spec[name][0]

    def __contains__(self, name: str) -> bool:
        return name in self.slots

    def __len__(self) -> int:
        return len(self.slots)

    # -- mutation ------------------------------------------------------------

    def place(self, name: str, cycle: int) -> None:
        if name in self.slots:
            raise MachineError(f"instruction {name!r} already placed")
        if not self.fits(name, cycle):
            raise MachineError(
                f"cannot place {name!r} at cycle {cycle} (II={self.ii}): "
                f"resource conflict")
        fu = self._spec[name][0]
        for row in self.occupancy_rows(name, cycle):
            self.fu_use[row][fu] += 1
        self.issue_use[cycle % self.ii] += 1
        self.slots[name] = cycle
        if self.live is not None:
            self.live.on_place(name, cycle, self.slots)

    def remove(self, name: str) -> None:
        cycle = self.slots.pop(name, None)
        if cycle is None:
            raise MachineError(f"instruction {name!r} is not placed")
        fu = self._spec[name][0]
        for row in self.occupancy_rows(name, cycle):
            self.fu_use[row][fu] -= 1
        self.issue_use[cycle % self.ii] -= 1
        if self.live is not None:
            self.live.on_remove(name, self.slots)
