"""The recurrence lower bound on a TMS schedule's C_delay threshold,
checked against hand-computed circuits."""

import pytest

from repro.config import ArchConfig, SchedulerConfig
from repro.costmodel import c_delay_lower_bound
from repro.graph import DDG, DDGNode, Dependence, DepKind, DepType
from repro.ir.opcode import Opcode
from repro.sched import ThreadSensitiveScheduler

REG, MEM = DepKind.REGISTER, DepKind.MEMORY
FLOW, ANTI = DepType.FLOW, DepType.ANTI
#: C_reg_com of the paper's machine.
CCOM = ArchConfig.paper_default().reg_comm_latency


def _ddg(latencies, edges):
    """A hand-built DDG: ``latencies`` maps node -> latency (program
    order = insertion order); ``edges`` are ``(src, dst, kind, dtype,
    distance)`` with the delay ``build_ddg`` would give them (producer
    latency for flow, 1 otherwise)."""
    nodes = [DDGNode(name, Opcode.FADD, lat, pos)
             for pos, (name, lat) in enumerate(latencies.items())]
    deps = [Dependence(src, dst, kind, dtype, dist,
                       latencies[src] if dtype is FLOW else 1)
            for src, dst, kind, dtype, dist in edges]
    return DDG("hand", nodes, deps)


def test_self_loop(arch):
    # sync = lat / d + C_reg_com: 4 / 1, and ceil(5 / 2) = 3
    assert c_delay_lower_bound(
        _ddg({"a": 4}, [("a", "a", REG, FLOW, 1)]), arch) == CCOM + 4
    assert c_delay_lower_bound(
        _ddg({"a": 5}, [("a", "a", REG, FLOW, 2)]), arch) == CCOM + 3


def test_distance_one_circuit(arch):
    # a -> b -> c -> a with latencies 3 + 2 + 1 over one iteration
    ddg = _ddg({"a": 3, "b": 2, "c": 1},
               [("a", "b", REG, FLOW, 0), ("b", "c", REG, FLOW, 0),
                ("c", "a", REG, FLOW, 1)])
    assert c_delay_lower_bound(ddg, arch) == CCOM + 6


def test_distance_two_circuit(arch):
    # (3 + 2) / 2 = 2.5 rounds up to 3; the binding circuit is the
    # heavier of two sharing node a
    ddg = _ddg({"a": 3, "b": 2, "c": 1},
               [("a", "b", REG, FLOW, 0), ("b", "a", REG, FLOW, 2),
                ("a", "c", REG, FLOW, 0), ("c", "a", REG, FLOW, 2)])
    assert c_delay_lower_bound(ddg, arch) == CCOM + 3


def test_no_circuit_is_the_search_floor(arch):
    ddg = _ddg({"a": 3, "b": 2}, [("a", "b", REG, FLOW, 0)])
    assert c_delay_lower_bound(ddg, arch) == CCOM + 1
    assert c_delay_lower_bound(ddg, arch, speculation=False) == CCOM + 1


def test_anti_edge_recurrence_never_binds(arch):
    # a -> b closes only through a register anti dependence
    ddg = _ddg({"a": 4, "b": 2},
               [("a", "b", REG, FLOW, 0), ("b", "a", REG, ANTI, 1)])
    assert c_delay_lower_bound(ddg, arch) == CCOM + 1
    assert c_delay_lower_bound(ddg, arch, speculation=False) == CCOM + 1


def test_memory_flow_recurrence_binds_only_without_speculation(arch):
    # a -> b (register) -> a (memory, next iteration): 4 + 2 over d = 1
    ddg = _ddg({"a": 4, "b": 2},
               [("a", "b", REG, FLOW, 0), ("b", "a", MEM, FLOW, 1)])
    assert c_delay_lower_bound(ddg, arch) == CCOM + 1
    assert c_delay_lower_bound(ddg, arch, speculation=False) == CCOM + 6


def test_memory_anti_recurrence_never_binds(arch):
    ddg = _ddg({"a": 4, "b": 2},
               [("a", "b", REG, FLOW, 0), ("b", "a", MEM, ANTI, 1)])
    assert c_delay_lower_bound(ddg, arch, speculation=False) == CCOM + 1


def test_short_delay_edge_caps_the_span(arch):
    # a hand-built flow edge whose delay is below its producer's latency
    # contributes only its delay, keeping the bound a valid lower bound
    nodes = [DDGNode("a", Opcode.FADD, 4, 0)]
    ddg = DDG("short", nodes, [Dependence("a", "a", REG, FLOW, 1, 2)])
    assert c_delay_lower_bound(ddg, arch) == CCOM + 2


@pytest.mark.parametrize("speculation", [True, False])
def test_scheduler_threshold_meets_the_bound(fig1_ddg, fig1_machine, arch,
                                             speculation):
    cfg = SchedulerConfig(speculation=speculation)
    tms = ThreadSensitiveScheduler(fig1_ddg, fig1_machine, arch, cfg)
    assert tms.c_delay_bound == c_delay_lower_bound(
        fig1_ddg, arch, speculation=speculation)
    sched = tms.schedule()
    assert sched.meta["c_delay_threshold"] >= tms.c_delay_bound
