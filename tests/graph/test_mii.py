"""ResMII / RecMII / MII."""

import pytest

from repro.graph import compute_mii, is_feasible_ii, rec_mii, res_mii
from repro.graph.mii import scc_rec_mii
from repro.graph.scc import strongly_connected_components


def test_motivating_anchors(fig1_ddg, fig1_machine):
    # the paper's Figure 1: ResII = 4, RecII = 8, MII = 8
    assert res_mii(fig1_ddg, fig1_machine) == 4
    assert rec_mii(fig1_ddg) == 8
    assert compute_mii(fig1_ddg, fig1_machine) == 8


def test_acyclic_rec_mii_is_one(axpy_ddg):
    # axpy's only recurrence is the 2-cycle accumulator self-loop
    assert rec_mii(axpy_ddg) == 2


def test_feasibility_monotone(fig1_ddg):
    assert not is_feasible_ii(fig1_ddg, 7)
    assert is_feasible_ii(fig1_ddg, 8)
    assert is_feasible_ii(fig1_ddg, 9)


def test_rec_mii_subset(fig1_ddg):
    assert rec_mii(fig1_ddg, ["n6"]) == 1  # iadd self-loop, delay 1
    assert rec_mii(fig1_ddg, ["n0", "n1", "n2", "n4", "n5"]) == 8


def test_scc_rec_mii(fig1_ddg):
    comps = strongly_connected_components(fig1_ddg)
    recs = scc_rec_mii(fig1_ddg, comps)
    by_comp = {tuple(sorted(c)): r for c, r in zip(comps, recs)}
    big = next(k for k in by_comp if len(k) == 6)
    assert by_comp[big] == 8


def test_recurrent_mem_mii(recurrent_ddg, resources):
    # the binding circuit is B's conservative indirect dependence:
    # load(3) + fadd(2) + store(1) at distance 1 = 6; the exact
    # distance-2 recurrence on A only needs (3 + 4 + 1) / 2 = 4
    assert rec_mii(recurrent_ddg) == 6
    assert rec_mii(recurrent_ddg, ["n0", "n1", "n2"]) == 4


def test_no_edges_is_feasible(fig1_ddg):
    assert is_feasible_ii(fig1_ddg, 1, ["n0"])


def test_edge_filter_and_delay(fig1_ddg):
    # Figure 1's II-8 recurrence closes through the memory flow n5 -> n0;
    # its register flow circuits are unit-delay self-loops
    assert rec_mii(fig1_ddg, delay=lambda e: 2 * e.delay) == 16
    assert rec_mii(fig1_ddg, edge_filter=lambda e: e.is_register_flow) == 1
    assert rec_mii(fig1_ddg,
                   edge_filter=lambda e: e.dtype.value == "flow") == 8
    assert rec_mii(fig1_ddg, edge_filter=lambda e: False) == 1
