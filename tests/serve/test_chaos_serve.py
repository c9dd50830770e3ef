"""Serve-chaos harness: seeded request generation, the versioned report
schema, and one real fault-injected campaign."""

from __future__ import annotations

import json

import pytest

from repro.serve.chaos import (
    SCHEMA_VERSION,
    SERVE_SCENARIOS,
    ServeChaosReport,
    ServeChaosRow,
    build_requests,
    run_serve_chaos,
    validate_serve_chaos_report_dict,
    write_serve_chaos_report_json,
)


# -- seeded request generation ---------------------------------------------------

def test_build_requests_is_deterministic():
    a = build_requests(11, "conn-reset", 8)
    b = build_requests(11, "conn-reset", 8)
    assert [r.fingerprint() for r in a] == [r.fingerprint() for r in b]


def test_build_requests_varies_by_seed_and_scenario():
    base = [r.fingerprint() for r in build_requests(11, "conn-reset", 8)]
    other_seed = [r.fingerprint() for r in build_requests(12, "conn-reset", 8)]
    other_scenario = [r.fingerprint() for r in build_requests(11, "latency", 8)]
    assert base != other_seed
    assert base != other_scenario


def test_build_requests_are_valid_wire_payloads():
    for request in build_requests(3, "sigkill", 6):
        payload = request.to_dict()
        assert payload["kind"] in ("compile", "simulate")
        assert payload["source"].lstrip().startswith("loop ")
        assert request.request_id()


# -- report schema -----------------------------------------------------------------

def _row(**kw):
    base = dict(scenario="conn-reset", seed=1, n_requests=4, n_unique=3,
                completed=4, wrong_answers=0,
                digests=(("r" * 16, "d" * 64),))
    base.update(kw)
    return ServeChaosRow(**base)


def _report(rows=None):
    rows = rows if rows is not None else (_row(),)
    return ServeChaosReport(rows=rows, seed=1, n_requests=4,
                            scenarios=tuple(r.scenario for r in rows))


def test_row_verdict():
    assert _row().ok
    assert not _row(completed=3).ok
    assert not _row(wrong_answers=1).ok


def test_report_dict_round_trips_the_schema():
    data = _report().to_dict()
    validate_serve_chaos_report_dict(data)          # must not raise
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["summary"]["all_ok"] is True
    assert data["summary"]["total_requests"] == 4


def test_validator_rejects_foreign_versions_and_shape_drift():
    data = _report().to_dict()
    with pytest.raises(ValueError, match="schema_version"):
        validate_serve_chaos_report_dict(
            {**data, "schema_version": SCHEMA_VERSION + 1})
    missing = dict(data)
    del missing["summary"]
    with pytest.raises(ValueError, match="summary"):
        validate_serve_chaos_report_dict(missing)
    mistyped = json.loads(json.dumps(data))
    mistyped["rows"][0]["completed"] = "four"
    with pytest.raises(ValueError, match="completed"):
        validate_serve_chaos_report_dict(mistyped)


def test_render_names_failing_scenarios():
    text = _report((_row(), _row(scenario="latency", completed=2))).render()
    assert "FAILED latency: 2/4 completed" in text
    failing_free = _report().render()
    assert "byte-identical" in failing_free


def test_report_json_is_stable_on_disk(tmp_path):
    report = _report()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write_serve_chaos_report_json(report, first)
    write_serve_chaos_report_json(report, second)
    assert first.read_bytes() == second.read_bytes()
    validate_serve_chaos_report_dict(json.loads(first.read_text()))


def test_scenario_names_are_stable():
    # CI and docs reference these names; renaming one is a breaking change
    assert SERVE_SCENARIOS == ("conn-reset", "latency", "pool-break",
                               "sigkill")


# -- one real campaign ---------------------------------------------------------------

def test_conn_reset_campaign_yields_zero_wrong_answers(registry,
                                                       span_tracer):
    """Injected connection resets must cost retries, never answers:
    every request completes and matches the clean run byte-for-byte."""
    report, notes, gates = run_serve_chaos(
        scenarios=("conn-reset",), n_requests=4, seed=5, retries=10)
    assert gates == []
    assert report.all_ok
    (row,) = report.rows
    assert row.completed == 4
    assert row.wrong_answers == 0
    assert len(row.digests) == row.n_unique
    validate_serve_chaos_report_dict(report.to_dict())
    # the digests are pure functions of the seed: a rerun must agree
    rerun, _, _ = run_serve_chaos(
        scenarios=("conn-reset",), n_requests=4, seed=5, retries=10)
    assert rerun.rows[0].digests == row.digests


def test_sigkill_campaign_retries_through_the_dead_window(registry,
                                                          span_tracer):
    """The second half of the burst is submitted while the daemon is
    dead: every request still completes byte-identically, and the
    round-trip gate holds (clients retried through the restart)."""
    report, notes, gates = run_serve_chaos(
        scenarios=("sigkill",), n_requests=4, seed=7, retries=10)
    assert gates == []
    assert report.all_ok
    (row,) = report.rows
    assert row.completed == 4
    assert row.wrong_answers == 0
    assert any("round trip(s) total" in note for note in notes)
