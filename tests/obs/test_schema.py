"""The five versioned-report validators share one schema gate; each
keeps the exact error message it raised before they were merged."""

from __future__ import annotations

import copy

import pytest

from repro.dse.analysis import DSE_REPORT_SCHEMA, validate_dse_report_dict
from repro.faults.report import (
    CHAOS_REPORT_SCHEMA,
    validate_chaos_report_dict,
)
from repro.obs.ledger import LEDGER_SCHEMA, validate_ledger_record_dict
from repro.obs.report import REPORT_SCHEMA, validate_report_dict
from repro.serve.chaos import (
    SERVE_CHAOS_REPORT_SCHEMA,
    validate_serve_chaos_report_dict,
)

_SAMPLE = {int: 1, float: 1.5, str: "s", bool: True, list: [], dict: {}}


def _conforming(schema, list_keys):
    """The smallest dict that passes ``schema``: one row per list key."""
    out = {}
    for key, expected in schema.items():
        if isinstance(expected, dict):
            row = _conforming(expected, list_keys)
            out[key] = [row] if key in list_keys else row
        else:
            out[key] = copy.copy(_SAMPLE[expected])
    return out


# (validator, schema, schema version, list keys, top-level key to drop,
#  missing-key message, (list key, row key, bad value), nested-row
#  message)
CASES = {
    "ledger": (validate_ledger_record_dict, LEDGER_SCHEMA, 1, ("spans",),
               "command", "ledger record missing key 'command'",
               ("spans", "wall_seconds", "slow"),
               "spans[0].'wall_seconds' must be a number, got str"),
    "discrepancy": (validate_report_dict, REPORT_SCHEMA, 1, ("rows",),
                    "ncore", "report missing key 'ncore'",
                    ("rows", "ii", 2.0),
                    "rows[0].'ii' must be int, got float"),
    "dse": (validate_dse_report_dict, DSE_REPORT_SCHEMA, 1,
            ("trials", "pareto"), "strategy",
            "report missing key 'strategy'",
            ("trials", "fidelity", "high"),
            "trials[0].'fidelity' must be int, got str"),
    "chaos": (validate_chaos_report_dict, CHAOS_REPORT_SCHEMA, 2,
              ("rows",), "scenarios", "report missing key 'scenarios'",
              ("rows", "ok", 1),
              "rows[0].'ok' must be bool, got int"),
    "serve-chaos": (validate_serve_chaos_report_dict,
                    SERVE_CHAOS_REPORT_SCHEMA, 1, ("rows",), "n_requests",
                    "report missing key 'n_requests'",
                    ("rows", "completed", True),
                    "rows[0].'completed' must be int, got bool"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_validators_keep_their_exact_messages(name):
    (validate, schema, version, list_keys, dropped, missing_msg,
     (list_key, row_key, bad), row_msg) = CASES[name]
    good = dict(_conforming(schema, list_keys), schema_version=version)
    validate(good)                                  # conforming: passes

    missing = copy.deepcopy(good)
    del missing[dropped]
    with pytest.raises(ValueError) as exc:
        validate(missing)
    assert str(exc.value) == missing_msg

    mistyped = copy.deepcopy(good)
    mistyped[list_key][0][row_key] = bad
    with pytest.raises(ValueError) as exc:
        validate(mistyped)
    assert str(exc.value) == row_msg

    foreign = dict(good, schema_version=version + 1)
    with pytest.raises(ValueError) as exc:
        validate(foreign)
    assert str(exc.value) == (f"unsupported schema_version {version + 1} "
                              f"(expected {version})")


def test_dse_validator_rejects_bool_for_int():
    """The DSE gate now refuses ``True`` where an int belongs, as the
    other four always did."""
    report = dict(_conforming(DSE_REPORT_SCHEMA, ("trials", "pareto")),
                  schema_version=1, seed=True)
    with pytest.raises(ValueError, match=r"^'seed' must be int, got bool$"):
        validate_dse_report_dict(report)
