"""Observability: metrics, structured event tracing, trace exports and
the cost-model-vs-simulator discrepancy report.

* :mod:`repro.obs.metrics` — a zero-dependency registry of counters,
  gauges, histograms and timing spans.  The schedulers, simulator,
  session cache and parallel runner all publish into the process-wide
  registry; ``tms-experiments --stats`` dumps it.
* :mod:`repro.obs.events` — the :class:`Tracer` the schedulers and
  simulator emit structured events into when tracing is enabled
  (``tms-experiments --trace`` or :func:`repro.obs.events.tracing`).
  Off by default; hot paths pay one attribute read.
* :mod:`repro.obs.export` — deterministic JSONL and Chrome
  trace-event (``chrome://tracing``) serialisation of those events,
  plus the :func:`format_trace` lane summary.
* :mod:`repro.obs.spans` — the deterministic hierarchical
  :class:`SpanTracer` (``span("compile.tms", kernel=...)`` regions with
  parent/child ids, wall + exclusive time and per-span metric deltas).
* :mod:`repro.obs.aggregate` — cross-process telemetry capture: workers
  snapshot their metrics/events/spans into each task result and the
  parent merges them back under ``worker.<task>`` origin labels, so
  ``--stats`` and ``--trace`` are complete under ``--jobs N``.
* :mod:`repro.obs.ledger` — the append-only JSONL run ledger
  (``REPRO_LEDGER_DIR``) that ``tms-experiments report`` renders and
  gates on.
* :mod:`repro.obs.report` — the :class:`DiscrepancyReport` comparing
  the Section 4.2 cost model's predicted ``T`` against simulated
  ``total_cycles`` per kernel (built by ``tms-experiments validate``).
* :mod:`repro.obs.schema` — :func:`~repro.obs.schema.check_schema`, the
  golden-schema gate behind every ``validate_*_dict`` of a versioned
  report (ledger, discrepancy, DSE, chaos and serve-chaos reports).

See ``docs/observability.md`` for metric names, the event schema and
the trace-export workflow.
"""

from __future__ import annotations

from .aggregate import collecting, merge_into_process, telemetry_config
from .events import Event, Tracer, enable_tracing, get_tracer, tracing
from .export import (
    KNOWN_CATS,
    events_to_jsonl,
    format_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
)
from .ledger import (
    LEDGER_SCHEMA,
    append_run_record,
    ledger_dir,
    read_ledger,
    validate_ledger_record_dict,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    get_registry,
    set_registry,
)
from .report import (
    REPORT_SCHEMA,
    DiscrepancyReport,
    DiscrepancyRow,
    validate_report_dict,
)
from .spans import (
    Span,
    SpanTracer,
    enable_spans,
    get_span_tracer,
    set_span_tracer,
    span,
    span_tree,
    spans_to_dicts,
)

__all__ = [
    "Counter",
    "DiscrepancyReport",
    "DiscrepancyRow",
    "Event",
    "Gauge",
    "Histogram",
    "KNOWN_CATS",
    "LEDGER_SCHEMA",
    "MetricsRegistry",
    "REPORT_SCHEMA",
    "Span",
    "SpanTracer",
    "Timer",
    "Tracer",
    "append_run_record",
    "collecting",
    "enable_spans",
    "enable_tracing",
    "events_to_jsonl",
    "format_trace",
    "get_registry",
    "get_span_tracer",
    "get_tracer",
    "ledger_dir",
    "merge_into_process",
    "read_ledger",
    "set_registry",
    "set_span_tracer",
    "span",
    "span_tree",
    "spans_to_dicts",
    "telemetry_config",
    "to_chrome_trace",
    "tracing",
    "validate_ledger_record_dict",
    "validate_report_dict",
    "write_chrome_trace",
    "write_events_jsonl",
]
