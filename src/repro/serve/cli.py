"""``tms-experiments serve`` / ``tms-experiments submit``.

``serve`` runs the daemon in the foreground until SIGTERM/SIGINT or an
in-band ``/shutdown``, then prints the request tally; its run-ledger
record (appended by :func:`repro.experiments.runner.main`) carries the
same tally in ``extra``.  With ``--supervise`` this process becomes the
supervisor parent instead: it forks the daemon as a child
(``python -m repro.experiments serve ...``), watches ``/healthz``
heartbeats, and restarts it on crash or hang with capped exponential
backoff; set ``REPRO_CACHE_DIR`` so a restarted child answers
completed requests from its disk cache (see docs/serving.md).
``submit`` sends one request to a running daemon and exits with a typed
code (:data:`~repro.serve.protocol.EXIT_OK` / ``EXIT_ERROR`` /
``EXIT_REJECTED`` / ``EXIT_UNAVAILABLE``) so shell pipelines and CI can
branch on the outcome; ``--retries`` / ``--hedge`` arm the hardened
client paths.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

from ..errors import AdmissionRejected, ProtocolError, ServerUnavailable
from .protocol import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_UNAVAILABLE,
    KINDS,
    POLICIES,
    ServeRequest,
)

__all__ = ["add_chaos_serve_arguments", "add_serve_arguments",
           "add_submit_arguments", "run_chaos_serve_command",
           "run_serve_command", "run_submit_command"]

DEFAULT_PORT = 8437


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port; 0 picks a free one "
                             f"(default: {DEFAULT_PORT})")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="max distinct in-flight jobs before "
                             "queue_full rejections (default: 64)")
    parser.add_argument("--serve-workers", type=int, default=1,
                        help="broker executor threads (default: 1, "
                             "strictly FIFO)")
    parser.add_argument("--result-cache-size", type=int, default=512,
                        help="completed responses kept for identical "
                             "future requests (default: 512)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="default per-request deadline in seconds "
                             "(requests may carry their own)")
    parser.add_argument("--retries", type=int, default=0,
                        help="retry waves for transient worker crashes "
                             "(default: 0)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes in the warm pool "
                             "(default: $REPRO_JOBS or sequential)")
    parser.add_argument("--max-tasks-per-worker", type=int, default=None,
                        help="recycle the worker pool after this many "
                             "tasks per worker (hygiene for long-lived "
                             "daemons)")
    parser.add_argument("--max-body-bytes", type=int, default=None,
                        help="request body cap; larger bodies get a "
                             "typed HTTP 413 (default: 1 MiB)")
    parser.add_argument("--supervise", action="store_true",
                        help="run as a supervisor: fork the daemon as a "
                             "child, watch /healthz, restart on crash "
                             "or hang with capped backoff")
    parser.add_argument("--max-restarts", type=int, default=None,
                        help="supervisor gives up after this many "
                             "restarts (default: never)")
    parser.add_argument("--hang-timeout", type=float, default=15.0,
                        help="supervisor kills a child silent on "
                             "/healthz for this long (default: 15)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every HTTP request")


def add_submit_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="loop source file (repro.ir.dsl "
                                     "syntax), or - for stdin")
    parser.add_argument("--server", default=f"127.0.0.1:{DEFAULT_PORT}",
                        help=f"daemon address host:port (default: "
                             f"127.0.0.1:{DEFAULT_PORT})")
    parser.add_argument("--kind", choices=KINDS, default="simulate",
                        help="unit of work (default: simulate)")
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--unroll", type=int, default=1,
                        help="unroll factor (thread granularity)")
    parser.add_argument("--iterations", type=int, default=500,
                        help="simulated trip count (simulate)")
    parser.add_argument("--seed", type=int, default=0xACE5,
                        help="simulator seed (simulate)")
    parser.add_argument("--policy", choices=POLICIES, default="tms",
                        help="kernel to simulate (default: tms)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-request deadline in seconds")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="client-side HTTP timeout (default: 300)")
    parser.add_argument("--retries", type=int, default=0,
                        help="retry transport failures and retryable "
                             "rejections this many times with capped "
                             "exponential backoff (default: 0)")
    parser.add_argument("--hedge", type=float, default=None, metavar="SECS",
                        help="launch an identical second request if the "
                             "first hasn't answered within SECS (safe: "
                             "the daemon coalesces identical work)")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write the raw response JSON to a file")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable summary")


def add_chaos_serve_arguments(parser: argparse.ArgumentParser) -> None:
    from .chaos import DEFAULT_SEED, SERVE_SCENARIOS

    parser.add_argument("--scenario", action="append", default=None,
                        choices=SERVE_SCENARIOS, dest="scenarios",
                        help="run only this scenario (repeatable; "
                             "default: all)")
    parser.add_argument("--requests", type=int, default=6,
                        help="burst size per scenario (default: 6)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"campaign seed (default: {DEFAULT_SEED:#x}); "
                             f"same-seed reruns produce byte-identical "
                             f"reports")
    parser.add_argument("--retries", type=int, default=10,
                        help="client retry budget per request "
                             "(default: 10)")
    parser.add_argument("--max-unavailable", type=float, default=60.0,
                        help="seconds a SIGKILL'd daemon may stay down "
                             "before the campaign fails (default: 60)")
    parser.add_argument("--quick", action="store_true",
                        help="in-process transport scenarios only "
                             "(conn-reset, latency) with a smaller burst "
                             "— the CI schema gate")
    parser.add_argument("--out", default=None,
                        help="also write the versioned report JSON "
                             "(byte-identical across same-seed reruns)")


def run_chaos_serve_command(ns: argparse.Namespace) -> int:
    from .chaos import (
        run_serve_chaos,
        validate_serve_chaos_report_dict,
        write_serve_chaos_report_json,
    )

    scenarios = tuple(ns.scenarios) if ns.scenarios else None
    n_requests = ns.requests
    if ns.quick:
        scenarios = scenarios or ("conn-reset", "latency")
        n_requests = min(n_requests, 4)
    kwargs = {"n_requests": n_requests, "seed": ns.seed,
              "retries": ns.retries,
              "max_unavailable": ns.max_unavailable}
    if scenarios is not None:
        kwargs["scenarios"] = scenarios
    try:
        report, notes, gates = run_serve_chaos(**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(f"[chaos-serve] {note}", file=sys.stderr)
    for gate in gates:
        print(f"[chaos-serve] GATE FAILED: {gate}", file=sys.stderr)
    validate_serve_chaos_report_dict(report.to_dict())
    print(report.render())
    if ns.out:
        out = Path(ns.out)
        if out.parent and not out.parent.exists():
            out.parent.mkdir(parents=True, exist_ok=True)
        write_serve_chaos_report_json(report, out)
        print(f"[report -> {out}]", file=sys.stderr)
    ns.serve_summary = report.to_dict()["summary"]
    return 0 if report.all_ok and not gates else 1


def run_serve_command(ns: argparse.Namespace) -> int:
    if getattr(ns, "supervise", False):
        return _run_supervised(ns)

    from ..session import Session
    from .broker import BrokerConfig, RequestBroker
    from .server import MAX_BODY_BYTES, ServeDaemon

    try:
        config = BrokerConfig(max_queue_depth=ns.queue_depth,
                              workers=ns.serve_workers,
                              result_cache_size=ns.result_cache_size,
                              default_deadline_seconds=ns.deadline,
                              retries=ns.retries)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    session = Session(jobs=ns.jobs, persistent=True,
                      max_tasks_per_worker=ns.max_tasks_per_worker)
    broker = RequestBroker(session=session, config=config)
    try:
        daemon = ServeDaemon(
            ns.host, ns.port, broker=broker,
            install_signal_handlers=True, verbose=ns.verbose,
            max_body_bytes=ns.max_body_bytes if ns.max_body_bytes
            is not None else MAX_BODY_BYTES)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    daemon.start()
    print(f"[serve] listening on {daemon.address} "
          f"(queue depth {config.max_queue_depth}, "
          f"{config.workers} executor(s)); SIGTERM or POST /shutdown "
          f"to stop", flush=True)
    daemon.wait()
    drained = daemon.drained
    print(f"[serve] stopped ({'drained' if drained else 'drain timed out'}); "
          f"{broker.summary()}", flush=True)
    # surfaced into the run-ledger record by the entry point
    ns.serve_summary = dict(broker.counts)
    return 0 if drained else 1


def _free_port(host: str) -> int:
    """Pre-pick a free port once so a supervised daemon keeps the same
    address across restarts (``--port 0`` would re-roll per child)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _child_argv(ns: argparse.Namespace, port: int) -> list[str]:
    """The daemon child's command line: this serve invocation minus
    ``--supervise``, with the resolved port pinned."""
    argv = [sys.executable, "-m", "repro.experiments", "serve",
            "--host", ns.host, "--port", str(port),
            "--queue-depth", str(ns.queue_depth),
            "--serve-workers", str(ns.serve_workers),
            "--result-cache-size", str(ns.result_cache_size),
            "--retries", str(ns.retries)]
    if ns.deadline is not None:
        argv += ["--deadline", str(ns.deadline)]
    if ns.jobs is not None:
        argv += ["--jobs", str(ns.jobs)]
    if ns.max_tasks_per_worker is not None:
        argv += ["--max-tasks-per-worker", str(ns.max_tasks_per_worker)]
    if ns.max_body_bytes is not None:
        argv += ["--max-body-bytes", str(ns.max_body_bytes)]
    if ns.verbose:
        argv += ["--verbose"]
    return argv


def _run_supervised(ns: argparse.Namespace) -> int:
    from .resilience import Supervisor, SupervisorConfig

    port = ns.port if ns.port else _free_port(ns.host)
    argv = _child_argv(ns, port)
    if not os.environ.get("REPRO_CACHE_DIR", "").strip():
        print("[supervise] note: REPRO_CACHE_DIR unset; a restarted "
              "daemon starts cold", flush=True)

    def spawn() -> subprocess.Popen:
        return subprocess.Popen(argv)

    config = SupervisorConfig(max_restarts=ns.max_restarts,
                              hang_timeout=ns.hang_timeout)
    supervisor = Supervisor(spawn, ns.host, port, config)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: supervisor.request_stop())
    print(f"[supervise] daemon on {ns.host}:{port}; restart on crash or "
          f"hang (SIGTERM to stop)", flush=True)
    code = supervisor.run()
    ns.serve_summary = {"supervised": True, "restarts": supervisor.restarts,
                        "crashes": supervisor.crashes,
                        "hangs": supervisor.hangs}
    return code


def run_submit_command(ns: argparse.Namespace) -> int:
    from .client import ServeClient

    if ns.path == "-":
        source = sys.stdin.read()
    else:
        path = Path(ns.path)
        if not path.exists():
            print(f"error: no such loop source file: {path}",
                  file=sys.stderr)
            return 2
        source = path.read_text(encoding="utf-8")
    try:
        request = ServeRequest(kind=ns.kind, source=source, cores=ns.cores,
                               unroll=ns.unroll, iterations=ns.iterations,
                               seed=ns.seed, policy=ns.policy,
                               deadline_seconds=ns.deadline)
        client = ServeClient.from_address(ns.server, timeout=ns.timeout)
        outcome = client.submit(request, raise_on_reject=False,
                                retries=ns.retries, hedge_after=ns.hedge)
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ServerUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except AdmissionRejected as exc:  # pragma: no cover — raise_on_reject off
        print(f"rejected: {exc.reason}", file=sys.stderr)
        return EXIT_REJECTED

    if ns.json_out:
        out = Path(ns.json_out)
        if out.parent and not out.parent.exists():
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(outcome.body + b"\n")
        print(f"[response -> {out}]", file=sys.stderr)

    response = outcome.response
    if outcome.status == "rejected":
        print(f"rejected: {response.get('reason', 'unknown')} "
              f"(request {response.get('request_id', '?')})",
              file=sys.stderr)
        return EXIT_REJECTED
    if outcome.status != "ok":
        print(f"error: {response.get('error', 'unknown server error')}",
              file=sys.stderr)
        return EXIT_ERROR
    if not ns.quiet:
        _print_summary(response, outcome.served, outcome.attempts)
    return EXIT_OK


def _print_summary(response: dict, served: str, attempts: int = 1) -> None:
    result = response.get("result", {})
    retried = f", {attempts} attempts" if attempts > 1 else ""
    print(f"request {response['request_id']} (served: {served}{retried})")
    if result.get("kind") == "compile":
        algs = result.get("algorithms", {})
        line = ", ".join(f"{name}: II={alg['ii']} C_delay={alg['c_delay']} "
                         f"max_live={alg['max_live']}"
                         for name, alg in sorted(algs.items()))
        print(f"{result.get('loop', '?')}: {result.get('n_inst', '?')} inst, "
              f"MII={result.get('mii', '?')}; {line}")
    elif result.get("kind") == "simulate":
        stats = result.get("stats", {})
        print(f"{result.get('loop', '?')} [{result.get('policy', '?')}]: "
              f"II={result.get('ii', '?')} "
              f"C_delay={result.get('c_delay', '?')}; "
              f"{stats.get('total_cycles', '?')} cycles / "
              f"{stats.get('iterations', '?')} iterations "
              f"({stats.get('cycles_per_iteration', 0):.2f} cyc/iter, "
              f"misspec {100 * stats.get('misspec_frequency', 0.0):.3f}%)")
    else:  # pragma: no cover — future kinds
        print(json.dumps(result, sort_keys=True, indent=2))
