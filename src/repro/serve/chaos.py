"""Seeded chaos campaigns against the serve stack end to end.

``tms-experiments chaos-serve`` is the serving twin of
``tms-experiments chaos`` (:mod:`repro.faults.campaign`): instead of
injecting faults *inside* the simulator, it attacks the daemon's
process and transport while hardened clients keep submitting — and
asserts the two invariants the self-healing layer exists to provide:

* **zero wrong answers** — every completed response is byte-identical
  to the same request executed on a clean in-process
  :class:`~repro.session.session.Session` (the daemon and the reference
  share one execution path, :func:`~repro.serve.broker.
  execute_request`);
* **nothing is lost** — every request in the burst completes within its
  retry budget, across daemon kills, connection resets, injected
  latency and worker-pool breakage.

Scenarios (:data:`SERVE_SCENARIOS`):

``sigkill``
    A supervised daemon child (real subprocess, ``REPRO_CACHE_DIR``
    pointed at a campaign temp directory) answers the first half of the
    burst and is then SIGKILL'd; the rest of the burst is submitted at
    once into the dead window.  The supervisor restarts the child,
    responses completed before the kill come back from the disk cache,
    and the retrying clients get through once it is back — a gate
    fails the campaign unless the round trips outnumber the requests.
``conn-reset``
    Submissions flow through a TCP proxy that hard-resets a seeded,
    *budgeted* subset of connections (``SO_LINGER 0``); client retry
    waves absorb every reset.
``latency``
    The proxy stalls seeded connections instead; hedged reads
    (``hedge_after``) race a second identical request past the stall —
    safe because the daemon coalesces identical in-flight work.
``pool-break``
    The daemon's warm worker pool is terminated mid-burst
    (the same breakage :mod:`repro.session.runner` heals with
    ``runner.pool_rebuilds``); broker-side retry waves re-execute on
    the rebuilt pool.

Determinism: request parameters, reset/stall choices, and client
backoff jitter are all derived from the campaign seed via
:func:`repro.faults.campaign.derive_seed`, and the versioned report
(:data:`SERVE_CHAOS_REPORT_SCHEMA`) contains only deterministic fields
— counts plus sorted ``(request_id, sha256(expected bytes))`` digests —
so same-seed reruns are byte-identical and CI can diff them.
Wall-clock observations (restart gaps, retry totals) go to stderr and
gate the exit code without entering the report.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import socket
import socketserver
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from ..faults.campaign import derive_seed
from ..obs.schema import check_schema
from .broker import BrokerConfig, RequestBroker, execute_request
from .client import ServeClient, wait_ready
from .protocol import ServeRequest, ok_response, response_bytes
from .resilience import BackoffPolicy, Supervisor, SupervisorConfig

__all__ = [
    "SERVE_CHAOS_REPORT_SCHEMA",
    "SERVE_SCENARIOS",
    "ServeChaosReport",
    "ServeChaosRow",
    "build_requests",
    "run_serve_chaos",
    "validate_serve_chaos_report_dict",
    "write_serve_chaos_report_json",
]

#: Campaign scenarios, in execution order.
SERVE_SCENARIOS = ("conn-reset", "latency", "pool-break", "sigkill")

#: default campaign seed
DEFAULT_SEED = 0x5E12E

#: Schema version written into every serve-chaos report dict.
SCHEMA_VERSION = 1

#: Golden schema of :meth:`ServeChaosReport.to_dict` (the CI gate).
SERVE_CHAOS_REPORT_SCHEMA: dict[str, Any] = {
    "schema_version": int,
    "seed": int,
    "n_requests": int,
    "scenarios": list,
    "rows": {
        "scenario": str,
        "seed": int,
        "n_requests": int,
        "n_unique": int,
        "completed": int,
        "wrong_answers": int,
        "digests": list,
        "ok": bool,
    },
    "summary": {
        "n_scenarios": int,
        "total_requests": int,
        "total_completed": int,
        "wrong_answers": int,
        "all_ok": bool,
    },
}

#: DSL kernels the campaign's requests draw from — small enough that a
#: single request is cheap, different enough that fingerprints differ.
TEMPLATES: dict[str, str] = {
    "axpy": """
loop axpy
array X 64
array Y 64
livein a 2.0
n0: x = load X[i]
n1: t = fmul x, a
n2: y = load Y[i]
n3: r = fadd t, y
n4: store Y[i], r
""",
    "dotacc": """
loop dotacc
array A 64
array B 64
livein s 0.0
n0: x = load A[i]
n1: y = load B[i]
n2: p = fmul x, y
n3: s = fadd s, p
""",
    "smooth": """
loop smooth
array V 64
array W 64
n0: a = load V[i]
n1: b = load V[i+1]
n2: t = fadd a, b
n3: u = fmul t, 0.5
n4: store W[i], u
""",
}


# -- request generation -----------------------------------------------------

def build_requests(seed: int, scenario: str,
                   n: int) -> list[ServeRequest]:
    """``n`` seeded requests for one scenario: template kernels with
    varied knobs, every parameter a pure function of
    ``(seed, scenario, index)``."""
    names = sorted(TEMPLATES)
    requests = []
    for i in range(n):
        rng = random.Random(derive_seed(seed, scenario, f"request-{i}"))
        name = names[i % len(names)]
        kind = "compile" if rng.random() < 0.4 else "simulate"
        requests.append(ServeRequest(
            kind=kind,
            source=TEMPLATES[name],
            cores=rng.choice((2, 4)),
            unroll=rng.choice((1, 2)),
            iterations=100 + 50 * rng.randrange(3),
            seed=rng.randrange(1 << 16),
            policy=rng.choice(("sms", "tms")),
        ))
    return requests


def _expected_bytes(requests: Sequence[ServeRequest],
                    session) -> dict[str, bytes]:
    """fingerprint → the canonical response bytes a clean run produces
    (the wrong-answer reference; one execution per unique request)."""
    expected: dict[str, bytes] = {}
    for request in requests:
        fingerprint = request.fingerprint()
        if fingerprint in expected:
            continue
        result = execute_request(session, request)
        expected[fingerprint] = response_bytes(ok_response(request, result))
    return expected


# -- report data model --------------------------------------------------------

@dataclass(frozen=True)
class ServeChaosRow:
    """One scenario's deterministic outcome."""

    scenario: str
    seed: int                      #: the scenario's derived seed
    n_requests: int
    n_unique: int                  #: distinct work fingerprints in the burst
    completed: int                 #: requests that got an ok response
    wrong_answers: int             #: responses differing from the clean run
    #: sorted ``[request_id, sha256(expected bytes)]`` pairs — the
    #: byte-identity contract this scenario was checked against
    digests: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        """Every request completed and none answered wrongly."""
        return self.completed == self.n_requests \
            and self.wrong_answers == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "n_requests": self.n_requests,
            "n_unique": self.n_unique,
            "completed": self.completed,
            "wrong_answers": self.wrong_answers,
            "digests": [list(pair) for pair in self.digests],
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ServeChaosReport:
    """All rows of one serve-chaos campaign plus its parameters."""

    rows: tuple[ServeChaosRow, ...]
    seed: int
    n_requests: int
    scenarios: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def to_dict(self) -> dict[str, Any]:
        """The stable, versioned report form
        (see :data:`SERVE_CHAOS_REPORT_SCHEMA`)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "n_requests": self.n_requests,
            "scenarios": list(self.scenarios),
            "rows": [row.to_dict() for row in self.rows],
            "summary": {
                "n_scenarios": len(self.rows),
                "total_requests": sum(r.n_requests for r in self.rows),
                "total_completed": sum(r.completed for r in self.rows),
                "wrong_answers": sum(r.wrong_answers for r in self.rows),
                "all_ok": self.all_ok,
            },
        }

    def render(self) -> str:
        """Per-scenario outcome table plus the campaign verdict."""
        from ..experiments.report import format_table

        table = format_table(
            ["Scenario", "Requests", "Unique", "Completed", "Wrong",
             "Verdict"],
            [[r.scenario, r.n_requests, r.n_unique, r.completed,
              r.wrong_answers, "ok" if r.ok else "FAILED"]
             for r in self.rows],
            title="Serve chaos: process kills, transport faults, "
                  "hardened clients.")
        lines = [table, ""]
        if self.all_ok:
            lines.append("All requests completed with byte-identical "
                         "responses under fault injection.")
        else:
            for row in self.rows:
                if not row.ok:
                    lines.append(
                        f"FAILED {row.scenario}: "
                        f"{row.completed}/{row.n_requests} completed, "
                        f"{row.wrong_answers} wrong answer(s)")
        return "\n".join(lines)


def validate_serve_chaos_report_dict(data: dict[str, Any]) -> None:
    """Check ``data`` against :data:`SERVE_CHAOS_REPORT_SCHEMA`; raises
    ``ValueError`` on a missing key, mistyped value or unsupported
    schema version (the golden-schema gate in CI)."""
    check_schema(data, SERVE_CHAOS_REPORT_SCHEMA, version=SCHEMA_VERSION,
                 noun="report", list_keys=("rows",))


def write_serve_chaos_report_json(report: ServeChaosReport,
                                  path: str | os.PathLike) -> None:
    """Persist the report's versioned dict form as pretty JSON
    (``sort_keys`` + the campaign's seeding = byte-identical reruns)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- the resetting / stalling TCP proxy ----------------------------------------

class _ChaosProxy:
    """A TCP proxy in front of the daemon that misbehaves on purpose.

    Each accepted connection draws from a seed derived from its arrival
    ordinal, so *which* connections are attacked is deterministic per
    seed.  ``reset`` victims are closed with ``SO_LINGER 0`` (a hard
    RST, what a crashed peer looks like) — capped by ``max_faults`` so
    a bounded client retry budget always wins.  ``stall`` victims sleep
    before forwarding, modelling a wedged handler.
    """

    def __init__(self, upstream_host: str, upstream_port: int, *,
                 seed: int, mode: str, probability: float = 0.4,
                 max_faults: int = 4, stall_seconds: float = 1.0) -> None:
        assert mode in ("reset", "stall")
        self.upstream = (upstream_host, upstream_port)
        self.seed = seed
        self.mode = mode
        self.probability = probability
        self.max_faults = max_faults
        self.stall_seconds = stall_seconds
        self.faults = 0
        self._conn_ordinal = 0
        self._lock = threading.Lock()
        proxy = self

        class _Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:  # noqa: D102
                proxy._handle(self.request)

        class _Server(socketserver.ThreadingTCPServer):
            daemon_threads = True
            allow_reuse_address = True

        self._server = _Server(("127.0.0.1", 0), _Handler)
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="chaos-proxy", daemon=True)

    def start(self) -> "_ChaosProxy":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def _draw_fault(self) -> bool:
        with self._lock:
            ordinal = self._conn_ordinal
            self._conn_ordinal += 1
            if self.faults >= self.max_faults:
                return False
            rng = random.Random(derive_seed(self.seed, "proxy",
                                            f"conn-{ordinal}"))
            if rng.random() < self.probability:
                self.faults += 1
                return True
        return False

    def _handle(self, client_sock: socket.socket) -> None:
        if self._draw_fault():
            if self.mode == "reset":
                # SO_LINGER 0 turns close() into a hard RST — the
                # client sees exactly what a killed daemon produces
                client_sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
                client_sock.close()
                return
            time.sleep(self.stall_seconds)
        try:
            upstream = socket.create_connection(self.upstream, timeout=30.0)
        except OSError:
            client_sock.close()
            return
        t = threading.Thread(target=self._pipe,
                             args=(client_sock, upstream), daemon=True)
        t.start()
        self._pipe(upstream, client_sock)
        t.join(timeout=30.0)
        for sock in (client_sock, upstream):
            try:
                sock.close()
            except OSError:  # pragma: no cover — already closed
                pass

    @staticmethod
    def _pipe(src: socket.socket, dst: socket.socket) -> None:
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                dst.sendall(data)
        except OSError:
            pass
        finally:
            try:
                dst.shutdown(socket.SHUT_WR)
            except OSError:
                pass


# -- burst submission ----------------------------------------------------------

def _submit_burst(host: str, port: int, requests: Sequence[ServeRequest],
                  expected: dict[str, bytes], *, seed: int, retries: int,
                  hedge_after: float | None = None,
                  mid_burst: Callable[[], None] | None = None,
                  mid_burst_delay: float = 0.2,
                  timeout: float = 120.0) -> tuple[int, int, int]:
    """Fire every request concurrently through hardened clients and
    check each completed body against the clean-run reference.

    ``mid_burst`` (the scenario's sabotage) runs on its own thread
    ``mid_burst_delay`` seconds after the burst launches, while
    submissions are in flight.  Returns ``(completed, wrong, attempts)``
    where ``attempts`` is total round trips (a stderr-only
    observation).
    """
    results: list[bytes | None] = [None] * len(requests)
    attempts = [0] * len(requests)

    def submit_one(i: int, request: ServeRequest) -> None:
        client = ServeClient(host, port, timeout=timeout)
        backoff = BackoffPolicy(initial=0.05, max_delay=2.0,
                                seed=derive_seed(seed, "backoff", str(i)))
        try:
            outcome = client.submit(request, retries=retries,
                                    backoff=backoff,
                                    hedge_after=hedge_after,
                                    raise_on_reject=False)
        except Exception:  # noqa: BLE001 — an uncompleted request is the finding
            return
        attempts[i] = outcome.attempts
        if outcome.ok:
            results[i] = outcome.body

    threads = [threading.Thread(target=submit_one, args=(i, request),
                                daemon=True)
               for i, request in enumerate(requests)]
    for t in threads:
        t.start()
    saboteur = None
    if mid_burst is not None:
        def sabotage() -> None:
            time.sleep(mid_burst_delay)
            mid_burst()
        saboteur = threading.Thread(target=sabotage, daemon=True)
        saboteur.start()
    for t in threads:
        t.join(timeout=timeout)
    if saboteur is not None:
        saboteur.join(timeout=timeout)

    completed = sum(1 for body in results if body is not None)
    wrong = sum(1 for request, body in zip(requests, results)
                if body is not None
                and body != expected[request.fingerprint()])
    return completed, wrong, sum(attempts)


def _row(scenario: str, scenario_seed: int,
         requests: Sequence[ServeRequest], expected: dict[str, bytes],
         completed: int, wrong: int) -> ServeChaosRow:
    digests = tuple(sorted(
        (request.request_id(),
         hashlib.sha256(expected[request.fingerprint()]).hexdigest())
        for request in requests))
    return ServeChaosRow(scenario=scenario, seed=scenario_seed,
                         n_requests=len(requests),
                         n_unique=len({r.fingerprint() for r in requests}),
                         completed=completed, wrong_answers=wrong,
                         digests=digests)


# -- scenarios -------------------------------------------------------------------

def _inprocess_daemon(session=None, *, retries: int = 1):
    """An in-process daemon for the transport scenarios (imported here
    to keep module import light)."""
    from .server import ServeDaemon

    config = BrokerConfig(retries=retries)
    broker = RequestBroker(session=session, config=config)
    return ServeDaemon("127.0.0.1", 0, broker=broker).start()


def _run_proxy_scenario(scenario: str, mode: str, *, seed: int,
                        n_requests: int, retries: int,
                        hedge_after: float | None,
                        clean_session, notes: list[str]) -> ServeChaosRow:
    scenario_seed = derive_seed(seed, "serve", scenario)
    requests = build_requests(seed, scenario, n_requests)
    expected = _expected_bytes(requests, clean_session)
    daemon = _inprocess_daemon()
    proxy = _ChaosProxy(daemon.host, daemon.port, seed=scenario_seed,
                        mode=mode).start()
    try:
        completed, wrong, attempts = _submit_burst(
            proxy.host, proxy.port, requests, expected,
            seed=scenario_seed, retries=retries, hedge_after=hedge_after)
    finally:
        proxy.stop()
        daemon.stop()
    notes.append(f"{scenario}: {proxy.faults} connection fault(s) "
                 f"injected, {attempts} round trip(s) total")
    return _row(scenario, scenario_seed, requests, expected,
                completed, wrong)


def _run_pool_break(*, seed: int, n_requests: int, retries: int,
                    clean_session, notes: list[str]) -> ServeChaosRow:
    from ..session import Session
    from ..session.runner import ParallelRunner

    scenario = "pool-break"
    scenario_seed = derive_seed(seed, "serve", scenario)
    requests = build_requests(seed, scenario, n_requests)
    expected = _expected_bytes(requests, clean_session)
    session = Session(jobs=2, persistent=True)
    daemon = _inprocess_daemon(session, retries=2)

    def break_pool() -> None:
        runner = session._runner
        pool = getattr(runner, "_pool", None) if runner is not None else None
        if pool is not None:
            ParallelRunner._terminate_workers(pool)
            notes.append(f"{scenario}: terminated the warm pool's workers "
                         f"mid-burst")
        else:  # pragma: no cover — burst finished before the sabotage
            notes.append(f"{scenario}: pool not yet spawned at sabotage "
                         f"time (nothing to break)")

    try:
        completed, wrong, attempts = _submit_burst(
            daemon.host, daemon.port, requests, expected,
            seed=scenario_seed, retries=retries, mid_burst=break_pool)
    finally:
        daemon.stop()
    notes.append(f"{scenario}: {attempts} round trip(s) total")
    return _row(scenario, scenario_seed, requests, expected,
                completed, wrong)


def _child_environment(cache_dir: str | os.PathLike) -> dict[str, str]:
    """The daemon child's environment: ours, with ``REPRO_CACHE_DIR``
    set to ``cache_dir`` (a restarted child answers completed requests
    from disk) and the package's import root prepended so ``python -m
    repro.experiments`` resolves even when the package is used from a
    source tree rather than installed."""
    import repro

    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = package_root + (os.pathsep + existing
                                        if existing else "")
    return env


def _run_sigkill(*, seed: int, n_requests: int, retries: int,
                 cache_dir: str | os.PathLike,
                 max_unavailable: float, clean_session,
                 notes: list[str], gates: list[str]) -> ServeChaosRow:
    scenario = "sigkill"
    scenario_seed = derive_seed(seed, "serve", scenario)
    requests = build_requests(seed, scenario, n_requests)
    expected = _expected_bytes(requests, clean_session)

    from .cli import _free_port
    port = _free_port("127.0.0.1")
    argv = [sys.executable, "-m", "repro.experiments", "serve",
            "--host", "127.0.0.1", "--port", str(port),
            "--retries", "1"]
    env = _child_environment(cache_dir)

    def spawn() -> subprocess.Popen:
        return subprocess.Popen(argv, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)

    supervisor = Supervisor(spawn, "127.0.0.1", port,
                            SupervisorConfig(hang_timeout=30.0),
                            verbose=False)
    supervisor_thread = threading.Thread(target=supervisor.run,
                                         name="chaos-supervisor",
                                         daemon=True)
    supervisor_thread.start()
    gap = None
    try:
        if not wait_ready(ServeClient("127.0.0.1", port, timeout=5.0),
                          timeout=90.0):
            raise RuntimeError("supervised daemon never became ready")

        # the first half completes (and lands in the disk cache) before
        # the kill; the rest is submitted at once into the dead window,
        # so its clients must retry until the supervisor's restart.
        half = len(requests) // 2
        completed, wrong, attempts = _submit_burst(
            "127.0.0.1", port, requests[:half], expected,
            seed=scenario_seed, retries=retries)
        pid = supervisor.child_pid
        if pid is None:  # pragma: no cover — crashed before sabotage
            raise RuntimeError("supervised daemon has no child to kill")
        killed_at = time.monotonic()
        os.kill(pid, signal.SIGKILL)

        def measure_gap() -> None:
            nonlocal gap
            if wait_ready(ServeClient("127.0.0.1", port, timeout=5.0),
                          timeout=max_unavailable):
                gap = time.monotonic() - killed_at

        rest = _submit_burst(
            "127.0.0.1", port, requests[half:], expected,
            seed=derive_seed(scenario_seed, scenario, "after-kill"),
            retries=retries,
            mid_burst=measure_gap, mid_burst_delay=0.0)
        completed += rest[0]
        wrong += rest[1]
        attempts += rest[2]
    finally:
        supervisor.request_stop()
        supervisor_thread.join(timeout=60.0)
    if gap is None:
        gates.append(f"{scenario}: daemon NOT back within "
                     f"{max_unavailable:.0f}s of SIGKILL "
                     f"(unavailability bound violated)")
    else:
        notes.append(f"{scenario}: daemon back {gap:.2f}s after SIGKILL "
                     f"(bound {max_unavailable:.0f}s), "
                     f"{supervisor.restarts} restart(s), "
                     f"{attempts} round trip(s) total")
    if attempts <= len(requests):
        gates.append(f"{scenario}: {attempts} round trip(s) for "
                     f"{len(requests)} request(s): no client retried "
                     f"through the SIGKILL")
    return _row(scenario, scenario_seed, requests, expected,
                completed, wrong)


# -- the campaign ---------------------------------------------------------------

def run_serve_chaos(*, scenarios: Sequence[str] = SERVE_SCENARIOS,
                    n_requests: int = 6, seed: int = DEFAULT_SEED,
                    retries: int = 10, max_unavailable: float = 60.0
                    ) -> tuple[ServeChaosReport, list[str], list[str]]:
    """Run the serve-chaos campaign; returns
    ``(report, notes, gate_failures)``.

    The report holds only deterministic fields; ``notes`` are
    wall-clock observations (fault counts, restart gaps, retry totals)
    for stderr, and ``gate_failures`` are violated wall-clock bounds
    (e.g. the ``sigkill`` unavailability window) — they fail the
    campaign's exit code without entering the report.  The ``sigkill``
    scenario's daemon keeps its disk cache in a temporary directory.
    """
    import tempfile

    from ..session import Session

    for s in scenarios:
        if s not in SERVE_SCENARIOS:
            raise ValueError(f"unknown serve-chaos scenario {s!r}; "
                             f"expected one of {SERVE_SCENARIOS}")
    notes: list[str] = []
    gates: list[str] = []
    rows: list[ServeChaosRow] = []
    with Session() as clean_session, \
            tempfile.TemporaryDirectory(prefix="chaos-serve-") as tmp:
        for scenario in scenarios:
            if scenario == "conn-reset":
                rows.append(_run_proxy_scenario(
                    scenario, "reset", seed=seed, n_requests=n_requests,
                    retries=retries, hedge_after=None,
                    clean_session=clean_session, notes=notes))
            elif scenario == "latency":
                rows.append(_run_proxy_scenario(
                    scenario, "stall", seed=seed, n_requests=n_requests,
                    retries=retries, hedge_after=0.25,
                    clean_session=clean_session, notes=notes))
            elif scenario == "pool-break":
                rows.append(_run_pool_break(
                    seed=seed, n_requests=n_requests, retries=retries,
                    clean_session=clean_session, notes=notes))
            else:
                rows.append(_run_sigkill(
                    seed=seed, n_requests=n_requests, retries=retries,
                    cache_dir=Path(tmp) / "sigkill",
                    max_unavailable=max_unavailable,
                    clean_session=clean_session, notes=notes,
                    gates=gates))
    return ServeChaosReport(rows=tuple(rows), seed=seed,
                            n_requests=n_requests,
                            scenarios=tuple(scenarios)), notes, gates
