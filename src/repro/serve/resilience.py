"""Self-healing building blocks for the serve layer.

Four pieces, each usable alone:

:class:`BackoffPolicy`
    Capped exponential backoff with seeded jitter — deterministic per
    ``(seed, attempt)``, so retry schedules replay identically in tests
    and chaos campaigns.  Defined in :mod:`repro.session.runner` (whose
    retry waves use it too) and re-exported here; shared by the
    client's retry waves, the readiness poller
    (:func:`repro.serve.client.wait_ready`) and the supervisor's restart
    pacing.

:class:`CircuitBreaker`
    The classic closed → open → half-open machine guarding one
    endpoint.  After ``failure_threshold`` consecutive transport
    failures the breaker *opens*: further calls fail locally with a
    typed :class:`~repro.errors.CircuitOpen` (fast, no socket) until
    ``reset_timeout`` admits one half-open probe; a probe success closes
    the breaker, a probe failure re-opens it.

:class:`HealthPolicy` / :class:`HealthReport`
    The daemon-side health state machine: ``ok → degraded → draining``
    driven by queue-depth pressure, recent worker-pool rebuilds and the
    recent deadline-miss rate.  The broker consults it on every
    admission (execution-distressed degradation sheds
    coalescible-duplicate load first) and ``GET /healthz`` surfaces it
    to clients, supervisors and CI.

:class:`Supervisor`
    A parent process that forks the serve daemon, watches liveness via
    ``/healthz`` heartbeats, and restarts it on crash or hang with
    capped exponential backoff (``serve.restarts`` /
    ``serve.supervisor.*`` metrics).  With ``REPRO_CACHE_DIR`` set, a
    SIGKILL'd daemon comes back answering its completed responses from
    the disk cache, and retrying clients complete with byte-identical
    responses.
"""

from __future__ import annotations

import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import CircuitOpen
from ..obs import metrics
from ..session.runner import BackoffPolicy

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "HEALTH_DEGRADED",
    "HEALTH_DRAINING",
    "HEALTH_OK",
    "HEALTH_STATES",
    "HealthPolicy",
    "HealthReport",
    "Supervisor",
    "SupervisorConfig",
]


# -- circuit breaker -----------------------------------------------------------

class CircuitBreaker:
    """Closed → open → half-open breaker for one endpoint.

    Thread-safe.  ``guard()`` raises :class:`~repro.errors.CircuitOpen`
    while the breaker is open; callers report outcomes with
    :meth:`record_success` / :meth:`record_failure`.  Only *transport*
    failures should be recorded — a daemon answering with a typed
    rejection is alive, and must close the breaker, not open it.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, endpoint: str = "", *, failure_threshold: int = 5,
                 reset_timeout: float = 2.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, "
                             f"got {failure_threshold}")
        if reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be > 0, "
                             f"got {reset_timeout}")
        self.endpoint = endpoint
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def guard(self) -> None:
        """Admit one call or raise :class:`CircuitOpen`.

        In the half-open window exactly one probe call is admitted;
        concurrent callers keep failing fast until the probe reports.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return
            now = self._clock()
            remaining = self._opened_at + self.reset_timeout - now
            if self._state == self.OPEN and remaining <= 0:
                self._state = self.HALF_OPEN
                self._probing = False
            if self._state == self.HALF_OPEN and not self._probing:
                self._probing = True        # this caller is the probe
                return
            raise CircuitOpen(self.endpoint or "endpoint",
                              max(remaining, 0.0))

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == self.HALF_OPEN \
                    or self._failures >= self.failure_threshold:
                if self._state != self.OPEN:
                    metrics.counter(
                        "serve.client.circuit_opens",
                        "circuit breakers tripped open").inc()
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._probing = False


# -- health state machine --------------------------------------------------------

HEALTH_OK = "ok"               #: admitting everything
HEALTH_DEGRADED = "degraded"   #: distressed; may shed duplicate load
HEALTH_DRAINING = "draining"   #: graceful shutdown, rejecting new work

#: The daemon's health states, in degradation order.
HEALTH_STATES = (HEALTH_OK, HEALTH_DEGRADED, HEALTH_DRAINING)


@dataclass(frozen=True)
class HealthReport:
    """One health probe's verdict: the state plus why.

    ``shed_duplicates`` is the broker's load-shedding hint: set only
    when degradation is driven by *execution* distress (worker-pool
    rebuilds, deadline misses) — then every coalesce waiter is a
    handler thread wedged behind a sick executor, and shedding it with
    a retryable rejection is cheaper for everyone.  Pure queue-depth
    pressure does NOT shed: a coalesced duplicate costs no queue slot
    and no work, and ``queue_full`` backpressure already guards
    admissions.
    """

    state: str
    reasons: tuple[str, ...] = ()
    shed_duplicates: bool = False

    @property
    def ok(self) -> bool:
        return self.state == HEALTH_OK

    def to_dict(self) -> dict:
        return {"state": self.state, "reasons": list(self.reasons),
                "shed_duplicates": self.shed_duplicates}


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds driving ``ok → degraded`` (draining is commanded, not
    inferred).  A broker is *degraded* when any input trips:

    * queue depth at or above ``queue_fraction`` of the admission bound;
    * any worker-pool rebuild within the last ``window`` executed jobs
      (the warm pool just lost state — execution is about to be slow);
    * the deadline-miss rate over the last ``window`` executed jobs at
      or above ``deadline_miss_rate``.
    """

    queue_fraction: float = 0.75
    deadline_miss_rate: float = 0.5
    window: int = 32
    min_samples: int = 4   #: deadline-rate needs this many recent jobs

    def __post_init__(self) -> None:
        if not 0.0 < self.queue_fraction <= 1.0:
            raise ValueError(f"queue_fraction must be in (0, 1], "
                             f"got {self.queue_fraction}")
        if not 0.0 < self.deadline_miss_rate <= 1.0:
            raise ValueError(f"deadline_miss_rate must be in (0, 1], "
                             f"got {self.deadline_miss_rate}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, "
                             f"got {self.min_samples}")

    def evaluate(self, *, draining: bool, queue_depth: int,
                 max_queue_depth: int,
                 recent_outcomes: Sequence[str],
                 pool_rebuilds_in_window: int) -> HealthReport:
        """Fold the broker's live inputs into a :class:`HealthReport`."""
        if draining:
            return HealthReport(HEALTH_DRAINING, ("drain requested",),
                                shed_duplicates=True)
        reasons: list[str] = []
        shed = False
        threshold = max(1, int(self.queue_fraction * max_queue_depth))
        if queue_depth >= threshold:
            reasons.append(f"queue depth {queue_depth} >= {threshold} "
                           f"({self.queue_fraction:.0%} of "
                           f"{max_queue_depth})")
        if pool_rebuilds_in_window > 0:
            reasons.append(f"{pool_rebuilds_in_window} worker-pool "
                           f"rebuild(s) in the last {self.window} jobs")
            shed = True
        recent = list(recent_outcomes)[-self.window:]
        if len(recent) >= self.min_samples:
            misses = sum(1 for o in recent if o == "deadline")
            rate = misses / len(recent)
            if rate >= self.deadline_miss_rate:
                reasons.append(f"deadline-miss rate {rate:.0%} over the "
                               f"last {len(recent)} jobs")
                shed = True
        if reasons:
            return HealthReport(HEALTH_DEGRADED, tuple(reasons),
                                shed_duplicates=shed)
        return HealthReport(HEALTH_OK)


# -- supervisor ------------------------------------------------------------------

@dataclass(frozen=True)
class SupervisorConfig:
    """Liveness and restart knobs of one :class:`Supervisor`."""

    #: seconds between liveness probes of a running child
    check_interval: float = 0.25
    #: a spawned child must answer ``/healthz`` within this budget
    startup_timeout: float = 60.0
    #: a live process that stops answering ``/healthz`` for this long is
    #: declared hung, killed, and restarted
    hang_timeout: float = 15.0
    #: restart pacing (capped exponential, seeded jitter)
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(initial=0.25, max_delay=10.0))
    #: give up after this many restarts (None = never give up)
    max_restarts: int | None = None
    #: a child healthy for this long resets the backoff attempt counter
    healthy_reset_seconds: float = 30.0


class Supervisor:
    """Fork the serve daemon, watch it, restart it when it misbehaves.

    ``spawn`` launches one daemon child and returns its
    ``subprocess.Popen``; the supervisor probes ``http://host:port/healthz``
    through a :class:`~repro.serve.client.ServeClient`.  Crashes (child
    exited uncommanded) and hangs (alive but silent past
    ``hang_timeout``) both trigger a restart after the backoff pause.

    :meth:`run` blocks until :meth:`request_stop` (or a forwarded
    SIGTERM/SIGINT when ``install_signal_handlers``) stops the child
    gracefully, or the restart budget is exhausted.
    """

    def __init__(self, spawn: Callable[[], subprocess.Popen], host: str,
                 port: int, config: SupervisorConfig | None = None, *,
                 verbose: bool = True) -> None:
        self._spawn = spawn
        self.host = host
        self.port = port
        self.config = config or SupervisorConfig()
        self.verbose = verbose
        self.child: subprocess.Popen | None = None
        self.restarts = 0
        self.crashes = 0
        self.hangs = 0
        self._stop = threading.Event()
        self._lock = threading.Lock()

    # -- plumbing -----------------------------------------------------------

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[supervise] {message}", flush=True)

    def _client(self):
        from .client import ServeClient
        return ServeClient(self.host, self.port, timeout=5.0)

    def request_stop(self) -> None:
        """Ask the supervise loop to stop the child and return
        (idempotent, safe from signal handlers and other threads)."""
        self._stop.set()

    @property
    def child_pid(self) -> int | None:
        with self._lock:
            return self.child.pid if self.child is not None else None

    # -- lifecycle ----------------------------------------------------------

    def _start_child(self) -> bool:
        """Spawn one child and wait for readiness.  Returns whether it
        came up within ``startup_timeout``."""
        from .client import wait_ready
        with self._lock:
            self.child = self._spawn()
        self._log(f"child pid {self.child.pid} spawned; waiting for "
                  f"/healthz on {self.host}:{self.port}")
        ready = wait_ready(self._client(),
                           timeout=self.config.startup_timeout)
        if not ready and self.child.poll() is None:
            self._log("child never became ready; killing it")
            self._kill_child()
        return ready

    def _kill_child(self) -> None:
        with self._lock:
            child = self.child
        if child is None or child.poll() is not None:
            return
        child.kill()
        try:
            child.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover — kernel lag
            pass

    def _terminate_child(self) -> None:
        """Graceful stop: SIGTERM (the daemon drains), escalate to kill."""
        with self._lock:
            child = self.child
        if child is None or child.poll() is not None:
            return
        child.terminate()
        try:
            child.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self._log("child ignored SIGTERM; killing it")
            self._kill_child()

    # -- the watch loop -------------------------------------------------------

    def run(self) -> int:
        """Supervise until stopped.  Returns 0 on a commanded stop, 1
        when the restart budget was exhausted."""
        attempt = 0
        while not self._stop.is_set():
            if self._start_child():
                self._watch_child()
                if self._last_healthy_span \
                        >= self.config.healthy_reset_seconds:
                    # a long-healthy child failing is a fresh incident,
                    # not an escalation of the previous crash loop
                    attempt = 0
            if self._stop.is_set():
                break
            # the child is gone (crash/hang kill) or never came up
            if self.config.max_restarts is not None \
                    and self.restarts >= self.config.max_restarts:
                self._log(f"restart budget exhausted "
                          f"({self.config.max_restarts}); giving up")
                return 1
            pause = self.config.backoff.delay(attempt)
            self._log(f"restarting in {pause:.2f}s "
                      f"(attempt {attempt}, restart #{self.restarts + 1})")
            metrics.histogram(
                "serve.supervisor.backoff_seconds",
                "restart backoff pauses").observe(pause)
            self._interruptible_sleep(pause)
            if self._stop.is_set():
                break
            self.restarts += 1
            metrics.counter("serve.restarts",
                            "daemon restarts by the supervisor").inc()
            metrics.counter("serve.supervisor.restarts",
                            "daemon restarts by the supervisor").inc()
            attempt += 1
        self._terminate_child()
        self._log(f"stopped after {self.restarts} restart(s)")
        return 0

    #: how long the last watched child stayed alive (crash-loop detector)
    _last_healthy_span: float = 0.0

    def _watch_child(self) -> None:
        """Probe one running child until it crashes, hangs, or we are
        asked to stop."""
        client = self._client()
        started = time.monotonic()
        last_heartbeat = time.monotonic()
        while not self._stop.is_set():
            with self._lock:
                child = self.child
            code = child.poll() if child is not None else None
            if code is not None:
                self.crashes += 1
                self._last_healthy_span = time.monotonic() - started
                metrics.counter("serve.supervisor.crashes",
                                "children that exited uncommanded").inc()
                self._log(f"child exited with code {code} (crash)")
                return
            metrics.counter("serve.supervisor.checks",
                            "liveness probes").inc()
            if client.ping():
                last_heartbeat = time.monotonic()
            elif time.monotonic() - last_heartbeat \
                    >= self.config.hang_timeout:
                self.hangs += 1
                self._last_healthy_span = time.monotonic() - started
                metrics.counter(
                    "serve.supervisor.hangs",
                    "children killed after missing heartbeats").inc()
                self._log(f"no heartbeat for "
                          f"{self.config.hang_timeout:.1f}s; killing "
                          f"hung child")
                self._kill_child()
                return
            self._interruptible_sleep(self.config.check_interval)
        self._last_healthy_span = time.monotonic() - started

    def _interruptible_sleep(self, seconds: float) -> None:
        self._stop.wait(timeout=seconds)
