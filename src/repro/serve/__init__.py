"""Long-running compile/simulate service (``tms-experiments serve``).

A zero-dependency daemon over the process :class:`~repro.session.
session.Session`: identical concurrent requests coalesce onto one
in-flight computation, a persistent warm worker pool answers repeat
work without process-spawn or recompile cost, and bounded admission
control turns overload into typed rejections instead of queue
collapse.  The self-healing layer wraps it: a supervisor restarts a
crashed or hung daemon, the result cache keeps completed responses in
the session's disk tier (``REPRO_CACHE_DIR``) so a restarted daemon
answers them from cache, a health state machine sheds load before
collapse, and the hardened client retries with backoff behind a
circuit breaker.  See ``docs/serving.md``.

Layers (each importable alone):

- :mod:`~repro.serve.protocol` — wire schema, fingerprints, exit codes
- :mod:`~repro.serve.broker` — coalescing, admission control, execution
- :mod:`~repro.serve.resilience` — backoff, circuit breaker, health
  machine, supervisor
- :mod:`~repro.serve.server` — stdlib HTTP front end + signal handling
- :mod:`~repro.serve.client` — hardened client library (``http.client``)
- :mod:`~repro.serve.chaos` — seeded chaos campaigns against the stack
- :mod:`~repro.serve.cli` — ``serve`` / ``submit`` / ``chaos-serve``
  subcommands
"""

from .broker import BrokerConfig, RequestBroker, execute_request
from .client import ServeClient, SubmitOutcome, wait_ready
from .protocol import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_UNAVAILABLE,
    PROTOCOL_VERSION,
    ServeRequest,
    response_bytes,
)
from .resilience import (
    HEALTH_STATES,
    BackoffPolicy,
    CircuitBreaker,
    HealthPolicy,
    HealthReport,
    Supervisor,
    SupervisorConfig,
)
from .server import ServeDaemon

__all__ = [
    "BackoffPolicy",
    "BrokerConfig",
    "CircuitBreaker",
    "EXIT_ERROR",
    "EXIT_OK",
    "EXIT_REJECTED",
    "EXIT_UNAVAILABLE",
    "HEALTH_STATES",
    "HealthPolicy",
    "HealthReport",
    "PROTOCOL_VERSION",
    "RequestBroker",
    "ServeClient",
    "ServeDaemon",
    "ServeRequest",
    "SubmitOutcome",
    "Supervisor",
    "SupervisorConfig",
    "execute_request",
    "response_bytes",
    "wait_ready",
]
