"""The repository benchmark: one workload per run, end-to-end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile-cold --seed 0 --seconds 15 --trace 0

Workloads (why each was chosen: ``perfbench/README.md``):

``compile-cold``
    Every loop of the population compiled by a fresh memory-only
    ``Session.compile`` (DDG, SMS, TMS with degradation, post-pass), in
    whole rounds, until ``--seconds`` have passed and at least 100 loops
    were compiled.
``sim-long``
    Every SMS and TMS kernel of the population, compiled during set-up,
    simulated by ``SpMTSimulator.run`` on the default fast path at
    10,000 iterations, in whole rounds, until ``--seconds`` have passed
    and at least 100 kernels were simulated.
``serve-mixed``
    Two closed-loop client threads against a ``tms-experiments serve``
    daemon in a child process, submitting the first 80 requests per
    ``--seconds`` of a seeded mix of ``compile`` and ``simulate``
    requests.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, plain and then with span wrappers around each layer's
public functions (``perfbench/spans.py``), and prints the per-layer
metrics of the wrapped pass and the tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
from hostspeed import Sampler, speed  # noqa: E402

SRC = ROOT / "src"
#: per-seed work counters of earlier runs, keyed by a digest of the code
STATE_DIR = ROOT / ".perfbench-state"

WORKLOADS = ("compile-cold", "sim-long", "serve-mixed")
#: environment that changes what the program does; unset before measuring
PINNED_ENV = ("REPRO_CACHE_DIR", "REPRO_JOBS", "REPRO_SIM_EXACT",
              "REPRO_FULL", "REPRO_LEDGER_DIR", "REPRO_CACHE_SIZE")
SETUP_REPEATS = 3
MIN_SAMPLES = 100
SIM_ITERATIONS = 10_000
#: trip count of the untimed simulations behind tms_speedup_gm on
#: compile-cold and serve-mixed
GM_ITERATIONS = 1_000
#: sim-long kernels re-simulated on the reference event loop
EXACT_SAMPLE = 3
SERVE_CLIENTS = 2
#: serve-mixed sends a fixed number of requests, not as many as fit in
#: ``--seconds``: on a faster host more requests would walk further
#: through the pool's new loop/core pairs, wrap around it and turn into
#: cache hits, so the host's speed would change the work.  1,200
#: requests (15 s) use at most 716 of the 867 pairs over seeds 0-199; at
#: about 60 requests per nominal second they take about 20 s
SERVE_REQUESTS_PER_S = 80
#: leading requests of the seeded serve stream replayed in order on the
#: checker's Session; their work counters must repeat across runs
SERVE_WORK_PREFIX = MIN_SAMPLES
DAEMON_TIMEOUT = 60.0
#: the benchmark process runs on the first CPU it may use, the serve
#: daemon on the last, so host-speed quanta measure the CPU the work
#: runs on and the daemon does not share a CPU with its clients
CPUS = sorted(os.sched_getaffinity(0))

#: deterministic work counters, taken per round; every round of one
#: seed must repeat them exactly
COUNTERS = ("tms.searches", "tms.candidates", "sched.engine.slot_probes",
            "sched.placements", "sched.attempts",
            "sched.engine.window_reuses", "sched.engine.window_tables",
            "sched.degraded", "sim.runs", "sim.threads",
            "sim.fastforward_threads", "sim.fastforwards", "sim.violations",
            "sim.squashed_threads", "cache.hits", "cache.misses")


def pin_environment() -> dict[str, str]:
    """Unset :data:`PINNED_ENV`; returns what was found."""
    if os.environ.get("REPRO_METRICS", "").strip() == "0":
        raise SystemExit("error: REPRO_METRICS=0 disables the metrics "
                         "registry the benchmark reads")
    return {name: os.environ.pop(name) for name in PINNED_ENV
            if name in os.environ}


def code_digest() -> str:
    """Digest of the program and the benchmark sources."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def counter_values(names) -> dict[str, int]:
    from repro.obs.metrics import get_registry

    totals = get_registry().deterministic_totals()
    return {name: totals.get(name, 0) for name in names}


def delta(after: dict, before: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Outcome of one workload pass: timed operations and checks."""

    def __init__(self) -> None:
        #: (start, end) monotonic seconds of each timed operation
        self.intervals: list[tuple[float, float]] = []
        #: host-speed quanta taken during the pass (hostspeed.quantum)
        self.samples: list[tuple[float, float]] = []
        self.elapsed = 0.0
        self.failed = 0
        self.problems: list[str] = []
        self.round_counts: list[dict] = []
        self.gm = 0.0
        self.rss_mb = 0.0
        self.layers: dict[str, float] = {}
        self.concurrent = False

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in self.intervals]

    def scaled_latencies(self) -> list[float]:
        """Each operation's seconds at the nominal host speed."""
        samples = sorted(self.samples)
        return [(end - start) * speed(samples, start, end)
                for start, end in self.intervals]

    def scaled_busy_seconds(self) -> float:
        """Seconds the timed work took at the nominal host speed: the
        operations' own time when they ran one at a time, the window
        otherwise."""
        if self.concurrent:
            start = self.intervals[0][0]
            samples = sorted(self.samples)
            return self.elapsed * speed(samples, start, start + self.elapsed)
        return sum(self.scaled_latencies())


def warm_up() -> None:
    """Untimed compile and simulation of a loop outside every population."""
    from population import WARMUP_DSL
    from repro.config import ArchConfig
    from repro.ir import parse_loop
    from repro.session import Session

    session = Session()
    compiled = session.compile(parse_loop(WARMUP_DSL))
    for alg in (compiled.sms, compiled.tms):
        session.simulate(alg, ArchConfig.paper_default(), iterations=2000)


def timed_rounds(run: Run, one_round, seconds: float,
                 rounds: int | None) -> list:
    """Run ``rounds`` rounds, or by default whole rounds until
    ``seconds`` have passed and :data:`MIN_SAMPLES` operations were
    timed; returns each round's outputs."""
    outputs = []
    start = time.perf_counter()

    def more() -> bool:
        if rounds is not None:
            return len(outputs) < rounds
        return (time.perf_counter() - start < seconds
                or len(run.intervals) < MIN_SAMPLES)

    sampler = Sampler()
    sampler.start()
    try:
        while more():
            before = counter_values(COUNTERS)
            outputs.append(one_round(run))
            run.round_counts.append(delta(counter_values(COUNTERS), before))
    finally:
        run.samples = sampler.stop()
    run.elapsed = time.perf_counter() - start
    run.rss_mb = peak_rss_mb()
    return outputs


def scaled_seconds(samples, start: float, end: float) -> float:
    """``end - start`` at the nominal host speed, by the quanta
    ``samples`` taken on the CPU that did the work."""
    return (end - start) * speed(sorted(map(tuple, samples)), start, end)


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def timed_ops(run: Run, items: list, op, name_of) -> list:
    """``op(item)`` for each item, one at a time; returns the results
    (None where ``op`` raised)."""
    out = []
    for item in items:
        start = time.monotonic()
        try:
            result = op(item)
        except Exception as exc:  # a failed operation is counted
            result = None
            run.fail(f"{name_of(item)}: {exc!r}")
        run.intervals.append((start, time.monotonic()))
        out.append(result)
    return out


# -- compile-cold ------------------------------------------------------------

def compile_setup(seed: int):
    from population import compile_population
    from repro.config import ArchConfig

    warm_up()
    return compile_population(seed), ArchConfig.paper_default()


def compile_round(state, run: Run) -> list:
    from repro.session import Session

    loops, arch = state
    return timed_ops(run, loops, lambda loop: Session().compile(loop, arch),
                     lambda loop: f"compile {loop.name}")


def compile_outputs(out: list) -> dict:
    return {
        "ddg_edges": sum(len(c.ddg.edges) for c in out if c is not None),
        "schedules": digest([
            (c.sms.schedule.kernel_listing(), c.tms.schedule.kernel_listing())
            if c is not None else None for c in out]),
    }


def compile_check(state, run: Run, out: list, seed: int) -> None:
    """check_equivalence on every SMS and TMS schedule of one round;
    tms_speedup_gm from short simulations of the same kernels."""
    from repro.config import SimConfig
    from repro.sched.pipeline_exec import check_equivalence
    from repro.spmt.sim import SpMTSimulator

    loops, arch = state
    for loop, compiled in zip(loops, out):
        for alg in ("sms", "tms") if compiled is not None else ():
            try:
                check_equivalence(loop, getattr(compiled, alg).schedule)
            except Exception as exc:  # a wrong schedule is a failure
                run.fail(f"{loop.name}/{alg} not equivalent: {exc}")
    sim = SimConfig(iterations=GM_ITERATIONS)
    run.gm = geomean(
        SpMTSimulator(c.sms.pipelined, arch, sim).run().total_cycles
        / SpMTSimulator(c.tms.pipelined, arch, sim).run().total_cycles
        for c in out if c is not None)


# -- sim-long ----------------------------------------------------------------

def sim_setup(seed: int):
    from population import sim_population
    from repro.config import ArchConfig, SimConfig
    from repro.session import Session

    warm_up()
    arch = ArchConfig.paper_default()
    session = Session()
    compiled = [session.compile(loop, arch) for loop in sim_population(seed)]
    kernels = [alg for c in compiled for alg in (c.sms, c.tms)]
    return kernels, arch, SimConfig(iterations=SIM_ITERATIONS)


def sim_round(state, run: Run) -> list:
    from repro.spmt.sim import SpMTSimulator

    kernels, arch, sim = state
    return timed_ops(
        run, kernels,
        lambda alg: SpMTSimulator(alg.pipelined, arch, sim).run(),
        lambda alg: f"simulate {alg.schedule.ddg.name}/{alg.schedule.algorithm}")


def sim_outputs(out: list) -> dict:
    return {"stats": digest([s.to_dict() if s is not None else None
                             for s in out])}


def sim_check(state, run: Run, out: list, seed: int) -> None:
    """A seeded sample of kernels against the reference event loop;
    tms_speedup_gm from the round's own SimStats."""
    from dataclasses import replace

    from repro.spmt.sim import SpMTSimulator

    kernels, arch, sim = state
    exact = replace(sim, exact=True)
    for i in random.Random(seed).sample(range(len(kernels)), EXACT_SAMPLE):
        ref = SpMTSimulator(kernels[i].pipelined, arch, exact).run()
        if out[i] is None or ref.to_dict() != out[i].to_dict():
            run.fail(f"{kernels[i].schedule.ddg.name}: fast path differs "
                     f"from the reference event loop")
    run.gm = geomean(s.total_cycles / t.total_cycles
                     for s, t in zip(out[0::2], out[1::2])
                     if s is not None and t is not None)


IN_PROCESS = {
    "compile-cold": (compile_setup, compile_round, compile_outputs,
                     compile_check),
    "sim-long": (sim_setup, sim_round, sim_outputs, sim_check),
}


def in_process_pass(name: str, state, seed: int, seconds: float,
                    rounds: int | None, recorder=None) -> Run:
    """One timed pass of compile-cold or sim-long, then its checks."""
    _, one_round, outputs_of, check = IN_PROCESS[name]
    run = Run()
    restore = recorder.install() if recorder is not None else None
    try:
        outputs = timed_rounds(run, lambda r: one_round(state, r),
                               seconds, rounds)
    finally:
        if restore is not None:
            restore()
    for counts, out in zip(run.round_counts, outputs):
        counts.update(outputs_of(out))
    check(state, run, outputs[0], seed)
    return run


# -- serve-mixed -------------------------------------------------------------

class Daemon:
    """A serve daemon child process (``perfbench/serve_child.py``)."""

    def __init__(self, spans: bool = False) -> None:
        from repro.serve.client import ServeClient, wait_ready

        STATE_DIR.mkdir(exist_ok=True)
        self.dump = STATE_DIR / f"daemon-{os.getpid()}-{id(self)}.json"
        cmd = [sys.executable, str(HERE / "serve_child.py"),
               "--cpu", str(CPUS[-1]), "--dump", str(self.dump)]
        cmd += ["--spans"] if spans else []
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     text=True)
        try:
            self.client = ServeClient.from_address(self._read_address(),
                                                   timeout=DAEMON_TIMEOUT)
            if not wait_ready(self.client, timeout=DAEMON_TIMEOUT):
                raise RuntimeError("serve daemon never became ready")
        except BaseException:
            self.kill()
            raise

    def _read_address(self) -> str:
        deadline = time.monotonic() + DAEMON_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        deadline - time.monotonic())
            line = self.proc.stdout.readline() if ready else ""
            match = re.search(r"listening on (\S+:\d+)", line)
            if match:
                return match.group(1)
            if not line and self.proc.poll() is not None:
                break
        raise RuntimeError("serve daemon did not report its address")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the daemon's /proc status")

    def stop(self) -> dict:
        """Drain and stop the daemon (kill it if it does not exit);
        returns what it wrote on exit (serve_child.py)."""
        try:
            self.client.shutdown()
            self.proc.communicate(timeout=DAEMON_TIMEOUT)
        finally:
            self.kill()
        data = json.loads(self.dump.read_text())
        self.dump.unlink()
        return data

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def serve_setup(spans: bool = False):
    """Render the request pool, start the daemon and warm it up."""
    from population import SERVE_MAX_LOOPS, WARMUP_DSL, light_loops, to_dsl

    sources = [to_dsl(loop) for loop in light_loops(SERVE_MAX_LOOPS)]
    daemon = Daemon(spans)
    try:
        for kind in ("compile", "simulate"):
            outcome = daemon.client.submit({"kind": kind,
                                            "source": WARMUP_DSL})
            if not outcome.ok:
                raise RuntimeError(f"warm-up {kind} failed: "
                                   f"{outcome.response}")
    except BaseException:
        daemon.kill()
        raise
    return daemon, sources


def serve_window(daemon: Daemon, sources: list[str], seed: int,
                 seconds: float) -> tuple[Run, list, dict]:
    """Closed-loop clients over the first
    :data:`SERVE_REQUESTS_PER_S` ``* seconds`` requests of the seeded
    stream, then stops the daemon; returns the run, its (stream index,
    request, outcome, interval) records and the daemon's exit dump."""
    from population import request_stream
    from repro.serve.client import ServeClient

    run = Run()
    run.concurrent = True
    total = max(MIN_SAMPLES, round(seconds * SERVE_REQUESTS_PER_S))
    stream = enumerate(itertools.islice(request_stream(sources, seed), total))
    lock = threading.Lock()
    records: list = []
    try:
        before = daemon.client.stats()
        start = time.perf_counter()

        def client_loop() -> None:
            client = ServeClient(daemon.client.host, daemon.client.port,
                                 timeout=DAEMON_TIMEOUT)
            while True:
                with lock:
                    item = next(stream, None)
                if item is None:
                    return
                index, request = item
                t = time.monotonic()
                try:
                    outcome = client.submit(request, raise_on_reject=False)
                except Exception as exc:  # counted by serve_check
                    outcome = exc
                records.append((index, request, outcome,
                                (t, time.monotonic())))

        threads = [threading.Thread(target=client_loop)
                   for _ in range(SERVE_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        run.elapsed = time.perf_counter() - start
        after = daemon.client.stats()
        run.rss_mb = daemon.peak_rss_mb()
    finally:
        dump = daemon.stop()
    run.intervals = [interval for *_, interval in records]
    run.samples = [tuple(sample) for sample in dump["samples"]]

    def grew(section: str, key: str) -> int:
        return after[section][key] - before[section][key]

    requests = grew("counts", "requests")
    hits, misses = grew("cache", "hits"), grew("cache", "misses")
    t_hits = grew("session", "template_hits")
    t_builds = grew("session", "template_builds")
    cached = [latency for (_, _, o, _), latency
              in zip(records, run.scaled_latencies())
              if getattr(o, "served", None) == "cached"]
    run.layers = {
        "session.cache_hit_ratio": ratio(hits, hits + misses),
        "session.template_hit_ratio": ratio(t_hits, t_hits + t_builds),
        "serve.result_hit_ratio": ratio(grew("counts", "result_hits"),
                                        requests),
        "serve.coalesce_ratio": ratio(grew("counts", "coalesce_hits"),
                                      requests),
        "serve.rejected": sum(grew("counts", k) for k in after["counts"]
                              if k.startswith("rejects_")),
        "serve.http_ms": statistics.median(cached) * 1e3 if cached else 0.0,
    }
    return run, records, dump


def serve_check(sources: list[str], run: Run, records: list) -> None:
    """Every response, byte for byte, against ``execute_request`` on a
    Session the daemon never saw; tms_speedup_gm over the loops of
    sim-long's light part.

    The expected responses are computed in stream order, so the
    checker's work counters over the first :data:`SERVE_WORK_PREFIX`
    requests depend only on the seed: they are the run's work record.
    The daemon's own counters depend on which requests coalesce or hit
    its result cache, which is a matter of timing."""
    from population import light_loops
    from repro.config import ArchConfig
    from repro.serve.broker import execute_request
    from repro.serve.protocol import ServeRequest, ok_response, response_bytes
    from repro.session import Session

    session = Session()
    expected: dict[str, bytes] = {}
    work: dict = {}
    before = counter_values(COUNTERS)
    for n, (_, request, outcome, _) in enumerate(sorted(
            records, key=lambda record: record[0])):
        key = json.dumps(request, sort_keys=True)
        if key not in expected:
            req = ServeRequest.from_dict(request)
            expected[key] = response_bytes(
                ok_response(req, execute_request(session, req)))
        if n == SERVE_WORK_PREFIX - 1:
            work = delta(counter_values(COUNTERS), before)
            work["responses"] = digest(sorted(expected.values()))
        if isinstance(outcome, Exception) or not outcome.ok:
            run.fail(f"request failed: {outcome!r}")
        elif outcome.body != expected[key]:
            run.fail(f"response differs from execute_request: {key[:80]}")
    arch = ArchConfig.paper_default()
    ratios = []
    for loop in light_loops():
        compiled = session.compile(loop, arch)
        sms, tms = (session.simulate(alg, arch, iterations=GM_ITERATIONS)
                    for alg in (compiled.sms, compiled.tms))
        ratios.append(sms.total_cycles / tms.total_cycles)
    run.gm = geomean(ratios)
    run.round_counts = [{"pool": digest(sources), **work}]


# -- runs ----------------------------------------------------------------------

def end_to_end(name: str, seed: int, seconds: float,
               sampler: Sampler) -> tuple[Run, float]:
    """The measured run; returns it and the median set-up seconds at
    the nominal host speed.  A set-up is scaled by quanta of the CPU it
    ran on: the serve daemon's, or this process's (``sampler``, stopped
    before the timed window)."""
    setups, samples = [], []
    if name == "serve-mixed":
        for rep in range(SETUP_REPEATS):
            start = time.monotonic()
            daemon, sources = serve_setup()
            setups.append((start, time.monotonic()))
            if rep < SETUP_REPEATS - 1:
                samples += daemon.stop()["samples"]
        sampler.stop()
        run, records, dump = serve_window(daemon, sources, seed, seconds)
        samples += dump["samples"]
        serve_check(sources, run, records)
    else:
        for _ in range(SETUP_REPEATS):
            start = time.monotonic()
            state = IN_PROCESS[name][0](seed)
            setups.append((start, time.monotonic()))
        samples = sampler.stop()
        run = in_process_pass(name, state, seed, seconds, None)
    return run, statistics.median(scaled_seconds(samples, start, end)
                                  for start, end in setups)


def traced(name: str, seed: int, seconds: float) -> tuple[Run, Run, dict]:
    """A plain pass, then a pass under the span wrappers; returns both
    and the wrapped pass's per-layer metrics."""
    from spans import SpanRecorder

    if name == "serve-mixed":
        daemon, sources = serve_setup()
        plain, records, _ = serve_window(daemon, sources, seed, seconds)
        serve_check(sources, plain, records)
        daemon, _ = serve_setup(spans=True)
        wrapped, records, spans = serve_window(daemon, sources, seed, seconds)
        serve_check(sources, wrapped, records)
        counts = {key: spans["counters"].get(key, 0) for key in COUNTERS}
    else:
        state = IN_PROCESS[name][0](seed)
        plain = in_process_pass(name, state, seed, seconds, 1)
        recorder = SpanRecorder()
        wrapped = in_process_pass(name, state, seed, seconds, 1, recorder)
        spans = recorder.to_dict()
        counts = wrapped.round_counts[0]
        if counts != plain.round_counts[0]:
            wrapped.fail("the traced pass did other work than the plain "
                         "pass (counters, spmt.ff_share or outputs differ)",
                         ops=len(wrapped.intervals))
    return plain, wrapped, layer_metrics(spans, counts, plain, wrapped)


def layer_metrics(spans: dict, c: dict, plain: Run, wrapped: Run) -> dict:
    self_s = spans["self"]
    layers = {layer: sum(s for n, s in self_s.items()
                         if n.split(".", 1)[0] == layer)
              for layer in ("graph", "sched", "spmt", "session", "serve")}
    reuses, tables = (c["sched.engine.window_reuses"],
                      c["sched.engine.window_tables"])
    metrics = {f"{layer}.self_s": s for layer, s in layers.items()}
    metrics.update({
        "graph.build_ddg_s": self_s.get("graph.build_ddg", 0.0),
        "graph.ddg_edges": spans["ddg_edges"],
        "sched.sms_s": self_s.get("sched.sms", 0.0),
        "sched.tms_s": self_s.get("sched.tms", 0.0),
        "sched.postpass_s": self_s.get("sched.postpass", 0.0),
        "sched.tms_candidates": c["tms.candidates"],
        "sched.slot_probes": c["sched.engine.slot_probes"],
        "sched.tms_accept_ratio": ratio(c["tms.searches"],
                                        c["tms.candidates"]),
        "sched.placement_ratio": ratio(c["sched.placements"],
                                       c["sched.attempts"]),
        "sched.window_reuse_ratio": ratio(reuses, reuses + tables),
        "sched.degraded": c["sched.degraded"],
        "spmt.sim_s": self_s.get("spmt.sim", 0.0),
        "spmt.template_s": self_s.get("spmt.template", 0.0),
        "spmt.threads": c["sim.threads"],
        "spmt.ff_share": ratio(c["sim.fastforward_threads"], c["sim.threads"]),
        "spmt.fastforwards": c["sim.fastforwards"],
        "spmt.squash_ratio": ratio(c["sim.squashed_threads"],
                                   c["sim.threads"]),
        "session.fingerprint_s": self_s.get("session.fingerprint", 0.0),
        "session.cache_hit_ratio": ratio(c["cache.hits"],
                                         c["cache.hits"] + c["cache.misses"]),
        "session.template_hit_ratio": 0.0,
        "serve.result_hit_ratio": 0.0,
        "serve.coalesce_ratio": 0.0,
        "serve.rejected": 0,
        "serve.http_ms": 0.0,
        "trace.overhead_pct": 100.0 * (
            statistics.fmean(wrapped.scaled_latencies())
            / statistics.fmean(plain.scaled_latencies()) - 1.0),
    })
    metrics.update(wrapped.layers)
    return metrics


def end_to_end_metrics(run: Run, setup_s: float, attempted: int,
                       failed: int) -> dict:
    latencies = run.scaled_latencies()
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / run.scaled_busy_seconds(),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_p90": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "tms_speedup_gm": run.gm,
        "ok_frac": (attempted - min(failed, attempted)) / attempted,
        "peak_rss_mb": run.rss_mb,
    }


def check_repeatable(name: str, seed: int, runs: list[Run]) -> None:
    """Every round of the first run, and every earlier run of this seed
    on the same code, must repeat the work counters and tms_speedup_gm.
    Each code digest keeps its own record, written by its first run
    that had no failure."""
    run = runs[0]
    first = run.round_counts[0]
    per_round = len(run.intervals) // len(run.round_counts)
    for i, counts in enumerate(run.round_counts[1:], start=2):
        if counts != first:
            differ = sorted(k for k in first if counts.get(k) != first[k])
            run.fail(f"round {i} repeated round 1 except {differ}",
                     ops=per_round)
    code = code_digest()
    record = {"code": code, "work": first, "tms_speedup_gm": run.gm}
    path = STATE_DIR / f"{name}-seed{seed}-{code}.json"
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        previous = None
    if previous is not None:
        if previous != record:
            run.fail(f"work differs from an earlier run of seed {seed}: "
                     f"{previous} != {record}", ops=per_round)
        return
    if any(r.failed for r in runs):
        return
    STATE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record))
    tmp.replace(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    found = pin_environment()
    os.sched_setaffinity(0, {CPUS[0]})
    sampler = Sampler()
    sampler.start()
    sys.path.insert(0, str(SRC))
    import repro.serve.client  # noqa: F401
    import repro.session  # noqa: F401
    import repro.spmt.sim  # noqa: F401
    imported = time.monotonic()

    if args.trace:
        sampler.stop()
        plain, wrapped, metrics = traced(args.workload, args.seed,
                                         args.seconds)
        runs = [plain, wrapped]
    else:
        run, setup_s = end_to_end(args.workload, args.seed, args.seconds,
                                  sampler)
        setup_s += scaled_seconds(sampler.samples, T_START, imported)
        runs = [run]
    check_repeatable(args.workload, args.seed, runs)
    attempted = sum(len(r.intervals) for r in runs)
    failed = sum(r.failed for r in runs)
    if not args.trace:
        metrics = end_to_end_metrics(run, setup_s, attempted,
                                     failed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))}"
                         f" are not both computed and in BENCHMARK.json")
    for r in runs:
        for problem in r.problems:
            print(f"[perfbench] FAILED: {problem}", file=sys.stderr)
    raw = runs[-1].latencies
    print(f"[perfbench] {args.workload} seed {args.seed}: "
          f"{attempted} operations, {failed} failed; unscaled p50 "
          f"{statistics.median(raw) * 1e3:.2f} ms, host speed "
          f"{statistics.median(hostspeed.NOMINAL_S / q for _, q in runs[-1].samples):.3f}"
          f"; unset from the environment: {found or 'nothing'}",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
