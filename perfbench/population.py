"""Inputs of the three workloads.

The loops are the canonical (unseeded) SPECfp and Table-3 populations.
The workload seed draws what a user would vary between runs of the same
programs: the order loops are compiled and kernels simulated in, and the
serve request mix.  Reseeding the loops themselves moved the figures
more than any bound allows: one seeded lucas loop took from 0.04 s to
16 s to compile, and with the 48 light loops reseeded the median
compile moved 16% and the median simulation 4x between seeds.
"""

from __future__ import annotations

import random

from repro.ir import parse_loop
from repro.ir.operand import AffineIndex, Reg
from repro.ir.serialize import loop_to_dict
from repro.workloads.doacross import DOACROSS_LOOPS
from repro.workloads.specfp import SPECFP_BENCHMARKS, generate_benchmark_loops

#: loops per benchmark taken from each SPECfp population
MAX_LOOPS = 4

#: the benchmark whose loops dominate compile time
HEAVY_BENCHMARK = "lucas"

#: a loop outside every population: compiled and simulated once, untimed,
#: before any timed operation
WARMUP_DSL = """\
loop perfbench_warmup
array X 64
array Y 64
livein a 2.0
livein s 0.0
n0: x = load X[i]
n1: t = fmul x, a
n2: y = load Y[i] !alias n4:1:0.05
n3: r = fadd t, y
n4: store Y[i+1], r
n5: s = fadd s, r
"""


def light_loops(max_loops: int = MAX_LOOPS) -> list:
    """The canonical loops of the 12 SPECfp benchmarks other than lucas."""
    return [loop for spec in SPECFP_BENCHMARKS
            if spec.name != HEAVY_BENCHMARK
            for loop in generate_benchmark_loops(spec, max_loops)]


def heavy_loops() -> list:
    """lucas's canonical loops: the TMS searches that dominate compile
    time."""
    spec = next(s for s in SPECFP_BENCHMARKS if s.name == HEAVY_BENCHMARK)
    return generate_benchmark_loops(spec, MAX_LOOPS)


def doacross_loops(with_fft: bool = True) -> list:
    """The seven Table-3 loops (``lucas_fft`` optional)."""
    return [sl.loop for sl in DOACROSS_LOOPS
            if with_fft or sl.loop.name != "lucas_fft"]


def compile_population(seed: int) -> list:
    """compile-cold: the 48 canonical loops of the 12 light benchmarks,
    lucas's 4 loops and the 7 Table-3 loops, in a seeded order."""
    return _shuffled(light_loops() + heavy_loops() + doacross_loops(), seed)


def sim_population(seed: int) -> list:
    """sim-long: compile-cold's loops without lucas's, whose compiles
    would dominate set-up, in a seeded order."""
    return _shuffled(light_loops() + doacross_loops(with_fft=False), seed)


def _shuffled(loops: list, seed: int) -> list:
    random.Random(f"perfbench-order-{seed}").shuffle(loops)
    return loops


# -- loop -> DSL -------------------------------------------------------------

def _operand(op) -> str:
    if isinstance(op, Reg):
        return f"{op.name}@-{op.back}" if op.back else op.name
    return repr(float(op.value))


def _index(index) -> str:
    if not isinstance(index, AffineIndex):
        return _operand(index.reg)
    if index.coeff == 0:
        return str(index.offset)
    text = "i" if index.coeff == 1 else f"{index.coeff}*i"
    if index.offset:
        text += f"{index.offset:+d}"
    return text


def to_dsl(loop) -> str:
    """Render ``loop`` in :mod:`repro.ir.dsl` syntax; raises
    ``ValueError`` unless parsing the text gives back the same loop."""
    head = f"loop {loop.name}"
    if loop.coverage is not None:
        head += f" coverage={loop.coverage!r}"
    lines = [head]
    lines += [f"array {name} {size}" for name, size in loop.arrays.items()]
    lines += [f"livein {reg} {float(value)!r}"
              for reg, value in loop.live_ins.items()]
    for ins in loop.body:
        hints = "".join(f" !alias {h.producer}:{h.distance}:{h.probability!r}"
                        for h in ins.alias_hints)
        if ins.opcode.value == "store":
            body = (f"store {ins.mem.array}[{_index(ins.mem.index)}], "
                    f"{_operand(ins.srcs[0])}")
        elif ins.opcode.value == "load":
            body = f"{ins.dest} = load {ins.mem.array}[{_index(ins.mem.index)}]"
        else:
            body = f"{ins.dest} = {ins.opcode.value} " + ", ".join(
                _operand(s) for s in ins.srcs)
        lines.append(f"{ins.name}: {body.rstrip()}{hints}")
    text = "\n".join(lines) + "\n"
    if loop_to_dict(parse_loop(text)) != loop_to_dict(loop):
        raise ValueError(f"DSL round trip changed loop {loop.name!r}")
    return text


# -- serve request mix -------------------------------------------------------

#: loops per benchmark in the serve pool (289 loops, 867 loop/core pairs)
SERVE_MAX_LOOPS = 40
CORES = (2, 4, 8)
ITERATIONS = (250, 500, 1000)
#: shares of the request mix: the request just before (both clients are
#: likely to hold it at once, so it coalesces); one of the last
#: ``HOT_WINDOW`` requests (a result-cache hit); a new simulation of a
#: recently compiled loop (an artifact-cache hit, often a template
#: hit); the rest name a loop/core pair not requested before.  All the
#: shares are assumptions, not measured traffic; the repeat share was
#: picked so the median falls on computed requests (README.md)
REPEAT_LAST = 0.10
REPEAT_HOT = 0.15
VARIANT = 0.20
HOT_WINDOW = 32
#: share of new pairs requested as ``simulate`` rather than ``compile``
SIM_SHARE = 0.6


def _simulate(rng: random.Random, base: dict) -> dict:
    return dict(base, kind="simulate", iterations=rng.choice(ITERATIONS),
                policy=rng.choice(("sms", "tms")))


def request_stream(sources: list[str], seed: int):
    """Endless seeded sequence of request dicts over ``sources``.

    New requests walk a seeded permutation of the loop/core pairs, so
    the share of work the daemon has not seen stays fixed until all
    pairs are used, and the sequence does not depend on timing."""
    rng = random.Random(f"perfbench-serve-{seed}")
    pairs = [(source, cores) for source in sources for cores in CORES]
    history: list[dict] = []
    fresh = iter(())
    while True:
        roll = rng.random()
        if history and roll < REPEAT_LAST:
            request = history[-1]
        elif history and roll < REPEAT_LAST + REPEAT_HOT:
            request = rng.choice(history[-HOT_WINDOW:])
        elif history and roll < REPEAT_LAST + REPEAT_HOT + VARIANT:
            recent = rng.choice(history[-HOT_WINDOW:])
            request = _simulate(rng, {"source": recent["source"],
                                      "cores": recent["cores"]})
        else:
            pair = next(fresh, None)
            if pair is None:
                fresh = iter(rng.sample(pairs, len(pairs)))
                pair = next(fresh)
            request = {"kind": "compile", "source": pair[0],
                       "cores": pair[1]}
            if rng.random() < SIM_SHARE:
                request = _simulate(rng, request)
        history.append(request)
        yield dict(request)
