"""The serve-mixed daemon: ``tms-experiments serve --port 0`` with
default flags and no journal.

The process pins itself to ``--cpu`` and takes host-speed quanta in a
background thread (``hostspeed.Sampler``, about 1.5% of one CPU).  With
``--spans`` the benchmark's span wrappers are installed before the
daemon starts.  On exit it writes the quanta, the span totals and its
metric counters to ``--dump`` as JSON.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--dump", required=True)
    parser.add_argument("--spans", action="store_true")
    args = parser.parse_args()

    # pinned and sampling before the heavy imports, so the quanta also
    # cover the start-up that the benchmark's set-up time includes
    os.sched_setaffinity(0, {args.cpu})
    from hostspeed import Sampler
    sampler = Sampler()
    sampler.start()

    from repro.obs.metrics import get_registry
    from spans import SpanRecorder

    recorder = SpanRecorder()
    if args.spans:
        recorder.install()

    def dump() -> None:
        data = recorder.to_dict()
        data["counters"] = get_registry().deterministic_totals()
        data["samples"] = list(sampler.samples)
        Path(args.dump).write_text(json.dumps(data))
    atexit.register(dump)

    from repro.experiments.runner import main as cli_main
    return cli_main(["serve", "--port", "0"])


if __name__ == "__main__":
    raise SystemExit(main())
