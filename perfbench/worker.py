"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload bulk --seed 1 --trace 0

Prints one JSON object: the host seconds from before ``import dyncast``
to the end of the workload; each part of it (the import, the
preparation, each run, the reports) and each part of setup (the import,
each CarouselSession build) in seconds at the reference host speed
(``hostspeed.py``); peak resident memory; the simulated summary; and,
with ``--trace 1``, the per-layer metrics, their times also at the
reference speed.  Exits non-zero if the library cannot be imported from
this checkout or a probe fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import instrument
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    inputs = workloads.make_inputs(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    sampler = hostspeed.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    import dyncast
    imported = (t0, time.perf_counter())
    if not Path(dyncast.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"dyncast imported from {dyncast.__file__}, not from {SRC}")

    if args.trace:
        tracer = instrument.Tracer()
        receivers = instrument.collect_instances("dyncast.transfer", "SymbolReceiver")
    else:
        tracer = instrument.Tracer(instrument.SETUP_PROBES)
    result = workloads.run(inputs)
    host_s = time.perf_counter() - t0
    sampler.stop()

    parts = {"import": imported, **result.parts}
    setup = {"import": imported,
             **{f"session{i}": span for i, span in enumerate(tracer.spans("transfer.session"))}}
    out = {
        "host_s": host_s,
        "cal_s": statistics.median(sampler.cal_s),
        "wall_parts": {name: sampler.reference_s(*span) for name, span in parts.items()},
        "setup_parts": {name: sampler.reference_s(*span) for name, span in setup.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    out.update(workloads.summarize(inputs, result))
    if args.trace:
        totals = tracer.check_called(workloads.NOT_CALLED[args.workload], sampler.reference_s)
        out["layers"] = instrument.layer_metrics(totals, receivers, result.runs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
