"""The benchmark's workloads: inputs drawn from a seed, run, summarised.

Every workload uses criterion 8's channel and runs its transfers one
after another in one process (a closed loop with one client).  The
library sees only what ``make_inputs`` generates: the file bytes, the
receiver specs, the scenario seeds and the sparse-parity code seed.

This module imports only the standard library at import time, so that
the worker can build inputs before it starts timing ``import dyncast``.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time
from dataclasses import dataclass

NAMES = ("bulk", "fanout", "mds")

# ChannelConfig(128000, 4e6, 0.7, 2.0, 2, 1448, 10), criterion 8's ladder.
CHANNEL_ARGS = (128000.0, 4e6, 0.7, 2.0, 2, 1448, 10)
SYMBOL_SIZE = 1448

# Wrapped functions that a workload never calls; every other wrapped
# function must record at least one call, or the traced run fails.
NOT_CALLED = {
    "bulk": {"transfer.report"},
    "fanout": {"transfer.report"},
    "mds": set(),
}


@dataclass(frozen=True)
class Run:
    scenario_seed: int
    # (target as a share of mean_top_rate, start time in s) per receiver
    receivers: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Inputs:
    data: bytes
    codec: str
    fec_seed: int
    bottleneck_rate: float
    queue_capacity: int
    iid_loss: float
    burst: tuple[float, float] | None  # (loss rate, mean burst length)
    duration: float
    runs: tuple[Run, ...]  # simulated one after another
    report: bool  # transfer.report() per receiver over its runs


def make_inputs(workload: str, seed: int) -> Inputs:
    """Everything random in a workload, drawn from ``seed`` in a fixed order."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(NAMES)}")
    rng = random.Random(f"{workload}:{seed}")
    scenario_seed = rng.randrange(1 << 31)
    fec_seed = rng.randrange(1 << 31)
    if workload == "bulk":
        # The sparse GF(2) decoder does almost all the work: k = 5525.
        # With no loss, the code seed alone moves the decoder's close point.
        return Inputs(rng.randbytes(8_000_000), "sparse_parity", fec_seed,
                      8e6, 25, 0.0, None, 600.0, (Run(scenario_seed, ((1.0, 0.0),)),), False)
    if workload == "fanout":
        # The per-delivery path does the work: 20 receivers behind a
        # bottleneck below the mean top rate, so the queue overflows.
        # A null-codec receiver's time jumps by whole carousel passes with
        # its start and loss draws, so one run's work moves by 15% from
        # seed to seed; twelve short runs, each with its own draws, keep
        # the work and the simulated metrics steady across seeds.
        data = rng.randbytes(250_000)
        runs = tuple(
            Run(scenario_seed + r,
                tuple((0.1 + 0.9 * i / 19, rng.uniform(0.0, 20.0)) for i in range(20)))
            for r in range(12)
        )
        return Inputs(data, "null", fec_seed,
                      2.5e6, 25, 0.02, (0.05, 6.0), 1800.0, runs, False)
    # mds: the GF(256) encode and each receiver's Lagrange solve, k = 125;
    # three runs at scenario seeds s, s+1, s+2, as `dyncast sim --runs 3`.
    receivers = tuple((0.05 + 0.95 * i / 11, 0.0) for i in range(12))
    return Inputs(rng.randbytes(180_900), "mds", fec_seed,
                  8e6, 25, 0.05, None, 120.0,
                  tuple(Run(scenario_seed + r, receivers) for r in range(3)), True)


@dataclass
class Result:
    runs: list  # (outcomes, SimResult) per run, decoded files dropped
    intact: list  # per run and receiver: decoded and equal to the input
    reports: list  # transfer.report() per receiver, when the workload asks for it
    parts: dict  # (start, end) on perf_counter per part: "prepare", "run0", ..., "report"


def run(inp: Inputs) -> Result:
    """Run the workload's transfers one after another, then the reports.

    Each part's start and end are kept, so that the caller can rescale
    each part's host time by the host speed around it.
    """
    t0 = time.perf_counter()
    # Imported here so that the caller decides when the import is timed.
    from dyncast import transfer
    from dyncast.channel import ChannelConfig
    from dyncast.netsim import GilbertLoss, ReceiverSpec, Scenario

    cfg = ChannelConfig(*CHANNEL_ARGS)
    spec = transfer.spec_for_file(inp.codec, len(inp.data), SYMBOL_SIZE, seed=inp.fec_seed)
    runs, intact = [], []
    parts = {"prepare": (t0, time.perf_counter())}
    for index, r in enumerate(inp.runs):
        t0 = time.perf_counter()
        scenario = Scenario(
            channel=cfg,
            bottleneck_rate=inp.bottleneck_rate,
            queue_capacity=inp.queue_capacity,
            iid_loss=inp.iid_loss,
            burst=GilbertLoss(*inp.burst) if inp.burst else None,
            receivers=tuple(ReceiverSpec(share * cfg.mean_top_rate, start)
                            for share, start in r.receivers),
            duration=inp.duration,
            seed=r.scenario_seed,
        )
        outcomes, sim = transfer.simulate_transfer(inp.data, scenario, spec)
        # Check and drop each decoded file at once, as `dyncast sim` does,
        # so that peak memory does not grow with the number of runs.
        intact.append([o.done and o.file == inp.data for o in outcomes])
        for o in outcomes:
            o.file = None
        runs.append((outcomes, sim))
        parts[f"run{index}"] = (t0, time.perf_counter())
    reports = []
    if inp.report:
        t0 = time.perf_counter()
        for i in range(len(inp.runs[0].receivers)):
            done = [outcomes[i].metrics for outcomes, _ in runs if outcomes[i].done]
            if len(done) >= 2:
                reports.append(transfer.report(done))
        parts["report"] = (t0, time.perf_counter())
    return Result(runs, intact, reports, parts)


def summarize(inp: Inputs, result: Result) -> dict:
    """Correctness, the simulated end-to-end metrics and a fingerprint.

    The fingerprint holds every simulated output (per-receiver counters
    and paper metrics, link counters, end times, reports); equal inputs
    must reproduce it exactly, traced or not.
    """
    outcomes = [o for outcomes, _ in result.runs for o in outcomes]
    intact = sum(ok for run in result.intact for ok in run)
    metrics = [o.metrics for o in outcomes if o.done]
    summary = {
        "attempted": len(outcomes),
        "failed": len(outcomes) - intact,
        "wrong_bytes": len(metrics) - intact,
        "sim_end_s": sum(sim.end_time for _, sim in result.runs),
    }
    if metrics:
        summary.update({
            "decoded_frac": intact / len(outcomes),
            "sim_time_s": statistics.median(m.time for m in metrics),
            "sim_time_count": len(metrics),
            # The paper's percentages as ratios (1 + pct / 100): sym is
            # exactly 0 % for mds and null, and a relative bound needs a
            # metric that is never 0.
            "sym_ratio": statistics.fmean(1.0 + m.sym / 100.0 for m in metrics),
            "dup_ratio": statistics.fmean(1.0 + m.dup / 100.0 for m in metrics),
            "net_ratio": statistics.fmean(1.0 + m.net / 100.0 for m in metrics),
        })
    summary["fingerprint"] = {
        "runs": [
            {
                "end_time": sim.end_time,
                "link": dataclasses.asdict(sim.link),
                "receivers": [
                    {
                        "done": o.done,
                        "counters": dataclasses.asdict(o.counters),
                        "metrics": o.metrics.as_dict() if o.metrics else None,
                    }
                    for o in outcomes
                ],
            }
            for outcomes, sim in result.runs
        ],
        "reports": result.reports,
    }
    return summary
