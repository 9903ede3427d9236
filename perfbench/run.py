"""The dyncast benchmark: one workload, timed from outside the library.

    python3 perfbench/run.py --workload {bulk,fanout,mds} --seed N --seconds S --trace {0,1}

Each repetition runs the whole workload in a fresh interpreter
(``worker.py``), so import costs, first calls and peak memory count the
same way every time.  Repetitions follow one another until the next one
would overrun ``--seconds``.

The host is shared, and its co-tenants slow it by up to half, for a
second at a time or for minutes.  So each repetition samples the host
speed ten times a second while it runs (``hostspeed.py``) and rescales
the host time of each of its parts (the import, the preparation, each
transfer run, the reports) to a fixed reference speed.  ``wall_s`` and
``setup_s`` are the sums over parts of each part's median over the
repetitions, in seconds at the reference speed; the host seconds as
they passed are kept in the record.  Peak memory is a median.

With ``--trace 0`` the result carries the end-to-end metrics, measured
with one probe only (around CarouselSession's constructor, for
``setup_s``).  With ``--trace 1`` every iteration runs an untraced and
a traced repetition; the result carries the per-layer metrics (medians
over the traced repetitions, times at the reference speed) and
``trace.overhead_s``, the traced minus the untraced wall time.

Every repetition must decode every receiver's file byte for byte, and
all repetitions of one seed, traced or not, must produce identical
simulated outputs.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
is a ``# record`` with the environment and every sample.  The exit
status is 0 only when the result is correct.  Metric names and units
come from ``BENCHMARK.json``; ``design.json`` holds the workload
design, the interaction map and the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DESIGN = json.loads((HERE / "design.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = tuple(w["name"] for w in BENCHMARK["workloads"])

MIN_REPS = 3  # untraced repetitions per run, even past --seconds
MIN_PAIRS = 1  # untraced + traced pairs per traced run
HARD_LIMIT_S = 170.0  # a run ends within this, whatever --seconds says

SIMULATED = ("decoded_frac", "sim_time_s", "sym_ratio", "dup_ratio", "net_ratio")


class BenchError(RuntimeError):
    pass


def steal_jiffies() -> int | None:
    """Host steal time so far, from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def git_commit() -> str | None:
    """HEAD of the checkout, if it is a git repository of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline

    def child(self, argv: list[str], env: dict | None = None) -> str:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time ({HARD_LIMIT_S:.0f} s) before the next repetition")
        try:
            done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repetition still running after {HARD_LIMIT_S:.0f} s") from exc
        if done.returncode != 0:
            raise BenchError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr.strip()}")
        return done.stdout

    def warm_up(self) -> None:
        """Import once untimed, writing bytecode even where the environment
        says not to, so every timed import reads cached bytecode."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.child(["-c", "import sys; sys.path.insert(0, 'src'); import dyncast"], env)

    def repetition(self, trace: bool) -> dict:
        before = steal_jiffies()
        out = self.child([str(HERE / "worker.py"), "--workload", self.workload,
                          "--seed", str(self.seed), "--trace", str(int(trace))])
        sample = json.loads(out.splitlines()[-1])
        after = steal_jiffies()
        sample["steal_jiffies"] = [before, after]
        sample["traced"] = trace
        return sample


def measure(runner: Runner, seconds: float, trace: bool) -> list[dict]:
    """Repetitions until a typical next one would overrun ``seconds``."""
    start = time.monotonic()
    samples: list[dict] = []
    durations: list[float] = []
    minimum = MIN_PAIRS if trace else MIN_REPS
    while True:
        t0 = time.monotonic()
        samples.append(runner.repetition(False))
        if trace:
            samples.append(runner.repetition(True))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(durations) >= minimum and elapsed + statistics.median(durations) > seconds:
            return samples


def check(samples: list[dict]) -> list[str]:
    """Reasons the outputs are wrong; empty when they are right."""
    problems = []
    wrong = sum(s["wrong_bytes"] for s in samples)
    if wrong:
        problems.append(f"{wrong} decoded files differ from the input")
    first = samples[0]["fingerprint"]
    for i, s in enumerate(samples[1:], start=1):
        if s["fingerprint"] != first:
            kind = "traced" if s["traced"] else "untraced"
            problems.append(f"repetition {i} ({kind}) simulated different outputs than repetition 0")
    if not all(name in samples[0] for name in SIMULATED):
        problems.append("no receiver decoded, so the simulated metrics are undefined")
    return problems


def by_part(samples: list[dict], key: str) -> float:
    """Sum over the parts under ``key`` of each part's median."""
    return sum(statistics.median(s[key][part] for s in samples) for part in samples[0][key])


def end_to_end(untraced: list[dict]) -> dict[str, float]:
    first = untraced[0]
    wall_s = by_part(untraced, "wall_parts")
    values = {
        "wall_s": wall_s,
        "setup_s": by_part(untraced, "setup_parts"),
        "sim_per_wall": first["sim_end_s"] / wall_s,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
    }
    values.update({name: first[name] for name in SIMULATED})
    return values


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    values = {name: statistics.median(s["layers"][name] for s in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_s"] = by_part(traced, "wall_parts") - by_part(untraced, "wall_parts")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=DESIGN["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dyncast" / "__init__.py").is_file():
        print(f"error: no dyncast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, time.monotonic() + HARD_LIMIT_S)
    try:
        runner.warm_up()
        samples = measure(runner, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    problems = check(samples)
    metrics: dict[str, dict] = {}
    if not problems:
        units = {m["name"]: m["unit"]
                 for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]}
        if args.trace:
            values = per_layer(untraced, traced)
            counts = len(traced)
        else:
            values = end_to_end(untraced)
            counts = len(untraced)
        missing = sorted(set(units) ^ set(values))
        if missing:
            problems.append(f"metrics without a definition or value: {', '.join(missing)}")
        for name, unit in units.items():
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
                if name == "sim_time_s":
                    how = f"median of {untraced[0]['sim_time_count']} receivers"
                elif name in SIMULATED:
                    how = "simulated"
                elif name == "peak_rss_mb" or args.trace:
                    how = f"median of {counts} repetitions"
                else:
                    how = f"median of {counts} repetitions, part by part, at reference speed"
                print(f"{name} {values[name]:.6g} {unit} ({how})")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "samples": [{k: v for k, v in s.items() if k not in ("fingerprint", "layers")}
                    for s in samples],
    }
    print("# record " + json.dumps(record))
    result = {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
