"""Command line front end: plan, send, recv, sim and metrics subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import carousel, fec, netsim, transfer
from .channel import ChannelConfig


# The channel flags are the scenario file's ChannelConfig keys with dashes.
_CHANNEL_KEYS = {key: (name, convert) for key, (cls, name, convert) in netsim.SCENARIO_KEYS.items()
                 if cls is ChannelConfig}

_CHANNEL_HELP = {
    "base_rate": "base group rate, bits/s",
    "max_rate": "cumulative rate of a newborn group, bits/s",
    "decay": "per sub-slot decay ratio",
    "tsd": "time slot duration, s",
    "payload": "PDU payload bytes",
}


def _channel_from_args(args) -> ChannelConfig:
    return ChannelConfig(**{name: getattr(args, key) for key, (name, _) in _CHANNEL_KEYS.items()})


def _add_codec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--codec", choices=fec.CODEC_NAMES, default="sparse_parity")
    p.add_argument("--symbol-size", type=int, default=1448)
    p.add_argument("--fec-n", type=int, default=None, help="total symbols (default 2k)")
    p.add_argument("--fec-seed", type=int, default=fec.CodecSpec.seed)
    p.add_argument("--levels", type=int, default=None,
                   help="carousel levels per buffer (default: fill the mean top rate)")


def cmd_plan(args) -> int:
    # A ring holds one code's n symbols; with levels <= blocks that bounds the plan.
    if args.blocks > fec.MAX_N:
        raise ValueError(f"--blocks {args.blocks} is above {fec.MAX_N}, "
                         "the most symbols a code may have")
    plan = carousel.build_plan(args.blocks, args.levels)
    print("level offsets:", " ".join(str(o) for o in plan.level_offsets))
    for lv in range(1, args.levels + 1):
        print(f"levels {lv}: {carousel.completion_time(plan, lv):.1f} buffers "
              f"to all {args.blocks} blocks")
    return 0


def cmd_send(args) -> int:
    if args.buffers is not None and args.buffers < 1:
        raise ValueError("--buffers must be >= 1")
    channel = _channel_from_args(args)
    size = Path(args.file).stat().st_size
    spec = transfer.spec_for_file(args.codec, size, args.symbol_size,
                                  n=args.fec_n, seed=args.fec_seed)
    session = transfer.send_file(
        args.file, args.out,
        channel=channel, codec=spec, levels=args.levels, session_id=args.session_id,
        buffers=args.buffers,
    )
    print(f"sequenced {size} bytes as k={spec.k} n={spec.n} symbols, "
          f"{session.plan.level_count} levels per buffer, trace at {args.out}")
    return 0


def cmd_recv(args) -> int:
    data, metrics, _counters = transfer.receive_file(args.trace)
    Path(args.out).write_bytes(data)
    print(transfer.format_metrics(metrics.as_dict()))
    return 0


def cmd_sim(args) -> int:
    if args.runs < 1:
        raise ValueError("--runs must be >= 1")
    scenario = netsim.load_scenario(args.scenario)
    data = Path(args.file).read_bytes()
    spec = transfer.spec_for_file(args.codec, len(data), args.symbol_size,
                                  n=args.fec_n, seed=args.fec_seed)
    out_dir = Path(args.out_dir)
    per_receiver: list[list[transfer.TransferMetrics]] = [[] for _ in scenario.receivers]
    failed = False
    for run in range(args.runs):
        scen = dataclasses.replace(scenario, seed=scenario.seed + run)
        outcomes, result = transfer.simulate_transfer(
            data, scen, spec, levels=args.levels, collect_traces=args.write_traces
        )
        # Made only now, so a run rejected while its session is built
        # leaves no directory behind.
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, outcome in enumerate(outcomes):
            tag = f"run{run}_rx{i}"
            (out_dir / f"{tag}_counters.json").write_text(
                json.dumps(dataclasses.asdict(outcome.counters), indent=2) + "\n"
            )
            if args.write_traces:
                netsim.write_receiver_trace(out_dir / f"{tag}.trace", result.receivers[i].trace)
            if outcome.done:
                (out_dir / f"{tag}.bin").write_bytes(outcome.file)
                ok = "ok" if outcome.file == data else "MISMATCH"
                failed |= ok != "ok"
                print(f"# {tag}: completed in {outcome.metrics.time:.3f}s ({ok})")
                print(transfer.format_metrics(outcome.metrics.as_dict()))
                per_receiver[i].append(outcome.metrics)
            else:
                failed = True
                print(f"# {tag}: timed out after {scen.duration}s; partial metrics:")
                print(transfer.format_metrics(transfer.partial_metrics(outcome.counters)))
            print()
    if args.runs >= 2:
        for i, runs in enumerate(per_receiver):
            if len(runs) >= 2:
                print(f"# receiver {i}: mean and 95% interval over {len(runs)} runs")
                print(transfer.format_report(transfer.report(runs)))
                print()
    return 1 if failed else 0


# The JSON types each counter takes, from its annotation ("int" or "float",
# as strings under postponed evaluation); bool is neither.
_COUNTER_TYPES = {f.name: {"int": (int,), "float": (int, float)}[f.type]
                  for f in dataclasses.fields(transfer.TransferCounters)}


def _read_counters(path) -> transfer.TransferCounters:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if (not isinstance(payload, dict) or payload.keys() != _COUNTER_TYPES.keys()
            or not all(type(v) in _COUNTER_TYPES[k] and 0 <= v < math.inf
                       for k, v in payload.items())):
        ints = [k for k, types in _COUNTER_TYPES.items() if float not in types]
        floats = [k for k, types in _COUNTER_TYPES.items() if float in types]
        raise ValueError(f"{path}: not a JSON object of the non-negative integers "
                         f"{', '.join(ints)} and the finite, non-negative numbers "
                         f"{', '.join(floats)}")
    return transfer.TransferCounters(**payload)


def cmd_metrics(args) -> int:
    all_metrics = [transfer.compute_metrics(_read_counters(path)) for path in args.counters]
    if len(all_metrics) == 1:
        print(transfer.format_metrics(all_metrics[0].as_dict()))
    else:
        print(transfer.format_report(transfer.report(all_metrics)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyncast",
        description="Layered multicast sequencer with a FEC carousel file transfer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="derive a carousel plan and its completion profile")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("send", help="sequence a file into an emission trace")
    p.add_argument("--file", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--buffers", type=int, default=None,
                   help="carousel buffers to emit (default: one full period)")
    p.add_argument("--session-id", type=int, default=1)
    _add_codec_args(p)
    for key, (name, convert) in _CHANNEL_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=convert,
                       default=getattr(ChannelConfig, name), help=_CHANNEL_HELP.get(key))
    p.set_defaults(func=cmd_send)

    p = sub.add_parser("recv", help="decode a file from an emission trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_recv)

    p = sub.add_parser("sim", help="run transfers through the deterministic simulator")
    p.add_argument("--file", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--out-dir", default="sim-out")
    p.add_argument("--write-traces", action="store_true")
    _add_codec_args(p)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("metrics", help="criteria from counters JSON files")
    p.add_argument("counters", nargs="+")
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the one place where errors become exit codes (see README)."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed our output (``dyncast recv ... | head``): that
        # ends the output, it is not bad input.  The interpreter's last
        # flush goes to os.devnull, and the exit code is 128 + SIGPIPE,
        # what a shell reports for a writer killed by a closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except transfer.TransferTimeoutError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        print(transfer.format_metrics(exc.partial), file=sys.stderr)
        return 1
    except fec.DecodeFailureError as exc:
        print(f"{args.command}: decode failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
