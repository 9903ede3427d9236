"""Command line entry points, exercised in-process through main(argv)."""

import dataclasses
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from dyncast import netsim, transfer, wire
from dyncast.channel import ChannelConfig
from dyncast.cli import _channel_from_args, build_parser, main

CHANNEL_FLAGS = [
    "--base-rate", "62500", "--max-rate", "4e6", "--decay", "0.5",
    "--tsd", "1", "--group-count", "7",
]


def test_plan_prints_offsets_and_profile(capsys):
    assert main(["plan", "--blocks", "10", "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert "level offsets: 0 5 2" in out
    lines = out.splitlines()
    assert lines[1].startswith("levels 1: 10.0 buffers")
    assert len(lines) == 4


def test_python_m_dyncast_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "dyncast", "plan", "--blocks", "10",
                           "--levels", "3"],
                          cwd=src, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == ("level offsets: 0 5 2\n"
                           "levels 1: 10.0 buffers to all 10 blocks\n"
                           "levels 2: 5.0 buffers to all 10 blocks\n"
                           "levels 3: 5.0 buffers to all 10 blocks\n")


def test_plan_work_is_bounded():
    # Each level's completion time is a formula: a walk over the buffers
    # runs for more than 20 s on this input.
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "dyncast", "plan", "--blocks", "200000",
                           "--levels", "200"],
                          cwd=src, capture_output=True, text=True, timeout=2)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.splitlines()[-1] == "levels 200: 1562.0 buffers to all 200000 blocks"


def test_send_then_recv_round_trip(tmp_path, capsys):
    data = random.Random(3).randbytes(15_000)
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    trace = tmp_path / "emitted.trace"
    assert main(["send", "--file", str(src), "--out", str(trace), *CHANNEL_FLAGS]) == 0
    assert "sequenced 15000 bytes" in capsys.readouterr().out

    out = tmp_path / "out.bin"
    rc = main(["recv", "--trace", str(trace), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert out.read_bytes() == data
    names = [ln.split()[0] for ln in stdout.strip().splitlines()]
    assert names == ["time", "gput", "tput", "loss", "dup", "sym", "head", "net", "comp"]


def test_recv_head_follows_the_payload(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(9).randbytes(60_000))
    trace = tmp_path / "emitted.trace"
    assert main(["send", "--file", str(src), "--out", str(trace),
                 "--payload", "512", "--symbol-size", "512"]) == 0
    assert trace.read_text().split("\n", 1)[0].endswith(" payload=512")
    assert main(["recv", "--trace", str(trace), "--out", str(tmp_path / "out.bin")]) == 0
    assert "head 6.25\n" in capsys.readouterr().out  # 32 header bytes per 512


def test_send_channel_flags_are_the_channel_scenario_keys(capsys):
    # Each ChannelConfig field has one scenario key, and each key one send flag.
    keys = {key: name for key, (cls, name, _) in netsim.SCENARIO_KEYS.items()
            if cls is ChannelConfig}
    assert sorted(keys.values()) == sorted(f.name for f in dataclasses.fields(ChannelConfig))
    with pytest.raises(SystemExit):
        main(["send", "--help"])
    flags = {t.rstrip(",") for t in capsys.readouterr().out.split() if t.startswith("--")}
    assert flags - {"--help", "--file", "--out", "--buffers", "--session-id", "--codec",
                    "--symbol-size", "--fec-n", "--fec-seed", "--levels"} == {
        "--" + key.replace("_", "-") for key in keys}

    send = ["send", "--file", "in.bin", "--out", "t.trace"]
    assert _channel_from_args(build_parser().parse_args(send)) == ChannelConfig()
    flagged = build_parser().parse_args(
        [*send, *CHANNEL_FLAGS, "--groups-per-tsi", "2", "--payload", "1000"])
    channel = ChannelConfig(62500.0, 4e6, 0.5, 1.0, 2, 1000, 7)
    assert _channel_from_args(flagged) == channel
    assert netsim.parse_scenario("base_rate = 62500\nmax_rate = 4e6\ndecay = 0.5\ntsd = 1\n"
                                 "group_count = 7\ngroups_per_tsi = 2\npayload = 1000\n"
                                 ).channel == channel


@pytest.mark.parametrize("flag", ["--max-rate=inf", "--decay=nan", "--payload=1.5"])
def test_send_rejects_unconvertible_channel_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exit_:
        main(["send", "--file", "in.bin", "--out", str(tmp_path / "t.trace"), flag])
    assert exit_.value.code == 2
    assert flag.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "t.trace").exists()


def test_send_honours_levels_and_session_id(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(7).randbytes(50_000))
    trace = tmp_path / "emitted.trace"
    assert main([
        "send", "--file", str(src), "--out", str(trace),
        "--levels", "5", "--session-id", "9", *CHANNEL_FLAGS,
    ]) == 0
    assert "5 levels per buffer" in capsys.readouterr().out
    header, *records = trace.read_text().splitlines()
    assert "levels=5" in header.split()
    assert records
    for line in records:
        parsed, _ = wire.parse_packet(bytes.fromhex(line.split()[2]))
        assert parsed.session_id == 9


@pytest.mark.parametrize("flags", [
    ["--codec", "null"],
    ["--codec", "mds"],
    ["--codec", "sparse_parity"],
    ["--symbol-size", "1000"],
    ["--fec-seed", "3", "--levels", "5", "--session-id", "9"],
], ids=" ".join)
def test_flagless_recv_takes_the_codec_from_the_header(tmp_path, capsys, flags):
    data = random.Random(10).randbytes(30_000)
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    trace = tmp_path / "emitted.trace"
    assert main(["send", "--file", str(src), "--out", str(trace), *flags, *CHANNEL_FLAGS]) == 0
    out = tmp_path / "out.bin"
    assert main(["recv", "--trace", str(trace), "--out", str(out)]) == 0
    assert out.read_bytes() == data
    assert capsys.readouterr().err == ""


def edit_header(trace, tmp_path, edit):
    """A copy of ``trace`` whose header tokens went through ``edit``."""
    header, records = trace.read_text().split("\n", 1)
    edited = tmp_path / "edited.trace"
    edited.write_text(" ".join(edit(header.split())) + "\n" + records)
    return edited


def set_field(name, value):
    return lambda tokens: [f"{name}={value}" if t.startswith(name + "=") else t for t in tokens]


def test_recv_levels_unlike_header_exits_2(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(8).randbytes(20_000))
    trace = tmp_path / "emitted.trace"
    assert main(["send", "--file", str(src), "--out", str(trace),
                 "--levels", "3", *CHANNEL_FLAGS]) == 0
    capsys.readouterr()
    edited = edit_header(trace, tmp_path, set_field("levels", 999))
    rc = main(["recv", "--trace", str(edited), "--out", str(tmp_path / "x.bin")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "999 levels" in err
    assert not (tmp_path / "x.bin").exists()


@pytest.mark.parametrize("seed", [4, 5])
def test_recv_with_the_wrong_fec_seed_fails_loudly(tmp_path, capsys, seed):
    # Seed 4 decodes to wrong bytes that only the header's sha256 exposes;
    # seed 5 ends in contradicting repairs.
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(7).randbytes(50_000))
    trace = tmp_path / "emitted.trace"
    assert main(["send", "--file", str(src), "--out", str(trace),
                 "--fec-seed", "3", *CHANNEL_FLAGS]) == 0
    header = trace.read_text().splitlines()[0].split()
    assert "fec_seed=3" in header and any(t.startswith("sha256=") for t in header)
    capsys.readouterr()
    out = tmp_path / "x.bin"
    edited = edit_header(trace, tmp_path, set_field("fec_seed", seed))
    rc = main(["recv", "--trace", str(edited), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("recv: decode failed")
    assert not out.exists()


def test_mds_over_255_symbols_exits_2(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(200_000))  # k = 139, n = 278 at 1448-byte symbols
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("receiver = 2885390\n")
    for argv in (
        ["send", "--file", str(src), "--out", str(tmp_path / "t.trace"), "--codec", "mds"],
        ["sim", "--file", str(src), "--scenario", str(scenario), "--codec", "mds",
         "--out-dir", str(tmp_path / "simout")],
    ):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith(argv[0] + ":")
        assert "255" in err and "k=139" in err
    assert not (tmp_path / "t.trace").exists()
    assert not (tmp_path / "simout").exists()


def test_recv_without_dimensions_fails(tmp_path, capsys):
    data = random.Random(4).randbytes(8_000)
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    trace = tmp_path / "emitted.trace"
    main(["send", "--file", str(src), "--out", str(trace), *CHANNEL_FLAGS])
    # strip the metadata header: recv now has no way to size the codec
    headerless = tmp_path / "bare.trace"
    headerless.write_text(
        "\n".join(ln for ln in trace.read_text().splitlines() if not ln.startswith("#")) + "\n"
    )
    rc = main(["recv", "--trace", str(headerless), "--out", str(tmp_path / "x.bin")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "trace header" in err
    assert not (tmp_path / "x.bin").exists()


@pytest.fixture(scope="module")
def sent_trace(tmp_path_factory):
    d = tmp_path_factory.mktemp("sent")
    src = d / "in.bin"
    src.write_bytes(random.Random(11).randbytes(20_000))
    trace = d / "emitted.trace"
    assert main(["send", "--file", str(src), "--out", str(trace), *CHANNEL_FLAGS]) == 0
    return trace


HEADER_FIELDS = ("codec", "n", "symbol_size", "fec_seed", "levels", "file_length",
                 "session_id", "sha256", "payload")


def recv_header(edit):
    def argv(tmp_path, trace):
        edited = edit_header(trace, tmp_path, edit)
        return ["recv", "--trace", str(edited), "--out", str(tmp_path / "x.bin")]
    return argv


def with_file(name, text):
    def path(tmp_path):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)
    return path


def sim_scenario(text):
    scenario = with_file("scenario.txt", text)
    return lambda tmp_path, trace: [
        "sim", "--file", str(trace), "--scenario", scenario(tmp_path),
        "--out-dir", str(tmp_path / "simout"),
    ]


def sim_runs(runs):
    return lambda tmp_path, trace: [*sim_scenario("receiver = 1e6\n")(tmp_path, trace),
                                    "--runs", runs]


def send_small(*flags):
    small = with_file("small.bin", "x" * 5000)
    return lambda tmp_path, trace: ["send", "--file", small(tmp_path),
                                    "--out", str(tmp_path / "t.trace"), *flags]


def capped(argv):
    """Mark a bad input that would exhaust memory if its refusal regressed.

    The test runs it as ``python -m dyncast`` in a child process limited to
    a 1 GiB address space and 60 s, so a regression fails the test instead
    of taking the host's memory.
    """
    argv.capped = True
    return argv


def run_capped(args):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "dyncast", *args], cwd=src, capture_output=True,
                          text=True, timeout=60, preexec_fn=limit)
    return done.returncode, done.stderr


def recv_bad_second_record(tmp_path, trace):
    header, first, records = trace.read_text().split("\n", 2)
    edited = tmp_path / "edited.trace"
    edited.write_text(f"{header}\n{first}\n1 0 0g\n{records}")
    return ["recv", "--trace", str(edited), "--out", str(tmp_path / "x.bin")]


def metrics_file(text):
    counters = with_file("counters.json", text)
    return lambda tmp_path, trace: ["metrics", counters(tmp_path)]


COUNTERS = dict(
    file_length=1000, k=1, epsilon=0, received_symbols=1, received_packets=1,
    missed_packets=0, link_bytes=1480, elapsed=1.0, network_time=1.0,
    packet_length=1480, applicative_data=1448,
)

BAD_INPUTS = [
    *(pytest.param(recv_header(lambda t, f=f: [x for x in t if not x.startswith(f + "=")]),
                   f"no {f}=", id=f"header-without-{f}") for f in HEADER_FIELDS),
    pytest.param(recv_header(set_field("n", "x")), "n=x", id="header-n=x"),
    pytest.param(recv_header(set_field("file_length", "abc")), "file_length=abc",
                 id="header-file_length=abc"),
    pytest.param(recv_header(lambda t: [x.replace("levels=", "levels") for x in t]), "no levels=",
                 id="header-field-without-="),
    pytest.param(recv_header(set_field("codec", "turbo")), "turbo", id="header-codec=turbo"),
    pytest.param(recv_header(set_field("symbol_size", 0)), "symbol_size", id="header-symbol_size=0"),
    pytest.param(recv_header(set_field("n", 5)), "n must be >= k", id="header-n-below-k"),
    pytest.param(recv_header(set_field("session_id", 2**32 + 1)), "session_id",
                 id="header-session_id-past-32-bits"),
    pytest.param(recv_header(set_field("sha256", "abc")), "sha256=abc", id="header-sha256=abc"),
    pytest.param(recv_header(set_field("payload", 1449)), "payload=1449",
                 id="header-payload-above-datagram"),
    pytest.param(recv_header(set_field("payload", 0)), "payload=0", id="header-payload=0"),
    pytest.param(lambda tmp_path, trace: ["plan", "--blocks", "3", "--levels", "5"],
                 "5 levels > 3 blocks", id="plan-more-levels-than-blocks"),
    pytest.param(lambda tmp_path, trace: ["plan", "--blocks", "1048577", "--levels", "1"],
                 "--blocks 1048577 is above 1048576", id="plan-blocks=1048577"),
    pytest.param(lambda tmp_path, trace: ["send", "--file", str(tmp_path / "missing.bin"),
                                          "--out", str(tmp_path / "t.trace")],
                 "missing.bin", id="send-missing-file"),
    pytest.param(lambda tmp_path, trace: ["send", "--file", str(trace), "--out",
                                          str(tmp_path / "t.trace"), "--session-id", str(2**32 + 1)],
                 "session_id", id="send-session_id-past-32-bits"),
    pytest.param(lambda tmp_path, trace: ["send", "--file", str(trace), "--out",
                                          str(tmp_path / "t.trace"), "--symbol-size", "0"],
                 "symbol_size", id="send-symbol-size-0"),
    pytest.param(lambda tmp_path, trace: ["send", "--file", str(trace), "--out",
                                          str(tmp_path / "t.trace"), "--buffers", "0"],
                 "--buffers", id="send-no-buffers"),
    pytest.param(lambda tmp_path, trace: ["send", "--file", str(trace), "--out",
                                          str(tmp_path / "t.trace"), "--buffers", "-1"],
                 "--buffers", id="send-negative-buffers"),
    pytest.param(send_small("--payload", "2000", "--symbol-size", "2000"), "packet_payload 2000 > 1448",
                 id="send-payload-above-datagram"),
    pytest.param(send_small("--payload", "70000"), "packet_payload 70000 > 1448",
                 id="send-payload-past-16-bits"),
    pytest.param(send_small("--symbol-size", "10", "--codec", "null"), "zero packets",
                 id="send-zero-packet-budget"),
    pytest.param(lambda tmp_path, trace: ["recv", "--trace", str(tmp_path / "missing.trace"),
                                          "--out", str(tmp_path / "x.bin")],
                 "missing.trace", id="recv-missing-trace"),
    pytest.param(recv_bad_second_record, "edited.trace:3: non-hexadecimal",
                 id="recv-malformed-record"),
    pytest.param(lambda tmp_path, trace: ["sim", "--file", str(tmp_path / "missing.bin"),
                                          "--scenario", with_file("s.txt", "receiver = 1e6\n")(tmp_path),
                                          "--out-dir", str(tmp_path / "simout")],
                 "missing.bin", id="sim-missing-file"),
    pytest.param(sim_runs("0"), "--runs", id="sim-no-runs"),
    pytest.param(sim_runs("-3"), "--runs", id="sim-negative-runs"),
    pytest.param(sim_scenario("receiver = 1e6\ncolour = blue\n"), "unknown key 'colour'",
                 id="sim-scenario-unknown-key"),
    pytest.param(sim_scenario("receiver = 1e6\ndecay = 1.5\n"), "decay_ratio",
                 id="sim-scenario-invalid-ladder"),
    pytest.param(sim_scenario("receiver = 1e6\nduration = inf\n"), "line 2: duration",
                 id="sim-scenario-infinite-duration"),
    pytest.param(sim_scenario("receiver = 0\n"), "line 1: receiver: target_rate must be positive",
                 id="sim-scenario-zero-receiver-rate"),
    pytest.param(sim_scenario("receiver = 1e6, -1\n"),
                 "line 1: receiver: start_time cannot be negative",
                 id="sim-scenario-negative-receiver-start"),
    pytest.param(sim_scenario("receiver = 1e6\nburst_loss = 1\n"),
                 "burst loss rate must be in (0, 1)", id="sim-scenario-burst_loss=1"),
    pytest.param(sim_scenario("receiver = 1e6\nburst_loss = 0.1\nburst_length = 0.5\n"),
                 "mean burst length must be >= 1", id="sim-scenario-burst_length-below-1"),
    pytest.param(sim_scenario("receiver = 1e6\nbottleneck_rate = 0\n"),
                 "bottleneck_rate must be positive", id="sim-scenario-bottleneck_rate=0"),
    pytest.param(sim_scenario("receiver = 1e6\nqueue_capacity = 0\n"),
                 "queue_capacity must be >= 1", id="sim-scenario-queue_capacity=0"),
    pytest.param(sim_scenario("receiver = 1e6\niid_loss = 1\n"), "iid_loss must be in [0, 1)",
                 id="sim-scenario-iid_loss=1"),
    pytest.param(sim_scenario("receiver = 1e6\nduration = 0\n"), "duration must be positive",
                 id="sim-scenario-duration=0"),
    pytest.param(sim_scenario("receiver = 1e6\nbase_rate = 0\n"), "base_rate must be positive",
                 id="sim-scenario-base_rate=0"),
    # A base rate so small that the buffer time (5e-324) or the buffer
    # length at the top rate (1e-300) overflows to infinity.
    pytest.param(sim_scenario("receiver = 1e6\nbase_rate = 5e-324\n"), "no finite buffer time",
                 id="sim-scenario-base_rate=5e-324"),
    pytest.param(sim_scenario("receiver = 1e6\nbase_rate = 1e-300\n"), "no finite buffer length",
                 id="sim-scenario-base_rate=1e-300"),
    pytest.param(send_small("--base-rate", "5e-324"), "no finite buffer time",
                 id="send-base-rate=5e-324"),
    pytest.param(send_small("--base-rate", "1e-300"), "no finite buffer length",
                 id="send-base-rate=1e-300"),
    pytest.param(send_small("--levels", "1", "--base-rate", "5e-324"), "no finite buffer time",
                 id="send-levels-1-base-rate=5e-324"),
    # Finite windows of more than MAX_WINDOW_TILES tiles: a huge buffer
    # time (1e-9, and 1e-300 with the levels given, so no buffer length is
    # inferred) or a tiny sub slot.  Each ran for minutes or without bound.
    pytest.param(sim_scenario("receiver = 1e6\nbase_rate = 1e-9\n"), "tiles per buffer",
                 id="sim-scenario-base_rate=1e-9"),
    pytest.param(sim_scenario("receiver = 1e6\ntsd = 1e-9\nduration = 1e-6\n"), "tiles per buffer",
                 id="sim-scenario-tsd=1e-9-duration=1e-6"),
    # Runs of more than netsim.MAX_SUB_SLOTS sub-slot boundaries or
    # MAX_PACKETS packets, refused where the scenario is parsed: a tiny
    # sub slot over the default 60 s, or a long duration.  A billion
    # seconds at 1 bit/s was still running after 8 s.
    pytest.param(sim_scenario("receiver = 1e6\ntsd = 1e-9\n"), "duration 60 s holds 6e+10 sub slots",
                 id="sim-scenario-tsd=1e-9"),
    pytest.param(sim_scenario("receiver = 1e6\ntsd = 1e-300\n"), "sub slots of 1e-300 s",
                 id="sim-scenario-tsd=1e-300"),
    pytest.param(sim_scenario("receiver = 1e6\ntsd = 5e-324\n"), "holds inf sub slots",
                 id="sim-scenario-tsd=5e-324"),
    pytest.param(sim_scenario("receiver = 1e6\nduration = 1e9\nbottleneck_rate = 1\n"),
                 "duration 1e+09 s holds 2.5e+08 sub slots", id="sim-scenario-duration=1e9"),
    pytest.param(sim_scenario("receiver = 1e6\nduration = 1e6\n"),
                 "duration 1e+06 s holds up to 3.45e+08 packets", id="sim-scenario-duration=1e6"),
    pytest.param(sim_scenario("receiver = 1e6\ntsd = 5e-324\ngroups_per_tsi = 2\n"),
                 "rounds to 0 s", id="sim-scenario-sub-slot-underflow"),
    pytest.param(capped(send_small("--levels", "1", "--base-rate", "1e-300")), "tiles per buffer",
                 id="send-levels-1-base-rate=1e-300"),
    # A code of more than fec.MAX_N symbols: the sparse layout built one
    # list per repair until it ran out of memory.
    pytest.param(capped(send_small("--fec-n", str(2**32))), "n=4294967296 is above",
                 id="send-fec-n=2**32"),
    pytest.param(capped(recv_header(set_field("n", 2**32))), "n=4294967296 is above",
                 id="header-n=2**32"),
    # A code of more than fec.MAX_CODE_BYTES bytes: encoding ran out of
    # memory in fec.encode, or in cutting a 3 GB null symbol.
    pytest.param(capped(send_small("--symbol-size", "65535", "--fec-n", "100000")),
                 "n * symbol_size = 6553500000 bytes is above", id="send-code-of-6.5-GB"),
    pytest.param(capped(send_small("--codec", "null", "--symbol-size", "3000000000",
                                   "--tsd", "100000")),
                 "n * symbol_size = 3000000000 bytes is above", id="send-null-symbol-of-3-GB"),
    pytest.param(capped(recv_header(set_field("symbol_size", 3 * 10**9))),
                 "bytes is above 268435456", id="header-symbol_size=3e9"),
    pytest.param(metrics_file('{"k": 1}'), "counters.json", id="metrics-missing-fields"),
    pytest.param(metrics_file("[1, 2]"), "counters.json", id="metrics-not-an-object"),
    pytest.param(metrics_file("{not json"), "counters.json", id="metrics-not-json"),
    pytest.param(metrics_file(json.dumps({**COUNTERS, "k": "one"})), "counters.json",
                 id="metrics-string-count"),
    pytest.param(metrics_file(json.dumps({**COUNTERS, "extra": 1})), "counters.json",
                 id="metrics-extra-field"),
    pytest.param(metrics_file(json.dumps({**COUNTERS, "elapsed": float("nan")})), "counters.json",
                 id="metrics-nan-elapsed"),
    pytest.param(metrics_file(json.dumps({**COUNTERS, "elapsed": float("inf")})), "counters.json",
                 id="metrics-infinite-elapsed"),
    pytest.param(metrics_file(json.dumps({**COUNTERS, "k": -3})), "counters.json",
                 id="metrics-negative-k"),
    pytest.param(metrics_file(json.dumps({**COUNTERS, "k": 2.5, "epsilon": 0})),
                 "non-negative integers", id="metrics-fractional-k"),
    pytest.param(metrics_file(json.dumps({**COUNTERS, "epsilon": 0.5})), "non-negative integers",
                 id="metrics-fractional-epsilon"),
    pytest.param(send_small("--levels", "0"), "at least one level", id="send-levels-0"),
    pytest.param(send_small("--levels", "-3"), "at least one level", id="send-negative-levels"),
    pytest.param(send_small("--levels", "100000"), "100000 levels > 8 blocks",
                 id="send-more-levels-than-blocks"),
    pytest.param(lambda tmp_path, trace: [*sim_runs("1")(tmp_path, trace), "--levels", "0"],
                 "at least one level", id="sim-levels-0"),
    pytest.param(lambda tmp_path, trace: [*sim_runs("1")(tmp_path, trace), "--levels", "100000"],
                 "100000 levels >", id="sim-more-levels-than-blocks"),
]


@pytest.mark.parametrize("argv, message", BAD_INPUTS)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, sent_trace, argv, message):
    args = argv(tmp_path, sent_trace)
    if getattr(argv, "capped", False):
        rc, err = run_capped(args)
    else:
        rc = main(args)
        err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith(args[0] + ":")
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.bin").exists()
    assert not (tmp_path / "t.trace").exists()
    assert not (tmp_path / "simout").exists()


def test_sim_rejects_scenario_payload_above_datagram(tmp_path, capsys, sent_trace):
    argv = sim_scenario("receiver = 1e6\npayload = 2000\n")(tmp_path, sent_trace)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "sim: packet_payload 2000 > 1448, the most one datagram carries\n")
    assert not (tmp_path / "simout").exists()


def test_recv_truncated_trace_reports_partial(tmp_path, capsys):
    data = random.Random(5).randbytes(30_000)
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    trace = tmp_path / "emitted.trace"
    main(["send", "--file", str(src), "--out", str(trace), *CHANNEL_FLAGS])
    cut = tmp_path / "cut.trace"
    cut.write_text("\n".join(trace.read_text().splitlines()[:3]) + "\n")
    rc = main(["recv", "--trace", str(cut), "--out", str(tmp_path / "x.bin")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "head" in captured.err


@pytest.mark.parametrize("buffering", [1, -1], ids=["line-buffered", "block-buffered"])
def test_recv_into_a_closed_pipe_exits_141_quietly(tmp_path, capsys, monkeypatch, sent_trace,
                                                   buffering):
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = os.fdopen(write_end, "w", buffering=buffering)
    monkeypatch.setattr(sys, "stdout", stdout)
    rc = main(["recv", "--trace", str(sent_trace), "--out", str(tmp_path / "x.bin")])
    assert rc == 141
    assert capsys.readouterr().err == ""
    stdout.close()  # the last flush goes to os.devnull instead of raising


def test_sim_writes_artifacts_and_report(tmp_path, capsys):
    data = random.Random(6).randbytes(30_000)
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "base_rate = 62500\n"
        "max_rate = 4e6\n"
        "decay = 0.5\n"
        "tsd = 1\n"
        "group_count = 7\n"
        "bottleneck_rate = 8e6\n"
        "duration = 60\n"
        "seed = 2\n"
        "receiver = 2885390\n"
    )
    out_dir = tmp_path / "simout"
    rc = main([
        "sim", "--file", str(src), "--scenario", str(scenario),
        "--runs", "2", "--out-dir", str(out_dir), "--write-traces",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    for run in (0, 1):
        counters = json.loads((out_dir / f"run{run}_rx0_counters.json").read_text())
        assert counters["file_length"] == 30_000
        assert (out_dir / f"run{run}_rx0.bin").read_bytes() == data
        # One `time_us group buffer_id offset len deliver` line per
        # received packet, in time order.
        lines = (out_dir / f"run{run}_rx0.trace").read_text().splitlines()
        assert all(re.fullmatch(r"(\d+ ){5}deliver", line) for line in lines)
        times = [int(line.split()[0]) for line in lines]
        assert times == sorted(times)
        assert len(lines) == counters["received_packets"]
    assert "completed" in out and "MISMATCH" not in out
    assert "# receiver 0: mean and 95% interval over 2 runs" in out


def test_sim_exits_1_on_a_mismatched_file(tmp_path, capsys, monkeypatch):
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(12).randbytes(5_000))
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("receiver = 2885390\n")
    real = transfer.simulate_transfer

    def corrupting(*args, **kwargs):
        outcomes, result = real(*args, **kwargs)
        return [dataclasses.replace(o, file=b"x" + o.file[1:]) for o in outcomes], result

    monkeypatch.setattr(transfer, "simulate_transfer", corrupting)
    rc = main(["sim", "--file", str(src), "--scenario", str(scenario),
               "--out-dir", str(tmp_path / "simout")])
    assert rc == 1
    assert "(MISMATCH)" in capsys.readouterr().out


def test_sim_reports_timed_out_receivers(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(13).randbytes(200_000))
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("base_rate = 62500\nmax_rate = 4e6\ndecay = 0.5\ntsd = 1\n"
                        "group_count = 7\nduration = 1\nreceiver = 100000\n")
    out_dir = tmp_path / "simout"
    rc = main(["sim", "--file", str(src), "--scenario", str(scenario), "--runs", "2",
               "--out-dir", str(out_dir)])
    blocks = capsys.readouterr().out.split("\n\n")
    assert rc == 1
    assert len(blocks) == 3 and blocks[2] == ""  # one block per run, no report
    for run, block in enumerate(blocks[:2]):
        title, *lines = block.splitlines()
        assert title == f"# run{run}_rx0: timed out after 1.0s; partial metrics:"
        assert [line.split()[0] for line in lines] == ["time", "tput", "loss", "head"]
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "run0_rx0_counters.json", "run1_rx0_counters.json"]


def test_metrics_single_and_report(tmp_path, capsys):
    counters = dict(
        file_length=1_000_000, k=1000, epsilon=10, received_symbols=1010,
        received_packets=1010, missed_packets=0, link_bytes=1_494_800,
        elapsed=4.0, network_time=4.0, packet_length=1480, applicative_data=1448,
    )
    a = tmp_path / "a.json"
    a.write_text(json.dumps(counters))
    assert main(["metrics", str(a)]) == 0
    single = capsys.readouterr().out.strip().splitlines()
    assert len(single) == 9 and single[0].startswith("time 4")

    b = tmp_path / "b.json"
    counters["elapsed"] = counters["network_time"] = 5.0
    b.write_text(json.dumps(counters))
    assert main(["metrics", str(a), str(b)]) == 0
    rep = capsys.readouterr().out.strip().splitlines()
    assert len(rep) == 9
    assert all(len(ln.split()) == 3 for ln in rep)  # name mean half-width


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
