"""Command line entry points, exercised in-process through main(argv)."""

import contextlib
import dataclasses
import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyncast import netsim, transfer, wire
from dyncast.channel import ChannelConfig
from dyncast.cli import _CHANNEL_KEYS, _channel_from_args, build_parser, main

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


@pytest.mark.parametrize("flag", ["--max-rate=inf", "--decay=nan", "--payload=1.5",
                                  pytest.param("--group-count=" + str(10**400),
                                               id="--group-count=10**400")])
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


def test_a_second_send_of_one_geometry_replays_under_its_own_session_id(tmp_path, capsys):
    # The second send replays the first one's recorded headers, with the
    # session id cut out, under an id whose four bytes all differ.
    transfer._layout_record.cache_clear()
    for number, session_id in enumerate(["7", "4294967295"]):
        data = random.Random(number).randbytes(15_000)
        src = tmp_path / f"in{number}.bin"
        src.write_bytes(data)
        trace = tmp_path / f"emitted{number}.trace"
        with mock.patch.object(wire, "pack_packet", wraps=wire.pack_packet) as packed:
            assert main(["send", "--file", str(src), "--out", str(trace),
                         "--session-id", session_id, *CHANNEL_FLAGS]) == 0
        assert (packed.call_count == 0) == (number == 1)
        _, *records = trace.read_text().splitlines()
        assert records
        for line in records:
            parsed, _ = wire.parse_packet(bytes.fromhex(line.split()[2]))
            assert parsed.session_id == int(session_id)
        out = tmp_path / f"out{number}.bin"
        assert main(["recv", "--trace", str(trace), "--out", str(out)]) == 0
        assert out.read_bytes() == data
    assert capsys.readouterr().err == ""


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
    """Mark a bad input that would exhaust memory or disk if its refusal
    regressed.

    The test runs it as ``python -m dyncast`` in a child process limited to
    a 1 GiB address space, 64 MiB per written file and 60 s, so a
    regression fails the test instead of taking the host's memory or disk.
    """
    argv.capped = True
    return argv


def run_capped(args):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 26, 1 << 26))

    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "dyncast", *args], cwd=src, capture_output=True,
                          text=True, timeout=60, preexec_fn=limit)
    return done.returncode, done.stderr


def recv_second_record(record):
    def argv(tmp_path, trace):
        header, first, records = trace.read_text().split("\n", 2)
        edited = tmp_path / "edited.trace"
        edited.write_text(f"{header}\n{first}\n{record}\n{records}")
        return ["recv", "--trace", str(edited), "--out", str(tmp_path / "x.bin")]
    return argv


def metrics_file(text, copies=1):
    counters = with_file("counters.json", text)
    return lambda tmp_path, trace: ["metrics", *[counters(tmp_path)] * copies]


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
    # More buffers than one period of the largest code: 10**12 wrote
    # hundreds of megabytes of trace for a 3 kB file.
    pytest.param(send_small("--buffers", str(10**12)), "--buffers must be in 1..1048576",
                 id="send-buffers=10**12"),
    # More symbol bytes than fec.MAX_CODE_BYTES, by an explicit count or by
    # the default period of a code with many levels: each buffer of a 3 kB
    # file wrote 18 kB of trace, so 2**20 buffers would have written 18 GB.
    pytest.param(capped(send_small("--buffers", str(2**20))),
                 "--buffers * levels * symbol_size = 1048576 * 8 * 1448 = 12146704384 bytes",
                 id="send-buffers-past-the-byte-cap"),
    pytest.param(capped(send_small("--symbol-size", "16", "--fec-n", "5000",
                                   "--levels", "5000")),
                 "--buffers * levels * symbol_size = 5000 * 5000 * 16 = 400000000 bytes",
                 id="send-default-period-past-the-byte-cap"),
    pytest.param(send_small("--payload", "2000", "--symbol-size", "2000"), "packet_payload 2000 > 1448",
                 id="send-payload-above-datagram"),
    pytest.param(send_small("--payload", "70000"), "packet_payload 70000 > 1448",
                 id="send-payload-past-16-bits"),
    pytest.param(send_small("--symbol-size", "10", "--codec", "null"), "zero packets",
                 id="send-zero-packet-budget"),
    pytest.param(lambda tmp_path, trace: ["recv", "--trace", str(tmp_path / "missing.trace"),
                                          "--out", str(tmp_path / "x.bin")],
                 "missing.trace", id="recv-missing-trace"),
    pytest.param(recv_second_record("1 0 0g"), "edited.trace:3: non-hexadecimal",
                 id="recv-malformed-record"),
    # A time too large for a float ended in an OverflowError traceback.
    pytest.param(recv_second_record(f"{10**400} 0 00"), "edited.trace:3: '1000",
                 id="recv-record-time=10**400"),
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
    # A rate the two-state chain cannot reach ran at a lower loss rate:
    # 0.99999999 with bursts of one packet lost every other packet.
    pytest.param(sim_scenario("receiver = 1e6\nburst_loss = 0.99999999\nburst_length = 1\n"),
                 "burst loss rate 0.99999999 is above 0.5, the most a mean burst length of 1.0",
                 id="sim-scenario-burst-unreachable"),
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
    # Integers too large for a float ended in an OverflowError traceback.
    pytest.param(sim_scenario(f"receiver = 1e6\ngroup_count = {10**400}\n"),
                 "0' is not a finite number",
                 id="sim-scenario-group_count=10**400"),
    pytest.param(recv_header(set_field("file_length", 10**400)), "trace header: n must be >= k",
                 id="header-file_length=10**400"),
    pytest.param(metrics_file(json.dumps({**COUNTERS, "file_length": 10**400})),
                 "every integer at most 2**53", id="metrics-file_length=10**400"),
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
    pytest.param(metrics_file("[" * 100_000 + "]" * 100_000), "maximum recursion depth",
                 id="metrics-nested-too-deep"),
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
    pytest.param(metrics_file(json.dumps({**COUNTERS, "elapsed": 5e-324,
                                          "network_time": 5e-324})),
                 "gput, tput undefined: not finite", id="metrics-infinite-gput"),
    pytest.param(metrics_file(json.dumps({**COUNTERS, "elapsed": 1.7e308,
                                          "network_time": 1.7e308}), copies=2),
                 "time undefined over these runs", id="metrics-report-past-the-floats"),
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


def test_sim_runs_write_what_separate_processes_write(tmp_path):
    # Runs after the first replay the layouts the first one recorded; each
    # single run is a fresh process that sequences every buffer.
    src = Path(__file__).resolve().parents[1] / "src"
    data = tmp_path / "in.bin"
    data.write_bytes(random.Random(17).randbytes(30_000))

    def sim(seed, runs, out):
        scenario = tmp_path / f"scenario{seed}.txt"
        scenario.write_text(f"seed = {seed}\niid_loss = 0.05\nreceiver = 1e6\nreceiver = 3e6, 2\n")
        subprocess.run([sys.executable, "-m", "dyncast", "sim", "--file", str(data),
                        "--scenario", str(scenario), "--runs", str(runs), "--codec", "null",
                        "--out-dir", str(tmp_path / out)],
                       cwd=src, capture_output=True, text=True, timeout=120, check=True)

    sim(3, 3, "together")
    for run in range(3):
        sim(3 + run, 1, f"alone{run}")
        for rx in range(2):
            together = (tmp_path / "together" / f"run{run}_rx{rx}_counters.json").read_text()
            alone = (tmp_path / f"alone{run}" / f"run0_rx{rx}_counters.json").read_text()
            assert together == alone


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


# ---------------------------------------------------------------------------
# Property-based inputs: whatever value a format holds, the command ends
# with a documented exit code and no traceback.


def run_main(argv):
    """``main(argv)``'s exit code and stderr; an argparse refusal is its exit 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "tiny.bin").write_bytes(random.Random(3).randbytes(100))
    return d


# A number in range, on a boundary, huge, not finite, or not a number at all.
NUMBER_TEXTS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "7", "0.5", "0.999", "1448", "1449", "65535", "1e-300",
                     "5e-324", "1e308", str(2**53 + 1), str(2**64), str(10**400),
                     "inf", "-inf", "nan", ""]),
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr),
    st.text(max_size=4),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(flags=st.dictionaries(st.sampled_from(sorted(_CHANNEL_KEYS)), NUMBER_TEXTS, max_size=4))
@example(flags={"groups_per_tsi": str(10**400)})
@example(flags={"group_count": str(10**400)})
def test_send_channel_flags_end_in_a_documented_exit(fuzz_dir, flags):
    argv = ["send", "--file", str(fuzz_dir / "tiny.bin"), "--out", str(fuzz_dir / "t.trace"),
            "--buffers", "1", *(f"--{key.replace('_', '-')}={value}" for key, value in flags.items())]
    rc, err = run_main(argv)
    assert rc in (0, 1, 2), err
    assert "Traceback" not in err


COUNTER_VALUES = st.one_of(
    st.sampled_from([0, 1, 2**53, 2**53 + 1, 10**400, 0.0, 5e-324, 1e-300, 1.7e308,
                     math.nan, math.inf, True, None, "1", [1]]),
    st.integers(-2, 2**60),
    st.floats(min_value=0.0),
)

COUNTER_FILES = st.builds(
    lambda edits, drop: {k: v for k, v in {**COUNTERS, **edits}.items() if k not in drop},
    st.dictionaries(st.sampled_from([*COUNTERS, "extra"]), COUNTER_VALUES, max_size=4),
    st.sets(st.sampled_from(list(COUNTERS)), max_size=1),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(files=st.lists(COUNTER_FILES, min_size=1, max_size=3))
@example(files=[{**COUNTERS, "file_length": 10**400}])
@example(files=[{**COUNTERS, "link_bytes": 10**400}] * 2)
@example(files=[{**COUNTERS, "elapsed": 5e-324, "network_time": 5e-324}] * 2)
def test_metrics_counters_end_in_a_documented_exit(fuzz_dir, files):
    paths = []
    for i, counters in enumerate(files):
        paths.append(fuzz_dir / f"counters{i}.json")
        paths[-1].write_text(json.dumps(counters))
    rc, err = run_main(["metrics", *map(str, paths)])
    assert rc in (0, 1, 2), err
    assert "Traceback" not in err


# Up to four scenario keys besides a short duration, and one or two
# receivers; the duration caps have their own BAD_INPUTS cases.  Values in
# the range of some key come as often as any other number text.
SCENARIO_KEYS = sorted(set(netsim.SCENARIO_KEYS) - {"duration"})
SCENARIO_VALUES = st.one_of(
    st.sampled_from(["0.05", "0.3", "0.5", "0.7", "1", "2", "3", "8", "25", "1448", "62500",
                     "4e6", "8e6"]),
    NUMBER_TEXTS,
)
RECEIVER_LINES = st.tuples(
    st.one_of(st.sampled_from(["62500", "1e6", "2885390"]), NUMBER_TEXTS),
    st.one_of(st.none(), st.sampled_from(["0", "0.5", "3"]), NUMBER_TEXTS),
).map(lambda rx: rx[0] if rx[1] is None else f"{rx[0]}, {rx[1]}")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(keys=st.dictionaries(st.sampled_from(SCENARIO_KEYS), SCENARIO_VALUES, max_size=4),
       duration=st.sampled_from(["0.01", "0.5", "2", "5"]),
       receivers=st.lists(RECEIVER_LINES, min_size=1, max_size=2))
# Rates the burst chain cannot reach: they ran at a lower loss rate.
@example(keys={"burst_loss": "0.9", "burst_length": "2"}, duration="5", receivers=["1e6"])
@example(keys={"burst_loss": "0.99999999", "burst_length": "1"}, duration="5", receivers=["1e6"])
def test_scenario_files_end_in_a_documented_exit(fuzz_dir, keys, duration, receivers):
    lines = [f"{key} = {value}" for key, value in keys.items()]
    lines += [f"duration = {duration}", *(f"receiver = {rx}" for rx in receivers)]
    scenario = fuzz_dir / "scenario.txt"
    scenario.write_text("\n".join(lines) + "\n")
    rc, err = run_main(["sim", "--file", str(fuzz_dir / "tiny.bin"), "--scenario", str(scenario),
                        "--out-dir", str(fuzz_dir / "simout")])
    assert rc in (0, 1, 2), err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def codec_traces(fuzz_dir):
    """One sent trace of a 3 kB file per codec, with the file."""
    data = random.Random(28).randbytes(3000)
    (fuzz_dir / "small.bin").write_bytes(data)
    traces = {}
    for codec in ("null", "mds", "sparse_parity"):
        traces[codec] = fuzz_dir / f"{codec}.trace"
        assert run_main(["send", "--file", str(fuzz_dir / "small.bin"), "--out",
                         str(traces[codec]), "--codec", codec])[0] == 0
    return data, traces


# Trace edits.  A header edit sets a field to any text, drops it, or adds
# a token; a record edit sets one field to any text, cuts the hex, drops or
# adds a field, or replaces the whole line.
FIELD_TEXTS = st.one_of(NUMBER_TEXTS, st.sampled_from(["null", "mds", "sparse_parity", "0" * 64]),
                        st.text("0123456789abcdefABCDEF", max_size=12))
HEADER_EDITS = st.lists(st.one_of(
    st.tuples(st.just("set"), st.sampled_from(HEADER_FIELDS), FIELD_TEXTS),
    st.tuples(st.just("drop"), st.sampled_from(HEADER_FIELDS), st.just("")),
    st.tuples(st.just("add"), st.text(max_size=6), FIELD_TEXTS),
), max_size=3)
RECORD_EDITS = st.lists(st.tuples(
    st.integers(0, 2**16),
    st.sampled_from(["time", "group", "hex", "cut", "drop", "add", "line"]),
    st.integers(0, 2**16),
    FIELD_TEXTS,
), max_size=3)


def edit_trace(header, records, header_edits, record_edits):
    tokens = header.removeprefix("#").split()
    for kind, name, text in header_edits:
        if kind == "add":
            tokens.append(f"{name}={text}")
            continue
        tokens = [t for t in tokens if not t.startswith(name + "=")]
        if kind == "set":
            tokens.append(f"{name}={text}")
    records = list(records)
    for index, kind, where, text in record_edits:
        index %= len(records)
        fields = records[index].split()
        position = {"time": 0, "group": 1, "hex": 2, "cut": 2}.get(kind, 0)
        if kind != "line" and position >= len(fields):
            continue  # an earlier edit took the field away
        if kind in ("time", "group", "hex"):
            fields[position] = text
        elif kind == "cut":
            fields[2] = fields[2][: where % (len(fields[2]) + 1)]
        elif kind == "drop":
            del fields[where % len(fields)]
        elif kind == "add":
            fields.insert(where % (len(fields) + 1), text)
        else:
            fields = [text]
        records[index] = " ".join(fields)
    return "# " + " ".join(tokens), records


@settings(derandomize=True, max_examples=180, deadline=None)
@given(codec=st.sampled_from(["null", "mds", "sparse_parity"]), header_edits=HEADER_EDITS,
       record_edits=RECORD_EDITS, last_newline=st.booleans())
@example(codec="null", header_edits=[], record_edits=[(1, "time", 0, str(10**400))],
         last_newline=True)
def test_trace_headers_and_records_end_in_a_documented_exit(codec_traces, fuzz_dir, codec,
                                                            header_edits, record_edits,
                                                            last_newline):
    data, traces = codec_traces
    header, *records = traces[codec].read_text().splitlines()
    header, records = edit_trace(header, records, header_edits, record_edits)
    edited, out = fuzz_dir / "edited.trace", fuzz_dir / "edited.bin"
    edited.write_text("\n".join([header, *records]) + "\n" * last_newline)
    out.unlink(missing_ok=True)
    rc, err = run_main(["recv", "--trace", str(edited), "--out", str(out)])
    assert "Traceback" not in err
    assert rc in (0, 1, 2), err
    if rc == 0:
        assert out.read_bytes() == data
    else:
        assert not out.exists(), err


@settings(derandomize=True, max_examples=150, deadline=None)
@given(codec=st.sampled_from(["null", "mds", "sparse_parity"]),
       record=st.integers(0, 2**16), bit=st.integers(0, 2**16))
def test_a_flipped_bit_in_a_trace_record_never_decodes_to_other_bytes(codec_traces, fuzz_dir,
                                                                       codec, record, bit):
    # The header's SHA-256 stands between a corrupted datagram and the
    # output: recv returns the file exactly, or exits 1 and writes nothing.
    data, traces = codec_traces
    header, *records = traces[codec].read_text().splitlines()
    record %= len(records)
    time_us, group, datagram = records[record].split()
    flipped = bytearray.fromhex(datagram)
    bit %= 8 * len(flipped)
    flipped[bit // 8] ^= 1 << bit % 8
    records[record] = f"{time_us} {group} {flipped.hex()}"
    edited, out = fuzz_dir / "flipped.trace", fuzz_dir / "flipped.bin"
    edited.write_text("\n".join([header, *records]) + "\n")
    out.unlink(missing_ok=True)
    rc, err = run_main(["recv", "--trace", str(edited), "--out", str(out)])
    assert "Traceback" not in err
    if rc == 0:
        assert out.read_bytes() == data
    else:
        assert rc == 1 and not out.exists(), err
