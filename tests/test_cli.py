"""Command line entry points, exercised in-process through main(argv)."""

import json
import random

import pytest

from dyncast import wire
from dyncast.cli import main

CHANNEL_FLAGS = [
    "--base-rate", "62500", "--max-rate", "4e6", "--decay", "0.5",
    "--tsd", "1", "--group-count", "7",
]


def test_plan_prints_offsets_and_profile(capsys):
    assert main(["plan", "--blocks", "10", "--levels", "3", "--starts", "10"]) == 0
    out = capsys.readouterr().out
    assert "level offsets: 0 5 2" in out
    lines = out.splitlines()
    assert lines[1].startswith("levels 1: 10.0 buffers")
    assert len(lines) == 4


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


def test_recv_levels_unlike_header_exits_2(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(8).randbytes(20_000))
    trace = tmp_path / "emitted.trace"
    assert main(["send", "--file", str(src), "--out", str(trace),
                 "--levels", "3", *CHANNEL_FLAGS]) == 0
    capsys.readouterr()
    rc = main(["recv", "--trace", str(trace), "--out", str(tmp_path / "x.bin"), "--levels", "4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "levels=4" in err and "levels=3" in err
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
    assert "sha256=" in trace.read_text().splitlines()[0]
    capsys.readouterr()
    out = tmp_path / "x.bin"
    rc = main(["recv", "--trace", str(trace), "--out", str(out), "--fec-seed", str(seed)])
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
    assert "--fec-k" in err


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
        assert (out_dir / f"run{run}_rx0.trace").exists()
    assert "completed" in out and "MISMATCH" not in out
    assert "# receiver 0: mean and 95% interval over 2 runs" in out


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
