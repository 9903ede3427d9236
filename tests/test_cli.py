"""Command line entry points, exercised in-process through main(argv)."""

import dataclasses
import json
import random

import pytest

from dyncast import transfer, wire
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
                 "session_id", "sha256")


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
    pytest.param(lambda tmp_path, trace: ["plan", "--blocks", "3", "--levels", "5"],
                 "5 levels > 3 blocks", id="plan-more-levels-than-blocks"),
    pytest.param(lambda tmp_path, trace: ["plan", "--blocks", "3", "--levels", "1", "--starts", "0"],
                 "--starts", id="plan-no-starts"),
    pytest.param(lambda tmp_path, trace: ["send", "--file", str(tmp_path / "missing.bin"),
                                          "--out", str(tmp_path / "t.trace")],
                 "missing.bin", id="send-missing-file"),
    pytest.param(lambda tmp_path, trace: ["send", "--file", str(trace), "--out",
                                          str(tmp_path / "t.trace"), "--session-id", str(2**32 + 1)],
                 "session_id", id="send-session_id-past-32-bits"),
    pytest.param(lambda tmp_path, trace: ["send", "--file", str(trace), "--out",
                                          str(tmp_path / "t.trace"), "--symbol-size", "0"],
                 "symbol_size", id="send-symbol-size-0"),
    pytest.param(lambda tmp_path, trace: ["recv", "--trace", str(tmp_path / "missing.trace"),
                                          "--out", str(tmp_path / "x.bin")],
                 "missing.trace", id="recv-missing-trace"),
    pytest.param(lambda tmp_path, trace: ["sim", "--file", str(tmp_path / "missing.bin"),
                                          "--scenario", with_file("s.txt", "receiver = 1e6\n")(tmp_path),
                                          "--out-dir", str(tmp_path / "simout")],
                 "missing.bin", id="sim-missing-file"),
    pytest.param(sim_scenario("receiver = 1e6\ncolour = blue\n"), "unknown key 'colour'",
                 id="sim-scenario-unknown-key"),
    pytest.param(sim_scenario("receiver = 1e6\ndecay = 1.5\n"), "decay_ratio",
                 id="sim-scenario-invalid-ladder"),
    pytest.param(metrics_file('{"k": 1}'), "counters.json", id="metrics-missing-fields"),
    pytest.param(metrics_file("[1, 2]"), "counters.json", id="metrics-not-an-object"),
    pytest.param(metrics_file("{not json"), "counters.json", id="metrics-not-json"),
    pytest.param(metrics_file(json.dumps({**COUNTERS, "k": "one"})), "counters.json",
                 id="metrics-string-count"),
    pytest.param(metrics_file(json.dumps({**COUNTERS, "extra": 1})), "counters.json",
                 id="metrics-extra-field"),
]


@pytest.mark.parametrize("argv, message", BAD_INPUTS)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, sent_trace, argv, message):
    args = argv(tmp_path, sent_trace)
    rc = main(args)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith(args[0] + ":")
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.bin").exists()
    assert not (tmp_path / "t.trace").exists()
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
