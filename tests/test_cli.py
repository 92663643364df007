import argparse
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import hroa
from hroa import cli, sync, wire
from hroa.cli import _parse_bandwidth, main
from hroa.prefix import V4, parse_prefix
from hroa.workload import load_csv

FIG_CSV = """asn,prefix,max_length
AS7497,202.127.16.0/20,
AS7497,202.127.16.0/21,
AS7497,202.127.16.0/22,
AS7497,202.127.20.0/22,
"""

# an AS0 row (RFC 7607) whose block is taller than the expansion cap
TALL_CSV = "0,10.0.0.0/8,32\n"
TALL_ERR = "hroa: block height 24 exceeds expansion cap 20\n"

# a child `python -m hroa.cli` imports hroa from the tree under test, installed or not
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(hroa.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
    ),
)

# every command and the options it accepts; a new flag has to be added here
OPTION_SURFACE = {
    "encode": ["--scheme", "--out", "--recompress", "--levels", "--level-multiple", "--delta-l"],
    "decode": ["--out", "--levels", "--level-multiple"],
    "stats": ["--include-as0", "--out"],
    "sweep": ["--thresholds", "--multiples", "--optimize", "--aggregate", "--out"],
    "optimize-levels": ["--family", "--delta-l", "--out"],
    "serve": [
        "--scheme", "--host", "--port", "--bandwidth", "--session-id", "--serial",
        "--recompress", "--levels", "--level-multiple", "--delta-l",
    ],
    "fetch": ["--timeout", "--out", "--levels", "--level-multiple"],
}


@pytest.fixture
def fig_csv(tmp_path):
    path = tmp_path / "fig.csv"
    path.write_text(FIG_CSV)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_encode_scheme_pdu_counts(fig_csv, capsys):
    # troa ships the filed rows as-is; with empty max_length they coincide
    # with the singleton encoding
    want = {"sroa": 4, "troa": 4, "mroa": 2, "hroa": 1, "ahroa": 1}
    for scheme, count in want.items():
        code, out = _run(capsys, ["encode", fig_csv, "--scheme", scheme])
        assert code == 0
        doc = json.loads(out)
        assert doc["pdu_count"] == count, scheme
        assert doc["scheme"] == scheme
        assert doc["per_as"]["7497"]["pdu_count"] == count
        assert doc["per_family"]["v6"]["pdu_count"] == 0
        assert doc["total_bytes"] == doc["per_family"]["v4"]["bytes"]


def test_encode_decode_round_trip(fig_csv, tmp_path, capsys):
    pdufile = str(tmp_path / "fig.pdus")
    code, _ = _run(capsys, ["encode", fig_csv, "--out", pdufile])
    assert code == 0
    code, out = _run(capsys, ["decode", pdufile])
    assert code == 0
    got = load_csv(io.StringIO(out))
    want = load_csv(io.StringIO(FIG_CSV))
    assert got.entries == want.entries


def test_decode_rejects_trailing_garbage(fig_csv, tmp_path, capsys):
    pdufile = tmp_path / "fig.pdus"
    code, _ = _run(capsys, ["encode", fig_csv, "--out", str(pdufile)])
    assert code == 0
    pdufile.write_bytes(pdufile.read_bytes() + b"\x01\x0c\x00")
    code, _ = _run(capsys, ["decode", str(pdufile)])
    assert code == 2


@pytest.mark.parametrize(
    "pdu",
    [
        wire.SubTreePdu(V4, 1878001, 55, 7497),  # bitmap bit 0: a withdrawal
        wire.SubTreePdu(V4, (1 << 3) | 5, 2, 7497),  # id at level 3, not in the profile
        wire.PrefixPdu(0, parse_prefix("10.0.0.0/8"), 8, 64500),  # flags 0: a withdrawal
        # terminal level 30 has height 3, so node bits stop at bit 7
        wire.SubTreePdu(V4, (1 << 30) | 5, 1 << 8, 7497),
    ],
    ids=["subtree-withdrawal", "level-not-in-profile", "prefix-withdrawal", "bitmap-too-wide"],
)
def test_decode_rejects_invalid_payload(pdu, tmp_path, capsys):
    pdufile = tmp_path / "bad.pdus"
    pdufile.write_bytes(wire.serialize(pdu))
    code, out = _run(capsys, ["decode", str(pdufile)])
    assert code == 2
    assert out == ""


def test_encode_dual_stack_as_with_recompress(tmp_path, capsys):
    path = tmp_path / "dual.csv"
    path.write_text("AS64500,192.0.2.0/24,\nAS64500,2001:db8::/32,\n")
    for scheme in ("mroa", "sroa", "hroa"):
        code, out = _run(capsys, ["encode", str(path), "--scheme", scheme, "--recompress"])
        assert code == 0, scheme
        doc = json.loads(out)
        assert doc["per_family"]["v4"]["pdu_count"] == 1
        assert doc["per_family"]["v6"]["pdu_count"] == 1


def test_encode_delta_l_and_levels_flags(fig_csv, capsys):
    code, out = _run(capsys, ["encode", fig_csv, "--delta-l", "0"])
    assert code == 0
    assert json.loads(out)["pdu_count"] == 4  # filed blocks ride as-is
    code, out = _run(capsys, ["encode", fig_csv, "--delta-l", "0", "--recompress"])
    assert code == 0
    assert json.loads(out)["pdu_count"] == 2  # minimal blocks, pure maxLength
    code, out = _run(capsys, ["encode", fig_csv, "--delta-l", "inf", "--level-multiple", "4"])
    assert code == 0
    assert json.loads(out)["pdu_count"] == 1
    # inline levels serve both families, so a usable list reaches the v6 width
    inline = ",".join(str(x) for x in [23, *range(0, 128, 5)])
    code, out = _run(capsys, ["encode", fig_csv, "--levels", inline])
    assert code == 0
    assert json.loads(out)["pdu_count"] == 1
    code, _ = _run(capsys, ["encode", fig_csv, "--levels", "20,23"])
    assert code == 1
    code, _ = _run(capsys, ["encode", fig_csv, "--levels", "20", "--level-multiple", "4"])
    assert code == 1
    code, _ = _run(capsys, ["encode", fig_csv, "--delta-l", "2.5"])
    assert code == 1


def test_stats_output(fig_csv, tmp_path, capsys):
    code, out = _run(capsys, ["stats", fig_csv])
    assert code == 0
    doc = json.loads(out)
    assert doc["vrp_count"] == 4
    assert doc["delta_l_histogram"]["v4"] == {"0": 4}
    assert doc["scatter_degree"]["per_as"]["7497"] == {
        "prefix_count": 4,
        "scatter_degree": 0.5,
    }
    assert doc["groups"]["4"]["as_count"] == 1
    # AS0 rows drop out of scatter stats unless asked for
    as0 = tmp_path / "as0.csv"
    as0.write_text(FIG_CSV + "0,10.0.0.0/8,\n")
    code, out = _run(capsys, ["stats", str(as0)])
    doc = json.loads(out)
    assert doc["as_count"] == 1 and doc["vrp_count"] == 4
    code, out = _run(capsys, ["stats", str(as0), "--include-as0"])
    doc = json.loads(out)
    assert doc["as_count"] == 2 and doc["vrp_count"] == 5
    # a dual-stack AS: each family is compressed on its own
    dual = tmp_path / "dual.csv"
    dual.write_text(
        "AS64500,192.0.2.0/24,\nAS64500,192.0.2.0/25,\n"
        "AS64500,192.0.2.128/25,\nAS64500,2001:db8::/32,\n"
    )
    code, out = _run(capsys, ["stats", str(dual)])
    assert code == 0
    doc = json.loads(out)
    assert doc["scatter_degree"]["per_as"]["64500"] == {
        "prefix_count": 4,
        "scatter_degree": 0.5,
    }


def test_sweep_output(fig_csv, capsys):
    code, out = _run(
        capsys, ["sweep", fig_csv, "--thresholds", "0,3,inf", "--multiples", "4,5"]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cells"]) == 6
    by_key = {(c["threshold"], c["multiple"]): c for c in doc["cells"]}
    assert by_key[(0, 5)] == {
        "threshold": 0,
        "multiple": 5,
        "pdu_count": 4,
        "total_bytes": 80,
    }
    assert by_key[(3, 5)] == {
        "threshold": 3,
        "multiple": 5,
        "pdu_count": 1,
        "total_bytes": 20,
    }
    assert doc["best"] == doc["best_by_bytes"]
    code, out = _run(
        capsys,
        ["sweep", fig_csv, "--thresholds", "0,3", "--multiples", "5", "--optimize", "count"],
    )
    assert json.loads(out)["best"] == json.loads(out)["best_by_count"]


def test_optimize_levels_profile_round_trip(fig_csv, tmp_path, capsys):
    profile = str(tmp_path / "profile.json")
    code, out = _run(
        capsys, ["optimize-levels", fig_csv, "--delta-l", "inf", "--out", profile]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"] == [0, 5, 10, 15, 20, 23, 28]
    assert doc["cost_bytes"] == 17
    assert doc["family"] == "v4"
    assert doc["h_max"] == wire.MAX_SUBTREE_HEIGHT
    # the written profile feeds straight back into encode
    code, out = _run(capsys, ["encode", fig_csv, "--levels", profile])
    assert code == 0
    assert json.loads(out)["pdu_count"] == 1


def test_optimized_profile_serializes_any_input(tmp_path, capsys):
    path = tmp_path / "slash8.csv"
    path.write_text("AS1,10.0.0.0/8,13\n")
    profile = str(tmp_path / "profile.json")
    code, _ = _run(
        capsys, ["optimize-levels", str(path), "--delta-l", "inf", "--out", profile]
    )
    assert code == 0
    code, out = _run(capsys, ["encode", str(path), "--levels", profile, "--delta-l", "inf"])
    assert code == 0
    assert json.loads(out)["pdu_count"] == 3


def test_sweep_default_grid_fits_the_wire(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("AS1,202.127.16.0/23,\n")
    code, out = _run(capsys, ["sweep", str(path)])
    assert code == 0
    assert {c["multiple"] for c in json.loads(out)["cells"]} == {3, 4, 5}


@pytest.mark.parametrize(
    "csv_text, flags, message",
    [
        (
            "AS1,202.127.16.0/23,\n",
            ["--level-multiple", "6"],
            "v4 profile has a sub-tree of height 6; the wire bitmap holds at most 5 levels",
        ),
        (
            FIG_CSV + "AS7497,2001:db8::/48,\n",
            ["--levels", "20,23"],
            "v4 level gap 20 exceeds cap 6",
        ),
    ],
    ids=["multiple-6", "inline-levels-dual-stack"],
)
def test_encode_rejects_profiles_the_wire_cannot_carry(tmp_path, capsys, csv_text, flags, message):
    path = tmp_path / "in.csv"
    path.write_text(csv_text)
    code = main(["encode", str(path), *flags])
    assert code == 1
    assert capsys.readouterr().err == f"hroa: {message}\n"


def test_optimize_levels_rejects_empty_selection(tmp_path, capsys):
    path = tmp_path / "v6only.csv"
    path.write_text("1,2001:db8::/64,\n")
    code, _ = _run(capsys, ["optimize-levels", str(path), "--family", "v4"])
    assert code == 1


def test_fetch_against_live_server(fig_csv, tmp_path, capsys):
    workload = load_csv(fig_csv)
    snap = sync.CacheSnapshot.build(workload, session_id=5)
    outcsv = str(tmp_path / "fetched.csv")
    with sync.serve(snap, "hroa") as server:
        host, port = server.endpoint
        code, out = _run(capsys, ["fetch", f"{host}:{port}", "--out", outcsv])
    assert code == 0
    report = json.loads(out)
    assert report["decode_count"] == 4
    assert report["session_id"] == 5
    fetched = load_csv(outcsv)
    assert {str(v.block.prefix) for v in fetched.vrps()} == {
        "202.127.16.0/20",
        "202.127.16.0/21",
        "202.127.16.0/22",
        "202.127.20.0/22",
    }


@pytest.mark.parametrize(
    "argv",
    [["encode", "--scheme", "sroa"], ["encode", "--scheme", "mroa"], ["stats", "--include-as0"]],
    ids=["encode-sroa", "encode-mroa", "stats-include-as0"],
)
def test_block_beyond_the_expansion_cap_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "tall.csv"
    path.write_text(TALL_CSV)
    code = main([argv[0], str(path), *argv[1:]])
    assert code == 2
    assert capsys.readouterr().err == TALL_ERR


def test_fetch_of_a_block_beyond_the_expansion_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "tall.csv"
    path.write_text(TALL_CSV)
    # serving ships the block as one maxLength PDU; the client's expansion fails
    with sync.serve(sync.CacheSnapshot.build(load_csv(str(path))), "hroa") as server:
        host, port = server.endpoint
        code = main(["fetch", f"{host}:{port}"])
    assert code == 2
    assert capsys.readouterr().err == TALL_ERR


def test_fetch_error_paths(capsys):
    assert main(["fetch", "not-an-endpoint"]) == 1
    # unused port: transport failure
    import socket

    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    assert main(["fetch", f"127.0.0.1:{port}", "--timeout", "2"]) == 3


def test_serve_subprocess_end_to_end(fig_csv, tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "hroa.cli", "serve", fig_csv, "--scheme", "ahroa"],
        stderr=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
    )
    watchdog = threading.Timer(20, proc.kill)
    watchdog.start()
    try:
        line = proc.stderr.readline()
        m = re.search(r"on ([\d.]+):(\d+)", line)
        assert m, line
        got, report = sync.fetch((m.group(1), int(m.group(2))), timeout=10)
        assert got == {
            7497: {p for p in sync.CacheSnapshot.build(load_csv(fig_csv)).authorized_map()[7497]}
        }
        assert report.pdu_count == 1
    finally:
        watchdog.cancel()
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=10)


def test_malformed_first_row_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("AS7497,202.127.16.0/33,\nAS7497,202.127.16.0/20,\n")
    assert main(["encode", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("hroa: line 1: ")


def test_exit_codes(tmp_path, capsys):
    assert main(["encode", str(tmp_path / "missing.csv")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1,10.0.0.0/8,\nnope,nope,nope\n")
    assert main(["encode", str(bad)]) == 2
    assert main(["-h"]) == 0
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_parse_bandwidth_units():
    assert _parse_bandwidth(None) is None
    assert _parse_bandwidth("10mbps") == 10e6
    assert _parse_bandwidth("1.5gbps") == 1.5e9
    assert _parse_bandwidth("64kbps") == 64e3
    assert _parse_bandwidth("9600bps") == 9600.0
    assert _parse_bandwidth("12345") == 12345.0
    with pytest.raises(ValueError):
        _parse_bandwidth("fast")


def test_option_surface():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: [a.option_strings[-1] for a in p._actions if a.option_strings and a.dest != "help"]
        for name, p in sub.choices.items()
    }
    assert got == OPTION_SURFACE


def test_removed_flags_are_usage_errors(fig_csv, capsys):
    assert main(["stats", fig_csv, "--delta-l", "0"]) == 1
    capsys.readouterr()


def test_closed_stdout_exits_quietly(fig_csv):
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hroa.cli", "encode", fig_csv],
            stdout=w, stderr=subprocess.PIPE, text=True, timeout=60, env=CHILD_ENV,
        )
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line.strip().removeprefix("$ ")
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
    ]
    (tmp_path / "fig.csv").write_text(FIG_CSV)
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in lines:
        argv = shlex.split(line, comments=True)
        if argv[:1] != ["hroa"] or argv[1] in ("serve", "fetch"):
            continue
        assert main(argv[1:]) == 0, line
        ran += 1
    capsys.readouterr()
    assert ran > 0


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "hroa.cli", "--help"], capture_output=True, text=True,
        env=CHILD_ENV,
    )
    assert out.returncode == 0
    assert "encode" in out.stdout and "fetch" in out.stdout
