import argparse
import io
import json
import os
import re
import shlex
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import hroa
from hroa import cli, sync, wire
from hroa.bmcodec import HangingLevels, encode_batch
from hroa.cli import _parse_bandwidth, main
from hroa.prefix import V4, V6, parse_prefix
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


def _one_prefix_files(family, text):
    """PDU files of text's single prefix, version 1: kind -> (the file, the class of its first PDU).

    One prefix, one sub-tree and one aggregate PDU, and a captured response:
    Cache Response, the prefix PDU, End of Data.
    """
    prefix = parse_prefix(text)
    [block] = encode_batch(HangingLevels.default(family), [prefix])
    pdus = {
        "prefix": wire.PrefixPdu(1, prefix, prefix.prefixlen, 64500),
        "subtree": wire.SubTreePdu(family, block.id, block.bitmap, 64500),
        "aggregate": wire.SubTreeAggPdu(family, 64500, ((block.id, block.bitmap),)),
    }
    files = {kind: (wire.serialize(pdu), type(pdu).__name__) for kind, pdu in pdus.items()}
    capture = (wire.CacheResponse(7), pdus["prefix"], wire.EndOfData(7, 1))
    files["capture"] = (b"".join(wire.serialize_each(capture)), "CacheResponse")
    return files


@pytest.mark.parametrize("version", [0, 7])
@pytest.mark.parametrize("kind", ["prefix", "subtree", "aggregate", "capture"])
@pytest.mark.parametrize("family,text", [(V4, "10.0.0.0/8"), (V6, "2001:db8::/32")],
                         ids=["v4", "v6"])
def test_decode_refuses_another_protocol_version(family, text, kind, version, tmp_path, capsys):
    raw, first = _one_prefix_files(family, text)[kind]
    pdufile = tmp_path / "one.pdus"
    pdufile.write_bytes(raw)
    assert _run(capsys, ["decode", str(pdufile)]) == (0, f"asn,prefix,max_length\n64500,{text},"
                                                          f"{text.rsplit('/', 1)[1]}\n")
    pdufile.write_bytes(bytes((version,)) + raw[1:])
    assert main(["decode", str(pdufile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"hroa: bad PDU data: {first} of protocol version "
                            f"{version}; only version 1 is supported\n")


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


@pytest.mark.parametrize("value", ["-inf", "nan"])
@pytest.mark.parametrize("command", ["encode", "serve"])
def test_delta_l_not_an_integer_exits_1(fig_csv, capsys, monkeypatch, command, value):
    monkeypatch.setattr(signal, "pause", lambda: None)  # a server that starts returns at once
    assert main([command, fig_csv, f"--delta-l={value}"]) == 1
    assert capsys.readouterr().err == "hroa: --delta-l must be an integer or inf\n"


@pytest.mark.parametrize(
    "value, message",
    [
        ("2.5", "--delta-l must be an integer or inf"),
        ("-inf", "--delta-l must be an integer or inf"),
        ("nan", "--delta-l must be an integer or inf"),
        ("-3", "threshold must be >= 0"),
    ],
    ids=["fraction", "minus-inf", "nan", "negative"],
)
def test_optimize_levels_checks_delta_l_as_encode_does(fig_csv, capsys, value, message):
    assert main(["optimize-levels", fig_csv, f"--delta-l={value}"]) == 1
    assert capsys.readouterr().err == f"hroa: {message}\n"
    assert main(["encode", fig_csv, f"--delta-l={value}"]) == 1
    assert capsys.readouterr().err == f"hroa: {message}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--level-multiple", "0"], "step must be >= 1"),
        (["--levels", "5", "--level-multiple", "0"],
         "--levels and --level-multiple are mutually exclusive"),
    ],
    ids=["alone", "with-levels"],
)
def test_level_multiple_zero_exits_1(fig_csv, capsys, flags, message):
    assert main(["encode", fig_csv, *flags]) == 1
    assert capsys.readouterr().err == f"hroa: {message}\n"


@pytest.mark.parametrize(
    "doc",
    [
        {"family": "v4", "levels": ["5"]},
        {"family": "v4", "levels": 5},
        [{"family": "v4", "levels": [5]}],
        {"family": "v7", "levels": [5]},
        {"family": "v4"},
        {"family": "v4", "levels": [x / 2 for x in range(5, 61, 5)]},
        {"family": "v4", "levels": [True, *range(5, 31, 5)]},
    ],
    ids=["str-levels", "int-levels", "top-level-list", "family-v7", "no-levels", "float-levels",
         "bool-level"],
)
def test_malformed_profile_file_exits_1(fig_csv, tmp_path, capsys, doc):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    assert main(["encode", fig_csv, "--levels", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"hroa: --levels {path}: ") and err.count("\n") == 1


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
    assert doc["levels"] == [0, 3, 8, 13, 18, 23, 28]
    assert doc["cost_bytes"] == 20
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
    code, out = _run(
        capsys, ["optimize-levels", str(path), "--delta-l", "inf", "--out", profile]
    )
    assert code == 0
    cost = json.loads(out)["cost_bytes"]
    code, out = _run(capsys, ["encode", str(path), "--levels", profile, "--delta-l", "inf"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["pdu_count"], doc["total_bytes"]) == (3, 60)
    assert cost == 60


def test_optimize_levels_prices_each_as_on_its_own(tmp_path, capsys):
    # one /24 filed by two ASes: the wire sends two sub-tree PDUs
    path = tmp_path / "two.csv"
    path.write_text("1,10.0.0.0/24\n2,10.0.0.0/24\n")
    profile = str(tmp_path / "profile.json")
    code, out = _run(
        capsys, ["optimize-levels", str(path), "--delta-l", "inf", "--out", profile]
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["cost_bytes"], doc["prefix_count"]) == (40, 2)
    code, out = _run(capsys, ["encode", str(path), "--levels", profile, "--delta-l", "inf"])
    assert code == 0
    assert (json.loads(out)["pdu_count"], json.loads(out)["total_bytes"]) == (2, 40)


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
    with sync.RtrServer(snap, "hroa") as server:
        host, port = server.endpoint
        code, out = _run(capsys, ["fetch", f"{host}:{port}", "--out", outcsv])
    assert code == 0
    report = json.loads(out)
    assert report["decode_count"] == 4
    assert report["session_id"] == 5
    fetched = load_csv(outcsv)
    assert {str(b.prefix) for b in fetched.entries[7497]} == {
        "202.127.16.0/20",
        "202.127.16.0/21",
        "202.127.16.0/22",
        "202.127.20.0/22",
    }


# a tall v4 block, a short v4 block, a v6 block, a repeated row and a second AS
DUAL_CSV = """asn,prefix,max_length
64500,10.0.0.0/22,25
64500,192.0.2.0/24,25
64500,2001:db8::/32,33
64500,192.0.2.0/24,25
AS64501,198.51.100.0/24,
64501,2001:db8:1::/48,48
"""

# decode writes maxLength blocks as they came and bitmap prefixes one row each
DUAL_DECODED = {
    "hroa": """asn,prefix,max_length
64500,10.0.0.0/22,25
64500,192.0.2.0/24,24
64500,192.0.2.0/25,25
64500,192.0.2.128/25,25
64500,2001:db8::/32,32
64500,2001:db8::/33,33
64500,2001:db8:8000::/33,33
64501,198.51.100.0/24,24
64501,2001:db8:1::/48,48
""",
    "mroa": """asn,prefix,max_length
64500,10.0.0.0/22,25
64500,192.0.2.0/24,25
64500,2001:db8::/32,33
64501,198.51.100.0/24,24
64501,2001:db8:1::/48,48
""",
}

# fetch --out writes every prefix the cache authorizes, one row each
DUAL_FETCHED = """asn,prefix,max_length
64500,10.0.0.0/22,22
64500,10.0.0.0/23,23
64500,10.0.0.0/24,24
64500,10.0.0.0/25,25
64500,10.0.0.128/25,25
64500,10.0.1.0/24,24
64500,10.0.1.0/25,25
64500,10.0.1.128/25,25
64500,10.0.2.0/23,23
64500,10.0.2.0/24,24
64500,10.0.2.0/25,25
64500,10.0.2.128/25,25
64500,10.0.3.0/24,24
64500,10.0.3.0/25,25
64500,10.0.3.128/25,25
64500,192.0.2.0/24,24
64500,192.0.2.0/25,25
64500,192.0.2.128/25,25
64500,2001:db8::/32,32
64500,2001:db8::/33,33
64500,2001:db8:8000::/33,33
64501,198.51.100.0/24,24
64501,2001:db8:1::/48,48
"""


@pytest.mark.parametrize("scheme", ["hroa", "mroa"])
def test_decode_writes_rows_byte_for_byte(tmp_path, capsys, scheme):
    csv_path, pdus = tmp_path / "dual.csv", tmp_path / "dual.pdus"
    csv_path.write_text(DUAL_CSV)
    assert main(["encode", str(csv_path), "--scheme", scheme, "--out", str(pdus)]) == 0
    capsys.readouterr()
    assert _run(capsys, ["decode", str(pdus)]) == (0, DUAL_DECODED[scheme])


@pytest.mark.parametrize("scheme", ["hroa", "mroa"])
def test_decode_of_a_captured_response_skips_its_framing(tmp_path, capsys, scheme):
    csv_path, pdus = tmp_path / "dual.csv", tmp_path / "dual.pdus"
    csv_path.write_text(DUAL_CSV)
    assert main(["encode", str(csv_path), "--scheme", scheme, "--out", str(pdus)]) == 0
    capsys.readouterr()
    snapshot = sync.CacheSnapshot.build(load_csv(str(csv_path)), recompress=scheme == "mroa")
    with sync.RtrServer(snapshot, scheme) as server:
        with socket.create_connection(server.endpoint, timeout=5) as conn:
            conn.sendall(wire.serialize(wire.ResetQuery()))
            response = b""
            while len(response) < server.response_bytes and (data := conn.recv(65536)):
                response += data
    # Cache Response (8 bytes), the payload encode wrote, End of Data (24 bytes)
    assert response[8:-24] == pdus.read_bytes()
    captured = tmp_path / "response.pdus"
    foreign = bytes.fromhex("014d000000000008")  # type 77, which decode does not know
    captured.write_bytes(response[:-24] + foreign + response[-24:])
    want = _run(capsys, ["decode", str(pdus)])
    assert want == (0, DUAL_DECODED[scheme])
    assert _run(capsys, ["decode", str(captured)]) == want


@pytest.mark.parametrize("command", ["decode", "stats", "sweep"])
def test_out_writes_what_stdout_carries_and_prints_nothing(tmp_path, capsys, command):
    csv_path, pdus, out = tmp_path / "dual.csv", tmp_path / "dual.pdus", tmp_path / "out"
    csv_path.write_text(DUAL_CSV)
    assert main(["encode", str(csv_path), "--out", str(pdus)]) == 0
    argv = [command, str(pdus if command == "decode" else csv_path)]
    capsys.readouterr()
    code, want = _run(capsys, argv)
    assert code == 0 and want
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == want.encode()


def test_fetch_out_writes_rows_byte_for_byte(tmp_path, capsys):
    csv_path, outcsv = tmp_path / "dual.csv", tmp_path / "fetched.csv"
    csv_path.write_text(DUAL_CSV)
    snap = sync.CacheSnapshot.build(load_csv(csv_path), session_id=5)
    with sync.RtrServer(snap, "hroa") as server:
        host, port = server.endpoint
        assert main(["fetch", f"{host}:{port}", "--out", str(outcsv)]) == 0
    assert outcsv.read_text() == DUAL_FETCHED


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "--scheme", "sroa"],
        ["encode", "--scheme", "mroa"],
        ["encode", "--scheme", "hroa", "--recompress"],
        ["stats", "--include-as0"],
        ["optimize-levels", "--delta-l", "inf"],
    ],
    ids=["encode-sroa", "encode-mroa", "encode-hroa-recompress", "stats-include-as0",
         "optimize-levels-inf"],
)
def test_block_beyond_the_expansion_cap_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "tall.csv"
    path.write_text(TALL_CSV)
    code = main([argv[0], str(path), *argv[1:]])
    assert code == 2
    assert capsys.readouterr().err == TALL_ERR


@pytest.mark.parametrize(
    "csv", sorted(p.name for p in (Path(__file__).parent / "data" / "golden").glob("*.csv"))
)
def test_delta_l_above_the_cap_encodes_as_inf_does(csv, capsys):
    # every block of a golden input is shorter than 25, so both expand them all
    path = str(Path(__file__).parent / "data" / "golden" / csv)
    runs = []
    for value in ("25", "inf"):
        code = main(["encode", path, "--delta-l", value])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]


def test_troa_never_splits_so_a_tall_block_ships_under_any_threshold(tmp_path, capsys):
    path = tmp_path / "tall.csv"
    path.write_text(TALL_CSV)
    runs = []
    for flags in ([], ["--delta-l", "inf"]):
        out = tmp_path / "troa.pdus"
        argv = ["encode", str(path), "--scheme", "troa", "--out", str(out), *flags]
        code, doc = _run(capsys, argv)
        assert code == 0, flags
        runs.append((doc, out.read_bytes()))
    assert runs[0] == runs[1]


def test_serve_of_a_split_past_the_expansion_cap_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(signal, "pause", lambda: None)  # a server that starts returns at once
    path = tmp_path / "tall.csv"
    path.write_text(TALL_CSV)
    assert main(["serve", str(path), "--scheme", "hroa", "--delta-l", "inf"]) == 2
    assert capsys.readouterr().err == TALL_ERR


def test_fetch_of_a_block_beyond_the_expansion_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "tall.csv"
    path.write_text(TALL_CSV)
    # serving ships the block as one maxLength PDU; the client's expansion fails
    with sync.RtrServer(sync.CacheSnapshot.build(load_csv(str(path))), "hroa") as server:
        host, port = server.endpoint
        code = main(["fetch", f"{host}:{port}"])
    assert code == 2
    assert capsys.readouterr().err == TALL_ERR


def test_fetch_error_paths(capsys):
    assert main(["fetch", "not-an-endpoint"]) == 1
    # unused port: transport failure
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    assert main(["fetch", f"127.0.0.1:{port}", "--timeout", "2"]) == 3


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
def test_fetch_timeout_not_positive_and_finite_exits_1_before_connect(timeout, capsys):
    # a listener that is never accepted from: a connect would succeed against it
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        assert main(["fetch", f"127.0.0.1:{port}", "--timeout", timeout]) == 1
    err = capsys.readouterr().err
    assert err == f"hroa: timeout {float(timeout)} is not a positive number of seconds\n"


def test_fetch_port_out_of_range_exits_1(capsys):
    assert main(["fetch", "127.0.0.1:99999"]) == 1
    assert capsys.readouterr().err == "hroa: port 99999 is outside 1..65535\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--port", "70000"], "port 70000 is outside 0..65535"),
        (["--session-id", "70000"], "session_id 70000 is outside 0..65535"),
        (["--serial", "-1"], "serial -1 is outside 0..4294967295"),
        (["--bandwidth", "0"], "bandwidth must be positive"),
        (["--bandwidth", "0mbps"], "bandwidth must be positive"),
        (["--bandwidth", "1e-300bps"],
         "bandwidth 1e-300 bps is too low: one 4096-byte chunk would take over 9.22e+09 s"),
    ],
    ids=["port", "session-id", "serial", "bandwidth", "bandwidth-unit", "bandwidth-too-low"],
)
def test_serve_settings_out_of_range_exit_1(fig_csv, capsys, monkeypatch, flags, message):
    monkeypatch.setattr(signal, "pause", lambda: None)  # a server that starts returns at once
    assert main(["serve", fig_csv, *flags]) == 1
    assert capsys.readouterr().err == f"hroa: {message}\n"


def test_serve_on_a_port_in_use_exits_1(fig_csv, capsys, monkeypatch):
    monkeypatch.setattr(signal, "pause", lambda: None)
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen(1)
        port = held.getsockname()[1]
        assert main(["serve", fig_csv, "--port", str(port)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"hroa: cannot listen on 127.0.0.1:{port}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "{dir}"],
        ["decode", "{dir}"],
        ["encode", "{csv}", "--levels", "{dir}"],
        ["encode", "{csv}", "--out", "{dir}"],
        ["decode", "{pdus}", "--out", "{dir}"],
    ],
    ids=["encode-input", "decode-input", "levels", "encode-out", "decode-out"],
)
def test_a_directory_for_a_file_exits_2(fig_csv, tmp_path, capsys, argv):
    pdus = tmp_path / "fig.pdus"
    assert main(["encode", fig_csv, "--out", str(pdus)]) == 0
    capsys.readouterr()
    names = {"dir": str(tmp_path), "csv": fig_csv, "pdus": str(pdus)}
    assert main([arg.format(**names) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err == f"hroa: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


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
        proc.stderr.close()


def test_malformed_first_row_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("AS7497,202.127.16.0/33,\nAS7497,202.127.16.0/20,\n")
    assert main(["encode", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("hroa: line 1: ")


def test_scope_id_in_a_row_exits_2(tmp_path, capsys):
    bad = tmp_path / "zone.csv"
    bad.write_text("64503,2001:db8::/32,\n64503,fe80::1%eth0/64,\n")
    assert main(["encode", str(bad)]) == 2
    assert capsys.readouterr().err == "hroa: line 2: scope id not allowed in 'fe80::1%eth0/64'\n"


def test_csv_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"AS1,10.0.0.0/8,8\nAS2,10.\xff.0.0/16,16\n")
    assert main(["encode", str(bad), "--scheme", "mroa"]) == 2
    assert capsys.readouterr().err == f"hroa: {bad}: not UTF-8 text (invalid start byte)\n"


def test_bom_csv_encodes_under_the_c_locale(tmp_path):
    # neither UTF-8 mode nor locale coercion: open() would default to ASCII
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffasn,prefix,max_length\nAS1,10.0.0.0/8,8\n".encode("utf-8"))
    env = dict(CHILD_ENV, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    proc = subprocess.run(
        [sys.executable, "-m", "hroa.cli", "encode", str(path), "--scheme", "mroa"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["pdu_count"] == 1


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


def test_a_fault_that_raises_key_error_is_not_an_exit_code(fig_csv, monkeypatch):
    def fault(args):
        raise KeyError("x")

    monkeypatch.setattr(cli, "cmd_encode", fault)
    with pytest.raises(KeyError):
        main(["encode", fig_csv])


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


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["got"] == {7497: set(scope["prefixes"])}


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "hroa.cli", "--help"], capture_output=True, text=True,
        env=CHILD_ENV,
    )
    assert out.returncode == 0
    assert "encode" in out.stdout and "fetch" in out.stdout
