"""Golden CLI corpus: small inputs, the commands run on them, and what each printed.

    PYTHONPATH=src python tests/golden.py

writes the inputs and ``manifest.json`` under ``tests/data/golden/``.  The
manifest records, for every command, its exit code, its stderr text and
the sha256 of its stdout and of each ``--out`` file it wrote.  A ``serve``
runs with its wait replaced by one ``fetch --out`` from it; its entry keeps
serve's exit code and fetch's exit code, stderr and ``--out`` hash, but not
serve's stderr, which names the port, nor fetch's stdout, whose report holds
a random session id and the elapsed time.  ``tests/test_golden.py`` replays
the manifest in process through ``cli.main``, and checks that its commands
and the committed inputs are the ones this script lists and writes, so an
edit here without a regenerate fails.  A changed manifest entry is a changed
CLI output: regenerate it only for a change that means to alter that output,
and name each changed entry and its reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
MANIFEST = GOLDEN / "manifest.json"
SCHEMES = ("sroa", "troa", "mroa", "hroa", "ahroa")
SERVE_SCHEMES = ("mroa", "hroa", "ahroa")

# hand-written inputs; the generated ones come from perfbench/gen.py at seed 1
FIXED_INPUTS = {
    # README's example
    "fig.csv": (
        "asn,prefix,max_length\n"
        "AS7497,202.127.16.0/20,\n"
        "AS7497,202.127.16.0/21,\n"
        "AS7497,202.127.16.0/22,\n"
        "AS7497,202.127.20.0/22,\n"
    ),
    # two ASes sharing one /24: one sub-tree PDU each
    "two.csv": "1,10.0.0.0/24\n2,10.0.0.0/24\n",
    # one AS holding both families
    "dual.csv": (
        "AS64500,192.0.2.0/24,\n"
        "AS64500,2001:db8::/32,\n"
        "AS64500,192.0.2.0/25,26\n"
        "AS64501,2001:db8:1::/48,50\n"
    ),
    # an AS0 block taller than the expansion cap
    "tall.csv": "0,10.0.0.0/8,32\n",
    # the lenient spellings ingest accepts, after a byte order mark
    "lenient.csv": (
        "\ufeffasn,prefix,max_length\n"
        "# a comment\n"
        "AS64500,192.0.2.1/24,\n"
        "as64500 ,198.51.100.0/24, 26\n"
        "\n"
        '"64501","2001:DB8:0::/32","33"\n'
        " 64501,2001:db8:1::/48,+50\n"
        "AS 64502,10.0.0.0/255.0.0.0,10\n"
        "  # an indented comment\n"
        ",,,\n"
        "64502,::ffff:10.0.0.0/104,105\n"
        "64502,2001:db8::1.2.3.4/126,127\n"
        "64503,203.0.113.0/24,24,extra,columns\n"
        "64503,203.0.113.128/25,25\n"
        "64503,203.0.113.0/25,\n"
        "AS64500,192.0.2.0/24,24\n"
        "64501,2001:db8:1::/48,050\n"
    ),
}


def generated_inputs() -> dict[str, str]:
    """Small seed-1 outputs of the benchmark's generators, as CSV text."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    return {
        "scattered8.csv": gen.to_csv(gen.scattered_rows(1, ases=8)),
        "mixed400.csv": gen.to_csv(gen.mixed_rows(1, total=400)[0]),
    }


def input_texts() -> dict[str, str]:
    """Every input of the corpus, by file name: the fixed ones, then the generated ones."""
    return {**FIXED_INPUTS, **generated_inputs()}


def commands(inputs) -> list[list[str]]:
    """Every command of the corpus, in run order; a decode follows the encode it reads."""
    out = []
    for name in inputs:
        stem = name.removesuffix(".csv")
        for scheme in SCHEMES:
            for extra in ([], ["--recompress"]):
                pdus = f"{stem}.{scheme}{'.r' if extra else ''}.pdus"
                out.append(["encode", name, "--scheme", scheme, *extra, "--out", pdus])
                out.append(["decode", pdus])
        out.append(["stats", name])
        out.append(["stats", name, "--include-as0"])
    for name in inputs:
        stem = name.removesuffix(".csv")
        for scheme in SCHEMES:
            for delta_l in ("inf", "0"):
                out.append(["encode", name, "--scheme", scheme, "--delta-l", delta_l,
                            "--out", f"{stem}.{scheme}.d{delta_l}.pdus"])
        out.append(["sweep", name])
        out.append(["sweep", name, "--aggregate"])
        for family in ("v4", "v6"):
            out.append(["optimize-levels", name, "--family", family,
                        "--out", f"{stem}.{family}.levels.json"])
    for name in inputs:
        for scheme in SERVE_SCHEMES:
            out.append(["serve", name, "--scheme", scheme, "--port", "0"])
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in process: (exit code, stdout, stderr)."""
    from hroa import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def record(argv: list[str], workdir: Path) -> dict:
    """What one command did, as a manifest entry; its --out path is relative to workdir."""
    if argv[0] == "serve":
        return record_serve(argv, workdir)
    code, stdout, stderr = run(argv)
    outs = {}
    if "--out" in argv:
        path = workdir / argv[argv.index("--out") + 1]
        if path.exists():
            outs[path.name] = _sha(path.read_bytes())
    return {"argv": argv, "exit": code, "stderr": stderr,
            "stdout_sha256": _sha(stdout.encode()), "outs": outs}


def record_serve(argv: list[str], workdir: Path) -> dict:
    """A ``serve`` whose wait is one ``fetch --out <stem>.<scheme>.fetch.csv`` from it."""
    out = f"{argv[1].removesuffix('.csv')}.{argv[argv.index('--scheme') + 1]}.fetch.csv"
    fetched = []

    def fetch_once() -> None:
        # serve's stderr so far is its one "serving ... on host:port" line
        endpoint = sys.stderr.getvalue().split()[-1]
        entry = record(["fetch", endpoint, "--out", out], workdir)
        fetched.append({key: entry[key] for key in ("exit", "stderr", "outs")})

    original, signal.pause = signal.pause, fetch_once
    try:
        code, _, _ = run(argv)
    finally:
        signal.pause = original
    return {"argv": argv, "exit": code, "fetch": fetched[0] if fetched else None}


def input_hashes() -> dict[str, str]:
    return {p.name: _sha(p.read_bytes()) for p in sorted(GOLDEN.glob("*.csv"))}


def main() -> int:
    inputs = input_texts()
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.items():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in inputs:
            (work / name).write_bytes((GOLDEN / name).read_bytes())
        os.chdir(work)
        try:
            entries = [record(argv, work) for argv in commands(inputs)]
        finally:
            os.chdir(here)
    doc = {"inputs": input_hashes(), "commands": entries}
    MANIFEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(entries)} commands over {len(inputs)} inputs -> {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
