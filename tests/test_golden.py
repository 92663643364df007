"""Replay of the golden CLI corpus (tests/golden.py regenerates it)."""

import json

import golden


def test_golden_cli_corpus(tmp_path, monkeypatch):
    doc = json.loads(golden.MANIFEST.read_text())
    assert golden.input_hashes() == doc["inputs"]
    for name in doc["inputs"]:
        (tmp_path / name).write_bytes((golden.GOLDEN / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    drift = [
        f"{' '.join(want['argv'])}: got {got}"
        for want in doc["commands"]
        if (got := golden.record(want["argv"], tmp_path)) != want
    ]
    assert not drift, "\n".join(drift)
