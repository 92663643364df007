"""Replay of the golden CLI corpus (tests/golden.py regenerates it)."""

import json

import golden


def _manifest() -> dict:
    return json.loads(golden.MANIFEST.read_text())


def test_golden_cli_corpus(tmp_path, monkeypatch):
    doc = _manifest()
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


def test_manifest_runs_the_commands_the_script_lists():
    want = golden.commands(golden.input_texts())
    assert [entry["argv"] for entry in _manifest()["commands"]] == want


def test_committed_inputs_are_what_the_script_writes():
    texts = golden.input_texts()
    assert sorted(_manifest()["inputs"]) == sorted(texts)
    for name, text in texts.items():
        assert (golden.GOLDEN / name).read_bytes() == text.encode("utf-8"), name
