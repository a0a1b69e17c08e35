"""Replay the golden CLI corpus (tests/golden/cli.jsonl) and compare stdout
byte for byte; tests/golden/make_corpus.py says how the corpus is made."""

import argparse
import json
from pathlib import Path

from golden.make_corpus import CORPUS, run
from qtline.cli import _build_parser


def test_golden_corpus_replays_byte_identically(monkeypatch):
    monkeypatch.delenv("QTLINE_TOLERANCE", raising=False)
    lines = [json.loads(text) for text in Path(CORPUS).read_text(encoding="utf-8").splitlines()]
    assert len(lines) >= 600
    mismatches = []
    for number, line in enumerate(lines, 1):
        stdout, code = run(line["argv"], line["documents"], line.get("env"))
        if (stdout, code) != (line["stdout"], line["exit"]):
            mismatches.append(f"line {number}: {' '.join(line['argv'])}\n  want {line['stdout']!r} exit {line['exit']}\n  got  {stdout!r} exit {code}")
    assert not mismatches, f"{len(mismatches)} of {len(lines)} lines differ:\n" + "\n".join(mismatches[:5])


def test_golden_corpus_has_a_success_and_a_malformed_input_per_subcommand():
    # keeps the corpus an oracle for every row of the CLI's subcommand table
    (subcommands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    lines = [json.loads(text) for text in Path(CORPUS).read_text(encoding="utf-8").splitlines()]
    seen = {(line["argv"][0], line["exit"]) for line in lines}
    assert len(subcommands.choices) == 9
    missing = [(name, code) for name in subcommands.choices for code in (0, 1) if (name, code) not in seen]
    assert not missing
