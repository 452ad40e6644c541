"""Golden CLI corpus: every invocation in ``golden/cases.json`` must reproduce
its recorded stdout, stderr, exit code and CSV file byte for byte.

Each case runs in an empty working directory holding a copy of
``golden/polytope.json``, so ``--file polytope.json`` and ``--csv rows.csv``
are the same relative paths in every run and the manifest's ``source``
never varies.  ``COLUMNS`` is pinned because argparse wraps its usage
messages to the terminal width.  ``replay_golden_without_numpy.py`` replays
the same corpus, less its floating-point cases, with numpy unimportable.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from toricfutaki import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_cli_output(case, capsys, monkeypatch, tmp_path):
    shutil.copy(GOLDEN / "polytope.json", tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    name = case["name"]
    rc = cli.main(list(case["argv"]))
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert captured.err.encode() == (GOLDEN / f"{name}.stderr").read_bytes()
    assert rc == case["exit"]
    if "csv" in case:
        assert (tmp_path / case["csv"]).read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_corpus_replays_without_numpy():
    # A fresh interpreter, so that numpy is blocked before the package loads.
    script = Path(__file__).parent / "replay_golden_without_numpy.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=300)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout + proc.stderr
    replayed = len(CASES) - 4
    assert proc.stdout.startswith(f"{replayed}/{replayed} cases identical without numpy")
