"""Replay the golden CLI corpus with numpy unimportable.

    python tests/replay_golden_without_numpy.py

Standard library only: the script needs neither numpy nor pytest, and it
blocks numpy before the package is imported, so every exact path of the CLI
is shown to run without it.  Each case of ``golden/cases.json`` runs as in
``test_golden.py``, in a fresh working directory holding ``polytope.json``
with ``COLUMNS=80``, and must reproduce its recorded stdout, stderr, exit
code and CSV bytes.  The cases in ``NEEDS_NUMPY`` are skipped by name: their
output comes from the Monte Carlo sampler or the floating-point cone scan.
Exits 0 when every replayed case matches, else 1, naming each case that
differs.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
NEEDS_NUMPY = frozenset({
    "verify-mc-oracle-seeded-json",
    "verify-all-seeded-json",
    "ample-check-scan-json",
    "ample-check-scan-text",
})


def differences(run: Callable[[list[str]], int], case: dict) -> list[str]:
    """The parts of one case's output that differ from the recorded ones."""
    name = case["name"]
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(GOLDEN / "polytope.json", tmp)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = run(list(case["argv"]))
            csv = (Path(tmp) / case["csv"]).read_bytes() if "csv" in case else None
        finally:
            os.chdir(home)
    found = []
    if out.getvalue().encode() != (GOLDEN / f"{name}.stdout").read_bytes():
        found.append("stdout")
    if err.getvalue().encode() != (GOLDEN / f"{name}.stderr").read_bytes():
        found.append("stderr")
    if rc != case["exit"]:
        found.append(f"exit {rc} != {case['exit']}")
    if csv is not None and csv != (GOLDEN / f"{name}.csv").read_bytes():
        found.append("csv")
    return found


def main() -> int:
    sys.modules["numpy"] = None  # every later ``import numpy`` raises ImportError
    sys.path.insert(0, str(TESTS.parent / "src"))
    os.environ["COLUMNS"] = "80"  # argparse wraps usage messages to this width
    from toricfutaki import cli

    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    missing = NEEDS_NUMPY - {case["name"] for case in cases}
    if missing:
        print(f"skip list names cases not in the corpus: {sorted(missing)}")
        return 1
    replayed = [case for case in cases if case["name"] not in NEEDS_NUMPY]
    failed = 0
    for case in replayed:
        found = differences(cli.main, case)
        if found:
            failed += 1
            print(f"DIFF  {case['name']}: {', '.join(found)}")
    if sys.modules["numpy"] is not None:
        print("numpy was imported")
        return 1
    print(f"{len(replayed) - failed}/{len(replayed)} cases identical without numpy; "
          f"skipped {len(NEEDS_NUMPY)}: {', '.join(sorted(NEEDS_NUMPY))}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
