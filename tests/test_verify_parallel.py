"""``run_checks`` splits its checks between this process and a forked child.

Every result, its order and every exception must be those of one process
running the selected checks in registry order, and no child may outlive
the call.
"""

import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import toricfutaki
from toricfutaki import verify
from toricfutaki.verify import CHECK_NAMES, CheckFailure, CheckResult, run_checks

GOLDEN = Path(__file__).parent / "golden"

SELECTIONS = {
    "all": None,
    "two": ["kf-cross-check", "n2-ratio"],
    "odd": ["determinism", "kf-cross-check", "vertex-mapping", "nakai-infeasibility",
            "delzant-validation"],
    "one": ["nakai-infeasibility"],
}

REGISTRY = verify.CHECKS
_serial_cache: dict[int, dict[str, CheckResult]] = {}


def serial(seed: int) -> dict[str, CheckResult]:
    """Each check's result from calling its ``fn`` in registry order here."""
    if seed not in _serial_cache:
        out = {}
        for check in REGISTRY:
            try:
                out[check.name] = CheckResult(check.name, True, check.anchor, check.fn(seed))
            except CheckFailure as exc:
                out[check.name] = CheckResult(check.name, False, check.anchor, str(exc))
        _serial_cache[seed] = out
    return _serial_cache[seed]


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert multiprocessing.active_children() == []


def patch_checks(monkeypatch, fns):
    """Replace the ``fn`` of the checks named in ``fns``."""
    monkeypatch.setattr(verify, "CHECKS", tuple(
        dataclasses.replace(c, fn=fns[c.name]) if c.name in fns else c for c in verify.CHECKS))


@pytest.mark.parametrize("seed", [0, 42, 1009])
@pytest.mark.parametrize("selection", SELECTIONS)
def test_split_matches_serial(seed, selection):
    names = SELECTIONS[selection]
    expected = [r for name, r in serial(seed).items() if names is None or name in names]
    assert run_checks(names, seed=seed) == expected


def test_child_runs_every_other_check(monkeypatch):
    def where(seed):
        return str(os.getpid())

    patch_checks(monkeypatch, dict.fromkeys(CHECK_NAMES, where))
    pids = [r.detail for r in run_checks(list(CHECK_NAMES[:5]))]
    child = pids[0]
    assert child != str(os.getpid())
    assert pids == [child, str(os.getpid())] * 2 + [child]


def test_check_failure_in_child_comes_back_in_order(monkeypatch):
    def fail(seed):
        raise CheckFailure(f"broken at seed {seed}")

    patch_checks(monkeypatch, {"nakai-infeasibility": fail})
    names = ["kf-cross-check", "vertex-mapping", "nakai-infeasibility"]
    results = run_checks(names, seed=42)
    assert [r.name for r in results] == names
    assert [r.passed for r in results] == [True, True, False]
    assert results[2].detail == "broken at seed 42"
    assert results[:2] == [serial(42)[name] for name in names[:2]]


def test_other_exception_in_child_reaches_caller(monkeypatch):
    def boom(seed):
        raise ZeroDivisionError(f"child half, seed {seed}")

    patch_checks(monkeypatch, {"nakai-infeasibility": boom})
    with pytest.raises(ZeroDivisionError, match=r"^child half, seed 3$"):
        run_checks(["kf-cross-check", "vertex-mapping", "nakai-infeasibility"], seed=3)


@pytest.mark.parametrize("first", ["child", "parent"])
def test_first_exception_in_registry_order_wins(monkeypatch, first):
    def raiser(exc_type, message):
        def fn(seed):
            raise exc_type(message)
        return fn

    # kf-cross-check, vertex-mapping, nakai-infeasibility, delzant-validation:
    # positions 0 and 2 run in the child, 1 and 3 here.
    if first == "child":
        patch_checks(monkeypatch, {"nakai-infeasibility": raiser(RuntimeError, "child"),
                                   "delzant-validation": raiser(ValueError, "parent")})
        expected = RuntimeError
    else:
        patch_checks(monkeypatch, {"vertex-mapping": raiser(ValueError, "parent"),
                                   "nakai-infeasibility": raiser(RuntimeError, "child")})
        expected = ValueError
    with pytest.raises(expected, match=f"^{first}$"):
        run_checks(["kf-cross-check", "vertex-mapping", "nakai-infeasibility",
                    "delzant-validation"])


def test_without_fork_everything_runs_here(monkeypatch):
    methods = multiprocessing.get_all_start_methods()
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: [m for m in methods if m != "fork"])

    def no_child(*args, **kwargs):
        raise AssertionError("no child may start")

    monkeypatch.setattr(multiprocessing, "get_context", no_child)
    for names in (SELECTIONS["two"], SELECTIONS["odd"]):
        assert run_checks(names, seed=42) == [serial(42)[n] for n in CHECK_NAMES if n in names]


def test_daemonic_caller_runs_everything_here(monkeypatch):
    class Daemon:
        daemon = True

    def no_child(*args, **kwargs):
        raise AssertionError("no child may start")

    monkeypatch.setattr(multiprocessing, "current_process", Daemon)
    monkeypatch.setattr(multiprocessing, "get_context", no_child)
    names = SELECTIONS["odd"]
    assert run_checks(names, seed=42) == [serial(42)[n] for n in CHECK_NAMES if n in names]


def test_caller_with_threads_runs_everything_here(monkeypatch):
    def no_child(*args, **kwargs):
        raise AssertionError("no child may start")

    monkeypatch.setattr(multiprocessing, "get_context", no_child)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        names = SELECTIONS["odd"]
        assert run_checks(names, seed=42) == [serial(42)[n] for n in CHECK_NAMES if n in names]
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()


@pytest.mark.parametrize("stream", ["none", "closed"])
def test_split_without_usable_stdout(monkeypatch, stream):
    if stream == "none":
        monkeypatch.setattr(sys, "stdout", None)
    else:
        closed = open(os.devnull, "w")
        closed.close()
        monkeypatch.setattr(sys, "stdout", closed)
    names = SELECTIONS["two"]
    assert run_checks(names, seed=42) == [serial(42)[n] for n in CHECK_NAMES if n in names]


def verify_paper_subprocess(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(toricfutaki.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "toricfutaki.cli", "verify-paper", *argv],
        capture_output=True, env=env, timeout=120,
    )


def test_fresh_process_json_equals_golden():
    # A child that flushed the output buffers it inherited would print twice.
    proc = verify_paper_subprocess("--seed", "42", "--json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / "verify-all-seeded-json.stdout").read_bytes()


def test_fresh_process_text_prints_each_line_once():
    proc = verify_paper_subprocess("--seed", "42")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().splitlines()
    assert [line.split()[1] for line in lines[:-1]] == list(CHECK_NAMES)
    assert all(line.startswith("PASS  ") for line in lines[:-1])
    assert lines[-1] == f"RESULT: {len(CHECK_NAMES)}/{len(CHECK_NAMES)} checks passed (seed 42)"
