"""End-to-end CLI behavior: output documents, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import toricfutaki
from toricfutaki import cli, integrate, verify
from toricfutaki.character import SLAB_CACHE_SIZE, _slab_terms
from toricfutaki.polytope import DelzantPolytope, HalfSpace, standard_blowup_polytope
from toricfutaki.verify import CheckResult, run_checks


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, f"exit {rc}, stderr: {err}"
    return json.loads(out)


class TestCharacter:
    def test_report_json(self, capsys):
        doc = run_json(capsys, "character", "--n", "2", "--a", "11", "--b", "3", "--json")
        rep = doc["report"]
        assert rep["required_ratio"] == "-1/8"
        assert rep["boundary_term"] == "1/3"
        assert rep["bulk_term"] == "4/3"
        assert rep["closed_form_match"] is True
        assert "twice the assembled ratio" in rep["closed_form_discrepancy"]
        assert rep["verdict"] is None
        assert doc["manifest"]["command"] == "character"

    def test_weights_and_negative_rational_option(self, capsys):
        doc = run_json(
            capsys, "character", "--n", "2", "--a", "11", "--b", "3",
            "--alpha0", "1", "--alpha1", "-1/8", "--json",
        )
        rep = doc["report"]
        assert rep["character"] == "0"
        assert rep["verdict"] == "VanishesAtRatio"

    def test_n3_report(self, capsys):
        doc = run_json(capsys, "character", "--n", "3", "--a", "3", "--b", "2", "--json")
        assert doc["report"]["required_ratio"] == "-49/18"
        assert "-49/18, not -49/66" in doc["report"]["closed_form_discrepancy"]

    def test_n4_has_no_closed_form(self, capsys):
        doc = run_json(capsys, "character", "--n", "4", "--a", "3", "--b", "2", "--json")
        assert doc["report"]["closed_form_match"] is None
        assert doc["report"]["closed_form_discrepancy"] is None

    def test_text_mode(self, capsys):
        rc, out, _ = run(capsys, "character", "--n", "2", "--a", "11", "--b", "3",
                         "--alpha0", "1", "--alpha1", "1")
        assert rc == 0
        assert "required ratio alpha1/alpha0 = -1/8" in out
        assert "verdict: ObstructedForPositiveAlpha" in out

    def test_unsolvable_exits_two(self, capsys):
        rc, _, err = run(capsys, "character", "--n", "2", "--a", "5/3", "--b", "3")
        assert rc == 2
        assert "error:" in err and "slope constant" in err

    def test_force_overrides(self, capsys):
        doc = run_json(
            capsys, "character", "--n", "2", "--a", "5/3", "--b", "3", "--force", "--json"
        )
        assert doc["report"]["hypothesis_violated"] is True
        assert doc["report"]["solvable"] is False

    def test_float_parameter_rejected(self, capsys):
        rc, _, err = run(capsys, "character", "--n", "2", "--a", "1.5", "--b", "3")
        assert rc == 1

    def test_half_weight_pair_rejected(self, capsys):
        rc, _, err = run(capsys, "character", "--n", "2", "--a", "11", "--b", "3",
                         "--alpha0", "1")
        assert rc == 1
        assert "together" in err

    def test_two_parameter_classes(self, capsys):
        doc = run_json(
            capsys, "character", "--n", "2",
            "--kahler", "6,2", "--bundle", "11,1", "--json",
        )
        two = doc["two_parameter"]
        assert two["required_ratio"] == "-1/4"
        assert two["reduced_a"] == "11" and two["reduced_b"] == "3"
        assert two["experimental"] is True

    def test_two_parameter_conflicts_with_ab(self, capsys):
        rc, _, err = run(capsys, "character", "--n", "2", "--a", "11", "--b", "3",
                         "--kahler", "6,2", "--bundle", "11,1")
        assert rc == 1

    def test_missing_parameters(self, capsys):
        rc, _, err = run(capsys, "character", "--n", "2")
        assert rc == 1

    @pytest.mark.parametrize("extra", [
        ("--alpha0", "1", "--alpha1", "2"),
        ("--force",),
    ], ids=["weights", "force"])
    @pytest.mark.parametrize("mode", [("--json",), ()], ids=["json", "text"])
    def test_two_parameter_rejects_weights_and_force(self, capsys, extra, mode):
        # Both used to be dropped silently (weights) or to contradict the
        # error message (--force on an unsolvable class exited 2).
        bundle = "3,2" if extra == ("--force",) else "11,1"
        rc, out, err = run(capsys, "character", "--n", "2", "--kahler", "6,2",
                           "--bundle", bundle, *extra, *mode)
        assert rc == 1
        assert out == ""
        assert err == "error: --kahler/--bundle take no --alpha0/--alpha1 and no --force\n"


class TestScan:
    ARGS = ("scan", "--n", "2", "--a-from", "2", "--a-to", "12",
            "--b-from", "2", "--b-to", "5")

    def test_grid_rows(self, capsys):
        doc = run_json(capsys, *self.ARGS, "--json")
        rows = doc["rows"]
        assert len(rows) == 44
        keys = [(r["a"], r["b"]) for r in rows]
        assert keys == sorted(keys, key=lambda ab: (int(ab[0]), int(ab[1])))

        by_key = {(r["a"], r["b"]): r for r in rows}
        # Equal sizes: solvable, bulk term zero, no ratio can vanish.
        r = by_key[("3", "3")]
        assert r["solvable"] is True
        assert r["required_ratio"] == "undefined"
        assert r["verdict"] == "NoVanishingPossible"
        # Slope bound fails: empty computed fields.
        r = by_key[("2", "5")]
        assert r["solvable"] is False
        assert r["required_ratio"] == "" and r["verdict"] == ""
        r = by_key[("2", "4")]
        assert r["solvable"] is False
        # Generic solvable rows: negative ratio, positive-weight obstruction.
        r = by_key[("11", "3")]
        assert r["required_ratio"] == "-1/8"
        assert r["verdict"] == "ObstructedForPositiveAlpha"

    def test_text_mode(self, capsys):
        rc, out, _ = run(capsys, *self.ARGS)
        lines = out.strip().splitlines()
        assert lines[0].split() == [
            "n", "a", "b", "solvable", "boundary_term", "bulk_term",
            "required_ratio", "verdict",
        ]
        assert lines[-1] == "44 rows"

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        rc, out, _ = run(capsys, *self.ARGS, "--csv", str(path))
        assert rc == 0
        assert f"wrote 44 rows to {path}" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "n,a,b,solvable,boundary_term,bulk_term,required_ratio,verdict"
        assert len(lines) == 45
        assert "2,11,3,True,1/3,4/3,-1/8,ObstructedForPositiveAlpha" in lines

    def test_csv_with_json_refused_before_any_row(self, capsys, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cli, "make_spec", fail)
        monkeypatch.setattr(cli, "build_report", fail)
        path = tmp_path / "scan.csv"
        rc, out, err = run(capsys, *self.ARGS, "--csv", str(path), "--json")
        assert (rc, out, err) == (1, "", "error: give either --csv or --json, not both\n")
        assert not path.exists()

    def test_json_output_is_deterministic(self, capsys):
        rc1, out1, _ = run(capsys, *self.ARGS, "--json")
        rc2, out2, _ = run(capsys, *self.ARGS, "--json")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_fractional_step(self, capsys):
        doc = run_json(
            capsys, "scan", "--n", "2", "--a-from", "2", "--a-to", "3",
            "--b-from", "2", "--b-to", "2", "--step", "1/2", "--json",
        )
        assert [r["a"] for r in doc["rows"]] == ["2", "5/2", "3"]

    def test_empty_range_rejected(self, capsys):
        rc, _, err = run(capsys, "scan", "--n", "2", "--a-from", "3", "--a-to", "2",
                         "--b-from", "2", "--b-to", "2")
        assert rc == 1 and "empty range" in err

    def test_bad_step_rejected(self, capsys):
        rc, _, err = run(capsys, "scan", "--n", "2", "--a-from", "2", "--a-to", "3",
                         "--b-from", "2", "--b-to", "2", "--step", "0")
        assert rc == 1 and "step" in err

    @pytest.mark.parametrize("mode", [(), ("--json",)])
    def test_huge_grid_rejected_before_any_row(self, capsys, mode):
        rc, out, err = run(capsys, "scan", "--n", "2", "--a-from", "0", "--a-to", "1",
                           "--b-from", "0", "--b-to", "1", "--step", "1/100000", *mode)
        assert rc == 1
        assert out == ""
        assert err == (
            "error: scan grid has 10000200001 rows (100001 a by 100001 b),"
            f" over the cap of {cli.MAX_SCAN_ROWS}\n"
        )

    @pytest.mark.parametrize("n", ["0", "1", "-3"])
    @pytest.mark.parametrize("mode", [(), ("--json",)])
    def test_dimension_checked_before_any_row(self, capsys, mode, n):
        # No row of this grid reaches the family code (none has b > 1).
        rc, out, err = run(capsys, "scan", "--n", n, "--a-from", "0", "--a-to", "1",
                           "--b-from", "0", "--b-to", "1", *mode)
        assert rc == 1 and out == ""
        assert err == f"error: dimension must be an int >= 2, got {n}\n"
        assert run(capsys, "character", "--n", n, "--a", "11", "--b", "3", *mode)[1:] == ("", err)

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_dimension_cap(self, capsys, mode):
        rc, out, err = run(capsys, "scan", "--n", "11", "--a-from", "2", "--a-to", "3",
                           "--b-from", "2", "--b-to", "3", *mode)
        assert (rc, out, err) == (1, "", "error: dimension 11 exceeds cap 10\n")
        assert run(capsys, "character", "--n", "11", "--a", "3", "--b", "2", *mode) == (1, "", err)

    def test_row_cap_boundary(self, capsys, monkeypatch):
        # 3 a values by 2 b values: a cap of 6 holds the grid, 5 does not.
        argv = ("scan", "--n", "2", "--a-from", "2", "--a-to", "4",
                "--b-from", "2", "--b-to", "3", "--json")
        monkeypatch.setattr(cli, "MAX_SCAN_ROWS", 6)
        assert len(run_json(capsys, *argv)["rows"]) == 6
        monkeypatch.setattr(cli, "MAX_SCAN_ROWS", 5)
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert "6 rows (3 a by 2 b), over the cap of 5" in err

    def test_each_b_computed_once_past_the_cache_size(self, capsys):
        # Two a columns over more distinct b than the memo holds: with b as
        # the outer loop every solvable b is a single miss; a-major order
        # would evict each b before its second row.
        step = Fraction(1, 16)
        b_from = 1 + step
        b_to = b_from + (SLAB_CACHE_SIZE + 1) * step
        _slab_terms.cache_clear()
        doc = run_json(
            capsys, "scan", "--n", "2", "--a-from", "3", "--a-to", "49/16",
            "--b-from", str(b_from), "--b-to", str(b_to), "--step", str(step), "--json",
        )
        rows = doc["rows"]
        assert len(rows) == 2 * (SLAB_CACHE_SIZE + 2)
        solvable_b = {r["b"] for r in rows if r["solvable"]}
        assert len(solvable_b) > SLAB_CACHE_SIZE
        info = _slab_terms.cache_info()
        assert info.misses == len(solvable_b)
        assert info.hits == sum(r["solvable"] for r in rows) - len(solvable_b)
        # Unchanged output: the n = 2 closed forms of verify's n2 checks.
        for r in rows:
            if not r["solvable"]:
                assert r["boundary_term"] == r["bulk_term"] == r["required_ratio"] == ""
                continue
            a, b = Fraction(r["a"]), Fraction(r["b"])
            c = -(b**2 + b + 1) / (3 * (b + 1))
            B = 1 - (a * b - 1) / (b**2 - 1)
            assert Fraction(r["boundary_term"]) == b**2 + c * (3 * b - 1)
            assert Fraction(r["bulk_term"]) == B**2 * (b - 1) ** 3 / (6 * b**2)
            ratio = "undefined" if a == b else str(-(b**2 - 1) / (b - a) ** 2)
            assert r["required_ratio"] == ratio


class TestVerifyPaper:
    def test_subset_passes(self, capsys):
        rc, out, _ = run(capsys, "verify-paper", "--only", "n2-integrals,n2-ratio")
        assert rc == 0
        assert "PASS  n2-integrals" in out
        assert "RESULT: 2/2 checks passed (seed 42)" in out

    def test_subset_json(self, capsys):
        doc = run_json(capsys, "verify-paper", "--only", "kf-cross-check", "--json")
        assert doc["ok"] is True
        assert doc["total"] == 1
        assert doc["checks"][0]["name"] == "kf-cross-check"
        assert doc["checks"][0]["passed"] is True

    def test_unknown_check_name(self, capsys):
        rc, _, err = run(capsys, "verify-paper", "--only", "nonsense")
        assert rc == 1
        assert "nonsense" in err

    @pytest.mark.parametrize("only", [",", "", " , "])
    @pytest.mark.parametrize("mode", [(), ("--json",)])
    def test_empty_selection_rejected(self, capsys, only, mode):
        rc, out, err = run(capsys, "verify-paper", "--only", only, *mode)
        assert rc == 1
        assert out == ""
        assert "no checks selected" in err

    def test_empty_selection_rejected_by_library(self):
        with pytest.raises(ValueError, match="no checks selected"):
            run_checks([])

    def test_seed_bound(self, capsys, monkeypatch):
        # 2**128 - 2 is the largest seed whose seed + 1 still keys Philox.
        doc = run_json(capsys, "verify-paper", "--only", "determinism",
                       "--seed", str(2**128 - 2), "--json")
        assert doc["ok"] and doc["manifest"]["seed"] == 2**128 - 2

        def fail(seed):
            raise AssertionError("no check may run")

        monkeypatch.setattr(verify, "CHECKS", tuple(
            dataclasses.replace(check, fn=fail) for check in verify.CHECKS))
        for seed in (2**128 - 1, 2**128):
            rc, out, err = run(capsys, "verify-paper", "--only", "mc-oracle,determinism",
                               "--seed", str(seed))
            assert (rc, out) == (1, "")
            assert err == (
                "error: seed must be a non-negative int below 2**128 - 1"
                f" (the Monte Carlo checks also draw with seed + 1), got {seed}\n"
            )

    @pytest.mark.parametrize("seed", [-1, 2**128 - 1])
    def test_seed_bound_in_library(self, seed):
        with pytest.raises(ValueError, match=rf"below 2\*\*128 - 1 .*, got {seed}$"):
            run_checks(["determinism"], seed=seed)

    def test_random_interior_point_matches_fraction_arithmetic(self):
        def reference(rng, n, b):
            weights = [Fraction(rng.randint(1, 999)) for _ in range(n)]
            total = sum(weights)
            X = 1 + Fraction(rng.randint(1, 999), 1000) * (b - 1)
            return tuple(X * w / total for w in weights)

        for b in (Fraction(5, 2), Fraction(3), Fraction(7, 3)):
            ours, theirs = Random(11), Random(11)
            for n in range(1, 7):
                for _ in range(50):
                    x = verify._random_interior_point(ours, n, b)
                    assert x == reference(theirs, n, b)
                    assert all(type(c) is Fraction for c in x)
                    assert all(c > 0 for c in x) and 1 < sum(x) < b
            assert ours.random() == theirs.random()

    def test_failure_exits_three(self, capsys, monkeypatch):
        fake = [CheckResult(name="n2-ratio", passed=False, anchor="x", detail="boom")]
        monkeypatch.setattr(cli, "run_checks", lambda names, seed: fake)
        rc, out, _ = run(capsys, "verify-paper", "--only", "n2-ratio")
        assert rc == 3
        assert "FAIL" in out and "boom" in out


class TestPolytope:
    def test_standard_json(self, capsys):
        doc = run_json(capsys, "polytope", "--standard", "2,3", "--json")
        assert doc["volume"] == "4"
        assert doc["is_delzant"] is True
        assert doc["facet_sigma"] == ["2", "2", "1", "3"]
        assert ["0", "1"] in doc["vertices"]

    def test_file_round_trip(self, capsys, tmp_path):
        hs = [
            HalfSpace((1, 0), 0),
            HalfSpace((0, 1), 0),
            HalfSpace((-1, -1), 2),
        ]
        P = DelzantPolytope(2, hs)
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(P.to_json_dict()))
        doc = run_json(capsys, "polytope", "--file", str(path), "--json")
        assert doc["volume"] == "2"
        assert doc["polytope"] == P.to_json_dict()

    _SQUARE = [{"v": [1, 0], "lam": "0"}, {"v": [0, 1], "lam": "0"},
               {"v": [-1, 0], "lam": "1"}, {"v": [0, -1], "lam": "1"}]
    _SEGMENT = [{"v": [1], "lam": "0"}, {"v": [-1], "lam": "1"}]

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "halfspaces": [{"v": [1.9, 0], "lam": "0"}] + _SQUARE[1:]},
            {"n": 2, "halfspaces": [{"v": [True, 0], "lam": "0"}] + _SQUARE[1:]},
            {"n": 2, "halfspaces": [{"v": ["1", 0], "lam": "0"}] + _SQUARE[1:]},
            {"n": 2.9, "halfspaces": _SQUARE},
            {"n": "2", "halfspaces": _SQUARE},
            {"n": True, "halfspaces": _SEGMENT},
        ],
        ids=["v-float", "v-bool", "v-string", "n-float", "n-string", "n-bool"],
    )
    def test_file_rejects_non_integers(self, capsys, tmp_path, doc):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "polytope", "--file", str(path), "--json")
        assert rc == 1 and out == ""
        assert err.startswith("error:")

    def test_file_integers_accepted(self, capsys, tmp_path):
        for doc, volume in (({"n": 2, "halfspaces": self._SQUARE}, "1"),
                            ({"n": 1, "halfspaces": self._SEGMENT}, "1")):
            path = tmp_path / "poly.json"
            path.write_text(json.dumps(doc))
            assert run_json(capsys, "polytope", "--file", str(path), "--json")["volume"] == volume

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "polytope", "--file", str(tmp_path / "nope.json"))
        assert rc == 1

    def test_source_exclusivity(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "polytope")
        assert rc == 1
        path = tmp_path / "p.json"
        path.write_text("{}")
        rc, _, _ = run(capsys, "polytope", "--standard", "2,3", "--file", str(path))
        assert rc == 1

    def test_malformed_standard(self, capsys):
        rc, _, _ = run(capsys, "polytope", "--standard", "2")
        assert rc == 1
        rc, _, _ = run(capsys, "polytope", "--standard", "2,1.5")
        assert rc == 1

    def test_text_mode(self, capsys):
        rc, out, _ = run(capsys, "polytope", "--standard", "2,3")
        assert rc == 0
        assert "volume = 4" in out
        assert "delzant: yes" in out

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("command", [("polytope",), ("integrate", "--poly", "x1")],
                             ids=["polytope", "integrate"])
    def test_dimension_cap(self, capsys, tmp_path, monkeypatch, command, mode):
        # The cap is checked before vertex enumeration, whose cost grows
        # steeply with n; n = 10 reaches it, n = 11 does not.
        def enumerate_vertices(n, hs):
            raise ValueError(f"enumerating n = {n}")

        monkeypatch.setattr(DelzantPolytope, "_enumerate_vertices",
                            staticmethod(enumerate_vertices))
        for n, message in ((11, "dimension 11 exceeds cap 10"), (10, "enumerating n = 10")):
            path = tmp_path / f"p{n}.json"
            path.write_text(json.dumps({"n": n, "halfspaces": [
                {"v": [int(j == i) for j in range(n)], "lam": "0"} for i in range(n)
            ] + [{"v": [1] * n, "lam": "-1"}, {"v": [-1] * n, "lam": "3"}]}))
            for source in (("--standard", f"{n},3"), ("--file", str(path))):
                rc, out, err = run(capsys, *command, *source, *mode)
                assert (rc, out, err) == (1, "", f"error: {message}\n")

    def test_dimension_one(self, capsys):
        doc = run_json(capsys, "polytope", "--standard", "1,3", "--json")
        assert doc["volume"] == "2" and doc["vertices"] == [["1"], ["3"]]


class TestFamily:
    def test_family_json(self, capsys):
        doc = run_json(capsys, "family", "--n", "2", "--a", "11", "--b", "3", "--json")
        assert doc["A"] == "4" and doc["B"] == "-3" and doc["lambda"] == "8"
        assert doc["solvable"] is True
        images = {tuple(e["vertex"]): tuple(e["image"]) for e in doc["vertex_images"]}
        assert images[("0", "1")] == ("0", "1")
        assert images[("3", "0")] == ("11", "0")
        assert len(images) == 4

    def test_unsolvable_exits_two(self, capsys):
        rc, _, _ = run(capsys, "family", "--n", "2", "--a", "1", "--b", "3")
        assert rc == 2

    def test_text_mode(self, capsys):
        rc, out, _ = run(capsys, "family", "--n", "2", "--a", "11", "--b", "3")
        assert rc == 0
        assert "(3, 0) -> (11, 0)" in out


class TestIntegrate:
    def test_body(self, capsys):
        doc = run_json(capsys, "integrate", "--standard", "2,3", "--poly", "x1", "--json")
        assert doc["exact"] == "13/3"
        assert doc["domain"] == "body"
        assert doc["log_coeff"] == "0"

    def test_facet(self, capsys):
        doc = run_json(capsys, "integrate", "--standard", "2,3", "--poly", "x1",
                       "--facet", "3", "--json")
        assert doc["exact"] == "9/2"
        assert doc["domain"] == "facet 3"

    def test_boundary(self, capsys):
        doc = run_json(capsys, "integrate", "--standard", "2,3", "--poly", "x1",
                       "--boundary", "--json")
        assert doc["exact"] == "9"

    def test_radial_power(self, capsys):
        doc = run_json(capsys, "integrate", "--standard", "2,3", "--poly", "x1",
                       "--radial-power", "-4", "--json")
        assert doc["exact"] == "1/3"
        assert doc["log_coeff"] == "0"
        assert doc["log_base"] == "3"

    def test_radial_log_term(self, capsys):
        import math

        doc = run_json(capsys, "integrate", "--standard", "2,3", "--poly", "1",
                       "--radial-power", "-2", "--json")
        assert doc["exact"] == "0"
        assert doc["log_coeff"] == "1"
        assert doc["float"] == pytest.approx(math.log(3))

    def test_radial_needs_slab(self, capsys, tmp_path):
        box = DelzantPolytope(
            2,
            [
                HalfSpace((1, 0), 0),
                HalfSpace((0, 1), 0),
                HalfSpace((-1, 0), 1),
                HalfSpace((0, -1), 1),
            ],
        )
        path = tmp_path / "box.json"
        path.write_text(json.dumps(box.to_json_dict()))
        rc, _, err = run(capsys, "integrate", "--file", str(path), "--poly", "1",
                         "--radial-power", "-2")
        assert rc == 1 and "slab" in err

    def test_mode_exclusivity(self, capsys):
        rc, _, err = run(capsys, "integrate", "--standard", "2,3", "--poly", "1",
                         "--facet", "0", "--boundary")
        assert rc == 1

    def test_poly_parse_error(self, capsys):
        rc, _, err = run(capsys, "integrate", "--standard", "2,3", "--poly", "x9")
        assert rc == 1 and "x9" in err

    def test_facet_out_of_range(self, capsys):
        rc, _, err = run(capsys, "integrate", "--standard", "2,3", "--poly", "1",
                         "--facet", "7")
        assert rc == 1

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("k", ["65", "-65"])
    def test_radial_power_cap(self, capsys, k, mode):
        rc, out, err = run(capsys, "integrate", "--standard", "2,3", "--poly", "x1",
                           "--radial-power", k, *mode)
        assert (rc, out) == (1, "")
        assert err == f"error: radial exponent {k} exceeds cap 64 in absolute value\n"
        doc = run_json(capsys, "integrate", "--standard", "2,3", "--poly", "x1",
                       "--radial-power", k.replace("65", "64"), "--json")
        assert doc["log_coeff"] == "0"

    def test_text_log_rendering(self, capsys):
        rc, out, _ = run(capsys, "integrate", "--standard", "2,3", "--poly", "1",
                         "--radial-power", "-2")
        assert rc == 0
        assert "exact = 0 + 1*log(3)" in out

    @pytest.mark.parametrize("mode", [(), ("--boundary",)])
    def test_expansion_budget_refuses_before_integrating(self, capsys, monkeypatch,
                                                         tmp_path, mode):
        # x1^40 on the three simplices of a translate of P(3, 2) ran for
        # more than a minute; its boundary has eight.
        moved = standard_blowup_polytope(3, 2).translate([1, 1, 1])
        path = tmp_path / "moved.json"
        path.write_text(json.dumps(moved.to_json_dict()))

        def fail(*args):
            raise AssertionError("no moment may be computed")

        monkeypatch.setattr(integrate, "monomial_simplex_integral", fail)
        rc, out, err = run(capsys, "integrate", "--file", str(path), "--poly", "x1^40", *mode)
        assert (rc, out) == (1, "")
        assert f"over the budget of {integrate.MAX_EXPANSION_TERMS}" in err

    @pytest.mark.parametrize("mode, simplices, size, exact", [
        ((), 2, 18, "11"),  # 2 triangles x (C(4, 2) + C(3, 2))
        (("--facet", "0"), 1, 5, "4"),  # 1 segment x (C(3, 1) + C(2, 1))
        (("--boundary",), 4, 20, "27"),  # 4 segments x (C(3, 1) + C(2, 1))
    ])
    def test_expansion_budget_boundary(self, capsys, monkeypatch, mode, simplices, size,
                                       exact):
        argv = ("integrate", "--standard", "2,3", "--poly", "x1^2 + x2", *mode)
        monkeypatch.setattr(integrate, "MAX_EXPANSION_TERMS", size)
        assert run_json(capsys, *argv, "--json")["exact"] == exact
        monkeypatch.setattr(integrate, "MAX_EXPANSION_TERMS", size - 1)
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == (
            f"error: integrand of degree 2 expands to {size} monomials over "
            f"{simplices} simplices, over the budget of {size - 1}\n"
        )

    def test_radial_power_expands_nothing(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("no moment may be computed")

        monkeypatch.setattr(integrate, "MAX_EXPANSION_TERMS", 0)
        monkeypatch.setattr(integrate, "monomial_simplex_integral", fail)
        doc = run_json(capsys, "integrate", "--standard", "2,3", "--poly", "x1^64",
                       "--radial-power", "-2", "--json")
        assert doc["log_coeff"] == "0"

    @pytest.mark.parametrize("mode, body, facets", [
        ((), 1, 0),
        (("--facet", "0"), 0, 1),
        (("--boundary",), 0, 10),  # one per facet of P(8, 2)
    ])
    def test_each_mode_triangulates_once(self, capsys, monkeypatch, mode, body, facets):
        calls = {"triangulate": 0, "facet_triangulate": 0}
        for name in calls:
            original = getattr(DelzantPolytope, name)

            def counted(self, *args, name=name, original=original):
                calls[name] += 1
                return original(self, *args)

            monkeypatch.setattr(DelzantPolytope, name, counted)
        run_json(capsys, "integrate", "--standard", "8,2", "--poly", "x1^2", *mode, "--json")
        assert calls == {"triangulate": body, "facet_triangulate": facets}


class TestKfCheck:
    def test_cross_check_match(self, capsys):
        doc = run_json(capsys, "kf-check", "--k1", "4", "--k2", "-1",
                       "--cross-check", "--json")
        assert doc["ratio"] == "-1/8"
        assert doc["blowup_class"] == "11*H - 1*E"
        assert doc["cross_check"]["match"] is True
        assert doc["cross_check"]["pipeline_ratio"] == "-1/8"

    def test_higher_genus(self, capsys):
        doc = run_json(capsys, "kf-check", "--genus", "2", "--k", "2", "--kprime", "1",
                       "--k1", "5", "--k2", "1", "--json")
        assert doc["ratio"] == "-1/3"
        assert doc["blowup_class"] is None

    def test_cross_check_requires_blowup_case(self, capsys):
        rc, _, err = run(capsys, "kf-check", "--genus", "1", "--k1", "4", "--k2", "-1",
                         "--cross-check")
        assert rc == 1 and "cross-check" in err

    def test_invalid_k2(self, capsys):
        rc, _, _ = run(capsys, "kf-check", "--k1", "4", "--k2", "0")
        assert rc == 1

    def test_text_mode(self, capsys):
        rc, out, _ = run(capsys, "kf-check", "--k1", "4", "--k2", "-1", "--cross-check")
        assert rc == 0
        assert "[MATCH]" in out

    @pytest.mark.parametrize("k1, k2, cls, reduced_a", [
        ("5", "1", "16*H - 8*E", "2"),
        ("7", "1", "22*H - 10*E", "11/5"),
        ("9", "2", "29*H - 15*E", "29/15"),
        ("6", "-1", "17*H - 3*E", "17/3"),
    ], ids=["16H-8E", "22H-10E", "29H-15E", "17H-3E"])
    def test_cross_check_bundle_scale(self, capsys, k1, k2, cls, reduced_a):
        # e > 1: the two-parameter reduction's bundle scale 1/e^2 enters the
        # pipeline ratio compared against the ruled-surface formula.
        doc = run_json(capsys, "kf-check", "--k1", k1, "--k2", k2, "--cross-check", "--json")
        assert doc["cross_check"] == {"class": cls, "reduced_a": reduced_a, "b": "3",
                                      "pipeline_ratio": doc["ratio"], "match": True}


class TestAmpleCheck:
    def test_single_pair(self, capsys):
        doc = run_json(capsys, "ample-check", "--m1", "1", "--m2", "0", "--json")
        assert doc["check"]["feasible"] is False
        assert doc["check"]["m1"] == "1"
        assert len(doc["check"]["inequalities"]) == 3

    def test_scan(self, capsys):
        doc = run_json(capsys, "ample-check", "--scan", "--grid-bound", "5",
                       "--samples", "100", "--json")
        assert doc["scan"]["all_infeasible"] is True
        assert doc["scan"]["checked"] == 11 * 11 - 1 + 100

    def test_scan_rejects_negative_samples(self, capsys):
        rc, out, err = run(capsys, "ample-check", "--scan", "--grid-bound", "1",
                           "--samples", "-5", "--json")
        assert rc == 1
        assert out == ""
        assert "non-negative" in err

    @pytest.mark.parametrize(
        "args, pairs",
        [(("--grid-bound", "100000"), 40000410000),
         (("--samples", "1000000000000"), 1000000010200)],
    )
    def test_scan_over_pair_cap_rejected_at_once(self, capsys, args, pairs):
        rc, out, err = run(capsys, "ample-check", "--scan", *args, "--json")
        assert rc == 1 and out == ""
        assert err == f"error: scan has {pairs} pairs, over the cap of 10000000\n"

    def test_requires_pair_or_scan(self, capsys):
        rc, _, err = run(capsys, "ample-check")
        assert rc == 1

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("argv, message", [
        (("--scan", "--m1", "1", "--m2", "2"), "give either --m1/--m2 or --scan, not both"),
        (("--scan", "--grid-bound", "2", "--m2", "2"), "give either --m1/--m2 or --scan, not both"),
        (("--m1", "1", "--m2", "2", "--samples", "9"), "--grid-bound and --samples need --scan"),
        (("--m1", "1", "--m2", "2", "--grid-bound", "3"), "--grid-bound and --samples need --scan"),
        (("--m1", "1", "--m2", "2", "--seed", "5"), "--seed needs --scan"),
        (("--m1", "1", "--m2", "2", "--seed", "42"), "--seed needs --scan"),
    ], ids=["scan-m1-m2", "scan-m2", "pair-samples", "pair-grid-bound", "pair-seed",
            "pair-seed-default-value"])
    def test_options_of_the_other_mode_rejected(self, capsys, monkeypatch, argv, message, mode):
        def fail(*args, **kwargs):
            raise AssertionError("no check may run")

        monkeypatch.setattr(cli, "infeasibility_scan", fail)
        monkeypatch.setattr(cli, "check_from_m", fail)
        rc, out, err = run(capsys, "ample-check", *argv, *mode)
        assert (rc, out, err) == (1, "", f"error: {message}\n")

    def test_scan_defaults_in_manifest(self, capsys):
        doc = run_json(capsys, "ample-check", "--scan", "--json")
        assert doc["manifest"]["options"] == {"scan": True, "grid_bound": 50, "samples": 10000}
        assert doc["manifest"]["seed"] == 42
        assert doc["scan"]["checked"] == 101 * 101 - 1 + 10000

    def test_text_mode(self, capsys):
        rc, out, _ = run(capsys, "ample-check", "--m1", "0", "--m2", "1")
        assert rc == 0
        assert "[marginal]" in out
        assert "feasible: no" in out

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_sides_past_the_float_range(self, capsys, mode):
        # The third side is m1^2 (9 log3 - 4)/D^2 > 0 at (m1, 0), and holds
        # at (-1, 1); its float underflows at these pairs.
        for m1, m2 in ((f"1/{10**200}", "0"), (f"-1/{10**170}", f"1/{10**170}")):
            rc, out, err = run(capsys, "ample-check", "--m1", m1, "--m2", m2, *mode)
            assert (rc, err) == (0, "") and "nan" not in out.lower()
            if mode:
                assert json.loads(out)["check"]["inequalities"][2]["holds"] is True
            else:
                assert "b^2*log3-4a^2>0: 0.000000e+00  holds" in out
        # Here it overflows: no value to print.
        rc, out, err = run(capsys, "ample-check", "--m1", str(10**200), "--m2", "0", *mode)
        assert (rc, out, err) == (1, "", "error: a displayed value does not fit in a float\n")


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ("character", "--n", "2", "--a", "11", "--b", "3"),
        ("scan", "--n", "2", "--a-from", "2", "--a-to", "3", "--b-from", "2", "--b-to", "3"),
        ("polytope", "--standard", "2,3"),
        ("family", "--n", "2", "--a", "11", "--b", "3"),
        ("integrate", "--standard", "2,3", "--poly", "x1"),
        ("kf-check", "--k1", "4", "--k2", "-1"),
    ], ids=lambda argv: argv[0])
    def test_seed_only_where_read(self, capsys, argv):
        rc, out, err = run(capsys, *argv, "--seed", "3", "--json")
        assert rc == 1
        assert out == ""
        assert "unrecognized arguments: --seed 3" in err

    def test_verify_paper_records_seed(self, capsys):
        doc = run_json(capsys, "verify-paper", "--only", "n2-ratio", "--seed", "7", "--json")
        assert doc["manifest"]["seed"] == 7

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("argv", [
        ("ample-check", "--scan", "--grid-bound", "2", "--samples", "10"),
        ("verify-paper", "--only", "nakai-infeasibility"),
        ("verify-paper", "--only", "mc-oracle"),
    ], ids=["ample-check", "verify-nakai", "verify-mc"])
    def test_negative_seed_rejected(self, capsys, monkeypatch, argv, mode):
        def fail(*args, **kwargs):
            raise AssertionError("no check may run")

        monkeypatch.setattr(cli, "infeasibility_scan", fail)
        monkeypatch.setattr(cli, "run_checks", fail)
        rc, out, err = run(capsys, *argv, "--seed", "-3", *mode)
        assert rc == 1 and out == ""
        assert err.endswith("error: argument --seed: seed must be a non-negative int, got -3\n")

    def test_seed_zero_accepted(self, capsys):
        doc = run_json(capsys, "ample-check", "--scan", "--grid-bound", "1",
                       "--samples", "5", "--seed", "0", "--json")
        assert doc["manifest"]["seed"] == 0 and doc["scan"]["seed"] == 0

    def test_ample_scan_records_seed(self, capsys):
        doc = run_json(capsys, "ample-check", "--scan", "--grid-bound", "2",
                       "--samples", "10", "--seed", "7", "--json")
        assert doc["manifest"]["seed"] == 7
        assert doc["scan"]["seed"] == 7

    @pytest.mark.parametrize("argv, key, value", [
        (("character", "--n", "2", "--a", "11", "--b", "3", "--alpha0", "1",
          "--alpha1", "-1/8"), "alpha1", "-1/8"),
        (("ample-check", "--m1", "-3/2", "--m2", "2"), "m1", "-3/2"),
        (("kf-check", "--k1", "4", "--k2", "-1"), "k2", -1),
        (("scan", "--n", "2", "--a-from", "-1", "--a-to", "1", "--b-from", "2",
          "--b-to", "3"), "a_from", "-1"),
    ], ids=lambda x: x[0] if isinstance(x, tuple) else None)
    def test_negative_rationals_are_values(self, capsys, argv, key, value):
        doc = run_json(capsys, *argv, "--json")
        assert doc["manifest"]["options"][key] == value


class TestTopLevel:
    def test_version(self, capsys):
        rc, out, _ = run(capsys, "--version")
        assert rc == 0
        assert "toricfutaki" in out

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("argv", [
        ("character", "--n", "2", "--a", str(10**400), "--b", "3"),
        ("ample-check", "--m1", str(10**400), "--m2", "1"),
        ("integrate", "--standard", f"2,{10**400}", "--poly", "x1"),
    ], ids=lambda argv: argv[0])
    def test_too_large_for_a_float(self, capsys, argv, mode):
        # The exact value exists; its float rendering overflows.
        rc, out, err = run(capsys, *argv, *mode)
        assert (rc, out) == (1, "")
        assert err == "error: integer division result too large for a float\n"

    def test_no_command(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_exact_commands_do_not_import_numpy(self):
        script = (
            "import contextlib, io, sys\n"
            "import toricfutaki, toricfutaki.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['character', '--n', '2', '--a', '11', '--b', '3', '--json'])\n"
            "print(rc, 'numpy' in sys.modules)\n"
        )
        src = str(Path(toricfutaki.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]

    def test_parser_loads_no_process_pool_or_numpy(self):
        # Every CLI run pays for what importing the CLI loads; verify-paper
        # and the Monte Carlo sampler import these only when they run.
        src = str(Path(toricfutaki.__file__).resolve().parents[1])
        script = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "import toricfutaki.cli as cli; cli.build_parser()\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures', 'numpy')"
            " if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
