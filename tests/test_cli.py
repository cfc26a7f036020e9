import json
import os
import subprocess
import sys

import pytest

import cideals
from cideals import GF, builtin, enum_ideals, serialize
from cideals.cli import main


@pytest.fixture
def h3_file(tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(serialize(builtin("heisenberg", GF(2), 3)), encoding="utf-8")
    return str(path)


@pytest.fixture
def sl2_file(tmp_path):
    path = tmp_path / "sl2.json"
    path.write_text(serialize(builtin("sl2", GF(5))), encoding="utf-8")
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    # valid JSON, invalid bracket table: fails the Jacobi identity
    doc = {
        "field": {"type": "Q"},
        "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "coeffs": ["0", "0", "1"]},
            {"i": 0, "j": 2, "coeffs": ["1", "0", "0"]},
            {"i": 1, "j": 2, "coeffs": ["0", "1", "0"]},
        ],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


class TestValidate:
    def test_clean(self, h3_file, capsys):
        assert main(["validate", h3_file]) == 0
        out = capsys.readouterr().out
        assert "jacobi: ok" in out
        assert "GF(2)" in out

    def test_violation_exits_one(self, broken_file, capsys):
        assert main(["validate", broken_file]) == 1
        assert "jacobi violation" in capsys.readouterr().out

    def test_garbage_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/does/not/exist.json"]) == 2


class TestAnalyze:
    def test_text(self, h3_file, capsys):
        assert main(["analyze", h3_file]) == 0
        out = capsys.readouterr().out
        assert "nilpotent" in out and "True" in out

    def test_json(self, h3_file, capsys):
        assert main(["analyze", h3_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dim"] == 3
        assert data["supersolvable"] is True
        assert data["frattini_ideal"] == "0,0,1"

    def test_broken_algebra_exits_one(self, broken_file):
        assert main(["analyze", broken_file]) == 1


class TestClassify:
    def test_text(self, h3_file, capsys):
        assert main(["classify", h3_file]) == 0
        assert "cube_zero" in capsys.readouterr().out

    def test_json(self, sl2_file, capsys):
        assert main(["classify", sl2_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["case"] == "neither"


class TestCideal:
    def test_yes(self, h3_file, capsys):
        assert main(["cideal", h3_file, "--sub", "1,0,0"]) == 0
        out = capsys.readouterr().out
        assert "answer: yes" in out

    def test_no_still_exit_zero(self, sl2_file, capsys):
        assert main(["cideal", sl2_file, "--sub", "1,0,0; 0,0,1"]) == 0
        assert "answer: no" in capsys.readouterr().out

    def test_json(self, h3_file, capsys):
        assert main(["cideal", h3_file, "--sub", "0,0,1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["answer"] == "yes"
        assert data["method"] == "ideal_is_trivially_cideal"

    def test_not_subalgebra_exits_two(self, sl2_file, capsys):
        assert main(["cideal", sl2_file, "--sub", "1,0,0; 0,1,0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_vector_exits_two(self, h3_file):
        assert main(["cideal", h3_file, "--sub", "1,banana,0"]) == 2

    def test_wrong_arity_exits_two(self, h3_file):
        assert main(["cideal", h3_file, "--sub", "1,0"]) == 2


class TestEnumerate:
    def test_ideals_match_library(self, h3_file, capsys):
        assert main(["enumerate", h3_file, "--what", "ideals"]) == 0
        out = capsys.readouterr().out
        expected = enum_ideals(builtin("heisenberg", GF(2), 3))
        assert f"count: {len(expected)}" in out

    def test_lines(self, h3_file, capsys):
        assert main(["enumerate", h3_file, "--what", "lines"]) == 0
        assert "count: 1" in capsys.readouterr().out

    def test_lines_budget(self, tmp_path, capsys):
        # abelian(2) over GF(5) has 6 line ideals
        path = tmp_path / "ab2.json"
        path.write_text(serialize(builtin("abelian(2)", GF(5))), encoding="utf-8")
        assert main(["enumerate", str(path), "--what", "lines"]) == 0
        unbounded = capsys.readouterr().out
        assert "count: 6" in unbounded
        assert main(["enumerate", str(path), "--what", "lines", "--budget", "6"]) == 0
        assert capsys.readouterr().out == unbounded
        assert main(["enumerate", str(path), "--what", "lines", "--budget", "5"]) == 3
        assert "error" in capsys.readouterr().err

    def test_cartan_of_nilpotent_algebra_at_a_large_prime(self, tmp_path, capsys):
        # GF(1000003)^2 has more subspaces than the default budget, but a
        # nilpotent algebra is its own Cartan subalgebra.
        path = tmp_path / "ab2.json"
        path.write_text(serialize(builtin("abelian(2)", GF(1000003))), encoding="utf-8")
        assert main(["enumerate", str(path), "--what", "cartan"]) == 0
        assert "count: 1" in capsys.readouterr().out
        assert main(["enumerate", str(path), "--what", "subalgebras"]) == 3

    def test_bad_kind_exits_two(self, h3_file):
        assert main(["enumerate", h3_file, "--what", "everything"]) == 2

    def test_budget_exceeded_exits_three(self, h3_file, capsys):
        assert main(["enumerate", h3_file, "--what", "subspaces", "--budget", "3"]) == 3
        assert "error" in capsys.readouterr().err


class TestCatalog:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "heisenberg" in out and "sl2" in out

    def test_list_through_python_m(self):
        # `python -m cideals` runs the same entry point as the installed script.
        src = os.path.dirname(os.path.dirname(cideals.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "cideals", "catalog", "list"], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0
        assert "sl2                  sl2: [e,f]=h, [e,h]=-2e, [f,h]=2f (char != 2)" in done.stdout.splitlines()

    def test_emit_round_trip(self, capsys):
        assert main(["catalog", "emit", "heisenberg", "--field", "gf3", "--param", "3"]) == 0
        out = capsys.readouterr().out
        assert out == serialize(builtin("heisenberg", GF(3), 3))

    def test_emit_inline_param(self, capsys):
        assert main(["catalog", "emit", "t(2)", "--field", "q"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 3

    def test_emit_sl2_char_two_exits_two(self, capsys):
        assert main(["catalog", "emit", "sl2", "--field", "gf2"]) == 2

    def test_unknown_name_exits_two(self, capsys):
        assert main(["catalog", "emit", "nope", "--field", "q"]) == 2

    def test_bad_field_exits_two(self, capsys):
        assert main(["catalog", "emit", "sl2", "--field", "gf9"]) == 2
        assert main(["catalog", "emit", "sl2", "--field", "reals"]) == 2


class TestVerify:
    def test_all_pass(self, h3_file, capsys):
        assert main(["verify", h3_file, "--suite", "T1,T7,T8"]) == 0
        out = capsys.readouterr().out
        assert "failures: 0" in out

    def test_json_shape(self, h3_file, capsys):
        assert main(["verify", h3_file, "--suite", "T1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["failures"] == 0
        assert data["reports"][0]["theorem_id"] == "T1"
        assert data["reports"][0]["status"] == "pass"

    def test_unknown_suite_exits_two(self, h3_file):
        assert main(["verify", h3_file, "--suite", "T99"]) == 2

    def test_tight_budget_skips_but_exits_zero(self, h3_file, capsys):
        assert main(["verify", h3_file, "--suite", "T1", "--budget", "2"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_large_field_finishes_with_every_suite_skipped(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(serialize(builtin("t(2)+abelian(2)", GF(101))), encoding="utf-8")
        assert main(["verify", str(path), "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert len(reports) == 11
        assert all(r["status"] == "skipped" and "budget" in r["reason"] for r in reports)


class TestFuzz:
    def test_small_run(self, capsys):
        code = main(
            ["fuzz", "--seed", "11", "--count", "2", "--field", "gf2", "--suite", "T7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "algebras: 2" in out
        assert "fail: 0" in out

    def test_json(self, capsys):
        code = main(
            [
                "fuzz",
                "--seed",
                "4",
                "--count",
                "1",
                "--field",
                "gf3",
                "--suite",
                "T7",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 1

    def test_bad_ambient_exits_two(self, capsys):
        assert (
            main(["fuzz", "--seed", "1", "--count", "1", "--field", "gf2", "--ambient", "5"])
            == 2
        )

    def test_q_field_exits_two(self, capsys):
        assert main(["fuzz", "--seed", "1", "--count", "1", "--field", "q"]) == 2


class TestEnvironmentBudget:
    def test_env_budget_applies(self, h3_file, capsys, monkeypatch):
        monkeypatch.setenv("LIE_CIDEAL_BUDGET", "3")
        assert main(["enumerate", h3_file, "--what", "subspaces"]) == 3

    def test_flag_overrides_env(self, h3_file, capsys, monkeypatch):
        monkeypatch.setenv("LIE_CIDEAL_BUDGET", "3")
        assert main(["enumerate", h3_file, "--what", "subspaces", "--budget", "100"]) == 0

    def test_bad_env_value_exits_two(self, h3_file, capsys, monkeypatch):
        monkeypatch.setenv("LIE_CIDEAL_BUDGET", "lots")
        assert main(["enumerate", h3_file, "--what", "subspaces"]) == 2


class TestUsage:
    def test_no_command_exits_two(self):
        assert main([]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
