"""Command-line front end, exercised in process through main()/run()."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from asmice import cli, formulas, verify
from asmice.transfer import transfer_count

SRC = Path(__file__).resolve().parent.parent / "src"


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


# ---------- count ----------

def test_count_single_method(capsys):
    assert cli.main(["count", "--n", "3"]) == 0
    assert lines_of(capsys) == ["7"]


def test_count_methods_agree(capsys):
    code = cli.main(["count", "--n", "4",
                     "--method", "brute,transfer,formula"])
    out = lines_of(capsys)
    assert code == 0
    assert out[0] == "42"
    assert out[1].startswith("[pass] methods-agree")
    assert "brute=42" in out[1] and "formula=42" in out[1]


def test_count_brute_bound():
    with pytest.raises(SystemExit):
        cli.main(["count", "--n", "8", "--method", "brute"])


def test_count_prints_the_largest_formula_size(capsys):
    # A(194) has 4,276 digits, under the default int-to-str limit
    assert cli.COUNT_BOUNDS["formula"] == 194
    assert cli.main(["count", "--n", "194"]) == 0
    assert lines_of(capsys) == [str(formulas.a_formula(194))]


def test_count_unknown_method():
    with pytest.raises(SystemExit):
        cli.main(["count", "--n", "3", "--method", "magic"])
    with pytest.raises(ValueError, match="unknown counting method 'magic'"):
        cli.cmd_count(3, ("magic",))


# ---------- xenum ----------

def test_xenum_polynomial(capsys):
    assert cli.main(["xenum", "--n", "3"]) == 0
    assert lines_of(capsys) == ["x + 6"]


def test_xenum_evaluated(capsys):
    assert cli.main(["xenum", "--n", "4", "--at", "2"]) == 0
    assert lines_of(capsys) == ["64"]


def test_xenum_rational_point(capsys):
    assert cli.main(["xenum", "--n", "3", "--at", "1/2"]) == 0
    assert lines_of(capsys) == ["13/2"]


def test_xenum_negative_rational_point(capsys):
    """A spaced negative rational is a value, not an option flag."""
    assert cli.main(["xenum", "--n", "3", "--at", "-1/2"]) == 0
    assert lines_of(capsys) == ["11/2"]
    assert cli.main(["xenum", "--n", "3", "--at", "-1e2"]) == 0
    assert lines_of(capsys) == ["-94"]


def test_xenum_bad_rational():
    with pytest.raises(SystemExit):
        cli.main(["xenum", "--n", "3", "--at", "pi"])


def test_xenum_bound():
    with pytest.raises(SystemExit):
        cli.main(["xenum", "--n", "99"])


def test_xenum_at_bound_is_the_print_limit(capsys):
    # A(4; x) = 2x^2 + 16x + 24: a point of d digits gives a value of at
    # most 2d + 2, so 2149 digits is the first that may pass 4300
    for e in (70, 2148):
        assert cli.main(["xenum", "--n", "4", "--at", f"1e{e}"]) == 0
        out = lines_of(capsys)
        assert out == [str(transfer_count(4)(10 ** e))]
        assert len(out[0]) <= cli.PRINT_DIGITS
    for at in ("1e2149", "1e-2149", "-1e2149"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["xenum", "--n", "4", "--at", at])
        assert exc.value.code == 2
        assert "2150 digits" in capsys.readouterr().err


def test_xenum_refuses_a_huge_exponent_before_building_it(monkeypatch,
                                                          capsys):
    # Fraction would build 10**|e| before any bound on its value could run
    monkeypatch.setattr(cli, "Fraction", None)
    for at in ("1e100000000", "1E+1_000_000", "1e-0000100000"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["xenum", "--n", "4", "--at", at])
        assert exc.value.code == 2
        assert "4300-digit print limit" in capsys.readouterr().err


# ---------- bseq ----------

def test_bseq(capsys):
    assert cli.main(["bseq", "--max-n", "6"]) == 0
    out = lines_of(capsys)
    assert "B(4;x) = x + 6" in out
    assert "B(5;x) = x + 2" in out
    assert "B(6;x) = x^3 + 12x^2 + 70x + 60" in out
    checks = [l for l in out if l.startswith("[")]
    assert len(checks) == 5
    assert all(l.startswith("[pass]") for l in checks)
    assert any("A(2;x) = 2·B(2;x)·B(3;x)" in l for l in checks)


def test_bseq_sweeps_each_size_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return transfer_count(n)

    monkeypatch.setattr(cli, "transfer_count", counted)
    monkeypatch.setattr(formulas, "transfer_count", counted)
    assert cli.run(["bseq", "--max-n", "6"]).exit_code == 0
    assert calls == [1, 2, 3, 4, 5]


# ---------- verify ----------

def test_verify_star_triangle(capsys):
    assert cli.main(["verify", "ybe"]) == 0
    out = lines_of(capsys)
    assert out[0] == "ybe: 7/7 checks passed, seed 0"
    assert sum(1 for l in out if l.startswith("[pass] ybe-pair")) == 7


def test_verify_with_workers(capsys):
    workers = str(min(2, os.cpu_count() or 1))      # --workers is capped
    assert cli.main(["verify", "cauchy", "--n", "3", "--workers", workers]) == 0
    assert lines_of(capsys)[0] == "cauchy: 3/3 checks passed, seed 0"


def test_verify_seed_draws_other_parameters():
    reports = {seed: cli.run(["verify", "ik", "--n", "2", "--seed", str(seed)])
               for seed in (0, 1)}
    for seed, report in reports.items():
        assert report.exit_code == 0
        assert report.inputs["seed"] == seed
        assert report.outputs == [f"ik: 6/6 checks passed, seed {seed}"]
    details = {seed: [d for _, _, d in r.checks] for seed, r in reports.items()}
    assert details[0] != details[1]


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "everything"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "'everything'" in err
    for name in verify.SUITE_NAMES + ("all",):
        assert repr(name) in err


def test_verify_help_names_every_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in verify.SUITE_NAMES + ("all",):
        assert name in out


def test_verify_n_help_names_each_suites_sizes(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    out = capsys.readouterr().out
    n_help = " ".join(out[out.index("  --n N"):out.index("  --workers")]
                      .split())
    for name in verify.SUITE_NAMES:
        assert re.search(rf"\b{name}\b", n_help), name
    # ik and lemmas stop at 4 whatever --n asks, as the help says
    assert "ik and lemmas stop at 4" in n_help
    for name in ("ik", "lemmas"):
        items = verify.build_suite(name, 0, verify.MAX_N)
        assert max(kw["n"] for _, kw in items) == 4, name


# ---------- table ----------

def test_table_json(capsys):
    assert cli.main(["table", "--max-n", "3", "--format", "json"]) == 0
    rows = [json.loads(l) for l in lines_of(capsys)]
    assert [r["n"] for r in rows] == [1, 2, 3]
    assert rows[2] == {"n": 3, "a1": "7", "a2": "8", "a3": "9",
                       "poly": ["6", "1"]}


def test_table_csv(capsys):
    assert cli.main(["table", "--max-n", "4", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "n,a1,a2,a3,poly\n1,1,1,1,1\n2,2,2,2,2\n3,7,8,9,6;1\n"
        "4,42,64,90,24;16;2\n")


def test_table_text(capsys):
    assert cli.main(["table", "--max-n", "2"]) == 0
    out = lines_of(capsys)
    assert out[0].split() == ["n", "A(n;1)", "A(n;2)", "A(n;3)", "A(n;x)"]
    assert out[1].split() == ["1", "1", "1", "1", "1"]
    assert out[2].split() == ["2", "2", "2", "2", "2"]


def test_table_bound():
    with pytest.raises(SystemExit):
        cli.main(["table", "--max-n", "50"])


def test_table_unknown_format():
    with pytest.raises(SystemExit):
        cli.main(["table", "--max-n", "2", "--format", "xml"])


def test_cmd_table_unknown_format_raises_value_error():
    with pytest.raises(ValueError, match="xml"):
        cli.cmd_table(2, "xml")


# ---------- input validation ----------

@pytest.mark.parametrize("argv", [
    ["count", "--n", "0"],
    ["xenum", "--n", "0"],
    ["bseq", "--max-n", "0"],
    ["table", "--max-n", "0"],
    ["count", "--n", "20", "--method", "transfer"],
    ["count", "--n", "195"],
    ["count", "--n", "3", "--method", "brute,transfer,brute"],
    ["bseq", "--max-n", "18"],
    ["verify", "ybe", "--workers", "0"],
    ["verify", "ybe", "--workers", "-1"],
    ["verify", "ybe", "--workers", str((os.cpu_count() or 1) + 1)],
    ["verify", "ybe", "--seed", "-1"],
    ["verify", "ybe", "--seed", "one"],
    ["verify", "cauchy", "--n", "40"],
    ["verify", "all", "--n", "40"],
    ["xenum", "--n", "4", "--at", "1e3000"],
    ["xenum", "--n", "1", "--at", "1e5000"],
    ["xenum", "--n", "3", "--at", "1" * 4301],
])
def test_bad_size_exits_2_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("asmice") and "error: " in err and argv[0] in err


# ---------- report plumbing ----------

def test_run_returns_report():
    report = cli.run(["count", "--n", "5", "--method", "transfer,formula"])
    assert report.command == "count"
    assert report.outputs == ["429"]
    assert report.checks == [("methods-agree", True,
                              "transfer=429, formula=429")]
    assert report.passed and report.exit_code == 0
    assert report.wall_time >= 0.0


def test_failed_check_sets_exit_code():
    report = cli.RunReport("probe", {})
    report.add_check("good", True)
    assert report.exit_code == 0
    report.add_check("bad", False, "broken")
    assert not report.passed
    assert report.exit_code == 1


def test_xenum_matches_transfer_directly(capsys):
    assert cli.main(["xenum", "--n", "5"]) == 0
    assert lines_of(capsys) == [str(transfer_count(5))]


# ---------- what a command loads ----------

def loaded_after(code):
    """The modules a fresh interpreter has loaded after running code."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "asmice", "count", "--n", "3"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["7"]


def test_counting_commands_load_no_verify_machinery():
    loaded = loaded_after(
        "from asmice import cli\n"
        "cli.run(['count', '--n', '6',\n"
        "         '--method', 'brute,transfer,formula'])\n"
        "cli.run(['table', '--max-n', '5', '--format', 'json'])")
    unwanted = {"asmice.laurent", "asmice.cyclotomic", "asmice.verify",
                "concurrent.futures.process", "csv"}
    assert loaded & unwanted == set()
    assert "asmice.transfer" in loaded


def test_bare_package_import_loads_no_module():
    loaded = loaded_after("import asmice")
    assert "asmice" in loaded
    assert {m for m in loaded if m.startswith("asmice.")} == set()


def test_serial_suite_loads_no_process_pool():
    loaded = loaded_after(
        "from asmice import verify\n"
        "assert all(r.passed for r in verify.run_suite('ybe'))")
    assert "asmice.verify" in loaded
    assert "concurrent.futures.process" not in loaded
