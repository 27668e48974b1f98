"""Command-line front end, exercised in process through main()/run()."""

import csv
import io
import json
import os

import pytest

from asmice import cli, formulas
from asmice.transfer import transfer_count


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


def test_count_unknown_method():
    with pytest.raises(SystemExit):
        cli.main(["count", "--n", "3", "--method", "magic"])


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


def test_xenum_bad_rational():
    with pytest.raises(SystemExit):
        cli.main(["xenum", "--n", "3", "--at", "pi"])


def test_xenum_bound():
    with pytest.raises(SystemExit):
        cli.main(["xenum", "--n", "99"])


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


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        cli.main(["verify", "everything"])


# ---------- table ----------

def test_table_json(capsys):
    assert cli.main(["table", "--max-n", "3", "--format", "json"]) == 0
    rows = [json.loads(l) for l in lines_of(capsys)]
    assert [r["n"] for r in rows] == [1, 2, 3]
    assert rows[2] == {"n": 3, "a1": "7", "a2": "8", "a3": "9",
                       "poly": ["6", "1"]}


def test_table_csv(capsys):
    assert cli.main(["table", "--max-n", "4", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["n", "a1", "a2", "a3", "poly"]
    assert rows[4] == ["4", "42", "64", "90", "24;16;2"]


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
    ["count", "--n", "3", "--method", "brute,transfer,brute"],
    ["bseq", "--max-n", "18"],
    ["verify", "ybe", "--workers", "0"],
    ["verify", "ybe", "--workers", "-1"],
    ["verify", "ybe", "--workers", str((os.cpu_count() or 1) + 1)],
    ["verify", "ybe", "--seed", "-1"],
    ["verify", "ybe", "--seed", "one"],
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
