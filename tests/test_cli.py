from __future__ import annotations

import json
from pathlib import Path

import pytest

from budgetmech.cli import (
    EXIT_GUARD,
    EXIT_INCOMPATIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VIOLATION,
    load_instance_file,
    main,
    parse_instance_doc,
    render_instance_doc,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "name", ["equal_pair.json", "golden_pair.json", "zero_costs_n3.json", "conflict_family.json"]
)
def test_fixture_round_trip(name):
    instance, family = load_instance_file(str(FIXTURES / name))
    doc = render_instance_doc(instance, family)
    instance2, family2 = parse_instance_doc(doc)
    assert instance2 == instance
    assert family2 == family


def test_run_equal_pair_reports_ratio_two(capsys):
    code, out, _ = run_cli(capsys, "run", str(FIXTURES / "equal_pair.json"), "--mechanism", "moww")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["ratio"] == "2/1"
    assert report["total_payment_ticks"] == 4
    assert sum(report["allocation"]) == 1


def test_run_zero_costs_pays_budget_to_last_ranked(capsys):
    code, out, _ = run_cli(capsys, "run", str(FIXTURES / "zero_costs_n3.json"), "--mechanism", "ww")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["allocation"] == [1, 1, 1]
    assert report["payments_ticks"] == [0, 0, 4]
    assert report["ratio"] == "1/1"


def test_run_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(bad), "--mechanism", "ww")
    assert code == EXIT_PARSE
    assert "parse error" in err


@pytest.mark.parametrize(
    "edit",
    [
        {"costs_ticks": [1.9, 1]},
        {"costs_ticks": [True, 1]},
        {"n": 2.0},
        {"budget_ticks": True},
        {"valuation": {"kind": "additive", "values": [0.1, 1]}},
        {"valuation": {"kind": "additive", "values": [True, 1]}},
        {"valuation": {"kind": "table", "entries": {"": 0, "0": 0.5, "1": "1", "0,1": "1"}}},
    ],
)
def test_run_inexact_json_numbers_exit_2(tmp_path, capsys, edit):
    doc = json.loads((FIXTURES / "equal_pair.json").read_text(encoding="utf-8"))
    doc.update(edit)
    path = tmp_path / "inexact.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path), "--mechanism", "moww")
    assert code == EXIT_PARSE
    assert out == "" and "parse error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--random", "2", "3", "1", "1", "--mechanism", "ww", "--mutate", "bogus"],
        ["verify", "--random", "2", "0", "1", "1", "--mechanism", "ww"],
        ["verify", "--random", "0", "3", "1", "1", "--mechanism", "ww"],
        ["table", "--mechanisms", "moww", "--trials", "0", "--n", "2", "--k", "2"],
        ["table", "--mechanisms", "moww", "--n", "2", "--k", "0", "--trials", "1"],
        ["table", "--mechanisms", ",", "--n", "2", "--k", "2"],
        ["table", "--mechanisms", "mr", "--n", "2", "--k", "4", "--trials", "1", "--ell", "0"],
        ["run", str(FIXTURES / "golden_pair.json"), "--mechanism", "mr", "--ell", "2", "--spec-index", "9"],
        ["verify", "--random", "2", "3", "0", "1", "--mechanism", "ww"],
        ["verify", "--random", "2", "3", "-1", "1", "--mechanism", "ww"],
    ],
)
def test_bad_arguments_exit_2(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argument itself
        code = exc.code
    assert code == EXIT_PARSE
    assert "Traceback" not in capsys.readouterr().err


def test_run_missing_file_exits_2(capsys):
    code, _, _ = run_cli(capsys, "run", "/nonexistent/instance.json", "--mechanism", "ww")
    assert code == EXIT_PARSE


def test_run_dp_solver_on_table_instance_exits_3(tmp_path, capsys):
    doc = {
        "n": 2,
        "budget_ticks": 4,
        "valuation": {"kind": "table", "entries": {"": "0", "0": "3", "1": "3", "0,1": "4"}},
        "costs_ticks": [1, 1],
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(path), "--mechanism", "ww", "--solver", "dp")
    assert code == EXIT_INCOMPATIBLE
    assert "additive" in err


def test_run_constrained_without_family_exits_3(capsys):
    code, _, _ = run_cli(
        capsys, "run", str(FIXTURES / "equal_pair.json"), "--mechanism", "moww-constrained"
    )
    assert code == EXIT_INCOMPATIBLE


def test_run_mr_with_finite_family(capsys):
    code, out, _ = run_cli(
        capsys, "run", str(FIXTURES / "golden_pair.json"),
        "--mechanism", "mr", "--ell", "2", "--spec-index", "1",
    )
    assert code == EXIT_OK
    json.loads(out)


def test_verify_random_additive_all_hold(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--random", "3", "4", "2", "11",
        "--mechanism", "ww", "--properties", "ir,np,bf,bnom",
    )
    assert code == EXIT_OK
    assert json.loads(out)["all_hold"] is True


def test_verify_mutant_fails_with_witness(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--random", "3", "4", "1", "11",
        "--mechanism", "ww", "--mutate", "no_wooden_spoon", "--properties", "wnom",
    )
    assert code == EXIT_VIOLATION
    report = json.loads(out)["scenarios"][0]["reports"][0]
    assert report["holds"] is False
    assert "witness" in report


def test_verify_structural_mutant_of_other_mechanism_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--random", "2", "3", "1", "1",
        "--mechanism", "golden", "--mutate", "no_golden_ticket",
    )
    assert code == EXIT_INCOMPATIBLE
    assert "willy_wonka only" in err


def test_verify_mutant_that_cannot_run_exits_3_before_the_scan(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--random", "1", "3", "1", "1",
        "--mechanism", "ww", "--mutate", "double_B",
    )
    assert code == EXIT_INCOMPATIBLE
    assert out == "" and "double_B needs at least two agents" in err


def test_verify_guard_exits_4(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--random", "6", "10", "1", "0",
        "--mechanism", "ww", "--properties", "bnom",
    )
    assert code == EXIT_GUARD
    assert "guard" in err


def test_verify_instance_file_crosscheck(capsys):
    code, out, _ = run_cli(
        capsys, "verify", str(FIXTURES / "zero_costs_n3.json"),
        "--mechanism", "ww", "--properties", "ir,np,bf,gt,ws,rgt,crosscheck",
    )
    assert code == EXIT_OK
    reports = json.loads(out)["scenarios"][0]["reports"]
    names = [r["property"] for r in reports]
    assert "crosscheck" in names and "threshold_gt" in names


def test_gap_conflict_family(capsys):
    code, out, _ = run_cli(capsys, "gap", str(FIXTURES / "conflict_family.json"))
    assert code == EXIT_OK
    assert out == "4/1\nattained forcing agent 1 into S={0,1}\n"


def test_gap_without_family_is_one(capsys):
    code, out, _ = run_cli(capsys, "gap", str(FIXTURES / "equal_pair.json"))
    assert code == EXIT_OK
    assert out.strip() == "1/1"


def test_gap_single_agent(tmp_path, capsys):
    doc = {
        "n": 1,
        "budget_ticks": 4,
        "valuation": {"kind": "additive", "values": ["3"]},
        "costs_ticks": [2],
        "feasibility": ["", "0"],
    }
    path = tmp_path / "single.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "gap", str(path))
    assert code == EXIT_OK
    assert out.splitlines()[0] == "1/1"


def test_table_deterministic_and_bounds_respected(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = [
        "table", "--mechanisms", "moww,golden", "--valuation-class", "subadditive",
        "--trials", "3", "--n", "2", "--k", "4", "--seed", "5",
    ]
    assert main(args + ["--out", str(out_a)]) == EXIT_OK
    assert main(args + ["--out", str(out_b)]) == EXIT_OK
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0] == "mechanism,class,n,k,trials,worst_ratio,mean_ratio,bound,bound_respected"
    for line in lines[1:]:
        assert line.endswith(",true")
    golden_row = next(line for line in lines if line.startswith("golden"))
    assert ",phi," in golden_row


def test_table_mr_row_respects_family_bound(tmp_path, capsys):
    out_path = tmp_path / "mr.csv"
    code = main([
        "table", "--mechanisms", "mr", "--valuation-class", "additive",
        "--trials", "2", "--n", "2", "--k", "16", "--seed", "5",
        "--ell", "4", "--profiles", "30", "--out", str(out_path),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    rows = out_path.read_text().splitlines()
    fields = rows[1].split(",")
    assert fields[7] == "2/1"  # ell/(ell-n) with ell=4, n=2
    assert fields[8] == "true"


def test_table_unwritable_path_exits_5(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "table", "--mechanisms", "moww", "--trials", "1",
        "--n", "2", "--k", "2", "--out", str(tmp_path),
    )
    assert code == EXIT_IO


def test_cli_reports_are_newline_terminated(capsys):
    code, out, _ = run_cli(capsys, "gap", str(FIXTURES / "conflict_family.json"))
    assert code == EXIT_OK
    assert out.endswith("\n")
