"""Command-line surface: output formats, exit codes, determinism."""

import argparse
import concurrent.futures
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import thresholdkit.cli as cli
from thresholdkit.cli import main, SWEEP_COLUMNS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# ct
# ---------------------------------------------------------------------------

def test_ct_text_output(capsys):
    code, out, _ = run(capsys, "ct", "x^3+y^7+z^11")
    assert code == 0
    assert "value: 1/2" in out
    assert "witnesses: (2,1,1)" in out
    assert "status: complete" in out


def test_ct_json_output_and_round_trip(capsys):
    code, out, _ = run(capsys, "ct", "x^3+y^7+z^11", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == {"num": 1, "den": 2}
    assert obj["witnesses"] == [[2, 1, 1]]
    assert obj["relaxation"] == {"num": 131, "den": 231}
    assert obj["search_bound"] == 9
    assert obj["status"] == "complete"
    # parsing the emitted JSON and re-rendering is byte-identical
    assert json.dumps(obj) + "\n" == out


def test_ct_comparison_value(capsys):
    code, out, _ = run(capsys, "ct", "x^2+y^4+z^4")
    assert code == 0
    assert "value: 3/4" in out


def test_ct_unit_exits_2(capsys):
    code, _, err = run(capsys, "ct", "1 + x")
    assert code == 2
    assert "unit" in err


def test_ct_parse_error_exits_1(capsys):
    code, _, err = run(capsys, "ct", "x^0")
    assert code == 1
    assert "error" in err


def test_ct_parse_error_message_and_position(capsys):
    code, out, err = run(capsys, "ct", "x^2 + + y")
    assert code == 1
    assert out == ""
    assert err == "parse error: expected a term, found '+' (position 6)\n"


def test_ct_non_ascii_digit_is_a_parse_error(capsys):
    code, out, err = run(capsys, "ct", "x^\u0663+y^2+z^2")
    assert code == 1
    assert out == ""
    assert err == "parse error: unexpected character '\u0663' (position 2)\n"


def test_ct_over_long_integer_is_a_parse_error(capsys):
    code, out, err = run(capsys, "ct", "x^" + "9" * 5000 + "+y^2+z^2")
    assert code == 1
    assert out == ""
    assert err == "parse error: integer of 5000 digits is too long (position 2)\n"


def test_ct_cancelling_terms_leave_the_support(capsys):
    # x^2 - x^2 cancels: the polynomial is y^3 + z^5, value 1/3, not 1
    code, cancelled, _ = run(capsys, "ct", "x^2-x^2+y^3+z^5", "--json")
    assert code == 0
    assert cancelled == run(capsys, "ct", "y^3+z^5", "--json")[1]
    assert json.loads(cancelled)["value"] == {"num": 1, "den": 3}
    code, out, err = run(capsys, "ct", "x-x")
    assert code == 1
    assert out == ""
    assert err == "parse error: zero polynomial: no terms with nonzero coefficient\n"


def test_ct_bound_exceeded_exits_3(capsys):
    code, out, _ = run(capsys, "ct", "x^5", "--max-bound", "8")
    assert code == 3
    assert "status: bound-exceeded" in out


def test_ct_env_var_controls_bound(capsys, monkeypatch):
    monkeypatch.setenv("THRESHOLDKIT_MAX_BOUND", "8")
    code, out, _ = run(capsys, "ct", "x^5")
    assert code == 3
    monkeypatch.setenv("THRESHOLDKIT_MAX_BOUND", "abc")
    code, out, err = run(capsys, "ct", "x^5")
    assert code == 1
    assert out == ""
    assert "THRESHOLDKIT_MAX_BOUND must be an integer, got 'abc'" in err
    monkeypatch.delenv("THRESHOLDKIT_MAX_BOUND")


def test_ct_brute_flag(capsys):
    code, out, _ = run(capsys, "ct", "x^2+y^3+z^6", "--brute", "10", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == {"num": 5, "den": 6}
    assert obj["search_bound"] == 10


def test_ct_diagram_file_input(tmp_path, capsys):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps({"n": 3, "points": [[3, 0, 0], [0, 7, 0], [0, 0, 11]]}))
    code, out, _ = run(capsys, "ct", str(path))
    assert code == 0
    assert "value: 1/2" in out


def test_ct_explicit_vars(capsys):
    code, out, _ = run(capsys, "ct", "x^2+y^3", "--vars", "x,y")
    assert code == 0
    assert "value: 1/2" in out
    assert "witnesses: (1,1)" in out


def test_ct_vars_that_are_not_one_token_exit_1(capsys):
    # a name the tokenizer never reads as one variable was accepted, exit 0
    for names in ("x,y,z_1", "x,y,2"):
        code, out, err = run(capsys, "ct", "x+y", "--vars", names)
        assert code == 1, names
        assert out == ""
        bad = names.split(",")[-1]
        assert err == f"error: variable name {bad!r} is not a letter followed by letters and digits\n"


def test_vars_with_diagram_file_exits_1(tmp_path, capsys):
    # the file's JSON fixes the dimension; names were ignored, even too few
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps({"n": 3, "points": [[3, 0, 0], [0, 7, 0], [0, 0, 11]]}))
    for argv in (["ct", str(path), "--vars", "a,b"], ["ct", str(path), "--vars", "x,y,z"],
                 ["lct", str(path), "--vars", "a"], ["verify", str(path), "1/2", "--vars", "a,b"]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err == "error: --vars applies to polynomial text, not to a diagram file\n"


DEEP_JSON = "[" * 100000 + "]" * 100000


def test_deeply_nested_diagram_file_exits_1(tmp_path, capsys):
    # the decoder's RecursionError escaped as a traceback
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    for argv in (["ct", str(path)], ["lct", str(path)], ["verify", str(path), "1/2"]):
        assert run(capsys, *argv) == (1, "", "error: diagram JSON is nested too deeply\n"), argv


def test_diagram_file_is_decoded_once(tmp_path, capsys):
    # a JSON string holding a diagram document was decoded a second time and accepted
    path = tmp_path / "double.json"
    path.write_text(json.dumps(json.dumps({"n": 3, "points": [[2, 0, 0], [0, 3, 0], [0, 0, 5]]})))
    assert run(capsys, "ct", str(path)) == (
        1, "", 'error: diagram JSON must be an object {"n": ..., "points": [...]}\n')


def test_ct_brute_with_max_bound_exits_1(capsys):
    # the box cap bounds the oracle; --max-bound was ignored, even 1
    for bound in ("1", "10", "100"):
        code, out, err = run(capsys, "ct", "x^2+y^3+z^6", "--brute", "10", "--max-bound", bound)
        assert code == 1
        assert out == ""
        assert err == "error: --max-bound does not apply with --brute, whose cap bounds the box\n"


def test_engine_invariant_failure_exits_4(capsys, monkeypatch):
    from thresholdkit.newton import NewtonDiagram

    real = NewtonDiagram.maximin.func

    def halved(diagram):
        sol = real(diagram)
        return dataclasses.replace(sol, d=2 * sol.d)  # t* halved

    monkeypatch.setattr(NewtonDiagram, "maximin", property(halved))
    code, out, err = run(capsys, "ct", "x^3+y^7+z^11")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ") and "exceeds" in err


# ---------------------------------------------------------------------------
# lct
# ---------------------------------------------------------------------------

def test_lct_text(capsys):
    code, out, _ = run(capsys, "lct", "x^3+y^7+z^11")
    assert code == 0
    assert out.strip() == "131/231"
    code, out, _ = run(capsys, "lct", "x^3+y^7+z^11", "--json")
    assert code == 0
    assert out == '{"value": {"num": 131, "den": 231}}\n'


def test_lct_boundary(capsys):
    code, out, _ = run(capsys, "lct", "x^2+y^3+z^6")
    assert code == 0
    assert out.strip() == "1"


# ---------------------------------------------------------------------------
# brieskorn
# ---------------------------------------------------------------------------

def test_brieskorn_output(capsys):
    code, out, _ = run(capsys, "brieskorn", "5", "6", "29")
    assert code == 0
    assert "value: 3/8" in out
    assert "case: s1" in out
    assert "weight: (5,4,1)" in out
    assert "s1=3/8" in out


def test_brieskorn_verify_agrees(capsys):
    code, out, _ = run(capsys, "brieskorn", "2", "3", "6", "--verify")
    assert code == 0
    assert "value: 5/6" in out
    assert "case: lcm-rule" in out


def test_brieskorn_verify_bound_exceeded_exits_3(capsys):
    code, out, err = run(capsys, "brieskorn", "2", "3", "97", "--verify", "--max-bound", "10")
    assert code == 3
    assert out == ""
    assert "engine search bound exceeded during --verify" in err


def test_brieskorn_max_bound_without_verify_exits_1(capsys):
    for argv in (["2", "3", "97", "--max-bound", "10"], ["2", "3", "5", "--json", "--max-bound", "1"]):
        code, out, err = run(capsys, "brieskorn", *argv)
        assert code == 1
        assert out == ""
        assert err == "error: --max-bound applies only with --verify\n"


def test_brieskorn_verify_mismatch_exits_4(capsys, monkeypatch):
    real = cli.brieskorn_threshold
    monkeypatch.setattr(cli, "brieskorn_threshold",
                        lambda a, b, c: dataclasses.replace(real(a, b, c), value=Fraction(1, 2)))
    code, out, err = run(capsys, "brieskorn", "2", "3", "6", "--verify")
    assert code == 4
    assert out == ""
    assert "closed form 1/2 disagrees with engine 5/6" in err


def test_brieskorn_bad_arguments_exit_1(capsys):
    code, out, err = run(capsys, "brieskorn", "1", "2", "3")
    assert code == 1
    assert out == ""
    assert "exponents must satisfy 2 <= a <= b <= c, got (1, 2, 3)" in err


def test_brieskorn_non_integer_exit_1(capsys):
    code, _, _ = run(capsys, "brieskorn", "a", "2", "3")
    assert code == 1


def test_brieskorn_json(capsys):
    code, out, _ = run(capsys, "brieskorn", "2", "2", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == {"num": 1, "den": 1}
    assert obj["case"] == "lcm-rule"
    assert "s_values" not in obj
    code, out, _ = run(capsys, "brieskorn", "5", "6", "29", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "s1"
    assert obj["s_values"] == {
        "s1": {"num": 3, "den": 8}, "s2": {"num": 2, "den": 5},
        "s3": {"num": 11, "den": 29}, "k1": 4, "k2": 1,
    }


@pytest.mark.parametrize("triple, expected", [
    ("5 6 29", '{"value": {"num": 3, "den": 8}, "case": "s1", "weight": [5, 4, 1], '
               '"lct": {"num": 349, "den": 870}, "s_values": {"s1": {"num": 3, "den": 8}, '
               '"s2": {"num": 2, "den": 5}, "s3": {"num": 11, "den": 29}, "k1": 4, "k2": 1}}'),
    ("2 3 5", '{"value": {"num": 1, "den": 1}, "case": "clamp-1", "weight": [1, 1, 1], '
              '"lct": {"num": 1, "den": 1}, "s_values": {"s1": {"num": 1, "den": 1}, '
              '"s2": {"num": 1, "den": 1}, "s3": {"num": 1, "den": 1}, "k1": 1, "k2": 1}}'),
    ("2 3 7", '{"value": {"num": 5, "den": 6}, "case": "lcm-rule", "weight": [3, 2, 1], '
              '"lct": {"num": 41, "den": 42}}'),
], ids=["s1", "clamp-1", "lcm-rule"])
def test_brieskorn_json_bytes(capsys, triple, expected):
    # the key order, s-values included, is part of the output
    assert run(capsys, "brieskorn", *triple.split(), "--json") == (0, expected + "\n", "")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_small(capsys):
    code, out, err = run(capsys, "sweep", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    row236 = next(line for line in lines if line.startswith("2,3,6,"))
    assert row236 == "2,3,6,5,6,lcm-rule,3,2,1,1,1,true"
    assert "0 violations" in err


def test_sweep_40_is_pinned(capsys):
    # case, weight and lct of every triple up to 40, byte for byte
    code, out, err = run(capsys, "sweep", "40")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "bcaef95c26ddfea2f0499859479e1ba521f92a7e6e5cb2cb356b3b72e07e97a7"
    assert err == "sweep: 10660 triples, 0 violations; values in [4/5, 1]: 5/6, 1\n"


def test_sweep_trivial(capsys):
    code, out, _ = run(capsys, "sweep", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("2,2,2,1,1,lcm-rule")


def test_sweep_deterministic(capsys):
    _, first, _ = run(capsys, "sweep", "5")
    _, second, _ = run(capsys, "sweep", "5")
    assert first == second


def test_sweep_rejects_bad_max(capsys):
    code, out, err = run(capsys, "sweep", "1")
    assert code == 1
    assert out == ""
    assert "argument max: must be at least 2, got 1" in err


def test_sweep_parallel_matches_serial(capsys):
    _, serial, _ = run(capsys, "sweep", "4")
    _, parallel, _ = run(capsys, "sweep", "4", "--parallel", "2")
    assert serial == parallel


def _patched_value(value):
    real = cli.brieskorn_threshold
    return lambda a, b, c: dataclasses.replace(real(a, b, c), value=value)


def _sweep_violation(capsys, message, values):
    # serial, so the patched functions run in this process
    code, out, err = run(capsys, "sweep", "2")
    assert code == 4
    assert out.split("\n")[0] == ",".join(SWEEP_COLUMNS)
    assert err == (f"sweep: 1 triples, 1 violations; values in [4/5, 1]: {values}\n"
                   f"sweep violation: (2, 2, 2): {message}\n")


def test_sweep_engine_disagreement_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brieskorn_threshold", _patched_value(Fraction(1, 2)))
    _sweep_violation(capsys, "closed form 1/2 != engine value", "none")


def test_sweep_value_in_a_gap_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brieskorn_threshold", _patched_value(Fraction(9, 10)))
    monkeypatch.setattr(cli, "_engine_brieskorn", lambda a, b, c, max_bound: Fraction(9, 10))
    _sweep_violation(capsys, "value 9/10 falls in the forbidden gap", "9/10")


def test_sweep_lct_below_ct_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "lct_brieskorn", lambda exponents: Fraction(1, 2))
    _sweep_violation(capsys, "lct 1/2 below ct 1", "1")


_SWEEP_4_CAPPED_AT_3 = """\
a,b,c,ct_num,ct_den,case,w1,w2,w3,lct_num,lct_den,agrees
2,2,2,1,1,lcm-rule,1,1,1,1,1,true
2,2,3,1,1,lcm-rule,1,1,1,1,1,false
2,2,4,1,1,lcm-rule,1,1,1,1,1,false
2,3,3,1,1,clamp-1,1,1,1,1,1,false
2,3,4,1,1,clamp-1,1,1,1,1,1,false
2,4,4,3,4,lcm-rule,2,1,1,1,1,false
3,3,3,2,3,lcm-rule,1,1,1,1,1,true
3,3,4,2,3,lcm-rule,1,1,1,11,12,false
3,4,4,2,3,s2,1,1,1,5,6,false
4,4,4,1,2,lcm-rule,1,1,1,3,4,true
"""


def test_sweep_capped_triples_exit_3(capsys):
    # a capped search is no disagreement: its row still reads false, and
    # stderr names the triple instead of a violation
    code, out, err = run(capsys, "sweep", "4", "--max-bound", "3")
    assert code == 3
    assert out == _SWEEP_4_CAPPED_AT_3
    capped = ["(2, 2, 3)", "(2, 2, 4)", "(2, 3, 3)", "(2, 3, 4)",
              "(2, 4, 4)", "(3, 3, 4)", "(3, 4, 4)"]
    assert err == "sweep: 10 triples, 0 violations; values in [4/5, 1]: 1\n" + "".join(
        f"sweep: engine search bound exceeded for {t}\n" for t in capped)


def test_sweep_disagreement_with_a_capped_triple_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brieskorn_threshold", _patched_value(Fraction(1, 2)))
    code, _, err = run(capsys, "sweep", "3", "--max-bound", "3")
    assert code == 4
    assert err == ("sweep: 4 triples, 2 violations; values in [4/5, 1]: none\n"
                   "sweep violation: (2, 2, 2): closed form 1/2 != engine value\n"
                   "sweep violation: (3, 3, 3): closed form 1/2 != engine value\n"
                   "sweep: engine search bound exceeded for (2, 2, 3)\n"
                   "sweep: engine search bound exceeded for (2, 3, 3)\n")


@pytest.mark.parametrize("value", ["0", "-4"])
@pytest.mark.parametrize("command", ["sweep", "batch"])
def test_parallel_below_one_exits_1(tmp_path, capsys, command, value):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text('"x^2+y^3+z^6"\n')
    code, out, err = run(capsys, command, "3" if command == "sweep" else str(jobs),
                         "--parallel", value)
    assert code == 1
    assert out == ""
    assert f"argument --parallel: must be at least 1, got {value}" in err


def test_parallel_not_an_integer_exits_1(capsys):
    code, out, err = run(capsys, "sweep", "3", "--parallel", "abc")
    assert code == 1
    assert out == ""
    assert "argument --parallel: invalid int value: 'abc'" in err


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def test_batch_three_worked_examples(tmp_path, capsys):
    path = tmp_path / "jobs.jsonl"
    path.write_text(
        '"x^3+y^7+z^11"\n'
        '"x^5+y^6+z^29"\n'
        '"x^12+y^18+z^35"\n'
    )
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    results = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["value"] for r in results] == [
        {"num": 1, "den": 2}, {"num": 3, "den": 8}, {"num": 1, "den": 7},
    ]


def test_batch_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert out == ""


def test_batch_error_line(tmp_path, capsys):
    path = tmp_path / "jobs.jsonl"
    path.write_text('"x^0"\n"x^2+y^2+z^2"\nnot json\n5\n')
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 1
    results = [json.loads(line) for line in out.strip().split("\n")]
    assert "error" in results[0]
    assert results[1]["value"] == {"num": 1, "den": 1}
    assert results[2]["error"].startswith("invalid JSON: ")
    assert results[3] == {"error": "line must be a polynomial string or a diagram object"}


def test_batch_parse_error_lines_carry_message_and_position(tmp_path, capsys):
    path = tmp_path / "jobs.jsonl"
    path.write_text('"x^2 + + y"\n"3x"\n')
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 1
    assert out == (
        '{"error": "expected a term, found \'+\' (position 6)"}\n'
        '{"error": "expected \'*\' between coefficient and factor (position 1)"}\n'
    )


def test_batch_digit_errors_are_error_lines(tmp_path, capsys):
    path = tmp_path / "jobs.jsonl"
    lines = ["x^" + "9" * 5000 + "+y^2+z^2", "x^\u0663+y^2+z^2", "x^2+y^3+z^7"]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 1
    results = [json.loads(line) for line in out.splitlines()]
    assert results[:2] == [
        {"error": "integer of 5000 digits is too long (position 2)"},
        {"error": "unexpected character '\u0663' (position 2)"},
    ]
    assert results[2]["value"] == {"num": 5, "den": 6}


def test_batch_diagram_objects(tmp_path, capsys):
    path = tmp_path / "jobs.jsonl"
    path.write_text('{"n": 3, "points": [[2, 0, 0], [0, 3, 0], [0, 0, 6]]}\n')
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0
    assert json.loads(out)["value"] == {"num": 5, "den": 6}


def test_batch_out_file_atomic(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text('"x^2+y^3+z^6"\n')
    out_path = tmp_path / "results.jsonl"
    code, out, _ = run(capsys, "batch", str(jobs), "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["value"] == {"num": 5, "den": 6}
    assert not list(tmp_path.glob(".batch-*"))


def test_batch_out_file_failed_replace_leaves_target_and_no_temp(tmp_path, capsys, monkeypatch):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text('"x^2+y^3+z^6"\n')
    out_path = tmp_path / "results.jsonl"
    out_path.write_text("old\n")

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", str(dst))

    monkeypatch.setattr(cli.os, "replace", refuse)
    code, out, err = run(capsys, "batch", str(jobs), "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: [Errno 13] Permission denied")
    assert out_path.read_text() == "old\n"
    assert not list(tmp_path.glob(".batch-*.tmp"))


@pytest.mark.parametrize("by_env", [False, True])
def test_batch_bad_cap_exits_1_before_any_job(tmp_path, capsys, monkeypatch, by_env):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text('"x^2+y^3+z^6"\n"x^3+y^7+z^11"\n')
    out_path = tmp_path / "results.jsonl"
    out_path.write_text("old\n")
    argv = ["batch", str(jobs), "--out", str(out_path)]
    if by_env:
        monkeypatch.setenv("THRESHOLDKIT_MAX_BOUND", "1")
    else:
        argv += ["--max-bound", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: max_bound must be an integer >= 2, got 1\n"
    assert out_path.read_text() == "old\n"
    assert not list(tmp_path.glob(".batch-*.tmp"))
    code, out, err = run(capsys, *argv[:2] + argv[4:])  # to stdout
    assert (code, out) == (1, "")
    assert err == "error: max_bound must be an integer >= 2, got 1\n"


def test_batch_parallel_matches_serial(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text('"x^3+y^7+z^11"\n"x^2+y^4+z^4"\n"x^2+y^3+z^6"\n"x^0"\n')
    code_s, serial, _ = run(capsys, "batch", str(jobs))
    code_p, parallel, _ = run(capsys, "batch", str(jobs), "--parallel", "2")
    assert code_s == code_p == 1
    assert serial == parallel


def test_batch_bound_exceeded_line_exits_3(tmp_path, capsys):
    # as for ct, a report that ends bound-exceeded makes the exit 3; an error
    # line anywhere makes it 1; serial and parallel runs agree
    jobs = tmp_path / "jobs.jsonl"
    for lines, code, statuses in [
        (['"x^3+y^7+z^11"', '"x^5"'], 3, ["complete", "bound-exceeded"]),
        (['"x^3+y^7+z^11"', '"x^5"', '"1+x"'], 1, ["complete", "bound-exceeded", None]),
    ]:
        jobs.write_text("".join(line + "\n" for line in lines))
        for parallel in ([], ["--parallel", "2"]):
            got, out, err = run(capsys, "batch", str(jobs), "--max-bound", "10", *parallel)
            assert (got, err) == (code, "")
            assert [json.loads(line).get("status") for line in out.splitlines()] == statuses


def test_parallel_workers_bounded_by_jobs_and_cpus(tmp_path, capsys, monkeypatch):
    built = []

    class RecordingPool:
        """Records max_workers and maps in-process: no process is started."""

        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    # cli._map imports the pool from concurrent.futures when it builds one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text('"x^3+y^7+z^11"\n"x^2+y^3+z^6"\n')
    _, serial, _ = run(capsys, "batch", str(jobs))
    code, parallel, _ = run(capsys, "batch", str(jobs), "--parallel", "64")
    assert code == 0
    assert parallel == serial
    assert built == [2]
    code, _, _ = run(capsys, "sweep", "2", "--parallel", "64")  # one triple
    assert code == 0
    assert built == [2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    code, _, _ = run(capsys, "batch", str(jobs), "--parallel", "64")
    assert code == 0
    assert built == [2]


def test_batch_malformed_diagram_line_is_per_line_error(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text('{"n": 3, "points": 5}\n"x^2+y^3+z^6"\n{"n": 3, "points": [1, 2]}\n'
                    '{"n": 3, "points": []}\n')
    code, out, err = run(capsys, "batch", str(jobs))
    assert code == 1
    assert err == ""
    results = [json.loads(line) for line in out.strip().split("\n")]
    assert "error" in results[0] and "error" in results[2]
    assert results[1]["value"] == {"num": 5, "den": 6}
    assert out.splitlines()[3] == '{"error": "support set must be nonempty"}'


def test_batch_deeply_nested_line_is_per_line_error(tmp_path, capsys):
    # the decoder's RecursionError escaped, and no line was written for any job
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text('"x^3+y^7+z^11"\n' + DEEP_JSON + "\n")
    first = run(capsys, "ct", "x^3+y^7+z^11", "--json")[1]
    for parallel in ([], ["--parallel", "2"]):
        assert run(capsys, "batch", str(jobs), *parallel) == (
            1, first + '{"error": "invalid JSON: nested too deeply"}\n', ""), parallel


def test_batch_unit_line_is_per_line_error(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text('"1 + x"\n')
    code, out, _ = run(capsys, "batch", str(jobs))
    assert code == 1
    assert "unit" in json.loads(out)["error"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_true(capsys):
    code, out, _ = run(capsys, "verify", "x^2+y^3+z^6", "5/6")
    assert code == 0
    assert out == "certified: 5/6 realized by (3,2,1)\n"


def test_verify_false(capsys):
    code, out, _ = run(capsys, "verify", "x^3+y^7+z^11", "2/3")
    assert code == 4
    assert out == "not certified: (2,1,1) gives 1/2 < 2/3\n"
    code, out, _ = run(capsys, "verify", "x+y+z", "1/2")
    assert code == 4
    assert out == "not certified: threshold is 1 (clamped), not 1/2\n"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "x^3+y^7+z^11", "1/2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["certified"] is True
    assert obj["witness"] == [2, 1, 1]


def test_verify_bad_threshold(capsys):
    code, out, err = run(capsys, "verify", "x^2+y^2+z^2", "7/5")
    assert code == 1
    assert out == ""
    assert "candidate threshold must lie in (0, 1], got 7/5" in err
    code, out, err = run(capsys, "verify", "x^2+y^2+z^2", "abc")
    assert code == 1
    assert out == ""
    assert "not a fraction: 'abc'" in err


def test_verify_bound_exceeded_exits_3(capsys):
    code, out, err = run(capsys, "verify", "x^5", "1/2", "--max-bound", "8")
    assert code == 3
    assert out == ""
    assert "weight search exceeded bound 8; cannot certify" in err


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def test_unknown_command_exits_1(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["ct", "x^2+y^3+z^6", "--parallel", "2"],
    ["lct", "x^2+y^3+z^6", "--max-bound", "5"],
    ["sweep", "3", "--json"],
])
def test_option_not_taken_by_subcommand_exits_1(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == ""


def test_documented_options_match_parser():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actual = {
        name: {opt for action in sub._actions for opt in action.option_strings
               if opt not in ("-h", "--help")}
        for name, sub in subparsers.choices.items()
    }
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {m.group(1): set(re.findall(r"--[a-z-]+", m.group(2)))
             for m in re.finditer(r"^\| `(\w+)` +\|(.*)\|$", readme, re.M)}
    assert table == actual


def test_missing_arguments_exit_1(capsys):
    code = main(["brieskorn", "2"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("argv", [[], ["ct"], ["lct"], ["brieskorn"], ["sweep"], ["batch"], ["verify"]])
def test_help_exits_0_with_usage_on_stdout(capsys, argv):
    code, out, err = run(capsys, *argv, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(["usage: thresholdkit", *argv]) + " ")


def test_missing_input_exits_1_with_the_argparse_message(capsys):
    code, out, err = run(capsys, "ct")
    assert (code, out) == (1, "")
    assert err.startswith("usage: thresholdkit ct ")
    assert err.endswith("thresholdkit ct: error: the following arguments are required: input\n")


def test_module_entry_point_prints_the_readme_json():
    # python -m thresholdkit runs __main__.py, which no in-process test reaches
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "thresholdkit", "ct", "x^3+y^7+z^11", "--json"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    shown = re.search(r"`ct --json` emits\n\n```\n(.*?)\n```", readme, re.S).group(1)
    assert done.stdout == shown.replace("\n", "") + "\n"


def test_readme_library_surface_block_runs():
    # the README's Python example imports maximin_lp and the rest of the
    # names it lists from the package, and checks x^5+y^6+z^29
    src = str(Path(cli.__file__).resolve().parents[1])
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library surface\n.*?```python\n(.*?)```", readme, re.S).group(1)
    assert "maximin_lp" in block and "x^5+y^6+z^29" in block
    done = subprocess.run([sys.executable, "-c", block], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_the_process_pool_unloaded():
    # only --parallel builds a pool, so importing the CLI must not pay for
    # concurrent.futures.process and multiprocessing
    script = "import json, sys, thresholdkit.cli; print(json.dumps(sorted(sys.modules)))"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert not loaded & {"concurrent.futures.process", "multiprocessing"}


def test_import_loads_only_the_standard_library():
    # no runtime dependency: without site-packages (-S) the package imports,
    # and loads nothing outside the standard library (importing numpy alone
    # raises a process's peak RSS by about 12 MB)
    script = "import json, sys, thresholdkit; print(json.dumps(sorted(sys.modules)))"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = {name.split(".")[0] for name in json.loads(done.stdout)}
    assert loaded - {"__main__", "thresholdkit"} <= set(sys.stdlib_module_names)
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M)
