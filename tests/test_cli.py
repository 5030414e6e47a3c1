"""Command-line behavior: outputs, exit codes, JSON parity, file pipelines."""

import gc
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from delcodes import cli
from delcodes.cli import main
from delcodes.constraints import build_model
from delcodes.ilp import (
    IlpModel,
    LinearConstraint,
    read_lp,
    solve_builtin,
    verify_solution,
    write_lp,
)
from delcodes.sdecc import max_sdecc_exact
from delcodes.vt import format_code, vt_code


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out, err = run(capsys, *argv, "--json")
    return status, json.loads(out), err


# ------------------------------------------------------------------------ vt


def test_vt_lists_the_known_length_five_class(capsys):
    status, out, _ = run(capsys, "vt", "--n", "5", "--a", "0", "--list")
    lines = out.splitlines()
    assert status == 0
    assert lines[0] == "|VT_0(5)| = 6"
    assert lines[1:] == ["00000", "00111", "01010", "10001", "11011", "11100"]


def test_vt_json_carries_the_same_facts(capsys):
    status, data, _ = run_json(
        capsys, "vt", "--n", "11", "--a", "0", "--formula", "--perfect"
    )
    assert status == 0
    assert data["size"] == 172
    assert data["formula_size"] == 172
    assert data["perfect"] is True


def test_vt_formula_rejects_general_residues(capsys):
    status, out, err = run(capsys, "vt", "--n", "5", "--a", "2", "--formula")
    assert status == 1 and out == ""
    assert "a=0 and a=1" in err


def test_vt_rejects_out_of_range_residue(capsys):
    status, _, err = run(capsys, "vt", "--n", "5", "--a", "9")
    assert status == 1 and "residue" in err


def test_vt_formula_covers_residue_one(capsys):
    status, out, _ = run(capsys, "vt", "--n", "11", "--a", "1", "--formula")
    assert status == 0
    assert out.splitlines() == ["|VT_1(11)| = 170", "formula size = 170"]


# --------------------------------------------------------------------- check


def test_check_valid_code_file(tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text(format_code(vt_code(6, 0)))
    status, out, _ = run(capsys, "check", "--code", str(path))
    assert status == 0
    assert out.strip() == "valid single-deletion code: 10 words of length 6"


def test_check_invalid_code_exits_one_with_witness(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("10110\n10111\n")
    status, out, _ = run(capsys, "check", "--code", str(path))
    assert status == 1
    assert out.strip() == "INVALID: 10110 and 10111 share deleted word 1011"
    status, data, _ = run_json(capsys, "check", "--code", str(path))
    assert status == 1 and data["ok"] is False
    assert data["witness"] == {
        "first": "10110",
        "second": "10111",
        "shared": "1011",
    }


def test_check_answers_at_length_one(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("1\n")
    status, out, _ = run(capsys, "check", "--code", str(path))
    assert status == 0
    assert out.strip() == "valid single-deletion code: 1 words of length 1"
    path.write_text("0\n1\n")
    status, out, _ = run(capsys, "check", "--code", str(path))
    assert status == 1
    assert out.strip() == "INVALID: 0 and 1 share deleted word (the empty word)"
    status, data, _ = run_json(capsys, "check", "--code", str(path))
    assert status == 1 and data["ok"] is False
    assert data["witness"] == {"first": "0", "second": "1", "shared": ""}


def test_check_missing_file_is_a_domain_error(tmp_path, capsys):
    status, _, err = run(capsys, "check", "--code", str(tmp_path / "no.txt"))
    assert status == 1 and "error:" in err


# ----------------------------------------------------------------------- max


def test_max_reports_optimum_with_witness(capsys):
    status, out, _ = run(capsys, "max", "--n", "6")
    lines = out.splitlines()
    assert status == 0
    assert lines[0] == "M(6) = 10 (optimal)"
    assert len(lines) == 11  # headline plus the ten codewords


def test_max_node_limit_downgrades_to_bound_limited(capsys):
    status, data, _ = run_json(
        capsys, "max", "--n", "9", "--node-limit", "10"
    )
    assert status == 0
    assert data["status"] == "bound-limited"
    assert data["size"] >= 52


def test_max_incumbent_warm_start(tmp_path, capsys):
    path = tmp_path / "seed.txt"
    path.write_text(format_code(vt_code(6, 0)))
    status, data, _ = run_json(
        capsys, "max", "--n", "6", "--incumbent", str(path)
    )
    assert status == 0 and data["size"] == 10 and data["status"] == "optimal"


def test_max_rejects_mismatched_incumbent(tmp_path, capsys):
    path = tmp_path / "seed.txt"
    path.write_text(format_code(vt_code(6, 0)))
    status, _, err = run(capsys, "max", "--n", "7", "--incumbent", str(path))
    assert status == 1 and "length" in err


def test_max_rejects_mismatched_incumbent_at_length_one(tmp_path, capsys):
    # n = 1 has a trivial answer, but a wrong-length incumbent is still an error
    path = tmp_path / "seed.txt"
    path.write_text(format_code(vt_code(5, 0)))
    status, out, err = run(capsys, "max", "--n", "1", "--incumbent", str(path))
    assert status == 1 and out == ""
    assert "incumbent has length 5, expected 1" in err


@pytest.mark.parametrize("n", ["0", "15"])
def test_max_rejects_out_of_range_lengths(capsys, n):
    status, out, err = run(capsys, "max", "--n", n)
    assert status == 1 and out == ""
    assert err == f"error: max supports 1 <= n <= 14, got {n}\n"


# ------------------------------------------------------------- gen and solve


def test_gen_writes_deterministic_lp(tmp_path, capsys):
    one = tmp_path / "one.lp"
    two = tmp_path / "two.lp"
    status, out, _ = run(
        capsys, "gen", "--n", "5", "--families", "c0,c1", "--out", str(one)
    )
    assert status == 0 and "17 rows, 32 variables" in out
    run(capsys, "gen", "--n", "5", "--families", "c0,c1", "--out", str(two))
    assert one.read_bytes() == two.read_bytes()


def test_gen_rejects_unknown_family(tmp_path, capsys):
    status, _, err = run(
        capsys,
        "gen", "--n", "5", "--families", "c9", "--out", str(tmp_path / "x.lp"),
    )
    assert status == 1 and "unknown families" in err


def test_gen_rejects_malformed_c6_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "gen", "--n", "8", "--families", "c0,c6",
            "--c6", "1", "--out", str(tmp_path / "x.lp"),
        ])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_gen_rejects_an_empty_family_list(tmp_path, capsys):
    status, _, err = run(
        capsys,
        "gen", "--n", "5", "--families", ",", "--out", str(tmp_path / "x.lp"),
    )
    assert status == 1 and "at least one family" in err


@pytest.mark.parametrize("value", ["a,b", "-1,0"])
def test_gen_rejects_c6_values_that_are_not_section_lengths(
    tmp_path, capsys, value
):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "gen", "--n", "8", "--families", "c0,c6",
            f"--c6={value}", "--out", str(tmp_path / "x.lp"),
        ])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_gen_honours_explicit_c6_shapes(tmp_path, capsys):
    path = tmp_path / "m.lp"
    status, data, _ = run_json(
        capsys,
        "gen", "--n", "8", "--families", "c0,c6",
        "--c6", "2,1", "--out", str(path),
    )
    assert status == 0
    model = read_lp(io.StringIO(path.read_text()))
    c6_labels = [r.label for r in model.constraints if r.label.startswith("c6")]
    assert len(c6_labels) == 8
    assert all(lbl.startswith("c6_p2q1_") for lbl in c6_labels)
    assert data["rows"] == len(model.constraints)


def test_solve_reports_objective_and_status(tmp_path, capsys):
    path = tmp_path / "m.lp"
    run(capsys, "gen", "--n", "6", "--families", "c0", "--out", str(path))
    status, out, _ = run(capsys, "solve", "--model", str(path))
    assert status == 0
    assert out.splitlines()[0] == "objective 10 (optimal)"


def test_solve_exits_one_when_the_budget_finds_nothing(tmp_path, capsys):
    # M(5) = 6, so no code meets the >= 7 row, and one node proves nothing
    rows = build_model(5, {"C0"}).constraints + (
        LinearConstraint(tuple((v, 1) for v in range(32)), ">=", 7, "big"),
    )
    path = tmp_path / "m.lp"
    with open(path, "w", encoding="utf-8") as sink:
        write_lp(IlpModel(5, rows), sink)
    status, out, err = run(
        capsys, "solve", "--model", str(path), "--node-limit", "1"
    )
    assert status == 1 and out == ""
    assert "no feasible solution found within the search budget" in err


@pytest.mark.parametrize("command", ["max", "solve"])
@pytest.mark.parametrize(
    "flag,value",
    [("--time-limit", "nan"), ("--time-limit", "-1"), ("--node-limit", "-1")],
)
def test_budgets_that_could_never_hold_exit_one(
    tmp_path, capsys, command, flag, value
):
    # NaN never trips the deadline; a negative budget stops after one node
    path = tmp_path / "m.lp"
    run(capsys, "gen", "--n", "6", "--families", "c0", "--out", str(path))
    where = ["--n", "10"] if command == "max" else ["--model", str(path)]
    status, out, err = run(capsys, command, *where, flag, value)
    assert status == 1 and out == ""
    assert err.startswith("error: ") and "must be a number >= 0" in err


def test_solve_writes_solution_file_verify_accepts_it(tmp_path, capsys):
    model_path = tmp_path / "m.lp"
    sol_path = tmp_path / "s.txt"
    run(capsys, "gen", "--n", "5", "--families", "c0,c1,c3", "--out", str(model_path))
    status, out, _ = run(
        capsys,
        "solve", "--model", str(model_path), "--out", str(sol_path),
    )
    assert status == 0 and f"wrote {sol_path}" in out
    status, out, _ = run(
        capsys,
        "verify", "--model", str(model_path), "--solution", str(sol_path),
    )
    assert status == 0
    assert out.splitlines()[0] == "verification: PASS"


def test_gen_and_solve_write_lf_line_endings(tmp_path, capsys):
    # text mode writes os.linesep for each "\n", so this can fail only on a
    # platform whose line separator is CRLF
    model_path = tmp_path / "m.lp"
    sol_path = tmp_path / "s.txt"
    run(capsys, "gen", "--n", "4", "--families", "c0", "--out", str(model_path))
    run(capsys, "solve", "--model", str(model_path), "--out", str(sol_path))
    for path in (model_path, sol_path):
        assert b"\r" not in path.read_bytes(), path.name


def test_verify_rejects_tampered_solution(tmp_path, capsys):
    model_path = tmp_path / "m.lp"
    sol_path = tmp_path / "s.txt"
    run(capsys, "gen", "--n", "5", "--families", "c0", "--out", str(model_path))
    run(capsys, "solve", "--model", str(model_path), "--out", str(sol_path))
    text = sol_path.read_text()
    # force in the neighbor of an already-selected word
    selected = next(
        line.split()[0]
        for line in text.splitlines()
        if not line.startswith("#") and line.endswith(" 1")
    )
    flipped = selected[:-1] + ("0" if selected.endswith("1") else "1")
    text = text.replace(f"{flipped} 0", f"{flipped} 1")
    sol_path.write_text(text)
    status, out, _ = run(
        capsys,
        "verify", "--model", str(model_path), "--solution", str(sol_path),
    )
    assert status == 1
    lines = out.splitlines()
    assert lines[0] == "verification: FAIL"
    assert any("INVALID" in line for line in lines)


def test_verify_json_parity(tmp_path, capsys):
    model_path = tmp_path / "m.lp"
    sol_path = tmp_path / "s.txt"
    run(capsys, "gen", "--n", "4", "--families", "c0,c1", "--out", str(model_path))
    run(capsys, "solve", "--model", str(model_path), "--out", str(sol_path))
    status, data, _ = run_json(
        capsys,
        "verify", "--model", str(model_path), "--solution", str(sol_path),
    )
    assert status == 0
    assert data["ok"] is True and data["objective"] == 4
    assert data["violated"] == [] and data["code_ok"] is True


def _length_one_model_selecting_both_words(tmp_path):
    model_path = tmp_path / "m1.lp"
    sol_path = tmp_path / "s1.txt"
    with open(model_path, "w", encoding="utf-8") as sink:
        write_lp(IlpModel(1, ()), sink)
    sol_path.write_text("x_0 1\nx_1 1\n")
    return "verify", "--model", str(model_path), "--solution", str(sol_path)


def test_verify_length_one_words_sharing_the_empty_word_fail(
    tmp_path, capsys
):
    status, out, err = run(
        capsys, *_length_one_model_selecting_both_words(tmp_path)
    )
    assert status == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == "verification: FAIL"
    assert lines[-1] == (
        "code check: INVALID, 0 and 1 share deleted word (the empty word)"
    )


def test_verify_length_one_words_sharing_the_empty_word_fail_json(
    tmp_path, capsys
):
    status, data, err = run_json(
        capsys, *_length_one_model_selecting_both_words(tmp_path)
    )
    assert status == 1 and err == ""
    assert data["ok"] is False and data["code_ok"] is False
    assert data["violated"] == [] and data["selected"] == 2
    assert data["witness"] == {"first": "0", "second": "1", "shared": ""}


def test_solve_strict_verify_accepts_written_file(tmp_path, capsys):
    model_path = tmp_path / "m.lp"
    sol_path = tmp_path / "s.txt"
    run(capsys, "gen", "--n", "4", "--families", "c0", "--out", str(model_path))
    run(capsys, "solve", "--model", str(model_path), "--out", str(sol_path))
    status, _, _ = run(
        capsys,
        "verify", "--model", str(model_path),
        "--solution", str(sol_path), "--strict",
    )
    assert status == 0


def test_verify_rejects_nan_value_with_line_number(tmp_path, capsys):
    model_path = tmp_path / "m.lp"
    sol_path = tmp_path / "s.txt"
    run(capsys, "gen", "--n", "3", "--families", "c0", "--out", str(model_path))
    sol_path.write_text("x_000 1\nx_001 nan\n")
    status, _, err = run(
        capsys,
        "verify", "--model", str(model_path), "--solution", str(sol_path),
    )
    assert status == 1
    assert "error: line 2: x_001 = nan is NaN" in err


@pytest.mark.parametrize("value", ["1_0", "\u0661", "infinity"])
def test_verify_rejects_numerals_float_would_take(tmp_path, capsys, value):
    model_path = tmp_path / "m.lp"
    sol_path = tmp_path / "s.txt"
    run(capsys, "gen", "--n", "3", "--families", "c0", "--out", str(model_path))
    sol_path.write_text(f"x_000 1\nx_001 {value}\n", encoding="utf-8")
    status, _, err = run(
        capsys,
        "verify", "--model", str(model_path), "--solution", str(sol_path),
    )
    assert status == 1
    assert f"error: line 2: non-numeric value '{value}'" in err


@pytest.mark.parametrize("argv", [
    ("check", "--code", "{bad}"),
    ("max", "--n", "6", "--incumbent", "{bad}"),
    ("solve", "--model", "{bad}"),
    ("verify", "--model", "{bad}", "--solution", "{solution}"),
    ("verify", "--model", "{model}", "--solution", "{bad}"),
], ids=["code", "incumbent", "solve-model", "verify-model", "solution"])
def test_a_file_that_is_not_utf8_is_named_in_the_error(tmp_path, capsys, argv):
    paths = {
        "bad": tmp_path / "bad.txt",
        "model": tmp_path / "m.lp",
        "solution": tmp_path / "s.txt",
    }
    paths["bad"].write_bytes(b"\xff\n")
    run(capsys, "gen", "--n", "3", "--families", "c0",
        "--out", str(paths["model"]))
    paths["solution"].write_text("x_000 1\n")
    status, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (status, out) == (1, "")
    assert err == (
        f"error: {paths['bad']}: not UTF-8 text (invalid start byte)\n"
    )


# -------------------------------------------------------------------- bounds


def test_bounds_plain_and_json_agree(capsys):
    status, out, _ = run(capsys, "bounds", "--n", "11")
    assert status == 0
    assert "n = 11" in out
    assert "171" in out and "172" in out and "227" in out
    status, data, _ = run_json(capsys, "bounds", "--n", "11")
    assert data == {
        "command": "bounds",
        "n": 11,
        "lower_ratio": 171,
        "lower_vt": 172,
        "known_M": 172,
        "known_upper": 172,
        "upper_kk": 227,
    }


def test_bounds_renders_unknowns(capsys):
    status, out, _ = run(capsys, "bounds", "--n", "20")
    assert status == 0 and "unknown" in out


@pytest.mark.parametrize("fails", [False, True])
def test_the_collector_pauses_while_a_handler_runs(monkeypatch, capsys, fails):
    seen = []
    handler = cli._cmd_bounds

    def recording(args):
        seen.append(gc.isenabled())
        if fails:
            raise ValueError("refused")
        return handler(args)

    monkeypatch.setattr(cli, "_cmd_bounds", recording)
    assert gc.isenabled()
    status, _, err = run(capsys, "bounds", "--n", "5")
    assert seen == [False]
    assert gc.isenabled()
    assert (status, err) == ((1, "error: refused\n") if fails else (0, ""))
    # a collector paused by the caller stays paused
    gc.disable()
    try:
        run(capsys, "bounds", "--n", "5")
    finally:
        enabled = gc.isenabled()
        gc.enable()
    assert seen == [False, False]
    assert not enabled


# --------------------------------------------------------------- exit status


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_json_flag_accepted_before_and_after_subcommand(capsys):
    status, data, _ = run_json(capsys, "bounds", "--n", "5")
    before = main(["--json", "bounds", "--n", "5"])
    out = capsys.readouterr().out
    assert status == before == 0
    assert json.loads(out) == data


# ------------------------------------------------------------------ start-up


def test_importing_the_package_leaves_numpy_unloaded():
    # numpy serves only the cover LP; vt, check, gen, verify and large
    # solves never reach it, so they should not pay for importing it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import delcodes, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert probe.stdout.strip() == "False"


def test_searches_the_greedy_cover_closes_leave_numpy_unloaded():
    # numpy is imported with the first cover LP, which no proof through
    # n = 5 and no solve of the n = 5 C0 model builds
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; from delcodes.constraints import build_model; "
         "from delcodes.ilp import solve_builtin; "
         "from delcodes.sdecc import max_sdecc_exact; "
         "max_sdecc_exact(5); solve_builtin(build_model(5, {'C0'})); "
         "print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert probe.stdout.strip() == "False"


def test_importing_the_package_leaves_dataclasses_and_inspect_unloaded():
    # together they took about a sixth of the start-up of every command
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import delcodes, sys; "
         "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert probe.stdout.strip() == "[]"


def test_reader_closing_the_pipe_early_exits_1_without_a_traceback():
    # about 260 kB of codewords, more than a pipe buffer holds, so the
    # write is still going when the reader closes its end
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "delcodes", "vt", "--n", "18", "--a", "0",
         "--list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"|VT_0(18)|")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err
    assert b"Exception ignored" not in err


# ---------------------------------------------------- file pipeline equality


@pytest.mark.parametrize("n", range(2, 7))
def test_file_pipeline_matches_in_memory_results(n, tmp_path, capsys):
    optional = ["C1", "C2", "C3", "C4", "C5", "C6"]
    for k in range(len(optional) + 1):
        for combo in itertools.combinations(optional, k):
            families = {"C0", *combo}
            model = build_model(n, families)
            expected = solve_builtin(model)
            assert verify_solution(model, expected).ok

            tag = "".join(combo) or "none"
            model_path = tmp_path / f"{n}_{tag}.lp"
            sol_path = tmp_path / f"{n}_{tag}.sol"
            csv = ",".join(sorted(families)).lower()
            status, _, _ = run(
                capsys,
                "gen", "--n", str(n), "--families", csv,
                "--out", str(model_path),
            )
            assert status == 0
            status, data, _ = run_json(
                capsys,
                "solve", "--model", str(model_path), "--out", str(sol_path),
            )
            assert status == 0
            assert data["objective"] == expected.objective
            assert data["status"] == expected.solver_status == "optimal"
            status, _, _ = run(
                capsys,
                "verify", "--model", str(model_path),
                "--solution", str(sol_path),
            )
            assert status == 0
