"""Exit codes, report formats, and the command surface."""

import gc
import importlib
import io
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

import liecheck
from liecheck import cli
from liecheck.cli import main

from test_exact import decimal_value
from test_golden import ROOT, WANT, corpus_argvs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_admissible_exit_zero(capsys, corpus_dir):
    code, out, _ = run(capsys, "check", str(corpus_dir / "so3_sphere.lie"),
                       "--pair", "sphere", "--operator", "I")
    assert code == 0
    assert "admissible: yes" in out


def test_check_inadmissible_exit_one_with_witness(capsys, corpus_dir):
    code, out, _ = run(capsys, "check", str(corpus_dir / "so3_family.lie"),
                       "--pair", "sphere_split", "--operator", "fam_bad")
    assert code == 1
    assert "witness" in out
    # witness printed in label form and raw coordinates
    assert "coords" in out and "e1" in out


def test_check_missing_file_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.lie"))
    assert code == 2
    assert "error" in err


def test_parse_error_exit_two(capsys, fixtures_dir):
    code, _, err = run(capsys, "parse", str(fixtures_dir / "bad_scalar.lie"))
    assert code == 2
    assert ":" in err  # line:col diagnostic


def test_parse_dumps_canonical_form(capsys, corpus_dir):
    code, out, _ = run(capsys, "parse", str(corpus_dir / "nil4.lie"))
    assert code == 0
    assert out.startswith("algebra nil4")
    from liecheck.specfile import parse as parse_doc
    assert parse_doc(out) == parse_doc((corpus_dir / "nil4.lie").read_text())


def test_torsion_json_schema(capsys, corpus_dir):
    code, out, _ = run(capsys, "torsion", str(corpus_dir / "gl3_full.lie"),
                       "--pair", "full", "--operator", "smix",
                       "--report", "json")
    assert code == 1
    payload = json.loads(out)
    for key in ("command", "input", "verdict", "witnesses", "dims",
                "tolerances", "seed", "elapsed_ms"):
        assert key in payload
    assert payload["command"] == "torsion"
    assert payload["verdict"] is False
    wit = payload["witnesses"][0]
    assert wit["v"]["coords"][0] == "1"
    assert wit["torsion_value"]["pretty"]


def test_torsion_nijenhuis_exit_zero(capsys, corpus_dir):
    code, out, _ = run(capsys, "torsion", str(corpus_dir / "so3_family.lie"),
                       "--pair", "sphere_split", "--operator", "fam_unit")
    assert code == 0
    assert "complement-pairs" in out


def test_torsion_mode_flags(capsys, corpus_dir):
    code, out, _ = run(capsys, "torsion", str(corpus_dir / "so3_family.lie"),
                       "--operator", "rot", "--mode", "all")
    assert code == 0 and "all-pairs" in out
    code, out, _ = run(capsys, "torsion", str(corpus_dir / "u4_grassmannian.lie"),
                       "--mode", "ad")
    assert code == 0 and "ad_d-specialized" in out
    # rules-form operator cannot run in ad mode
    code, _, err = run(capsys, "torsion", str(corpus_dir / "so3_family.lie"),
                       "--operator", "fam_unit", "--mode", "ad")
    assert code == 2


def test_torsion_inadmissible_exit_two(capsys, corpus_dir):
    code, _, err = run(capsys, "torsion", str(corpus_dir / "so3_family.lie"),
                       "--pair", "sphere_split", "--operator", "fam_bad")
    assert code == 2
    assert "NotAdmissible" in err


@pytest.mark.parametrize("mode", ["ad", "all"])
def test_torsion_checks_component_reps_exit_two(capsys, fixtures_dir, mode):
    # ad(k0) does not commute with the declared flip representative.
    path = str(fixtures_dir / "so3_flip_reps.lie")
    code, out, err = run(capsys, "torsion", path, "--mode", mode)
    assert code == 2 and out == ""
    assert err == "error: NotAdmissible: operator is not admissible for the pair\n"
    code, out, _ = run(capsys, "check", path, "--report", "json")
    assert code == 1
    assert json.loads(out)["failed_clause"] == "commutes_with_component_reps"


def test_integrability_sphere(capsys, corpus_dir):
    code, out, _ = run(capsys, "integrability", str(corpus_dir / "so3_sphere.lie"),
                       "--report", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["dims"]["z_plus"] == 2
    assert payload["z_plus_mod_k"][0]["pretty"] == "e1 + i*e2"


def test_integrability_not_ac_admissible_exit_two(capsys, corpus_dir):
    code, _, err = run(capsys, "integrability", str(corpus_dir / "so3_family.lie"),
                       "--pair", "sphere_split", "--operator", "fam_beta2")
    assert code == 2
    assert "NotACAdmissible" in err


def test_integrability_negative_case(capsys, corpus_dir):
    code, out, _ = run(capsys, "integrability", str(corpus_dir / "nil4.lie"),
                       "--operator", "jtwist")
    assert code == 1
    assert "integrable: no" in out
    code, out, _ = run(capsys, "integrability", str(corpus_dir / "nil4.lie"),
                       "--operator", "jplane")
    assert code == 0


def test_harness_sphere(capsys, corpus_dir):
    code, out, _ = run(capsys, "harness", str(corpus_dir / "so3_sphere.lie"),
                       "--report", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["model"] == "sphere-orbit"
    assert payload["seed"] == 0
    assert float(payload["max_deviation"]) <= 1e-5
    assert "sphere_demos" in payload
    assert len(payload["samples"]) == 20


def test_harness_sandwich_nonzero_torsion(capsys, corpus_dir):
    # numerics match a genuinely nonzero algebraic torsion: still a pass
    code, out, _ = run(capsys, "harness", str(corpus_dir / "gl3_full.lie"),
                       "--pair", "full", "--operator", "smix",
                       "--report", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["nijenhuis_exact"] is False
    assert float(payload["max_numerical_torsion"]) > 1.0
    assert float(payload["max_deviation"]) <= 1e-5


def test_harness_no_model_exit_two(capsys, corpus_dir):
    code, _, err = run(capsys, "harness", str(corpus_dir / "u4_grassmannian.lie"))
    assert code == 2
    assert "model" in err


def test_harness_step_validation(capsys, corpus_dir):
    code, _, err = run(capsys, "harness", str(corpus_dir / "so3_sphere.lie"),
                       "--step", "1e-9")
    assert code == 2
    code, _, err = run(capsys, "harness", str(corpus_dir / "so3_sphere.lie"),
                       "--step", "0.5")
    assert code == 2


def test_harness_csv_output(capsys, corpus_dir, tmp_path):
    out_path = tmp_path / "samples.csv"
    code, out, _ = run(capsys, "harness", str(corpus_dir / "gl3_full.lie"),
                       "--pair", "full", "--operator", "lmul",
                       "--samples", "5", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "index,deviation,numerical_max,predicted_max"
    assert len(lines) == 6


def test_report_to_file(capsys, corpus_dir, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "check", str(corpus_dir / "so3_sphere.lie"),
                     "--report", "json", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["verdict"] is True


def test_name_disambiguation_required(capsys, corpus_dir):
    # gl3_full.lie declares three operators: a bare run must ask for one
    code, _, err = run(capsys, "torsion", str(corpus_dir / "gl3_full.lie"),
                       "--pair", "full")
    assert code == 2
    assert "operator" in err


def test_non_utf8_input_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.lie"
    bad.write_bytes(b"algebra a { basis \xff\xfe x; }")
    for command in ("parse", "check"):
        code, _, err = run(capsys, command, str(bad))
        assert code == 2
        assert "UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("entry,diagnostic", [
    ("\u00b2", "1:38: unexpected character '\u00b2'"),
    ("\u0663", "1:38: unexpected character '\u0663'"),
    ("7" * 5000, "1:38: integer literal too long"),
])
def test_malformed_scalar_exit_two_with_one_error_line(capsys, tmp_path, entry, diagnostic):
    bad = tmp_path / "bad.lie"
    bad.write_text(f"matrix_algebra m dim = 1 {{ gen d = [[{entry}]]; }}", encoding="utf-8")
    for command in ("parse", "check"):
        code, out, err = run(capsys, command, str(bad))
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}:{diagnostic}\n"


def test_harness_negative_seed_exit_two(capsys, corpus_dir):
    code, out, err = run(capsys, "harness", str(corpus_dir / "so3_sphere.lie"),
                         "--seed=-1")
    assert code == 2
    assert out == ""
    assert err == "error: LieCheckError: the seed must be a non-negative integer, not -1\n"


N_400 = 10 ** 400


@pytest.mark.parametrize("generators,rule,entry", [
    # [g0, g1] = -N g1 and -g1/N: the structure constant is converted first.
    (f"gen g0 = [[{N_400},0],[0,0]]; gen g1 = [[0,0],[1,0]];", "g0 -> g0; g1 -> g1;",
     "structure constant [g0,g1] component g1"),
    (f"gen g0 = [[1/{N_400},0],[0,0]]; gen g1 = [[0,0],[1,0]];", "g0 -> g0; g1 -> g1;",
     "structure constant [g0,g1] component g1"),
    # An abelian algebra: no structure constant, so the generator is named.
    (f"gen g0 = [[{N_400},0],[0,{N_400}]];", "g0 -> g0;", "generator g0 entry (1,1)"),
    (f"gen g0 = [[1,0],[0,-1/{N_400}]];", "g0 -> g0;", "generator g0 entry (2,2)"),
    ("gen g0 = [[1,0],[0,1]];", f"g0 -> {N_400}*g0;", "operator entry (1,1)"),
    ("gen g0 = [[1,0],[0,1]];", f"g0 -> 1/{N_400}*g0;", "operator entry (1,1)"),
], ids=[f"{where}-{way}" for where in ("structure", "generator", "operator")
        for way in ("overflow", "underflow")])
def test_harness_number_out_of_float_range_exit_two(capsys, tmp_path, generators, rule,
                                                      entry):
    # A number past the float range, or a nonzero one that rounds to 0.0,
    # is an input error naming its entry, not an internal fault.
    path = tmp_path / "far.lie"
    path.write_text(f"matrix_algebra A dim = 2 {{ {generators} }}\n"
                    "subalgebra k of A = span(0);\n"
                    f"operator J on A {{ {rule} }}\n"
                    "pair p = (A, k);\n", encoding="utf-8")
    code, out, err = run(capsys, "harness", str(path), "--samples", "3")
    assert (code, out) == (2, "")
    assert err == f"error: LieCheckError: {entry} is out of the float range\n"


@pytest.mark.parametrize("span", [f"1/{N_400}*k0 + e1", f"k0 + 1/{N_400}*e1"],
                         ids=["overflow", "underflow"])
def test_harness_stabilizer_out_of_float_range_exit_two(capsys, tmp_path, span):
    # The sphere model tests that k fixes the base point in floats; the
    # echelon row of k is (1, 10^400, 0) or (1, 10^-400, 0).
    path = tmp_path / "far.lie"
    path.write_text("algebra so3 { basis k0 e1 e2; bracket [k0,e1] = -1*e2; "
                    "bracket [k0,e2] = e1; bracket [e1,e2] = -1*k0; }\n"
                    f"subalgebra k of so3 = span({span});\n"
                    "operator I on so3 = ad(k0);\n"
                    "pair sphere = (so3, k);\n", encoding="utf-8")
    code, out, err = run(capsys, "harness", str(path), "--samples", "3")
    assert (code, out) == (2, "")
    assert err == "error: LieCheckError: subalgebra basis entry (1,2) is out of the float range\n"


def test_internal_fault_exit_two(capsys, corpus_dir, monkeypatch):
    def broken(pair, op):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr("liecheck.operators.check_admissible", broken)
    code, out, err = run(capsys, "check", str(corpus_dir / "so3_sphere.lie"))
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == "error: internal error: ZeroDivisionError: boom"


def test_parse_has_no_report_option(capsys, corpus_dir):
    with pytest.raises(SystemExit) as exc:
        main(["parse", str(corpus_dir / "nil4.lie"), "--report", "json"])
    assert exc.value.code == 2
    assert "--report" in capsys.readouterr().err


SPHERE = ["--pair", "sphere", "--operator", "I"]


def in_corpus(corpus_dir, argv):
    """``argv`` with each ``.lie`` name made a path in the corpus."""
    return [str(corpus_dir / w) if w.endswith(".lie") else w for w in argv]


@pytest.mark.parametrize("argv, same_as", [
    (["check", "so3_sphere.lie", "--pair=sphere", "--operator=I"],
     ["check", "so3_sphere.lie", *SPHERE]),
    (["check", "so3_sphere.lie", "--pa", "sphere", "--op=I", "--rep", "json"],
     ["check", "so3_sphere.lie", *SPHERE, "--report", "json"]),
    (["check", *SPHERE, "so3_sphere.lie"], ["check", "so3_sphere.lie", *SPHERE]),
    (["check", "gl3_full.lie", "--pair", "full", "--operator", "lmul", "--pair", "modsl3"],
     ["check", "gl3_full.lie", "--pair", "modsl3", "--operator", "lmul"]),
    (["check", *SPHERE, "--", "so3_sphere.lie"], ["check", "so3_sphere.lie", *SPHERE]),
    (["torsion", "so3_family.lie", "--operator", "rot", "--mode=all", "--report=json"],
     ["torsion", "so3_family.lie", "--operator", "rot", "--mode", "all", "--report", "json"]),
    (["harness", "so3_sphere.lie", "--sa", "3", "--st=1e-3", "--se", "2", "--report", "json"],
     ["harness", "so3_sphere.lie", "--samples", "3", "--step", "1e-3", "--seed", "2",
      "--report", "json"]),
], ids=["equals", "prefix", "options-first", "repeated", "double-dash", "choices",
        "numbers"])
def test_argv_forms_accepted(capsys, corpus_dir, argv, same_as):
    # Each spelling reads as the plain one: same exit code, same report.
    def outcome(words):
        code, out, err = run(capsys, *in_corpus(corpus_dir, words))
        return code, without_elapsed(out) if out.startswith("{") else out, err

    assert outcome(argv) == outcome(same_as)
    assert outcome(argv)[0] in (0, 1)


@pytest.mark.parametrize("seed", [["--seed=-1"], ["--seed", "-1"]], ids=["equals", "split"])
def test_argv_negative_number_is_a_value(capsys, corpus_dir, seed):
    code, out, err = run(capsys, "harness", str(corpus_dir / "so3_sphere.lie"), *seed)
    assert (code, out) == (2, "")
    assert err == "error: LieCheckError: the seed must be a non-negative integer, not -1\n"


@pytest.mark.parametrize("argv, named", [
    ([], ["command"]),
    (["foo", "so3_sphere.lie"], ["foo"]),
    (["check"], ["file"]),
    (["check", "so3_sphere.lie", "--bogus"], ["--bogus"]),
    (["check", "so3_sphere.lie", "--o", "x"], ["--o", "--operator", "--out"]),
    (["check", "so3_sphere.lie", "--pair"], ["--pair"]),
    (["check", "so3_sphere.lie", "--pair", "--report", "json"], ["--pair"]),
    (["check", "so3_sphere.lie", "--report", "xml"], ["--report", "xml"]),
    (["torsion", "so3_sphere.lie", "--mode", "x"], ["--mode", "'x'"]),
    (["harness", "so3_sphere.lie", "--samples", "abc"], ["--samples", "abc"]),
    (["harness", "so3_sphere.lie", "--step", "x"], ["--step", "'x'"]),
    (["harness", "so3_sphere.lie", "--seed", "1.5"], ["--seed", "1.5"]),
    (["check", "so3_sphere.lie", "extra"], ["extra"]),
    (["check", "--", "so3_sphere.lie", "--pair", "sphere"], ["--pair"]),
    (["parse", "so3_sphere.lie", "--report", "json"], ["--report"]),
    (["parse", "so3_sphere.lie", "--pair", "sphere"], ["--pair"]),
    (["harness", "so3_sphere.lie", "--theta", "1"], ["unrecognized arguments: --theta 1"]),
], ids=["no-command", "unknown-command", "no-file", "unknown-option", "ambiguous-prefix",
        "no-value", "option-as-value", "report-choice", "mode-choice", "int", "float",
        "int-not-float", "extra-positional", "option-after-double-dash", "parse-report",
        "parse-pair", "no-theta"])
def test_argv_usage_error_exit_two(capsys, corpus_dir, argv, named):
    argv = in_corpus(corpus_dir, argv)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: liecheck")
    errors = [line for line in lines if "error: " in line]
    assert len(errors) == 1 and all(word in errors[0] for word in named), errors


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], ["check", "-h"],
                                  ["check", "so3_sphere.lie", "--help"],
                                  ["torsion", "--h"], ["parse", "-h"],
                                  ["harness", "so3_sphere.lie", "--samples", "3", "-h"]])
def test_argv_help_exit_zero(capsys, corpus_dir, argv):
    argv = in_corpus(corpus_dir, argv)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == (0, "")
    prog = " ".join(["liecheck", *argv[:1]]) if argv[0][0] != "-" else "liecheck"
    assert captured.out.startswith(f"usage: {prog} ")
    if argv[0] == "harness":
        assert all(f"--{name}" in captured.out for name in ("samples", "step", "seed"))
        assert "theta" not in captured.out


def test_harness_csv_output_prints_json_report(capsys, corpus_dir, tmp_path):
    out_path = tmp_path / "samples.csv"
    code, out, _ = run(capsys, "harness", str(corpus_dir / "gl3_full.lie"),
                       "--pair", "full", "--operator", "lmul", "--samples", "3",
                       "--out", str(out_path), "--report", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "harness" and len(payload["samples"]) == 3
    rows = out_path.read_text().strip().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == [
        s["deviation"] for s in payload["samples"]]


def render(argv: list, payload: dict) -> str:
    """The text report of ``payload``, the JSON report of ``argv``."""
    return "".join(f"{line}\n" for line in cli._text(cli._read_argv(argv), payload))


@pytest.fixture(scope="module")
def golden_argvs():
    return corpus_argvs()


@pytest.mark.parametrize("name", sorted(
    name for name in WANT if f"{name} [json]" in WANT and WANT[name]["code"] != 2))
def test_text_report_renders_the_json_report(capsys, monkeypatch, golden_argvs, name):
    # Each golden text report is the rendering of its command's live JSON report.
    monkeypatch.chdir(ROOT)
    argv = golden_argvs[f"{name} [json]"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (WANT[name]["code"], "")
    assert render(argv, json.loads(out)) == WANT[name]["stdout"]


HARNESS_MODELS = [["so3_sphere.lie"], ["gl3_full.lie", "--pair", "full", "--operator", "smix"],
                  ["gl3_full.lie", "--pair", "full", "--operator", "lmul"],
                  ["gl2_complex.lie", "--pair", "group2", "--operator", "jleft"]]


@pytest.mark.parametrize("argv", HARNESS_MODELS, ids=["sphere", "smix", "lmul", "gl2"])
def test_harness_text_report_renders_the_json_report(capsys, corpus_dir, argv):
    argv = in_corpus(corpus_dir, ["harness", *argv, "--samples", "50", "--seed", "3"])
    text = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--report", "json")
    assert text[0] == code == 0 and text[2] == err == ""
    assert render(argv, json.loads(out)) == text[1]


def test_harness_text_report_shows_a_nan_residual(capsys, monkeypatch, corpus_dir):
    # The worst residual is rebuilt from the payload's strings and keeps a NaN.
    real = liecheck.harness.relation_checks

    def nan_residual(*args, **kwargs):
        report = real(*args, **kwargs)
        fields = {name: getattr(report, name) for name in type(report).__slots__}
        return type(report)(**{**fields, "base_consistency_max": float("nan")})

    monkeypatch.setattr(liecheck.harness, "relation_checks", nan_residual)
    argv = in_corpus(corpus_dir, ["harness", *HARNESS_MODELS[2], "--samples", "3"])
    code, out, _ = run(capsys, *argv)
    assert code == 1 and "relation residual (worst): nan\n" in out
    assert render(argv, json.loads(run(capsys, *argv, "--report", "json")[1])) == out


@pytest.mark.parametrize("argv", [
    ["check", "so3_family.lie", "--pair", "sphere_split", "--operator", "fam_bad"],
    ["torsion", "gl3_full.lie", "--pair", "full", "--operator", "smix"],
    ["integrability", "nil4.lie", "--operator", "jtwist"],
    ["harness", *HARNESS_MODELS[0], "--samples", "3"],
], ids=["check", "torsion", "integrability", "harness"])
def test_json_report_does_not_render_text(capsys, monkeypatch, corpus_dir, argv):
    def no_text(*args):
        raise AssertionError("the text renderer ran")

    monkeypatch.setattr(cli, "_text", no_text)
    code, out, err = run(capsys, *in_corpus(corpus_dir, argv), "--report", "json")
    assert (code, err) == (0 if argv[0] == "harness" else 1, "")
    assert json.loads(out)["command"] == argv[0]


@pytest.mark.parametrize("command", [["check"], ["torsion", "--mode", "all"],
                                     ["integrability"], ["harness"]],
                         ids=["check", "torsion-all", "integrability", "harness"])
def test_operator_on_other_algebra_exit_two(capsys, fixtures_dir, command):
    # F acts on ab3, the pair on so3; both have dimension 3.
    code, out, err = run(capsys, command[0], str(fixtures_dir / "two_algebras.lie"),
                         *command[1:])
    assert code == 2
    assert out == ""
    assert err == ("error: LieCheckError: operator is declared on algebra 'ab3', "
                   "but the pair is on algebra 'so3'\n")


def fresh(*args, **options):
    """Run ``python *args`` in a fresh interpreter that imports this checkout;
    its standard streams are pipes unless ``options`` (passed on to
    ``subprocess.run``) say otherwise."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **options}
    return subprocess.run([sys.executable, *args], env=env, text=True, timeout=120,
                          **options)


def run_fresh(code):
    done = fresh("-c", code)
    assert done.returncode == 0, done.stderr


def without_elapsed(report: str) -> dict:
    payload = json.loads(report)
    del payload["elapsed_ms"]
    return payload


@pytest.mark.parametrize("argv, code", [
    (["check", "so3_sphere.lie"], 0),
    (["check", "gl3_full.lie", "--pair", "modsl3", "--operator", "lmul"], 1),
    (["check", "missing.lie"], 2),
])
def test_entry_point_matches_main(capsys, corpus_dir, argv, code):
    argv = [argv[0], str(corpus_dir / argv[1]), *argv[2:]]
    done = fresh("-m", "liecheck.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)
    assert done.returncode == code


def test_entry_point_usage_error_exit_two():
    done = fresh("-m", "liecheck.cli", "check")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: liecheck check ")
    assert done.stderr.endswith("error: the following arguments are required: file\n")


def test_entry_point_report_past_the_pipe_buffer(capsys, corpus_dir):
    # More than the 64 KiB a pipe holds, so the process blocks on the write
    # until the reader drains it, and must still flush the rest before exiting.
    argv = ["harness", str(corpus_dir / "gl3_full.lie"), "--pair", "full",
            "--operator", "lmul", "--samples", "2000", "--report", "json"]
    done = fresh("-m", "liecheck.cli", *argv)
    assert (done.returncode, done.stderr) == (0, "")
    assert len(done.stdout.encode()) > 65536
    code, out, _ = run(capsys, *argv)
    assert code == 0 and without_elapsed(done.stdout) == without_elapsed(out)


def test_entry_point_out_files_complete(capsys, corpus_dir, tmp_path):
    gl3 = str(corpus_dir / "gl3_full.lie")

    def argvs(side):
        return (["check", gl3, "--pair", "modsl3", "--operator", "lmul",
                 "--report", "json", "--out", str(tmp_path / f"{side}.json")],
                ["harness", gl3, "--pair", "full", "--operator", "lmul",
                 "--samples", "2000", "--out", str(tmp_path / f"{side}.csv")])

    assert [fresh("-m", "liecheck.cli", *argv).returncode for argv in argvs("fresh")] == [1, 0]
    assert [run(capsys, *argv)[0] for argv in argvs("main")] == [1, 0]
    assert (without_elapsed((tmp_path / "fresh.json").read_text())
            == without_elapsed((tmp_path / "main.json").read_text()))
    table = (tmp_path / "fresh.csv").read_text()
    assert table == (tmp_path / "main.csv").read_text()
    assert len(table.splitlines()) == 2001


def test_failed_final_flush_exit_two(corpus_dir):
    # The report fits in the stream's buffer, so the flush after main()
    # returns is the first write that fails; it must not end as exit 120.
    done = fresh("-c", (
        "import io, sys\n"
        "import liecheck.cli\n"
        "class Full(io.StringIO):\n"
        "    def flush(self): raise OSError(28, 'No space left on device')\n"
        "sys.stdout = Full()\n"
        f"sys.argv = ['liecheck', 'check', {str(corpus_dir / 'so3_sphere.lie')!r}]\n"
        "liecheck.cli.console_main()\n"))
    assert (done.returncode, done.stderr) == (2, "error: [Errno 28] No space left on device\n")


def test_writers_leave_no_file_open(capsys, corpus_dir, tmp_path):
    # The entry point ends the process without running finalizers, so a file
    # left open there would lose its buffered data without any error.
    gl3 = str(corpus_dir / "gl3_full.lie")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for argv in (["parse", gl3, "--out", str(tmp_path / "dump.lie")],
                     ["check", gl3, "--pair", "full", "--operator", "lmul",
                      "--report", "json", "--out", str(tmp_path / "report.json")],
                     ["harness", gl3, "--pair", "full", "--operator", "lmul",
                      "--samples", "5", "--out", str(tmp_path / "x.csv")]):
            assert main(argv) == 0
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_exact_commands_do_not_import_numpy(corpus_dir):
    run_fresh(
        "import sys\n"
        "import liecheck.cli\n"
        "if 'numpy' in sys.modules: sys.exit('numpy imported by liecheck.cli')\n"
        f"status = liecheck.cli.main(['check', {str(corpus_dir / 'so3_sphere.lie')!r}])\n"
        "if status != 0: sys.exit(f'check exited {status}')\n"
        "if 'numpy' in sys.modules: sys.exit('numpy imported by check')\n"
    )


def test_harness_without_model_does_not_import_numpy(corpus_dir):
    # The model kind and the three "no model" errors are decided before any
    # float work, so these commands exit 2 without importing numpy.
    no_model = ("error: LieCheckError: no numerical model for this pair (supported: "
                "trivial stabilizer on a matrix algebra, or the 3-dimensional rotation pair)\n")
    cases = [
        (["nil4.lie", "--operator", "jplane"], "error: LieCheckError: the full-group model "
         "needs an algebra built from matrix generators\n"),
        (["u4_grassmannian.lie"], no_model),
        (["gl3_full.lie", "--pair", "modsl3", "--operator", "lmul"], no_model),
    ]
    for argv, stderr in cases:
        argv = ["harness", str(corpus_dir / argv[0]), *argv[1:]]
        run_fresh(
            "import contextlib, io, sys\n"
            "import liecheck.cli\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            f"    status = liecheck.cli.main({argv!r})\n"
            f"if (status, err.getvalue()) != (2, {stderr!r}):\n"
            "    sys.exit(f'exit {status}: {err.getvalue()!r}')\n"
            "if 'numpy' in sys.modules: sys.exit('numpy imported')\n"
        )


def test_witness_past_the_int_string_limit(capsys, tmp_path):
    # Generators N*E11 and E21/N with a 3000-digit N, and left(M*E21): the
    # operator sends the first generator to M*N^2 times the second, about
    # 9000 digits, which the witness shows exactly.
    n, m = 10 ** 2999 + 7, 3 * 10 ** 2999 + 1
    path = tmp_path / "huge.lie"
    path.write_text(
        f"matrix_algebra b2 dim = 2 {{ gen a = [[{n},0],[0,0]]; gen b = [[0,0],[1/{n},0]]; }}\n"
        "subalgebra k of b2 = span(a);\n"
        f"operator big on b2 = left([[0,0],[{m},0]]);\n"
        "pair p = (b2, k, connected = true);\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "failed clause: preserves_k" in lines
    image = next(line for line in lines if line.startswith("  image = "))
    coords = image.split("coords (")[1].rstrip(")").split(", ")
    assert coords[0] == "0" and decimal_value(coords[1]) == m * n * n
    code, out, _ = run(capsys, "check", str(path), "--report", "json")
    witness = json.loads(out)["witnesses"][0]
    assert code == 1 and decimal_value(witness["image"]["coords"][1]) == m * n * n


@pytest.mark.parametrize("argv, status", [
    (["parse", "so3_sphere.lie"], 0),
    (["check", "so3_sphere.lie"], 0),
    (["check", "so3_sphere.lie", "--report", "json"], 0),
    (["torsion", "so3_sphere.lie"], 0),
    (["integrability", "so3_sphere.lie"], 0),
    (["harness", "so3_sphere.lie", "--samples", "3"], 0),
    (["check"], 2),
    (["check", "--help"], 0),
], ids=["parse", "check", "check-json", "torsion", "integrability", "harness", "usage-error",
        "help"])
def test_cli_import_budget(corpus_dir, argv, status):
    # Compared against the modules loaded before the import, since site
    # imports modules of its own.  Only a JSON report may load json.
    argv = in_corpus(corpus_dir, argv)
    banned = {"dataclasses", "traceback", "argparse", "gettext", "locale"}
    if "json" not in argv:
        banned.add("json")
    run_fresh(
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        f"def loaded(): return {banned!r} & (set(sys.modules) - before)\n"
        "import liecheck.cli\n"
        "if loaded(): sys.exit(f'liecheck.cli imported {loaded()}')\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        status = liecheck.cli.main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        status = exc.code\n"
        f"if status != {status}: sys.exit(f'exit {{status}}')\n"
        f"if loaded(): sys.exit(f'{argv[0]} imported {{loaded()}}')\n"
    )


def test_exact_commands_do_not_import_typing(corpus_dir):
    # Without site (-S) nothing preloads typing, so this sees what the exact
    # commands load themselves; numpy loads it for the harness.
    sphere = str(corpus_dir / "so3_sphere.lie")
    done = fresh("-S", "-c", (
        "import contextlib, io, sys\n"
        "if 'typing' in sys.modules: sys.exit('typing loaded at start-up')\n"
        "import liecheck.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for command in ('parse', 'check', 'torsion', 'integrability'):\n"
        f"        status = liecheck.cli.main([command, {sphere!r}])\n"
        "        if status != 0: sys.exit(f'{command} exited {status}')\n"
        "if 'typing' in sys.modules: sys.exit('typing loaded')\n"))
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("argv", [
    ["so3_sphere.lie"],
    ["gl3_full.lie", "--pair", "full", "--operator", "lmul", "--samples", "200"],
], ids=["sphere", "full-group"])
def test_harness_does_not_import_numpy_random(corpus_dir, argv):
    # The samples come from the standard library's generator, so a harness
    # run loads numpy's core only: not numpy.random, nor the hashing and
    # secrets modules that numpy.random's seeding pulls in.
    argv = ["harness", str(corpus_dir / argv[0]), *argv[1:]]
    run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import liecheck.cli\n"
        f"status = liecheck.cli.main({argv!r})\n"
        "if status != 0: sys.exit(f'harness exited {status}')\n"
        "if 'numpy' not in sys.modules: sys.exit('the harness ran without numpy')\n"
        "new = set(sys.modules) - before\n"
        "loaded = sorted(m for m in new if m in ('hashlib', 'secrets')\n"
        "                or m == 'numpy.random' or m.startswith('numpy.random.'))\n"
        "if loaded: sys.exit(f'harness imported {loaded}')\n"
    )


def test_package_names_resolve_on_first_use():
    run_fresh(
        "import sys, types\n"
        "import liecheck\n"
        "ran = [name for name, module in sys.modules.items()\n"
        "       if name.startswith('liecheck.') and type(module) is types.ModuleType]\n"
        "if ran: sys.exit(f'import liecheck ran {ran}')\n"
        "listed = set(dir(liecheck))\n"
        "if not set(liecheck.__all__) <= listed: sys.exit('dir() misses public names')\n"
        "names = {}\n"
        "exec('from liecheck import *', names)\n"
        "missing = sorted(set(liecheck.__all__) - set(names))\n"
        "if missing: sys.exit(f'import * missed {missing}')\n"
        "from liecheck.complexstruct import check_integrable\n"
        "if names['check_integrable'] is not check_integrable: sys.exit('another object')\n"
    )


def test_lazy_module_first_run_blocks_other_threads(tmp_path, monkeypatch):
    # A second thread that reads a lazy module while its first run is still
    # going waits for the run to end, instead of finding the module half-run.
    package = tmp_path / "lazy_gate"
    package.mkdir()
    (package / "__init__.py").write_text(
        "import threading\nstarted = threading.Event()\nproceed = threading.Event()\n")
    (package / "slow.py").write_text(
        "from . import proceed, started\nstarted.set()\nproceed.wait(30)\nVALUE = 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    gate = importlib.import_module("lazy_gate")
    try:
        slow = liecheck._lazy_module("lazy_gate.slow")
        seen = []

        def read():
            try:
                seen.append(slow.VALUE)
            except AttributeError as exc:
                seen.append(exc)

        first = threading.Thread(target=read)
        first.start()
        assert gate.started.wait(30)
        second = threading.Thread(target=read)
        second.start()
        second.join(0.2)
        gate.proceed.set()
        first.join(30)
        second.join(30)
        assert seen == [1, 1]
    finally:
        gate.proceed.set()
        sys.modules.pop("lazy_gate.slow", None)
        sys.modules.pop("lazy_gate", None)


def test_concurrent_first_build(corpus_dir):
    # Threads that build at once right after importing specfile all find
    # the algebra and operators modules whole.
    run_fresh(
        "import sys, threading\n"
        "sys.setswitchinterval(1e-6)\n"
        "from liecheck import specfile\n"
        f"with open({str(corpus_dir / 'so3_sphere.lie')!r}) as f:\n"
        "    document = specfile.parse(f.read())\n"
        "barrier = threading.Barrier(4)\n"
        "errors = []\n"
        "def work():\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        specfile.build(document)\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "threads = [threading.Thread(target=work) for _ in range(4)]\n"
        "for thread in threads: thread.start()\n"
        "for thread in threads: thread.join(60)\n"
        "if errors: sys.exit(errors[0])\n"
    )


@pytest.mark.parametrize("command, not_run", [
    ("parse", ("algebra", "operators", "torsion", "complexstruct", "harness")),
    ("check", ("complexstruct", "harness")),
    ("torsion", ("complexstruct", "harness")),
    ("integrability", ("harness",)),
])
def test_command_runs_only_the_modules_it_uses(corpus_dir, command, not_run):
    # A module not yet run may sit in sys.modules as a lazy placeholder, whose
    # type is a subclass of ModuleType until its first attribute access.
    run_fresh(
        "import contextlib, io, sys, types\n"
        "import liecheck.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = liecheck.cli.main([{command!r}, {str(corpus_dir / 'so3_sphere.lie')!r}])\n"
        "if status != 0: sys.exit(f'exit {status}')\n"
        f"ran = [m for m in {not_run!r}\n"
        "       if type(sys.modules.get('liecheck.' + m)) is types.ModuleType]\n"
        f"if ran: sys.exit(f'{command} ran {{ran}}')\n"
    )


def test_harness_json_report_reproducible(capsys, corpus_dir):
    argv = ("harness", str(corpus_dir / "gl3_full.lie"), "--pair", "full",
            "--operator", "smix", "--samples", "30", "--seed", "5",
            "--report", "json")
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.splitlines(keepends=True)
        outputs.append([line for line in lines if '"elapsed_ms"' not in line])
        assert len(outputs[-1]) == len(lines) - 1
    assert outputs[0] == outputs[1]


def test_unused_broken_declaration_exit_two(capsys, fixtures_dir):
    # Every declaration of the file is built, so a broken operator that the
    # command does not use still fails it; parse does not build.
    path = str(fixtures_dir / "unused_bad_operator.lie")
    code, out, err = run(capsys, "check", path, "--operator", "good")
    assert (code, out) == (2, "")
    assert err == "error: DimensionMismatch: inner dimensions do not match\n"
    code, _, err = run(capsys, "parse", path)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("text, what", [
    ("", "pair"),
    ("algebra a { basis x y; } subalgebra s of a = span(x); pair p = (a, s);", "operator"),
])
def test_input_without_pair_or_operator_exit_two(capsys, tmp_path, text, what):
    path = tmp_path / "partial.lie"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: LieCheckError: the input declares no {what}\n"


class FailingStream(io.StringIO):
    def write(self, text):
        raise OSError(9, "Bad file descriptor")


def test_unwritable_error_line_still_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stderr", FailingStream())
    assert main(["check", "missing.lie"]) == 2
    assert capsys.readouterr().out == ""


def test_unwritable_traceback_still_exit_two(capsys, monkeypatch, corpus_dir):
    def broken(pair, op):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr("liecheck.operators.check_admissible", broken)
    monkeypatch.setattr(sys, "stderr", FailingStream())
    assert main(["check", str(corpus_dir / "so3_sphere.lie")]) == 2
    assert capsys.readouterr().out == ""


def test_closed_stdout_is_an_output_error(capsys, monkeypatch, corpus_dir):
    monkeypatch.setattr(sys, "stdout", None)
    for argv in (["check", str(corpus_dir / "so3_sphere.lie")],
                 ["parse", str(corpus_dir / "so3_sphere.lie")]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: standard output is closed\n"


def test_closed_stderr_drops_the_error_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stderr", None)
    assert main(["check", "missing.lie"]) == 2
    assert capsys.readouterr().out == ""


def close_fd(fd):
    """A ``preexec_fn`` that starts the child with ``fd`` closed."""
    return lambda: os.close(fd)


def test_entry_point_with_closed_or_unwritable_streams(corpus_dir):
    done = fresh("-m", "liecheck.cli", "check", str(corpus_dir / "so3_sphere.lie"),
                 preexec_fn=close_fd(1))
    assert (done.returncode, done.stderr) == (2, "error: standard output is closed\n")
    done = fresh("-m", "liecheck.cli", "check", "missing.lie", preexec_fn=close_fd(2))
    assert (done.returncode, done.stdout) == (2, "")
    with open(os.devnull, encoding="utf-8") as read_only:
        done = fresh("-m", "liecheck.cli", "check", "missing.lie", stderr=read_only)
    assert (done.returncode, done.stdout) == (2, "")


@pytest.mark.parametrize("argv", [
    ["parse", "so3_sphere.lie", "--out", ""],
    ["check", "so3_sphere.lie", "--out", ""],
    ["check", "so3_sphere.lie", "--report", "json", "--out="],
    ["harness", "so3_sphere.lie", "--samples", "3", "--out", ""],
], ids=["parse", "check", "check-json", "harness"])
def test_empty_out_path_is_an_output_error(capsys, corpus_dir, argv):
    argv = in_corpus(corpus_dir, argv)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "''" in err
