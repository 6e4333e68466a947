"""Command-line surface: exit codes, report text, output streams."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gamma13
from gamma13.cli import main
from gamma13.certificate import certificate_to_json, load_shipped_certificate
from gamma13.qseries import QSeries, eta_product, format_coefficient_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def delta_file_text(length=512, sign=1):
    return format_coefficient_file(eta_product([(1, 24)], length), 12, 1, sign)


def shipped_f_with(edit):
    """The shipped f certificate as JSON bytes, after ``edit(doc)``."""
    doc = json.loads(certificate_to_json(load_shipped_certificate("f")))
    edit(doc)
    return json.dumps(doc).encode("utf-8")


def first_step(doc, rule):
    return next(s for s in doc["steps"] if s["rule"] == rule)


def overflowing_product(doc):
    """T2 == a2^40000, then t2sq.b scales it by a2^40000: each exponent
    parses, their product passes the cap."""
    next(ax for ax in doc["axioms"] if ax["id"] == "ax:T2")["rhs"] = "a2^40000"
    for step in doc["steps"]:
        if step["id"] == "T2":
            step["result"]["rhs"] = "a2^40000"
        if step["id"] == "t2sq.b":
            step["args"][1] = "a2^40000"


class TestVerify:
    def test_shipped_default_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "CERTIFICATE OK"
        assert "STEP delta2 OK" in lines
        assert all(line.startswith("STEP ") for line in lines[:-1])

    def test_shipped_reflection_context_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--context", "g")
        assert code == 0
        assert out.strip().splitlines()[-1] == "CERTIFICATE OK"
        assert "STEP h2-sign OK" in out

    def test_explicit_path(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(certificate_to_json(load_shipped_certificate("f")))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert out.strip().splitlines()[-1] == "CERTIFICATE OK"

    def test_corrupted_step_fails_and_names_it(self, capsys, tmp_path):
        text = certificate_to_json(load_shipped_certificate("f"))
        assert '"lhs": "[[1,-1],[0,1]]"' in text
        path = tmp_path / "bad.json"
        path.write_text(text.replace('"lhs": "[[1,-1],[0,1]]"',
                                     '"lhs": "[[1,1],[0,1]]"'))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert out.strip().splitlines()[-1] == "CERTIFICATE FAIL"
        assert "STEP Pinv FAIL" in out
        assert "Pinv" in err

    def test_malformed_json_is_usage_error_with_position(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{ not json")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("old, new, where", [
        ('\n    "[[1,-1],[0,1]]"', '\n    "sqrt(5)*[[1,-1],[0,1]]"',
         "step pinv.a: bad factor: "
         "sqrt(5) does not belong to Q(sqrt(13)) (at position 5)"),
        ('   "lhs": "[[1,1],[0,1]]"', '   "lhs": "[[1,sqrt(5)],[0,1]]"',
         "malformed certificate: axiom ax:P: "
         "sqrt(5) does not belong to Q(sqrt(13)) (at position 9)"),
    ], ids=["right-mul-factor", "axiom-side"])
    def test_foreign_square_root_is_usage_error_with_position(
            self, capsys, tmp_path, old, new, where):
        # the first match is the pinv.a factor, resp. the lhs of ax:P
        text = certificate_to_json(load_shipped_certificate("f"))
        assert old in text
        path = tmp_path / "foreign.json"
        path.write_text(text.replace(old, new, 1))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out, err.strip()) == (2, "", where)

    @pytest.mark.parametrize("make, where", [
        (lambda: shipped_f_with(lambda d: d["steps"][0]["result"].update(
            lhs="a2^70000*[[1,1],[0,1]]")),
         "malformed certificate: step P: "
         "exponent 70000 exceeds limit 65536"),
        (lambda: shipped_f_with(lambda d: first_step(d, "SCALE")["args"]
                                .__setitem__(1, "a3^70000")),
         "step w.d: bad scalar: exponent 70000 exceeds limit 65536"),
        (lambda: shipped_f_with(lambda d: next(
            s for s in d["steps"] if s["id"] == "Pinv")["result"].update(
                lhs="[[1,2],[2,4]] + (")),
         "malformed certificate: step Pinv: projective class requires "
         "positive determinant, got 0 for [[1,2],[2,4]]"),
        (lambda: shipped_f_with(lambda d: d["axioms"][0].update(
            lhs="[[1,1],[0,0]]")),
         "malformed certificate: axiom ax:P: projective class requires "
         "positive determinant"),
        (lambda: shipped_f_with(lambda d: first_step(d, "RIGHT_MUL")["args"]
                                .__setitem__(1, "[[1,1],[1,1]]")),
         "step pinv.a: bad factor: projective class requires positive "
         "determinant"),
        (lambda: shipped_f_with(overflowing_product),
         "step t2sq.b: exponent 80000 exceeds limit 65536"),
        (lambda: shipped_f_with(lambda d: first_step(d, "SCALE")["args"]
                                .__setitem__(1, "(2)^10000000")),
         "step w.d: bad scalar: exponent 10000000 times 2 coefficient bits "
         "exceeds limit 65536"),
        (lambda: shipped_f_with(lambda d: d["steps"][0].update(
            args={"ax:P": 1})),
         "malformed certificate: step P: args must be a list of strings"),
        (lambda: shipped_f_with(lambda d: d["steps"][0].update(args="ax:P")),
         "malformed certificate: step P: args must be a list of strings"),
        (lambda: shipped_f_with(lambda d: d.update(level="x")),
         "malformed certificate: level: "),
        (lambda: shipped_f_with(lambda d: d.update(level=1.5)),
         "malformed certificate: level: must be a positive JSON integer, "
         "got 1.5"),
        (lambda: shipped_f_with(lambda d: d.update(level=True)),
         "malformed certificate: level: must be a positive JSON integer, "
         "got True"),
        (lambda: shipped_f_with(lambda d: d.update(level="13")),
         "malformed certificate: level: must be a positive JSON integer, "
         "got '13'"),
        (lambda: shipped_f_with(lambda d: first_step(d, "RIGHT_MUL")
                                .update(id=5)),
         "malformed certificate: step 5: id must be a JSON string, got 5"),
        (lambda: shipped_f_with(lambda d: d["steps"][0].update(rule=7)),
         "malformed certificate: step P: rule must be a JSON string, got 7"),
        (lambda: b"[1, 2]",
         "malformed certificate: the document is a JSON list, not an object"),
        (lambda: b"\xff\xfe{}", "is not UTF-8 text"),
        (lambda: b"[" * 100000, "malformed JSON: nested too deeply"),
        (lambda: shipped_f_with(lambda d: d["axioms"][0].update(
            lhs="(" * 5000 + "1" + ")" * 5000)),
         "malformed certificate: axiom ax:P: nested too deeply"),
    ], ids=["claimed-side-exponent", "scale-exponent",
            "singular-matrix-before-grammar-error", "singular-axiom-side",
            "singular-factor", "product-exponent", "constant-power-bits",
            "args-object", "args-string", "level-not-integer",
            "level-float", "level-bool", "level-string", "step-id-integer",
            "rule-not-string",
            "top-level-list", "not-utf8", "deep-json", "deep-axiom-side"])
    def test_malformed_certificate_is_usage_error(self, capsys, tmp_path,
                                                  make, where):
        path = tmp_path / "malformed.json"
        path.write_bytes(make())
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and where in err, err

    @pytest.mark.parametrize("edit, where", [
        (lambda d: first_step(d, "SCALE")["args"].__setitem__(1, "(2)^20000"),
         "step w.d (SCALE): claimed result disagrees with recomputation; "
         "difference too long to print"),
        (lambda d: next(s for s in d["steps"] if s["id"] == "w.b")["result"]
         .update(rhs="(2)^20000*[[1,1],[0,1]]"),
         "step w.c (TRANS): middle terms differ: too long to print vs "
         "[[0,1],[-13,0]]"),
    ], ids=["difference", "middle-term"])
    def test_rational_too_long_for_text_still_fails_cleanly(
            self, capsys, tmp_path, edit, where):
        # 2^20000 has 6,021 digits, past the 4,300 that int converts to text
        path = tmp_path / "long.json"
        path.write_bytes(shipped_f_with(edit))
        code, out, err = run_cli(capsys, "verify", str(path))
        lines = out.splitlines()
        assert code == 1 and lines[-1] == "CERTIFICATE FAIL"
        assert len(lines) == 94 and all(line.startswith("STEP ")
                                        for line in lines[:-1])
        assert where in err.splitlines()

    @pytest.mark.parametrize("step_id, failures", [
        ("P", [("P", "AXIOM", "[[1,1],[0,1]]"), ("pinv.a", "RIGHT_MUL", "-1"),
               ("ph.a", "RIGHT_MUL", "-[[13,-1],[13,0]]"),
               ("H4", "ADD", "-[[1,1],[0,1]]")]),
        ("pinv.a", [("pinv.a", "RIGHT_MUL", "[[1,1],[0,1]]"),
                    ("Pinv", "SYM", "[[1,1],[0,1]]")]),
        ("Pinv", [("Pinv", "SYM", "[[1,1],[0,1]]"),
                  ("w.b", "RIGHT_MUL", "-[[13,-1],[13,0]]"),
                  ("hpinv.b", "SCALE", "-e*[[1,1],[0,1]]")]),
        ("w.c", [("w.c", "TRANS", "[[1,1],[0,1]]"),
                 ("w.d", "SCALE", "-e*[[1,1],[0,1]]")]),
        ("w.d", [("w.d", "SCALE", "[[1,1],[0,1]]"),
                 ("W", "TRANS", None)]),
        ("R2", [("R2", "ADD", "[[1,1],[0,1]]"),
                ("g2.a", "RIGHT_MUL", "-[[2,0],[0,1]]")]),
        ("delta1", [("delta1", "RESCALE", "[[1,1],[0,1]]")]),
    ], ids=["AXIOM", "RIGHT_MUL", "SYM", "TRANS", "SCALE", "ADD", "RESCALE"])
    def test_tampered_claim_names_each_failing_step(self, capsys, tmp_path,
                                                    step_id, failures):
        # the first step of each rule claims one more term on its lhs; the
        # steps that cite it fail against its claim
        def tamper(doc):
            step = next(s for s in doc["steps"] if s["id"] == step_id)
            step["result"]["lhs"] += " + [[1,1],[0,1]]"

        path = tmp_path / "tampered.json"
        path.write_bytes(shipped_f_with(tamper))
        code, out, err = run_cli(capsys, "verify", str(path))
        expected = [
            f"step {sid} ({rule}): claimed result disagrees with "
            f"recomputation; difference {diff}" if diff else
            f"step {sid} ({rule}): middle terms differ: e*[[13,1],[-13,0]] "
            f"vs e*[[13,1],[-13,0]] + [[1,1],[0,1]]"
            for sid, rule, diff in failures]
        assert (code, err) == (1, "".join(f"{line}\n" for line in expected))
        assert [line for line in out.splitlines() if "FAIL" in line] == [
            *(f"STEP {sid} FAIL" for sid, _, _ in failures),
            "CERTIFICATE FAIL"]

    def test_missing_path(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify", str(tmp_path / "no.json"))
        assert code == 2
        assert err

    def test_report_flag_writes_file(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        code, out, err = run_cli(capsys, "verify", "--report", str(report))
        assert code == 0
        assert report.read_text() == out


class TestFormcheck:
    def test_discriminant_file_passes(self, capsys, tmp_path):
        path = tmp_path / "delta.txt"
        path.write_text(delta_file_text())
        code, out, err = run_cli(capsys, "formcheck", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "FORMCHECK OK"
        # a PASS bound below 2^-prec prints as that floor, not as digits
        assert "CONG ax:P max_residual<2^-256 verdict=PASS" in lines
        assert "HECKE p=2 recursion=PASS stroke=PASS" in lines
        assert "HECKE p=3 recursion=PASS stroke=PASS" in lines
        assert "CUSP decay verdict=PASS" in lines

    def test_residual_below_the_doubles_is_printed_not_zeroed(self, capsys,
                                                                tmp_path):
        # at 1100 bits the PASS bounds lie below 2^-1100 and print as that
        # floor; a_130 raised by 1 breaks ax:H by about |q|^130, a bound
        # below 2^-1022, where a double keeps too few bits, and no nonzero
        # bound may print as a zero
        lines = delta_file_text(length=3000).splitlines()
        n, c = lines[130].split()
        lines[130] = f"{n} {int(c) + 1}"
        path = tmp_path / "delta3000-a130.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "formcheck", str(path), "--prec",
                                 "1100", "--tol", "1e-330")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[0] == "CONG ax:P max_residual<2^-1100 verdict=PASS"
        assert lines[1] == "CONG ax:H max_residual=5.44e-320 verdict=FAIL"
        assert "CONG ax:T3 max_residual=5.65e-320 verdict=FAIL" in lines
        assert not any("0.00e+00" in line for line in lines)

    def test_wrong_sign_fails_on_inversion_residual(self, capsys, tmp_path):
        path = tmp_path / "delta_wrong_eps.txt"
        path.write_text(delta_file_text(sign=-1))
        code, out, err = run_cli(capsys, "formcheck", str(path))
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[-1] == "FORMCHECK FAIL"
        h_line = next(l for l in lines if l.startswith("CONG ax:H "))
        assert h_line.endswith("verdict=FAIL")

    def test_truncated_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text(delta_file_text(length=20))
        code, out, err = run_cli(capsys, "formcheck", str(path))
        assert (code, out) == (2, "")
        assert err == "series too short for p=3: need length >= 30, got 20\n"

    @pytest.mark.parametrize("length, p, need",
                             [(0, 2, 20), (10, 2, 20), (29, 3, 30)])
    def test_short_file_names_the_length_it_needs(self, capsys, tmp_path,
                                                  length, p, need):
        # the Hecke rows run first: a file too short for them is named by
        # its length, not by the radius it leaves at some congruence; at
        # L = 0 (the file `eta 1:24 0` writes, a_1 alone) before a_2 is read
        path = tmp_path / "short.txt"
        path.write_text(delta_file_text(length=length))
        code, out, err = run_cli(capsys, "formcheck", str(path))
        assert (code, out) == (2, "")
        assert err == (f"series too short for p={p}: need length >= {need}, "
                       f"got {length}\n")

    def test_short_expansion_names_congruence_and_tail_bound(self, capsys,
                                                             tmp_path):
        # at L=40 the bound past L alone makes S3's radius reach --tol:
        # a budget error, not a verdict
        path = tmp_path / "delta40.txt"
        path.write_text(delta_file_text(length=40))
        code, out, err = run_cli(capsys, "formcheck", str(path))
        assert (code, out) == (2, "")
        assert re.fullmatch(r"S3: ball radius \d\.\d+e-7 is not below the "
                            r"tolerance 1\.0e-15; the points and their images "
                            r"reach down to Im = 9/40\n", err), err

    def test_small_tolerance_is_kept_exactly(self, capsys, tmp_path):
        # far below 1e-30 the tolerance must still be kept, not rounded to 0
        path = tmp_path / "delta.txt"
        path.write_text(delta_file_text())
        code, out, err = run_cli(capsys, "formcheck", str(path),
                                 "--tol", "1e-50")
        assert code == 0
        assert out.strip().splitlines()[-1] == "FORMCHECK OK"
        # below every radius at 256 bits nothing can pass: a budget error,
        # naming the tolerance that float() would print as 0
        code, out, err = run_cli(capsys, "formcheck", str(path),
                                 "--tol", "1e-400")
        assert (code, out) == (2, "")
        assert "not below the tolerance 1.0e-400;" in err, err

    def test_coefficients_beyond_growth_bound_are_usage_error(self, capsys,
                                                              tmp_path):
        # the tail bound assumes |a_n| <= n^k; Delta scaled by 10^6 breaks it
        # at n = 1, and a file must not get a "rigorous" bound it violates
        delta = eta_product([(1, 24)], 512)
        scaled = QSeries(delta.offset, [10 ** 6 * c for c in delta.coeffs])
        path = tmp_path / "scaled.txt"
        path.write_text(format_coefficient_file(scaled, 12, 1, 1))
        code, out, err = run_cli(capsys, "formcheck", str(path))
        assert (code, out) == (2, "")
        assert "n=1 " in err and "|a_n| <= n^k" in err

    @pytest.mark.parametrize("coefficient", ["1/0", "abc"])
    def test_bad_coefficient_names_its_line(self, capsys, tmp_path,
                                            coefficient):
        # the blank line counts: the message names the file's own line
        path = tmp_path / "bad.txt"
        path.write_text(f"# k=12 N=1 eps=+1\n\n1 1\n2 {coefficient}\n")
        code, out, err = run_cli(capsys, "formcheck", str(path))
        assert (code, out, err) == (
            2, "", f"line 4: bad coefficient '{coefficient}'\n")

    def test_no_candidate_points_names_the_best_height(self, capsys,
                                                        tmp_path):
        # at N = 29 the best points for W = [[1,0],[29,1]] have images only
        # at 5/29^2, where the radius alone reaches --tol: a budget error
        path = tmp_path / "delta29.txt"
        path.write_text(format_coefficient_file(
            eta_product([(1, 24)], 512), 12, 29, 1))
        code, out, err = run_cli(capsys, "formcheck", str(path))
        assert (code, out) == (2, "")
        assert re.fullmatch(r"W: ball radius \S+ is not below the tolerance "
                            r"1\.0e-15; the points and their images reach "
                            r"down to Im = 5/841\n", err), err

    @pytest.mark.parametrize("level, prime", [(2, 2), (3, 3), (6, 2)])
    def test_level_divisible_by_two_or_three_is_refused(self, capsys, tmp_path,
                                                        level, prime):
        # ax:T2 and ax:T3 are the Hecke relations for p prime to the level
        path = tmp_path / f"delta{level}.txt"
        path.write_text(format_coefficient_file(
            eta_product([(1, 24)], 512), 12, level, 1))
        code, out, err = run_cli(capsys, "formcheck", str(path))
        assert (code, out) == (2, "")
        assert f"level {level} is divisible by {prime}" in err
        assert f"ax:T{prime}" in err

    @pytest.mark.parametrize("factors, length, weight, level, sign", [
        ([(1, 4), (5, 4)], 512, 4, 5, 1),
        ([(1, 2), (11, 2)], 1200, 2, 11, -1),
    ], ids=["5.4.a.a", "11.2.a.a"])
    def test_level_five_eigenform_passes(self, capsys, tmp_path, factors,
                                         length, weight, level, sign):
        # eta(z)^4 eta(5z)^4 is the newform 5.4.a.a, Fricke sign +1, and
        # eta(z)^2 eta(11z)^2 is 11.2.a.a, Fricke sign -1, whose H4 images
        # reach Im = 20/1089; the flipped sign must fail ax:H
        series = eta_product(factors, length)
        path = tmp_path / "newform.txt"
        path.write_text(format_coefficient_file(series, weight, level, sign))
        code, out, err = run_cli(capsys, "formcheck", str(path))
        assert (code, err) == (0, "")
        assert out.strip().splitlines()[-1] == "FORMCHECK OK"
        path.write_text(format_coefficient_file(series, weight, level, -sign))
        code, out, err = run_cli(capsys, "formcheck", str(path))
        assert (code, err) == (1, "")
        lines = out.strip().splitlines()
        assert lines[-1] == "FORMCHECK FAIL"
        assert any(line.startswith("CONG ax:H ") and line.endswith("FAIL")
                   for line in lines)

    def test_flag_header_mismatch(self, capsys, tmp_path):
        path = tmp_path / "delta.txt"
        path.write_text(delta_file_text())
        code, out, err = run_cli(capsys, "formcheck", str(path), "--k", "10")
        assert code == 2
        assert "k" in err

    def test_bad_tolerance_or_precision_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "delta.txt"
        path.write_text(delta_file_text())
        cases = [(["--tol", tol], "--tol")
                 for tol in ("inf", "nan", "-1", "0", "abc", "1e-10000")]
        cases.append((["--prec", "0"], "--prec"))
        for flags, named in cases:
            code, out, err = run_cli(capsys, "formcheck", str(path), *flags)
            assert (code, out) == (2, ""), flags
            assert named in err

    def test_hecke_prec_env_changes_nothing(self, capsys, tmp_path,
                                            monkeypatch):
        path = tmp_path / "delta.txt"
        path.write_text(delta_file_text())
        monkeypatch.delenv("HECKE_PREC", raising=False)
        unset = run_cli(capsys, "formcheck", str(path))
        monkeypatch.setenv("HECKE_PREC", "20")
        assert run_cli(capsys, "formcheck", str(path)) == unset
        assert unset[0] == 0

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "formcheck", str(tmp_path / "no.txt"))
        assert code == 2


class TestDecompose:
    def test_translation(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "[[1,1],[0,1]]")
        assert (code, out.strip()) == (0, "P")

    def test_generator_square(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "[[-9,4],[-52,23]]")
        assert (code, out.strip()) == (0, "g2^2")

    def test_identity_prints_one(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "[[1,0],[0,1]]")
        assert (code, out.strip()) == (0, "1")

    def test_non_member(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "[[1,0],[1,1]]")
        assert code == 1
        assert "not in Gamma0(13)" in err

    @pytest.mark.parametrize("matrix, word", [
        ("[[1,200000],[0,1]]", "P^200000"),
        ("[[1,0],[2600000,1]]", "W^200000"),
    ], ids=["P", "W"])
    def test_parabolic_power_is_one_letter(self, capsys, matrix, word):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "decompose", matrix)
        assert time.perf_counter() - start < 0.5
        assert (code, out.strip()) == (0, word)

    def test_member_outside_the_generated_subgroup(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "[[8,-5],[13,-8]]")
        assert (code, out) == (1, "")
        assert "outside the subgroup that P, W, g2 and g3 generate" in err

    @pytest.mark.parametrize("matrix, entry", [
        ("[[1,0],[0]]", None),
        ("[[1.5,0],[0,1]]", "(1,1)"),
        ("[[1,0],[13.9,1]]", "(2,1)"),
        ("[[True,0],[0,1]]", "(1,1)"),
        ("[[1,0,0],[1]]", "2x2"),
        # past the recursion limit, then past the parser's own stack
        ("[[" + "-" * 3000 + "1,0],[0,1]]", "': nested too deeply\n"),
        ("[[" + "-" * 10000 + "1,0],[0,1]]", "': nested too deeply\n"),
    ], ids=["short-row", "float", "float-w", "bool", "ragged", "deep-3000",
            "deep-10000"])
    def test_malformed_matrix(self, capsys, matrix, entry):
        code, out, err = run_cli(capsys, "decompose", matrix)
        assert code == 2
        assert not out
        if entry is not None:
            assert entry in err


class TestDensity:
    def test_unit_target(self, capsys):
        code, out, err = run_cli(capsys, "density", "1", "1e-9")
        assert (code, out.strip()) == (0, "(m,n)=(0,0) err=0")

    def test_generic_target(self, capsys):
        code, out, err = run_cli(capsys, "density", "5", "1e-3")
        assert code == 0
        assert re.match(r"\(m,n\)=\(-?\d+,-?\d+\) err=\d(\.\d+)?(e[-+]\d+)?$",
                        out.strip())

    def test_bound_exhaustion_fails(self, capsys):
        code, out, err = run_cli(capsys, "density", "5", "1e-3", "--bound", "1")
        assert code == 1
        assert err

    def test_nonpositive_target_is_usage_error(self, capsys):
        # NaN compares false both ways, so it must not pass a "<= 0" check
        for X, tol in (("0", "1e-3"), ("nan", "1e-3"), ("5", "nan"),
                       ("inf", "1e-3"), ("5", "inf")):
            code, out, err = run_cli(capsys, "density", X, tol)
            assert (code, out) == (2, ""), (X, tol)
            assert ("tolerance" if X == "5" else "target") in err, (X, tol)

    @pytest.mark.parametrize("X, tol, expected", [
        ("5", "1e-400", 1), ("1e-400", "1e-3", 0)])
    def test_tiny_positive_inputs_are_read_exactly(self, capsys, X, tol,
                                                   expected):
        # as floats both underflow to 0 and were refused as nonpositive
        code, out, err = run_cli(capsys, "density", X, tol)
        assert code == expected, err
        assert "positive finite" not in err

    def test_huge_bound_is_decided_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "density", "5", "1e-40",
                                 "--bound", "1000000000000")
        assert (code, out) == (1, "")
        assert "no exponent pair" in err
        assert time.perf_counter() - start < 1.0

    def test_huge_target_is_decided(self, capsys):
        code, out, err = run_cli(capsys, "density", "1e300", "1e-3")
        assert (code, out) == (1, "")
        assert "no exponent pair" in err


class TestAsym:
    def test_weight_minus_two_vanishes(self, capsys):
        code, out, err = run_cli(capsys, "asym", "-2")
        assert (code, out.strip()) == (0, "IDENTICALLY ZERO")

    def test_weight_four_pole(self, capsys):
        code, out, err = run_cli(capsys, "asym", "4")
        assert (code, out.strip()) == (0, "POLE ORDER 2 - NONZERO")

    def test_weight_two_pole(self, capsys):
        code, out, err = run_cli(capsys, "asym", "2")
        assert (code, out.strip()) == (0, "POLE ORDER 1 - NONZERO")

    def test_odd_weight_rejected(self, capsys):
        code, out, err = run_cli(capsys, "asym", "3")
        assert code == 2

    def test_weight_sixty_four_pole(self, capsys):
        code, out, err = run_cli(capsys, "asym", "64")
        assert (code, out.strip()) == (0, "POLE ORDER 32 - NONZERO")

    def test_weight_beyond_bound_rejected(self, capsys):
        # only a negative weight is bounded: its check evaluates |k| + 1 points
        code, out, err = run_cli(capsys, "asym", "-130")
        assert (code, out, err.strip()) == (
            2, "", "a negative weight is limited to k >= -128")
        code, out, err = run_cli(capsys, "asym", "130")
        assert (code, out, err) == (0, "POLE ORDER 65 - NONZERO\n", "")


class TestEta:
    def test_discriminant_factors(self, capsys):
        code, out, err = run_cli(capsys, "eta", "1:24", "64")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# k=12 N=1 eps=+1"
        assert lines[1] == "1 1"
        assert lines[2] == "2 -24"
        assert len(lines) == 66

    def test_fricke_sign_of_a_symmetric_product(self, capsys, tmp_path):
        # eta(z)^2 eta(11z)^2 is 11.2.a.a, Fricke sign (-1)^(2/2) = -1, and
        # eta(z)^4 eta(5z)^4 is 5.4.a.a, Fricke sign +1
        code, out, err = run_cli(capsys, "eta", "1:4,5:4", "32")
        assert (code, out.splitlines()[0]) == (0, "# k=4 N=5 eps=+1")
        code, out, err = run_cli(capsys, "eta", "1:2,11:2", "1200")
        assert (code, out.splitlines()[0]) == (0, "# k=2 N=11 eps=-1")
        path = tmp_path / "f.txt"
        path.write_text(out)
        code, out, err = run_cli(capsys, "formcheck", str(path))
        assert (code, out.splitlines()[-1], err) == (0, "FORMCHECK OK", "")

    @pytest.mark.parametrize("factors, plain, header", [
        ("1:24,13:2,13:-2", "1:24", "# k=12 N=1 eps=+1"),
        ("1:2,11:2,13:1,13:-1", "1:2,11:2", "# k=2 N=11 eps=-1")])
    def test_level_is_read_from_the_net_exponents(self, capsys, factors,
                                                  plain, header):
        # the pairs at 13 cancel: the product is the one without them, and
        # so are its header's level and Fricke sign
        code, out, err = run_cli(capsys, "eta", factors, "3")
        assert (code, out.splitlines()[0], err) == (0, header, "")
        assert run_cli(capsys, "eta", plain, "3") == (code, out, err)

    def test_level13_square_has_no_integer_expansion(self, capsys):
        code, out, err = run_cli(capsys, "eta", "1:2,13:2", "32")
        assert code == 1
        assert "exponent" in err

    @pytest.mark.parametrize("factors", ["1:12", "1:1000000000"])
    def test_fractional_leading_exponent_is_refused_before_expanding(
            self, capsys, monkeypatch, factors):
        def never(*args):
            raise AssertionError("eta_product was called")
        monkeypatch.setattr("gamma13.qseries.eta_product", never)
        length = "8" if factors == "1:12" else "4"
        code, out, err = run_cli(capsys, "eta", factors, length)
        assert (code, out) == (1, "")
        assert err.startswith("coefficient files need an integer leading "
                              "exponent >= 1, got ")

    def test_malformed_factor_string(self, capsys):
        code, out, err = run_cli(capsys, "eta", "nonsense", "32")
        assert code == 2

    def test_bad_multiplier(self, capsys):
        code, out, err = run_cli(capsys, "eta", "0:2", "32")
        assert code == 2

    # 2^62 entries overflow the size a list may ask for (MemoryError) and
    # 2^63 does not fit an index (OverflowError): both are refused before
    # any memory is allocated, so no test may use a length in between
    @pytest.mark.parametrize("length", ["4611686018427387904",
                                        "9223372036854775808"])
    def test_huge_length_is_a_usage_error(self, capsys, length):
        code, out, err = run_cli(capsys, "eta", "1:24", length)
        assert (code, out) == (2, "")
        assert err == (f"bad eta product request: truncation length "
                       f"{length} is too large\n")


def run_child(*args, stdout=subprocess.PIPE):
    # the child imports the same package as this process, installed or not
    src = str(Path(gamma13.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": path})


# unbuffered: True sets PYTHONUNBUFFERED, so the first write fails; False
# unsets it, so the flush fails; None leaves the environment as it is
@pytest.mark.parametrize("command, unbuffered", [
    ("formcheck", None), ("eta", None), ("--help", True), ("--help", False),
    ("formcheck --help", True), ("formcheck --help", False)], ids=[
    "formcheck", "eta", "help-unbuffered", "help-buffered",
    "formcheck-help-unbuffered", "formcheck-help-buffered"])
def test_closed_stdout_is_a_quiet_usage_exit(tmp_path, monkeypatch, command,
                                             unbuffered):
    # the read end of stdout's pipe is closed before the child writes
    # anything, so every write fails with EPIPE
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    elif unbuffered is not None:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    path = tmp_path / "delta512.txt"
    path.write_text(delta_file_text())
    argv = {"formcheck": ["formcheck", str(path)],
            "eta": ["eta", "1:24", "20000"]}.get(command, command.split())
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_child("-m", "gamma13", *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (2, "")


def test_module_entry_point():
    result = run_child("-m", "gamma13", "asym", "-2")
    assert result.returncode == 0
    assert result.stdout.strip() == "IDENTICALLY ZERO"


EXACT_COMMANDS = [["verify"], ["decompose", "[[-9,4],[-52,23]]"],
                  ["asym", "4"], ["eta", "1:24", "64"]]

# Runs each command in turn; after each, records its exit code and whether
# mpmath has been loaded so far.
EXACT_CHILD = """
import contextlib, io, json, sys
from gamma13.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen.append([code, "mpmath" in sys.modules])
print(json.dumps(seen))
"""


def test_exact_commands_never_load_mpmath():
    result = run_child("-c", EXACT_CHILD, json.dumps(EXACT_COMMANDS))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[0, False]] * len(EXACT_COMMANDS)


# Runs one command; prints its exit code and the package modules loaded.
LOADED_CHILD = """
import contextlib, io, json, sys
from gamma13.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("gamma13."))]))
"""


def loaded_by(argv):
    result = run_child("-c", LOADED_CHILD, json.dumps(argv))
    assert result.returncode == 0, result.stderr
    code, loaded = json.loads(result.stdout)
    assert code == 0
    return set(loaded)


def test_density_loads_no_exact_certificate_layer():
    assert not {"gamma13.level13", "gamma13.certificate",
                "gamma13.groupring", "gamma13.grammar"} & loaded_by(
                    ["density", "5", "1e-3"])


def test_verify_loads_no_level13():
    # the bundled certificates are read by the certificate format itself
    assert not {"gamma13.level13", "gamma13.numeric",
                "gamma13.qseries"} & loaded_by(["verify"])


def test_bare_package_import_loads_no_submodule():
    result = run_child("-c", "import gamma13, sys; print(sorted(m for m in "
                             "sys.modules if m.startswith('gamma13.')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
