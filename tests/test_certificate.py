"""The congruence-certificate calculus: rules, verification, serialization.

The mini-derivation used throughout (chain to [[1,0],[13,1]] == 1 from the
two generator axioms) was verified by hand before being frozen here.
"""

import pytest

import json
import re
from importlib import resources

from gamma13 import certificate, grammar, level13
from gamma13.certificate import (
    CertBuilder,
    Certificate,
    CertificateError,
    Congruence,
    SHIPPED_FILES,
    Step,
    certificate_from_json,
    certificate_to_json,
    load_shipped_certificate,
    verify_certificate,
)
from gamma13.exactnum import ScalarPoly
from gamma13.groupring import RingElem
from gamma13.projmat import ProjMat


def axioms():
    return [
        ("ax:P", RingElem.parse("[[1,1],[0,1]]"), RingElem.parse("1")),
        ("ax:H", RingElem.parse("[[0,-1],[13,0]]"), RingElem.parse("e")),
        ("ax:T2", RingElem.parse(
            "[[2,0],[0,1]] + [[1,0],[0,2]] + [[1,1],[0,2]]"),
         RingElem.parse("a2")),
    ]


def w_builder():
    b = CertBuilder(level=13)
    for ax_id, lhs, rhs in axioms():
        b.axiom(ax_id, lhs, rhs)
    b.step("P", "AXIOM", "ax:P")
    b.step("H", "AXIOM", "ax:H")
    b.step("pinv.1", "RIGHT_MUL", "P", RingElem.parse("[[1,-1],[0,1]]"))
    b.step("pinv", "SYM", "pinv.1")
    b.step("w1", "RIGHT_MUL", "H", RingElem.parse("[[-13,-1],[13,0]]"))
    b.step("w2", "RIGHT_MUL", "pinv", RingElem.parse("[[0,-1],[13,0]]"))
    b.step("w3", "TRANS", "w2", "H")
    b.step("w4", "SCALE", "w3", grammar.parse_scalar_poly("e"))
    b.step("W", "TRANS", "w1", "w4")
    return b


class TestVerification:
    def test_chain_to_translation_class(self):
        cert = w_builder().build()
        report = verify_certificate(cert)
        assert report.ok
        final = cert.steps[-1]
        assert final.id == "W"
        assert final.result.lhs == RingElem.parse("[[1,0],[13,1]]")
        assert final.result.rhs == RingElem.parse("1")

    def test_empty_certificate_ok(self):
        report = verify_certificate(Certificate(1, 13, (), ()))
        assert report.ok
        assert report.lines() == ["CERTIFICATE OK"]

    def test_axioms_only_ok(self):
        b = CertBuilder(level=13)
        for ax_id, lhs, rhs in axioms():
            b.axiom(ax_id, lhs, rhs)
        report = verify_certificate(b.build())
        assert report.ok

    def test_corrupted_step_fails_with_exact_diff(self):
        cert = w_builder().build()
        bogus = Step(
            id="bad", rule="RESCALE", args=("W",),
            result=Congruence("bad",
                              RingElem.parse("[[1,0],[13,1]]"),
                              RingElem.parse("1 - 2*[[3,-1],[13,-4]]")))
        report = verify_certificate(
            Certificate(1, 13, cert.axioms, cert.steps + (bogus,)))
        assert not report.ok
        verdict = report.step_verdicts[-1]
        assert not verdict.ok
        assert verdict.diff == RingElem.parse("2*[[3,-1],[13,-4]]")

    def test_trans_requires_matching_middle(self):
        b = w_builder()
        # rhs of w1 is e*[[-13,-1],[13,0]], not the lhs of pinv
        b.steps.append(Step(
            id="bad-trans", rule="TRANS", args=("w1", "pinv"),
            result=Congruence("bad-trans",
                              b.resolved["w1"].lhs, b.resolved["pinv"].rhs)))
        report = verify_certificate(b.build())
        assert not report.ok
        assert any(v.id == "bad-trans" and not v.ok
                   for v in report.step_verdicts)

    def test_rescale_allows_resplitting(self):
        b = CertBuilder(level=13)
        for ax_id, lhs, rhs in axioms():
            b.axiom(ax_id, lhs, rhs)
        cited = b.step("T2", "AXIOM", "ax:T2")
        moved = b.step("moved", "RESCALE", "T2", lhs=RingElem.parse(
            "[[2,0],[0,1]] + [[1,0],[0,2]] + [[1,1],[0,2]] - a2"),
            rhs=RingElem.parse("0"))
        # other sides than the rule derives, so only differences can agree
        assert (moved.lhs, moved.rhs) != (cited.lhs, cited.rhs)
        cert = b.build()
        assert verify_certificate(cert).ok
        loaded = certificate_from_json(certificate_to_json(cert))
        assert verify_certificate(loaded).lines() == [
            "STEP T2 OK", "STEP moved OK", "CERTIFICATE OK"]

    def test_rescale_rejects_changed_content(self):
        b = CertBuilder(level=13)
        for ax_id, lhs, rhs in axioms():
            b.axiom(ax_id, lhs, rhs)
        b.step("T2", "AXIOM", "ax:T2")
        with pytest.raises(CertificateError, match="moved"):
            b.step("moved", "RESCALE", "T2", lhs=RingElem.parse(
                "[[2,0],[0,1]] + [[1,0],[0,2]] + [[1,1],[0,2]]"),
                rhs=RingElem.parse("0"))

    @pytest.mark.parametrize("name, steps, differences", [
        ("f", 93, 9), ("g", 26, 0)])
    def test_only_claims_other_than_the_derived_sides_take_differences(
            self, monkeypatch, name, steps, differences):
        # replay calls _check_step once per step by its module name, which
        # the benchmark's counters and spans wrap; equal sides need no
        # subtraction, so only re-split claims compute their difference
        cert = load_shipped_certificate(name)
        calls = {"check": 0, "difference": 0}
        check, difference = certificate._check_step, Congruence.difference

        def counted_check(*args):
            calls["check"] += 1
            return check(*args)

        def counted_difference(self):
            calls["difference"] += 1
            return difference(self)

        monkeypatch.setattr(certificate, "_check_step", counted_check)
        monkeypatch.setattr(Congruence, "difference", counted_difference)
        assert verify_certificate(cert).ok
        assert calls == {"check": steps, "difference": differences}

    def test_unknown_rule_is_hard_error(self):
        cert = w_builder().build()
        bogus = Step("x", "FROBNICATE", ("W",),
                     Congruence("x", RingElem.one(), RingElem.one()))
        with pytest.raises(CertificateError, match="FROBNICATE"):
            verify_certificate(
                Certificate(1, 13, cert.axioms, cert.steps + (bogus,)))

    def test_dangling_reference_is_structural_error(self):
        cert = w_builder().build()
        bogus = Step("x", "SYM", ("nope",),
                     Congruence("x", RingElem.one(), RingElem.one()))
        with pytest.raises(CertificateError, match="nope"):
            verify_certificate(
                Certificate(1, 13, cert.axioms, cert.steps + (bogus,)))

    def test_duplicate_step_id_rejected(self):
        cert = w_builder().build()
        dup = Step("W", "RESCALE", ("W",), cert.steps[-1].result)
        with pytest.raises(CertificateError, match="duplicate"):
            verify_certificate(
                Certificate(1, 13, cert.axioms, cert.steps + (dup,)))

    def test_wrong_arity_rejected(self):
        cert = w_builder().build()
        bogus = Step("x", "SCALE", ("W",),
                     Congruence("x", RingElem.one(), RingElem.one()))
        with pytest.raises(CertificateError, match="SCALE"):
            verify_certificate(
                Certificate(1, 13, cert.axioms, cert.steps + (bogus,)))

    def test_forward_reference_rejected(self):
        b = w_builder()
        fwd = Step("early", "SYM", ("late",),
                   Congruence("early", RingElem.one(), RingElem.one()))
        late = Step("late", "RESCALE", ("W",), b.resolved["W"])
        cert = b.build()
        with pytest.raises(CertificateError, match="late"):
            verify_certificate(
                Certificate(1, 13, cert.axioms, (fwd,) + cert.steps + (late,)))


class TestReport:
    def test_lines(self):
        report = verify_certificate(w_builder().build())
        lines = report.lines()
        assert lines[0] == "STEP P OK"
        assert "STEP W OK" in lines
        assert lines[-1] == "CERTIFICATE OK"

    def test_failure_lines(self):
        cert = w_builder().build()
        bogus = Step(
            "bad", "RESCALE", ("W",),
            Congruence("bad", RingElem.parse("[[1,0],[13,1]]"),
                       RingElem.parse("2")))
        report = verify_certificate(
            Certificate(1, 13, cert.axioms, cert.steps + (bogus,)))
        lines = report.lines()
        assert "STEP bad FAIL" in lines
        assert lines[-1] == "CERTIFICATE FAIL"


class TestSerialization:
    def test_json_round_trip(self):
        cert = w_builder().build()
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        assert back == cert
        assert verify_certificate(back).ok

    def test_version_check(self):
        cert = w_builder().build()
        text = certificate_to_json(cert).replace('"version": 1', '"version": 99')
        with pytest.raises(CertificateError, match="version"):
            certificate_from_json(text)

    def test_builder_catches_bad_claims_immediately(self):
        b = CertBuilder(level=13)
        b.axiom("ax:P", RingElem.parse("[[1,1],[0,1]]"), RingElem.parse("1"))
        b.step("P", "AXIOM", "ax:P")
        with pytest.raises(CertificateError, match="oops"):
            b.step("oops", "RIGHT_MUL", "P", RingElem.parse("[[1,-1],[0,1]]"),
                   lhs=RingElem.parse("1"),
                   rhs=RingElem.parse("[[1,1],[0,1]]"))

    @pytest.mark.parametrize("level, error, message", [
        (2.7, TypeError, "level must be an int, got 2.7"),
        ("13", TypeError, "level must be an int, got '13'"),
        (True, TypeError, "level must be an int, got True"),
        (0, ValueError, "level must be a positive integer"),
        (-13, ValueError, "level must be a positive integer"),
    ], ids=["float", "string", "bool", "zero", "negative"])
    def test_builder_refuses_a_level_that_is_no_positive_int(self, level, error,
                                                             message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            CertBuilder(level)

    def test_builder_rejects_wrong_explicit_claim(self):
        b = w_builder()
        with pytest.raises(CertificateError,
                           match="step w5 does not verify: claimed result "
                                 "disagrees with recomputation; difference "):
            b.step("w5", "SCALE", "W", grammar.parse_scalar_poly("a2"),
                   lhs=RingElem.parse("a2*[[1,0],[13,1]]"),
                   rhs=RingElem.parse("0"))
        assert "w5" not in b.resolved

    @pytest.mark.parametrize("rule, args, message", [
        ("FROBNICATE", ("W",), "step x: unknown rule FROBNICATE"),
        ("RIGHT_MUL", ("W",),
         "step x: rule RIGHT_MUL takes 2 argument(s), got 1"),
    ], ids=["unknown-rule", "right-mul-one-argument"])
    def test_builder_refuses_a_malformed_step_as_replay_does(self, rule, args,
                                                             message):
        b = w_builder()
        cert = b.build()
        with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
            b.step("x", rule, *args)
        assert "x" not in b.resolved and b.build() == cert
        stored = Step("x", rule, args,
                      Congruence("x", RingElem.one(), RingElem.one()))
        with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
            verify_certificate(
                Certificate(1, 13, cert.axioms, cert.steps + (stored,)))

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(level=1.5),
         "level: must be a positive JSON integer, got 1.5"),
        (lambda d: d.update(level=True),
         "level: must be a positive JSON integer, got True"),
        (lambda d: d.update(level="13"),
         "level: must be a positive JSON integer, got '13'"),
        (lambda d: d.update(level=0),
         "level: must be a positive JSON integer, got 0"),
        (lambda d: d.update(level=None),
         "level: must be a positive JSON integer, got None"),
        (lambda d: d["axioms"][0].update(id=5),
         "axiom 5: id must be a JSON string, got 5"),
        (lambda d: step_of(d, "P").update(id=5),
         "step 5: id must be a JSON string, got 5"),
        (lambda d: step_of(d, "P").update(rule=7),
         "step P: rule must be a JSON string, got 7"),
        (lambda d: step_of(d, "P").update(rule=["AXIOM"]),
         "step P: rule must be a JSON string, got ['AXIOM']"),
    ], ids=["level-float", "level-bool", "level-string", "level-zero",
            "level-null", "axiom-id-integer", "step-id-integer",
            "rule-integer", "rule-list"])
    def test_field_types_are_not_coerced(self, edit, message):
        # an integer id once became a string, and the fault surfaced as a
        # dangling reference at a later step
        doc = shipped_f_doc()
        edit(doc)
        with pytest.raises(CertificateError) as info:
            certificate_from_json(json.dumps(doc))
        assert str(info.value) == f"malformed certificate: {message}"

    @pytest.mark.parametrize("name", sorted(SHIPPED_FILES))
    def test_shipped_text_round_trips(self, name):
        text = (resources.files("gamma13") / "data"
                / SHIPPED_FILES[name]).read_text(encoding="utf-8")
        assert certificate_to_json(certificate_from_json(text)) + "\n" == text


def operand_types(cert):
    return {(s.rule, type(s.args[1])) for s in cert.steps
            if s.rule in ("RIGHT_MUL", "SCALE")}


def shipped_f_doc():
    return json.loads(certificate_to_json(load_shipped_certificate("f")))


def step_of(doc, step_id):
    return next(s for s in doc["steps"] if s["id"] == step_id)


class TestOperands:
    """A step's operand is a value: the reader parses it, the writer prints
    it, and nothing in between goes through text."""

    def test_loaded_and_built_operands_are_values(self):
        expected = {("RIGHT_MUL", RingElem), ("SCALE", ScalarPoly)}
        assert operand_types(load_shipped_certificate("f")) == expected
        assert operand_types(level13.build_f_certificate(13)) == expected
        assert operand_types(w_builder().build()) == expected

    def test_bad_operand_is_reported_at_load_before_replay(self):
        # two faults: a dangling reference in step H, which replay would
        # meet first, and a foreign square root in the factor of pinv.a
        doc = shipped_f_doc()
        step_of(doc, "H")["args"][0] = "nope"
        step_of(doc, "pinv.a")["args"][1] = "sqrt(5)*[[1,-1],[0,1]]"
        with pytest.raises(CertificateError) as info:
            certificate_from_json(json.dumps(doc))
        assert str(info.value) == ("step pinv.a: bad factor: sqrt(5) does "
                                   "not belong to Q(sqrt(13)) (at position 5)")

    def test_wrong_arity_keeps_operand_text_for_replay(self):
        doc = shipped_f_doc()
        step_of(doc, "pinv.a")["args"].append("[[1,1],[0,1]]")
        cert = certificate_from_json(json.dumps(doc))
        with pytest.raises(CertificateError,
                           match="step pinv.a: rule RIGHT_MUL takes 2 "
                                 "argument\\(s\\), got 3"):
            verify_certificate(cert)

    def test_side_product_past_exponent_cap_is_refused(self):
        # lhs - rhs is [[2,0],[0,1]], but each side carries a2^40000, and
        # times a2^30000 that passes the cap even though it cancels
        lhs = "a2^40000*[[1,1],[0,1]] + [[2,0],[0,1]]"
        rhs = "a2^40000*[[1,1],[0,1]]"
        doc = {"version": 1, "level": 13,
               "axioms": [{"id": "ax:X", "lhs": lhs, "rhs": rhs}],
               "steps": [
                   {"id": "X", "rule": "AXIOM", "args": ["ax:X"],
                    "result": {"lhs": lhs, "rhs": rhs}},
                   {"id": "x.a", "rule": "RIGHT_MUL", "args": ["X", "a2^30000"],
                    "result": {"lhs": "a2^30000*[[2,0],[0,1]]", "rhs": "0"}}]}
        cert = certificate_from_json(json.dumps(doc))
        message = "step x.a: exponent 70000 exceeds limit 65536"
        with pytest.raises(CertificateError, match=message):
            verify_certificate(cert)
        b = CertBuilder(level=13)
        b.axiom("ax:X", RingElem.parse(lhs), RingElem.parse(rhs))
        b.step("X", "AXIOM", "ax:X")
        with pytest.raises(CertificateError, match=message):
            b.step("x.a", "RIGHT_MUL", "X", RingElem.parse("a2^30000"))

    def test_scale_past_exponent_cap_is_refused(self):
        # the sides carry a2^40000; times the scalar a2^30000 they pass the
        # cap during replay, although neither text does
        lhs = "a2^40000*[[1,1],[0,1]] + [[2,0],[0,1]]"
        rhs = "a2^40000*[[1,1],[0,1]]"
        doc = {"version": 1, "level": 13,
               "axioms": [{"id": "ax:X", "lhs": lhs, "rhs": rhs}],
               "steps": [
                   {"id": "X", "rule": "AXIOM", "args": ["ax:X"],
                    "result": {"lhs": lhs, "rhs": rhs}},
                   {"id": "x.s", "rule": "SCALE", "args": ["X", "a2^30000"],
                    "result": {"lhs": "a2^30000*[[2,0],[0,1]]", "rhs": "0"}}]}
        cert = certificate_from_json(json.dumps(doc))
        message = "step x.s: exponent 70000 exceeds limit 65536"
        with pytest.raises(CertificateError, match=message):
            verify_certificate(cert)
        b = CertBuilder(level=13)
        b.axiom("ax:X", RingElem.parse(lhs), RingElem.parse(rhs))
        b.step("X", "AXIOM", "ax:X")
        with pytest.raises(CertificateError, match=message):
            b.step("x.s", "SCALE", "X", grammar.parse_scalar_poly("a2^30000"))



def matrices_of(cert):
    """Every ProjMat object a loaded certificate holds."""
    elems = [c for ax in cert.axioms for c in (ax.lhs, ax.rhs)]
    for step in cert.steps:
        elems += [step.result.lhs, step.result.rhs]
        elems += [a for a in step.args if isinstance(a, RingElem)]
    return [mat for elem in elems for mat, _ in elem.terms()]


class TestLoadMemo:
    """A load reads each distinct ring text, matrix, entry and scalar once;
    the memo is keyed by exact text, keeps only successes and lives for one
    load."""

    def test_respaced_matrices_load_to_the_same_classes(self):
        doc = shipped_f_doc()
        for i, step in enumerate(doc["steps"]):
            if i % 2:
                step["result"]["lhs"] = step["result"]["lhs"].replace(",", " , ")
            if step["rule"] == "RIGHT_MUL":
                step["args"][1] = step["args"][1].replace("[", "[ ")
        original = load_shipped_certificate("f")
        respaced = certificate_from_json(json.dumps(doc))
        assert respaced == original
        assert (verify_certificate(respaced).lines()
                == verify_certificate(original).lines())

    @pytest.mark.parametrize("step_id, text, message", [
        ("Pinv", "[[1,-1],[0,1]]]", "malformed certificate: step Pinv: "
         "trailing input ']' (at position 14)"),
        ("Pinv", "[[1,-1],[0,1]", "malformed certificate: step Pinv: "
         "expected ']', got '' (at position 13)"),
        ("Pinv", "[[1,-1],[0,1]] + [[1,-1],[0,1", "malformed certificate: "
         "step Pinv: expected ']', got '' (at position 29)"),
        ("Pinv", "[[1,-1],[0,1]] [[1,-1],[0,1]]", "malformed certificate: "
         "step Pinv: trailing input '[' (at position 15)"),
        ("Pinv", "[[1,-1],[0,1],[0,1]]", "malformed certificate: step Pinv: "
         "expected ']', got ',' (at position 13)"),
        ("hpinv.a", "[[1,-1],[0,1]]]", "step hpinv.a: bad factor: "
         "trailing input ']' (at position 14)"),
        ("hpinv.a", "[[1,-1], [0,1]] + [[1,-1],[0 1]]", "step hpinv.a: "
         "bad factor: expected ',', got '1' (at position 29)"),
    ])
    def test_malformed_copy_of_a_parsed_matrix_keeps_its_error(
            self, step_id, text, message):
        # [[1,-1],[0,1]] parses in pinv.a, before Pinv and hpinv.a
        doc = shipped_f_doc()
        step = step_of(doc, step_id)
        if step["rule"] == "RIGHT_MUL":
            step["args"][1] = text
        else:
            step["result"]["lhs"] = text
        with pytest.raises(CertificateError) as info:
            certificate_from_json(json.dumps(doc))
        assert str(info.value) == message

    def test_two_loads_share_no_matrix(self):
        # a bare coefficient stands on the package's one identity class;
        # every matrix parsed from text is a new object per load
        first = load_shipped_certificate("f")
        second = load_shipped_certificate("f")
        assert first == second
        parsed = [{id(m) for m in matrices_of(cert) if not m.is_identity}
                  for cert in (first, second)]
        assert not parsed[0] & parsed[1]
        assert all(m is ProjMat.identity()
                   for cert in (first, second) for m in matrices_of(cert)
                   if m.is_identity)

    def test_two_loads_each_read_every_text_once(self, monkeypatch):
        # one _Tokens per distinct ring text, matrix entry and scalar
        # operand, in each load: nothing is kept from one load to the next
        doc = shipped_f_doc()
        rings = {ax[side] for ax in doc["axioms"] for side in ("lhs", "rhs")}
        rings |= {s["result"][side] for s in doc["steps"]
                  for side in ("lhs", "rhs")}
        rings |= {s["args"][1] for s in doc["steps"]
                  if s["rule"] == "RIGHT_MUL"}
        entries = {entry for text in rings
                   for entries in grammar._MATRIX.findall(text)
                   for entry in entries}
        scalars = {s["args"][1] for s in doc["steps"] if s["rule"] == "SCALE"}
        made = []

        class Counted(grammar._Tokens):
            def __init__(self, *args):
                made.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(grammar, "_Tokens", Counted)
        text = json.dumps(doc)
        reads = []
        for _ in range(2):
            certificate_from_json(text)
            reads.append(sorted(made))
            made.clear()
        assert reads[0] == reads[1] == sorted([*rings, *entries, *scalars])

    @pytest.mark.parametrize("first", [True, False])
    def test_a_ring_text_that_is_one_matrix_shares_the_memo(self, first):
        # the ring text "[[1,1],[0,1]]" and the matrix token in it are two
        # memo entries of different kinds
        memo: dict = {}
        texts = ["[[1,1],[0,1]]", "2*[[1,1],[0,1]] + 1"]
        values = [RingElem.of([[1, 1], [0, 1]]),
                  2 * RingElem.of([[1, 1], [0, 1]]) + 1]
        if not first:
            texts.reverse()
            values.reverse()
        assert [RingElem.parse(text, memo) for text in texts] == values
        assert [RingElem.parse(text, memo) for text in texts] == values

    def test_a_respaced_matrix_is_not_the_one_parsed_before(self):
        # "[0,13]" is well formed and "[0,1 3]" is not: the memo keys a
        # matrix by its exact text, spaces included
        memo: dict = {}
        RingElem.parse("[[1,-1],[0,13]]", memo)
        with pytest.raises(grammar.GrammarError) as info:
            RingElem.parse("[[1,-1],[0,1 3]]", memo)
        assert (str(info.value), info.value.pos) == (
            "expected ']', got '3' (at position 13)", 13)
