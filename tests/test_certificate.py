"""The congruence-certificate calculus: rules, verification, serialization.

The mini-derivation used throughout (chain to [[1,0],[13,1]] == 1 from the
two generator axioms) was verified by hand before being frozen here.
"""

import pytest

from gamma13.certificate import (
    CertBuilder,
    Certificate,
    CertificateError,
    Congruence,
    Step,
    certificate_from_json,
    certificate_to_json,
    verify_certificate,
)
from gamma13.groupring import RingElem


def axioms():
    return [
        ("ax:P", "[[1,1],[0,1]]", "1"),
        ("ax:H", "[[0,-1],[13,0]]", "e"),
        ("ax:T2", "[[2,0],[0,1]] + [[1,0],[0,2]] + [[1,1],[0,2]]", "a2"),
    ]


def w_builder():
    b = CertBuilder(level=13)
    for ax_id, lhs, rhs in axioms():
        b.axiom(ax_id, lhs, rhs)
    b.axiom_step("P", "ax:P")
    b.axiom_step("H", "ax:H")
    b.right_mul("pinv.1", "P", "[[1,-1],[0,1]]")
    b.sym("pinv", "pinv.1")
    b.right_mul("w1", "H", "[[-13,-1],[13,0]]")
    b.right_mul("w2", "pinv", "[[0,-1],[13,0]]")
    b.trans("w3", "w2", "H")
    b.scale("w4", "w3", "e")
    b.trans("W", "w1", "w4")
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
        b.axiom_step("T2", "ax:T2")
        b.rescale("moved", "T2",
                  "[[2,0],[0,1]] + [[1,0],[0,2]] + [[1,1],[0,2]] - a2", "0")
        report = verify_certificate(b.build())
        assert report.ok

    def test_rescale_rejects_changed_content(self):
        b = CertBuilder(level=13)
        for ax_id, lhs, rhs in axioms():
            b.axiom(ax_id, lhs, rhs)
        b.axiom_step("T2", "ax:T2")
        with pytest.raises(CertificateError, match="moved"):
            b.rescale("moved", "T2",
                      "[[2,0],[0,1]] + [[1,0],[0,2]] + [[1,1],[0,2]]", "0")

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
        b.axiom("ax:P", "[[1,1],[0,1]]", "1")
        b.axiom_step("P", "ax:P")
        with pytest.raises(CertificateError, match="oops"):
            b.right_mul("oops", "P", "[[1,-1],[0,1]]",
                        lhs="1", rhs="[[1,1],[0,1]]")
