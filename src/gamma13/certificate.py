"""Machine-checkable congruence certificates.

A congruence ``lhs == rhs`` between ring elements abbreviates "f slashed with
lhs equals f slashed with rhs" for the (implicit) form f.  The set of
elements annihilating f is a right ideal, which makes a small set of moves
sound:

* ``AXIOM``      -- restate a context axiom,
* ``RIGHT_MUL``  -- multiply both sides on the right by a ring element,
* ``ADD``        -- add two congruences,
* ``SCALE``      -- multiply both sides by a scalar polynomial,
* ``SYM``        -- swap sides,
* ``TRANS``      -- chain two congruences with a common middle term,
* ``RESCALE``    -- restate a congruence with terms moved across the sign.

The verifier never searches: it recomputes each step's output exactly and
compares canonical forms.  Because a congruence's content is its difference
``lhs - rhs``, every rule is checked on differences; ``TRANS`` additionally
requires the middle terms to match structurally, and ``RESCALE`` requires
the claimed difference to equal the prior one (allowing lhs/rhs re-splits).

Each step is checked exactly once.  :class:`CertBuilder` checks a step as
it is pushed and refuses one that does not verify, so a built certificate
needs no second pass; :func:`verify_certificate` replays certificates that
come from elsewhere, such as JSON loaded from disk.

Certificates serialize to versioned JSON; unknown rules, dangling
references, and malformed steps are hard errors rather than mere failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .exactnum import ScalarPoly
from .groupring import RingElem
from . import grammar

VERSION = 1

_ARITY = {
    "AXIOM": 1,
    "RIGHT_MUL": 2,
    "ADD": 2,
    "SCALE": 2,
    "SYM": 1,
    "TRANS": 2,
    "RESCALE": 1,
}

ElemLike = Union[str, RingElem]
ScalarLike = Union[str, ScalarPoly]


class CertificateError(Exception):
    """A structurally invalid certificate (as opposed to a failing step)."""


@dataclass(frozen=True)
class Congruence:
    """The statement that f|lhs equals f|rhs."""

    id: str
    lhs: RingElem
    rhs: RingElem

    def difference(self) -> RingElem:
        return self.lhs - self.rhs

    def __str__(self) -> str:
        return f"{self.lhs} == {self.rhs}"


@dataclass(frozen=True)
class Step:
    id: str
    rule: str
    args: Tuple[str, ...]
    result: Congruence


@dataclass(frozen=True)
class Certificate:
    """A level, the congruences assumed outright, and the steps derived
    from them; with no steps it is just the context."""

    version: int
    level: int
    axioms: Tuple[Congruence, ...]
    steps: Tuple[Step, ...]

    def axiom(self, ax_id: str) -> Congruence:
        for ax in self.axioms:
            if ax.id == ax_id:
                return ax
        raise KeyError(ax_id)


@dataclass
class StepVerdict:
    id: str
    rule: str
    ok: bool
    diff: Optional[RingElem] = None
    detail: str = ""


@dataclass
class Report:
    step_verdicts: List[StepVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.step_verdicts)

    def lines(self) -> List[str]:
        out = [f"STEP {v.id} {'OK' if v.ok else 'FAIL'}"
               for v in self.step_verdicts]
        out.append(f"CERTIFICATE {'OK' if self.ok else 'FAIL'}")
        return out

    def render(self) -> str:
        return "\n".join(self.lines())

    def diagnostics(self) -> List[str]:
        out = []
        for v in self.step_verdicts:
            if v.ok:
                continue
            msg = f"step {v.id} ({v.rule}): {v.detail or 'mismatch'}"
            if v.diff is not None:
                msg += f"; difference {_text(v.diff)}"
            out.append(msg)
        return out


def _text(elem: RingElem) -> str:
    """``str(elem)``, or a note when a rational in it has more digits than
    Python converts to text."""
    try:
        return str(elem)
    except ValueError:
        return "too long to print"


def _evaluate_rule(resolved: Dict[str, Congruence],
                   step: Step) -> Tuple[Optional[RingElem], str]:
    """Recompute the difference a step's rule produces.

    Returns (difference, detail); difference is None when a side condition
    fails.  Structural problems raise CertificateError.
    """
    expected = _ARITY.get(step.rule)
    if expected is None:
        raise CertificateError(f"step {step.id}: unknown rule {step.rule}")
    if len(step.args) != expected:
        raise CertificateError(
            f"step {step.id}: rule {step.rule} takes {expected} argument(s), "
            f"got {len(step.args)}")

    def ref(name: str) -> Congruence:
        if name not in resolved:
            raise CertificateError(
                f"step {step.id}: reference to unknown id {name!r}")
        return resolved[name]

    def operand(what: str, parse):
        # a singular matrix or a huge exponent is bad input, not a crash
        try:
            return parse(step.args[1])
        except (ValueError, OverflowError) as exc:
            raise CertificateError(f"step {step.id}: bad {what}: {exc}") from exc

    if step.rule == "AXIOM":
        return ref(step.args[0]).difference(), ""
    if step.rule == "RIGHT_MUL":
        prior = ref(step.args[0])
        return prior.difference() * operand("factor", RingElem.parse), ""
    if step.rule == "ADD":
        return ref(step.args[0]).difference() + ref(step.args[1]).difference(), ""
    if step.rule == "SCALE":
        prior = ref(step.args[0])
        return operand("scalar", grammar.parse_scalar_poly) * prior.difference(), ""
    if step.rule == "SYM":
        return -ref(step.args[0]).difference(), ""
    if step.rule == "TRANS":
        first, second = ref(step.args[0]), ref(step.args[1])
        if first.rhs != second.lhs:
            return None, (f"middle terms differ: {_text(first.rhs)} vs "
                          f"{_text(second.lhs)}")
        return first.difference() + second.difference(), ""
    # RESCALE: pure restatement
    return ref(step.args[0]).difference(), ""


def _check_step(resolved: Dict[str, Congruence], step: Step) -> StepVerdict:
    try:
        recomputed, detail = _evaluate_rule(resolved, step)
    except OverflowError as exc:  # a product past the symbolic exponent cap
        raise CertificateError(f"step {step.id}: {exc}") from exc
    if recomputed is None:
        return StepVerdict(step.id, step.rule, False, None, detail)
    claimed = step.result.difference()
    if claimed == recomputed:
        return StepVerdict(step.id, step.rule, True)
    return StepVerdict(step.id, step.rule, False, claimed - recomputed,
                       "claimed result disagrees with recomputation")


def verify_certificate(cert: Certificate) -> Report:
    """Check every step; returns a report with one verdict per step."""
    resolved: Dict[str, Congruence] = {}
    for ax in cert.axioms:
        if ax.id in resolved:
            raise CertificateError(f"duplicate axiom id {ax.id!r}")
        resolved[ax.id] = ax
    report = Report()
    for step in cert.steps:
        if step.id in resolved:
            raise CertificateError(f"duplicate step id {step.id!r}")
        report.step_verdicts.append(_check_step(resolved, step))
        # claims are registered even when they fail so later steps still
        # produce verdicts against the claimed content
        resolved[step.id] = step.result
    return report


class CertBuilder:
    """Incrementally builds a certificate, verifying each step as added.

    Every step is checked once, when it is pushed, and a step that does not
    verify raises :class:`CertificateError`.  Ids are unique and references
    only point back, so :meth:`build` returns the steps without a replay.
    """

    def __init__(self, level: int):
        self.level = level
        self.axioms: List[Congruence] = []
        self.steps: List[Step] = []
        self.resolved: Dict[str, Congruence] = {}

    # -- inputs ------------------------------------------------------------

    def _elem(self, x: ElemLike) -> RingElem:
        return RingElem.parse(x) if isinstance(x, str) else x

    def _scalar(self, x: ScalarLike) -> ScalarPoly:
        return grammar.parse_scalar_poly(x) if isinstance(x, str) else x

    def _require(self, name: str) -> Congruence:
        if name not in self.resolved:
            raise CertificateError(f"reference to unknown id {name!r}")
        return self.resolved[name]

    # -- axioms ----------------------------------------------------------------

    def axiom(self, ax_id: str, lhs: ElemLike, rhs: ElemLike) -> Congruence:
        if ax_id in self.resolved:
            raise CertificateError(f"duplicate id {ax_id!r}")
        cong = Congruence(ax_id, self._elem(lhs), self._elem(rhs))
        self.axioms.append(cong)
        self.resolved[ax_id] = cong
        return cong

    # -- steps --------------------------------------------------------------------

    def _push(self, step_id: str, rule: str, args: Tuple[str, ...],
              lhs: RingElem, rhs: RingElem) -> Congruence:
        if step_id in self.resolved:
            raise CertificateError(f"duplicate id {step_id!r}")
        step = Step(step_id, rule, args, Congruence(step_id, lhs, rhs))
        verdict = _check_step(self.resolved, step)
        if not verdict.ok:
            raise CertificateError(
                f"step {step_id} does not verify: {verdict.detail}"
                + (f"; difference {verdict.diff}" if verdict.diff is not None
                   else ""))
        self.steps.append(step)
        self.resolved[step_id] = step.result
        return step.result

    def _claim(self, lhs: Optional[ElemLike], rhs: Optional[ElemLike],
               auto_lhs: RingElem, auto_rhs: RingElem):
        out_l = auto_lhs if lhs is None else self._elem(lhs)
        out_r = auto_rhs if rhs is None else self._elem(rhs)
        return out_l, out_r

    def axiom_step(self, step_id: str, ax_id: str) -> Congruence:
        ax = self._require(ax_id)
        return self._push(step_id, "AXIOM", (ax_id,), ax.lhs, ax.rhs)

    def right_mul(self, step_id: str, prior: str, factor: ElemLike,
                  lhs: Optional[ElemLike] = None,
                  rhs: Optional[ElemLike] = None) -> Congruence:
        p = self._require(prior)
        f = self._elem(factor)
        out_l, out_r = self._claim(lhs, rhs, p.lhs * f, p.rhs * f)
        return self._push(step_id, "RIGHT_MUL", (prior, str(f)), out_l, out_r)

    def add(self, step_id: str, first: str, second: str,
            lhs: Optional[ElemLike] = None,
            rhs: Optional[ElemLike] = None) -> Congruence:
        a, b = self._require(first), self._require(second)
        out_l, out_r = self._claim(lhs, rhs, a.lhs + b.lhs, a.rhs + b.rhs)
        return self._push(step_id, "ADD", (first, second), out_l, out_r)

    def scale(self, step_id: str, prior: str, scalar: ScalarLike,
              lhs: Optional[ElemLike] = None,
              rhs: Optional[ElemLike] = None) -> Congruence:
        p = self._require(prior)
        s = self._scalar(scalar)
        out_l, out_r = self._claim(lhs, rhs, s * p.lhs, s * p.rhs)
        return self._push(step_id, "SCALE", (prior, str(s)), out_l, out_r)

    def sym(self, step_id: str, prior: str,
            lhs: Optional[ElemLike] = None,
            rhs: Optional[ElemLike] = None) -> Congruence:
        p = self._require(prior)
        out_l, out_r = self._claim(lhs, rhs, p.rhs, p.lhs)
        return self._push(step_id, "SYM", (prior,), out_l, out_r)

    def trans(self, step_id: str, first: str, second: str,
              lhs: Optional[ElemLike] = None,
              rhs: Optional[ElemLike] = None) -> Congruence:
        a, b = self._require(first), self._require(second)
        out_l, out_r = self._claim(lhs, rhs, a.lhs, b.rhs)
        return self._push(step_id, "TRANS", (first, second), out_l, out_r)

    def rescale(self, step_id: str, prior: str, lhs: ElemLike,
                rhs: ElemLike) -> Congruence:
        return self._push(step_id, "RESCALE", (prior,),
                          self._elem(lhs), self._elem(rhs))

    # -- output ---------------------------------------------------------------------

    def build(self) -> Certificate:
        return Certificate(VERSION, self.level,
                           tuple(self.axioms), tuple(self.steps))


def certificate_to_json(cert: Certificate) -> str:
    doc = {
        "version": cert.version,
        "level": cert.level,
        "axioms": [{"id": ax.id, "lhs": str(ax.lhs), "rhs": str(ax.rhs)}
                   for ax in cert.axioms],
        "steps": [{"id": s.id, "rule": s.rule, "args": list(s.args),
                   "result": {"lhs": str(s.result.lhs),
                              "rhs": str(s.result.rhs)}}
                  for s in cert.steps],
    }
    return json.dumps(doc, indent=1)


def certificate_from_json(text: str) -> Certificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CertificateError(f"malformed certificate: the document is a "
                               f"JSON {type(doc).__name__}, not an object")
    version = doc.get("version")
    if version != VERSION:
        raise CertificateError(f"unsupported certificate version {version!r}")
    where = "level"
    try:
        level = int(doc["level"])
        axioms, steps = [], []
        where = "axioms"
        for ax in doc["axioms"]:
            where = f"axiom {ax['id']}"
            axioms.append(Congruence(str(ax["id"]), RingElem.parse(ax["lhs"]),
                                     RingElem.parse(ax["rhs"])))
        where = "steps"
        for s in doc["steps"]:
            where = f"step {s['id']}"
            args = s["args"]
            if not (isinstance(args, list)
                    and all(isinstance(a, str) for a in args)):
                raise TypeError("args must be a list of strings")
            steps.append(Step(
                str(s["id"]), str(s["rule"]), tuple(args),
                Congruence(str(s["id"]), RingElem.parse(s["result"]["lhs"]),
                           RingElem.parse(s["result"]["rhs"]))))
    except KeyError as exc:
        raise CertificateError(
            f"malformed certificate: {where}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise CertificateError(f"malformed certificate: {where}: {exc}") from exc
    return Certificate(version, level, tuple(axioms), tuple(steps))
