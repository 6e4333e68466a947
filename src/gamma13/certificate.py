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

Each rule is one function from the congruences it cites to the sides it
derives.  A congruence's content is its difference ``lhs - rhs``, so a claim
verifies when its difference equals that of the derived sides (``RESCALE``
thus allows lhs/rhs re-splits); ``TRANS`` also requires its middle terms to
match structurally.  A claim is first compared side by side with the
derived sides, as most claims state exactly those; only a claim with other
sides has its difference computed and compared.  The verifier never
searches.  :meth:`CertBuilder.step`, the one way to push a step, takes the
rule name and arguments a stored step holds, applies the rule once and
compares only a claim given to it, so a built certificate needs no second
pass; :func:`verify_certificate` replays certificates from elsewhere, such
as JSON loaded from disk.

Operands are values (a ``RIGHT_MUL`` factor is a ring element, a ``SCALE``
scalar a scalar polynomial): text lives only in the versioned JSON that
:func:`certificate_from_json` reads and :func:`certificate_to_json` writes,
and in the bundled chains :func:`load_shipped_certificate` reads.
Unknown rules, dangling references, and malformed steps are hard errors
rather than mere failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from typing import Dict, List, Optional, Tuple, Union

from .exactnum import ScalarPoly
from .groupring import RingElem
from . import grammar

VERSION = 1

#: The bundled certificates: "f" the main chain, "g" the reflection signs.
SHIPPED_FILES = {"f": "level13_f.json", "g": "level13_g.json"}

_ARITY = {
    "AXIOM": 1,
    "RIGHT_MUL": 2,
    "ADD": 2,
    "SCALE": 2,
    "SYM": 1,
    "TRANS": 2,
    "RESCALE": 1,
}

Arg = Union[str, RingElem, ScalarPoly]
Sides = Tuple[RingElem, RingElem]


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
    """``rule`` applied to ``args`` (the cited ids, then a RingElem factor or
    a ScalarPoly scalar) claims ``result``, checked against the derived
    sides and, where they differ, on differences."""

    id: str
    rule: str
    args: Tuple[Arg, ...]
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


def _apply_rule(resolved: Dict[str, Congruence], step_id: str, rule: str,
                args: Tuple[Arg, ...]) -> Tuple[Optional[Sides], str]:
    """(the sides a rule derives, ""), or (None, detail) when a side
    condition fails.  Structural problems and a side past the symbolic
    exponent cap raise CertificateError."""
    expected = _ARITY.get(rule)
    if expected is None:
        raise CertificateError(f"step {step_id}: unknown rule {rule}")
    if len(args) != expected:
        raise CertificateError(
            f"step {step_id}: rule {rule} takes {expected} argument(s), "
            f"got {len(args)}")

    def ref(name: Arg) -> Congruence:
        if name not in resolved:
            raise CertificateError(
                f"step {step_id}: reference to unknown id {name!r}")
        return resolved[name]

    first = ref(args[0])
    try:
        if rule == "RIGHT_MUL":
            return (first.lhs * args[1], first.rhs * args[1]), ""
        if rule == "SCALE":
            return (args[1] * first.lhs, args[1] * first.rhs), ""
    except OverflowError as exc:  # a product past the symbolic exponent cap
        raise CertificateError(f"step {step_id}: {exc}") from exc
    if rule == "ADD":
        second = ref(args[1])
        return (first.lhs + second.lhs, first.rhs + second.rhs), ""
    if rule == "SYM":
        return (first.rhs, first.lhs), ""
    if rule == "TRANS":
        second = ref(args[1])
        if first.rhs != second.lhs:
            return None, (f"middle terms differ: {_text(first.rhs)} vs "
                          f"{_text(second.lhs)}")
        return (first.lhs, second.rhs), ""
    # AXIOM and RESCALE: restate the cited congruence
    return (first.lhs, first.rhs), ""


def _verdict(step: Step, derived: Optional[Sides], detail: str) -> StepVerdict:
    """Compare a step's claim with the sides its rule derived: equal sides
    have equal differences, and only other claims are compared on
    differences."""
    if derived is None:
        return StepVerdict(step.id, step.rule, False, None, detail)
    if (step.result.lhs, step.result.rhs) == derived:
        return StepVerdict(step.id, step.rule, True)
    claimed = step.result.difference()
    recomputed = derived[0] - derived[1]
    if claimed == recomputed:
        return StepVerdict(step.id, step.rule, True)
    return StepVerdict(step.id, step.rule, False, claimed - recomputed,
                       "claimed result disagrees with recomputation")


def _check_step(resolved: Dict[str, Congruence], step: Step) -> StepVerdict:
    return _verdict(step, *_apply_rule(resolved, step.id, step.rule,
                                       step.args))


def verify_certificate(cert: Certificate) -> Report:
    """Check every step; returns a report with one verdict per step.  The
    identities hold at every level, so ``level`` is not checked: the
    builders and ``formcheck`` use it."""
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
    Sides and operands are values (RingElem, ScalarPoly), never text.
    """

    def __init__(self, level: int):
        if type(level) is not int:  # bool is an int, too
            raise TypeError(f"level must be an int, got {level!r}")
        if level < 1:
            raise ValueError("level must be a positive integer")
        self.level = level
        self.axioms: List[Congruence] = []
        self.steps: List[Step] = []
        self.resolved: Dict[str, Congruence] = {}

    # -- axioms ----------------------------------------------------------------

    def axiom(self, ax_id: str, lhs: RingElem, rhs: RingElem) -> Congruence:
        if ax_id in self.resolved:
            raise CertificateError(f"duplicate id {ax_id!r}")
        cong = Congruence(ax_id, lhs, rhs)
        self.axioms.append(cong)
        self.resolved[ax_id] = cong
        return cong

    # -- steps --------------------------------------------------------------------

    def step(self, step_id: str, rule: str, *args: Arg,
             lhs: Optional[RingElem] = None,
             rhs: Optional[RingElem] = None) -> Congruence:
        """Push ``Step(step_id, rule, args, ...)``: the sides the rule
        derives, or the claim ``lhs``/``rhs`` where given.  An unknown rule
        or a wrong argument count raises as it does for a loaded step."""
        if step_id in self.resolved:
            raise CertificateError(f"duplicate id {step_id!r}")
        derived, detail = _apply_rule(self.resolved, step_id, rule, args)
        if derived is None:
            raise CertificateError(f"step {step_id} does not verify: {detail}")
        step = Step(step_id, rule, args, Congruence(
            step_id, derived[0] if lhs is None else lhs,
            derived[1] if rhs is None else rhs))
        # derived sides equal themselves: only a given claim needs comparing
        if lhs is not None or rhs is not None:
            verdict = _verdict(step, derived, detail)
            if not verdict.ok:
                raise CertificateError(
                    f"step {step_id} does not verify: {verdict.detail}; "
                    f"difference {verdict.diff}")
        self.steps.append(step)
        self.resolved[step_id] = step.result
        return step.result

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
        "steps": [{"id": s.id, "rule": s.rule,
                   "args": [str(a) for a in s.args],
                   "result": {"lhs": str(s.result.lhs),
                              "rhs": str(s.result.rhs)}}
                  for s in cert.steps],
    }
    return json.dumps(doc, indent=1)


def _string(obj: dict, key: str) -> str:
    """``obj[key]``, which must be a JSON string."""
    value = obj[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a JSON string, got {value!r}")
    return value


def certificate_from_json(text: str) -> Certificate:
    """The certificate a JSON text writes.  Its level must be a positive
    JSON integer and each id and rule a JSON string; nothing is coerced.
    Each distinct ring text, matrix, entry and scalar operand in it is
    read once, into a memo that lives for this call."""
    memo: dict = {}
    elem = partial(RingElem.parse, memo=memo)
    # the rules whose second argument is an operand, and how its text reads
    operand = {"RIGHT_MUL": ("factor", elem),
               "SCALE": ("scalar", partial(grammar.parse_scalar_poly,
                                           memo=memo))}
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"malformed JSON: {exc}") from exc
    except RecursionError:
        raise CertificateError("malformed JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise CertificateError(f"malformed certificate: the document is a "
                               f"JSON {type(doc).__name__}, not an object")
    version = doc.get("version")
    if version != VERSION:
        raise CertificateError(f"unsupported certificate version {version!r}")
    where = "level"
    try:
        level = doc["level"]
        if type(level) is not int or level < 1:  # bool is an int, too
            raise TypeError(f"must be a positive JSON integer, got {level!r}")
        axioms, steps = [], []
        where = "axioms"
        for ax in doc["axioms"]:
            where = f"axiom {ax['id']}"
            axioms.append(Congruence(_string(ax, "id"), elem(ax["lhs"]),
                                     elem(ax["rhs"])))
        where = "steps"
        for s in doc["steps"]:
            where = f"step {s['id']}"
            step_id, rule = _string(s, "id"), _string(s, "rule")
            args = s["args"]
            if not (isinstance(args, list)
                    and all(isinstance(a, str) for a in args)):
                raise TypeError("args must be a list of strings")
            result = Congruence(step_id, elem(s["result"]["lhs"]),
                                elem(s["result"]["rhs"]))
            if rule in operand and len(args) == _ARITY[rule]:
                what, parse = operand[rule]
                try:  # a singular matrix or a huge exponent is bad input
                    args[1] = parse(args[1])
                except (ValueError, OverflowError) as exc:
                    raise CertificateError(
                        f"{where}: bad {what}: {exc}") from exc
            steps.append(Step(step_id, rule, tuple(args), result))
    except KeyError as exc:
        raise CertificateError(
            f"malformed certificate: {where}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise CertificateError(f"malformed certificate: {where}: {exc}") from exc
    except RecursionError:
        raise CertificateError(
            f"malformed certificate: {where}: nested too deeply") from None
    return Certificate(version, level, tuple(axioms), tuple(steps))


def load_shipped_certificate(name: str = "f") -> Certificate:
    """Load the bundled certificate: "f" for the main chain, "g" for the
    reflection-sign chain."""
    if name not in SHIPPED_FILES:
        raise ValueError(f"unknown certificate {name!r}; expected 'f' or 'g'")
    text = (resources.files(__package__) / "data" / SHIPPED_FILES[name]
            ).read_text(encoding="utf-8")
    return certificate_from_json(text)
