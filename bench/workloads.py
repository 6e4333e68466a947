"""The three seeded workloads and the known answer for each command.

A workload writes its input files and builds its command list once, from
the seed alone: each command is either an argv for ``gamma13.cli.main`` or
a call into the library, plus a check that compares the outcome with an
answer from ``oracle``.  The runner replays the list in passes.  Seeded
parts that would change the amount of work (word lengths, sign-check
exponents) are drawn so that every seed does about the same work; the seed
chooses the values.

Commands look the library up through module attributes at call time, so a
traced run sees the wrapped entry points.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import oracle
from gamma13 import certificate, level13, numeric, qseries


@dataclass(frozen=True)
class CliOutcome:
    code: int
    out: str
    err: str


@dataclass(frozen=True)
class Command:
    """One request: ``argv`` goes to the CLI, otherwise ``call`` runs.
    ``check`` receives a CliOutcome or the call's return value."""

    kind: str
    label: str
    check: Callable[[object], bool]
    argv: Optional[Tuple[str, ...]] = None
    call: Optional[Callable[[], object]] = None


def _cli(kind: str, label: str, argv: Sequence[str],
         check: Callable[[CliOutcome], bool]) -> Command:
    return Command(kind, label, check, argv=tuple(argv))


class Workload:
    name = ""
    main_kind = ""
    side_kind = ""
    commands: List[Command]

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        workdir.mkdir(parents=True, exist_ok=True)

    def setup_argv(self) -> List[str]:
        """The workload's first command, for the cold-start measurement."""
        return list(next(c.argv for c in self.commands if c.argv))

    def _write(self, name: str, text: str) -> Path:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return path


# -- exact ------------------------------------------------------------------------


class ExactWorkload(Workload):
    """Certificate replay (read) and derivation (write) in the exact layer."""

    name = "exact"
    main_kind = "verify_f"
    side_kind = "build_f"
    ASYM_WEIGHTS = (-2, 2, 4, 6, 8, 10, 12, 14, 16)
    TILDE_WEIGHTS = (2, 4, 6, 8)
    # The seed pairs these magnitudes and picks signs; the set is fixed so
    # that every seed folds words of the same total length.
    SIGN_MAGNITUDES = ((1, 4, 7), (2, 5, 8))

    def __init__(self, seed: int, root: Path, workdir: Path):
        super().__init__(seed, root, workdir)
        data = root / "src" / "gamma13" / "data"
        self.shipped = {name: (data / f"level13_{name}.json").read_text(
            encoding="utf-8") for name in ("f", "g")}
        verify_f = _cli("verify_f", "verify", ["verify"], self._replay_ok("f"))
        build_f = self._build("f")
        self.commands = [
            verify_f,
            _cli("verify_g", "verify --context g", ["verify", "--context", "g"],
                 self._replay_ok("g")),
            self._tampered(),
            build_f,
            self._build("g"),
        ]
        for k in self.ASYM_WEIGHTS:
            answer = oracle.asym_answer(k) + "\n"
            self.commands.append(
                _cli("asym", f"asym {k}", ["asym", str(k)],
                     lambda r, a=answer: r.code == 0 and r.out == a))
        # verify f and build f run three times a pass, spread over it, so
        # one slow stretch of a run cannot set the main or side metric.
        self.commands += [verify_f, build_f]
        for k in self.TILDE_WEIGHTS:
            self.commands.append(
                Command("tilde_g", f"tilde_g_check({k})",
                        lambda v, k=k: tuple(v) == oracle.tilde_g_answer(k),
                        call=lambda k=k: level13.tilde_g_check(k)))
        self.commands.extend(self._sign_checks())
        self.commands += [verify_f, build_f]

    def _replay_ok(self, name: str) -> Callable[[CliOutcome], bool]:
        expected = [f"STEP {s['id']} OK"
                    for s in json.loads(self.shipped[name])["steps"]]
        expected.append("CERTIFICATE OK")
        return lambda r: r.code == 0 and r.out.splitlines() == expected

    def _tampered(self) -> Command:
        doc = json.loads(self.shipped["f"])
        step = self.rng.choice(doc["steps"])
        # Adding the identity class changes the claimed difference by a
        # nonzero element, so exactly this claim disagrees with its rule.
        step["result"]["lhs"] += " + [[1,0],[0,1]]"
        path = self._write("tampered.json", json.dumps(doc, indent=1) + "\n")
        sid = step["id"]

        def check(r: CliOutcome) -> bool:
            lines = r.out.splitlines()
            failing = [line for line in lines if line.endswith(" FAIL")]
            return (r.code == 1 and bool(failing)
                    and failing[0] == f"STEP {sid} FAIL"
                    and lines[-1] == "CERTIFICATE FAIL"
                    and f"step {sid} (" in r.err)
        return _cli("verify_tampered", f"verify tampered {sid}",
                    ["verify", str(path)], check)

    def _build(self, name: str) -> Command:
        build = {"f": lambda: level13.build_f_certificate(13),
                 "g": lambda: level13.build_g_certificate()}[name]
        shipped = self.shipped[name]

        def drift_free(cert) -> bool:
            return certificate.certificate_to_json(cert) + "\n" == shipped
        return Command(f"build_{name}", f"build_{name}_certificate",
                       drift_free, call=build)

    def _sign_checks(self) -> List[Command]:
        ms, ns = (list(mags) for mags in self.SIGN_MAGNITUDES)
        self.rng.shuffle(ms)
        self.rng.shuffle(ns)
        out = []
        for am, an in zip(ms, ns):
            m = am * self.rng.choice((1, -1))
            n = an * self.rng.choice((1, -1))
            out.append(Command("sign_exponent", f"sign_exponent_check({m},{n})",
                               _sign_answer(m, n),
                               call=lambda m=m, n=n:
                               level13.sign_exponent_check(m, n)))
        return out


def _class_text_ok(text: str, expected: oracle.IntMat) -> bool:
    if expected == oracle.IDENTITY:
        return text == "1"
    parsed = oracle.parse_int_matrix(text)
    return parsed is not None and oracle.primitive(parsed) == expected


def _sign_answer(m: int, n: int) -> Callable[[object], bool]:
    def check(result) -> bool:
        power, even = result.power_sign, result.even_power
        return (_class_text_ok(str(power.lhs), oracle.h_word_class(m, n))
                and str(power.rhs) == oracle.h_sign(m)
                and _class_text_ok(str(even.lhs), oracle.h_word_class(2 * m, n))
                and str(even.rhs) == "1")
    return check


# -- formcheck --------------------------------------------------------------------

_ROW_LABEL = re.compile(r"(CONG \S+|HECKE p=\d+|CUSP)")


def _battery_answer(failing: Sequence[str]) -> Callable[[CliOutcome], bool]:
    """A level-1 battery prints 16 CONG rows, 2 HECKE rows and 1 CUSP row;
    the rows that fail are known from how the input was made."""
    expected_code = 1 if failing else 0
    verdict = "FORMCHECK FAIL" if failing else "FORMCHECK OK"

    def check(r: CliOutcome) -> bool:
        lines = r.out.splitlines()
        if r.code != expected_code or len(lines) != 20 or lines[-1] != verdict:
            return False
        bad = []
        for line in lines[:-1]:
            m = _ROW_LABEL.match(line)
            if m is None:
                return False
            if "FAIL" in line:
                bad.append(m.group(1))
        return bad == list(failing)
    return check


class FormcheckWorkload(Workload):
    """q-series expansion and the numeric battery on level-1 eigenforms."""

    name = "formcheck"
    main_kind = "formcheck"
    side_kind = "eta_2048"
    LENGTHS = (512, 2048)

    def __init__(self, seed: int, root: Path, workdir: Path):
        super().__init__(seed, root, workdir)
        delta = oracle.delta_coeffs(max(self.LENGTHS))
        eta = {}
        for L in self.LENGTHS:
            text = oracle.coefficient_file(delta[: L + 1], 12, 1, 1)
            eta[L] = _cli(f"eta_{L}", f"eta 1:24 {L}", ["eta", "1:24", str(L)],
                          lambda r, t=text: r.code == 0 and r.out == t)
        d512 = delta[:513]
        # Indices 60..170 are covered by the Hecke recursion at p = 2 and 3
        # and sit too deep in the tail to move any residual above 1e-15.
        bumped = list(d512)
        j = self.rng.randint(60, 170)
        bumped[j - 1] += 1
        batteries = [
            ("delta512", oracle.coefficient_file(d512, 12, 1, 1), ()),
            ("delta2048", oracle.coefficient_file(delta, 12, 1, 1), ()),
            ("delta512-eps", oracle.coefficient_file(d512, 12, 1, -1),
             ("CONG ax:H",)),
            (f"delta512-a{j}+1", oracle.coefficient_file(bumped, 12, 1, 1),
             ("HECKE p=2", "HECKE p=3")),
            ("delta-e4", oracle.coefficient_file(
                oracle.weight16_coeffs(d512), 16, 1, 1), ()),
        ]
        checks = [_cli("formcheck", f"formcheck {label}",
                       ["formcheck", str(self._write(f"{label}.txt", text))],
                       _battery_answer(failing))
                  for label, text, failing in batteries]
        series = qseries.QSeries(Fraction(7, 6), oracle.eta_13_coeffs(512))
        # eta at L = 2048 runs before each battery, five times a pass, so
        # one slow stretch of a run cannot set the side metric.
        self.commands = [eta[512]]
        for check in checks:
            self.commands += [eta[2048], check]
        self.commands += [self._fricke(series, -1), self._fricke(series, 1)]

    def _fricke(self, series, sign: int) -> Command:
        form = numeric.FormData(series, 2, 13, sign)

        def call():
            return numeric.congruence_residual(
                form, level13.f_context(13).axiom("ax:H"),
                numeric.EvalConfig(points=numeric.FRICKE_POINTS_13))
        # eta(-1/(13z))^2 eta(-1/z)^2 = -13 z^2 eta(13z)^2 eta(z)^2, so the
        # form is a Fricke eigenform with sign -1 and +1 must fail.
        if sign == -1:
            return Command("fricke", "fricke ax:H eps=-1",
                           lambda v: v < 1e-15, call=call)
        return Command("fricke", "fricke ax:H eps=+1",
                       lambda v: v > 1e-3, call=call)


# -- words --------------------------------------------------------------------------


class WordsWorkload(Workload):
    """Generator-word decomposition with density targets as the control."""

    name = "words"
    main_kind = "decompose"
    side_kind = "density"
    MAX_LENGTH = 24
    MEMBERS_PER_LENGTH = 16     # 400 members, lengths 0..24 equally often
    NON_MEMBERS_PER_LENGTH = 2  # 50 non-members
    DENSITY = 50
    TOL = "1e-3"

    def __init__(self, seed: int, root: Path, workdir: Path):
        super().__init__(seed, root, workdir)
        self.upper = oracle.stretch_squared()
        lengths = range(self.MAX_LENGTH + 1)
        self.commands = ([self._member(n) for n in lengths
                          for _ in range(self.MEMBERS_PER_LENGTH)]
                         + [self._non_member(n) for n in lengths
                            for _ in range(self.NON_MEMBERS_PER_LENGTH)]
                         + [self._density(i) for i in range(self.DENSITY)])
        self.rng.shuffle(self.commands)

    def setup_argv(self) -> List[str]:
        return list(next(c.argv for c in self.commands if c.label == "member"))

    def _word_matrix(self, length: int) -> oracle.IntMat:
        letters = [(self.rng.choice(tuple(oracle.GENERATORS)),
                    self.rng.choice((1, -1))) for _ in range(length)]
        return oracle.word_product(letters)

    def _member(self, length: int) -> Command:
        target = self._word_matrix(length)

        def check(r: CliOutcome) -> bool:
            word = oracle.parse_word(r.out)
            return (r.code == 0 and word is not None
                    and oracle.same_up_to_sign(oracle.word_product(word), target))
        return _cli("decompose", "member", ["decompose", _matrix_text(target)],
                    check)

    def _non_member(self, length: int) -> Command:
        # M * [[1,0],[k,1]] with 13 not dividing k leaves Gamma0(13).
        target = oracle.mat_mul(self._word_matrix(length),
                                (1, 0, self.rng.randint(1, oracle.LEVEL - 1), 1))
        return _cli("decompose", "non-member",
                    ["decompose", _matrix_text(target)],
                    lambda r: r.code == 1 and r.out == "")

    def _density(self, i: int) -> Command:
        # One target in each of DENSITY equal slices of [1, Y^2), so that
        # every seed spreads its targets over the whole range alike.
        width = (self.upper - 1.0) / self.DENSITY
        x = 1.0 + width * (i + self.rng.random())

        def check(r: CliOutcome) -> bool:
            m = re.fullmatch(r"\(m,n\)=\((-?\d+),(-?\d+)\) err=\S+\n", r.out)
            return (r.code == 0 and m is not None
                    and oracle.density_error(x, int(m.group(1)), int(m.group(2)))
                    <= float(self.TOL))
        return _cli("density", "density", ["density", repr(x), self.TOL], check)


def _matrix_text(m: oracle.IntMat) -> str:
    return f"[[{m[0]},{m[1]}],[{m[2]},{m[3]}]]"


WORKLOADS = {w.name: w for w in (ExactWorkload, FormcheckWorkload, WordsWorkload)}
