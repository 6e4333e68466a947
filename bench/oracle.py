"""Known answers computed without the package under test.

Everything here is written from the mathematics, not from gamma13: integer
2x2 products for generator words, q-expansions of Delta, E4 and the
eta quotient eta(z)^2 eta(13z)^2 from Euler's pentagonal-number theorem, and
the power-lattice check for ``density`` in plain mpmath.  The workloads use
these to decide whether each command's output is right.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from mpmath import mp, mpf

IntMat = Tuple[int, int, int, int]

LEVEL = 13
GENERATORS: Dict[str, IntMat] = {
    "P": (1, 1, 0, 1),
    "W": (1, 0, 13, 1),
    "g2": (2, -1, 13, -6),
    "g3": (3, -1, 13, -4),
}
IDENTITY: IntMat = (1, 0, 0, 1)

# The three reflection classes of the level-13 argument ("hatted deltas").
REFLECTIONS: Dict[str, IntMat] = {
    "delta1hat": (39, -14, 117, -39),
    "delta2hat": (5, -2, 13, -5),
    "delta3hat": (-26, 8, -91, 26),
}


def mat_mul(x: IntMat, y: IntMat) -> IntMat:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def adjugate(x: IntMat) -> IntMat:
    return (x[3], -x[1], -x[2], x[0])


def word_product(letters: Sequence[Tuple[str, int]]) -> IntMat:
    """Product of generator powers; every generator has determinant 1, so
    the adjugate is the inverse."""
    acc = IDENTITY
    for gen, exp in letters:
        step = GENERATORS[gen] if exp > 0 else adjugate(GENERATORS[gen])
        for _ in range(abs(exp)):
            acc = mat_mul(acc, step)
    return acc


def same_up_to_sign(x: IntMat, y: IntMat) -> bool:
    return x == y or x == tuple(-e for e in y)


def primitive(x: IntMat) -> IntMat:
    """The class representative with coprime entries and its first nonzero
    entry positive."""
    g = 0
    for e in x:
        g = _gcd(g, e)
    sign = 1 if next(e for e in x if e) > 0 else -1
    return tuple(sign * e // g for e in x)  # type: ignore[return-value]


def _gcd(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


_WORD_TOKEN = re.compile(r"(P|W|g2|g3)(?:\^(-?\d+))?\Z")


def parse_word(text: str) -> Optional[List[Tuple[str, int]]]:
    """Letters of a printed generator word ("1" is the empty word), or None
    when the text is not a word."""
    text = text.strip()
    if text == "1":
        return []
    letters = []
    for token in text.split():
        m = _WORD_TOKEN.match(token)
        if not m:
            return None
        letters.append((m.group(1), int(m.group(2) or 1)))
    return letters


_MATRIX = re.compile(r"\[\[(-?\d+),(-?\d+)\],\[(-?\d+),(-?\d+)\]\]\Z")


def parse_int_matrix(text: str) -> Optional[IntMat]:
    m = _MATRIX.match(text.strip())
    return tuple(int(g) for g in m.groups()) if m else None  # type: ignore


# -- q-expansions ----------------------------------------------------------------


def euler_coeffs(length: int) -> Dict[int, int]:
    """Nonzero coefficients of prod_{n>=1} (1 - q^n) up to q^length, by the
    pentagonal-number theorem."""
    out = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 <= length:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= length:
                out[e] = out.get(e, 0) + (-1) ** k
        k += 1
    return out


def sparse_power(f: Dict[int, int], a: int, length: int) -> List[int]:
    """Coefficients of f^a up to q^length for f with f_0 = 1, by the
    J.C.P. Miller recurrence n g_n = sum_k ((a+1)k - n) f_k g_{n-k}."""
    terms = sorted((k, c) for k, c in f.items() if k > 0)
    g = [0] * (length + 1)
    g[0] = 1
    for n in range(1, length + 1):
        total = 0
        for k, c in terms:
            if k > n:
                break
            total += ((a + 1) * k - n) * c * g[n - k]
        g[n] = total // n
    return g


def delta_coeffs(length: int) -> List[int]:
    """tau(1), ..., tau(length + 1): Delta = q prod (1 - q^n)^24."""
    return sparse_power(euler_coeffs(length), 24, length)


def weight16_coeffs(delta: List[int]) -> List[int]:
    """The weight-16 eigenform Delta * E4, E4 = 1 + 240 sum sigma_3(n) q^n,
    with the same truncation as ``delta`` (index i is the q^(i+1) term)."""
    length = len(delta) - 1
    sigma3 = [0] * (length + 1)
    for d in range(1, length + 1):
        cube = d ** 3
        for multiple in range(d, length + 1, d):
            sigma3[multiple] += cube
    e4 = [1] + [240 * s for s in sigma3[1:]]
    return [sum(delta[i] * e4[n - i] for i in range(n + 1))
            for n in range(length + 1)]


def eta_13_coeffs(length: int) -> List[int]:
    """Coefficients of prod (1 - q^n)^2 (1 - q^{13n})^2 up to q^length; the
    eta quotient eta(z)^2 eta(13z)^2 is q^(7/6) times this series."""
    e2 = sparse_power(euler_coeffs(length), 2, length)
    e2_13 = {13 * i: c for i, c in enumerate(e2[: length // 13 + 1]) if c}
    return [sum(c * e2[n - k] for k, c in e2_13.items() if k <= n)
            for n in range(length + 1)]


def coefficient_file(coeffs: Sequence[int], weight: int, level: int,
                     sign: int) -> str:
    """The '# k=.. N=.. eps=..' coefficient-file text, first index 1."""
    lines = [f"# k={weight} N={level} eps={sign:+d}"]
    lines += [f"{n} {c}" for n, c in enumerate(coeffs, start=1)]
    return "\n".join(lines) + "\n"


# -- the power lattice -------------------------------------------------------------


def density_error(x: float, m: int, n: int) -> mpf:
    """|Y^(2m + n*lambda) - X| at 256 bits, with Y = (2 + sqrt 13)/3 and
    lambda = log((7 - sqrt 13)/6) / log Y."""
    with mp.workprec(256):
        y = (2 + mp.sqrt(13)) / 3
        lam = mp.log((7 - mp.sqrt(13)) / 6) / mp.log(y)
        return abs(y ** (2 * m + n * lam) - mpf(x))


def stretch_squared() -> float:
    return float(((2 + mp.sqrt(13)) / 3) ** 2)


# -- the paper's criteria 4 and 5 ---------------------------------------------------


def asym_answer(k: int) -> str:
    """Criterion 4: the averaged stretch sum vanishes identically at k = -2
    and has a pole of order k/2 with nonzero leading coefficient for k > 0."""
    return "IDENTICALLY ZERO" if k == -2 else f"POLE ORDER {k // 2} - NONZERO"


def tilde_g_answer(k: int) -> Tuple[int, int, int]:
    """Criterion 5: all three reflections act on g-tilde by (-1)^(k/2)."""
    s = (-1) ** (k // 2)
    return (s, s, s)


def h_word(m: int, n: int) -> List[str]:
    """The reflection word for h2^m h3^n, h2 = delta2 delta1, h3 = delta3 delta1."""
    word = (["delta2hat", "delta1hat"] * m if m >= 0
            else ["delta1hat", "delta2hat"] * -m)
    word += (["delta3hat", "delta1hat"] * n if n >= 0
             else ["delta1hat", "delta3hat"] * -n)
    return word


def h_word_class(m: int, n: int) -> IntMat:
    acc = IDENTITY
    for letter in h_word(m, n):
        acc = mat_mul(acc, REFLECTIONS[letter])
    return primitive(acc)


def h_sign(m: int) -> str:
    """h2 contributes -e and h3 contributes 1, with e^2 = 1."""
    return "1" if m % 2 == 0 else "-e"
