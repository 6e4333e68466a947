"""Congruence-subgroup structure: membership, generator words, decomposition.

Frozen products were computed by hand: g2*P*W = [[15,1],[104,7]] and
g2^-1*g3 = [[-5,2],[-13,5]] (an involution class that stalls pure greedy
height reduction, exercising the search beyond depth one).
"""

import random

import pytest

from gamma13 import gamma0
from gamma13.exactnum import QuadElem
from gamma13.gamma0 import (DecompositionError, GENERATORS, Word, decompose,
                            is_member)
from gamma13.projmat import Mat2, ProjMat


def random_word(rng, max_letters=12):
    pairs = [(rng.choice(["P", "W", "g2", "g3"]), rng.choice([-2, -1, 1, 2]))
             for _ in range(rng.randint(0, max_letters))]
    return Word.of(pairs)


class TestWord:
    def test_str_and_letters_round_trip(self):
        w = Word.of([("P", 2), ("W", 1), ("g3", -1)])
        assert w.letters == (("P", 2), ("W", 1), ("g3", -1))
        assert str(w) == "P^2 W g3^-1"
        assert Word.of(w.letters) == w

    def test_empty_word(self):
        assert Word.of([]).letters == ()
        assert str(Word.of([])) == ""
        assert Word.of([]).evaluate() == ProjMat.identity()

    def test_reduction_merges_adjacent_letters(self):
        assert Word.of([("P", 1), ("P", 1), ("W", 2)]).letters == (
            ("P", 2), ("W", 2))
        assert Word.of([("P", 1), ("P", -1)]).letters == ()
        assert Word.of([("g2", 1), ("P", 1), ("P", -1), ("g2", 1)]).letters == (
            ("g2", 2),)

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            Word.of([("g4", 1)])
        with pytest.raises(ValueError):
            Word.of([("P", 0)])
        with pytest.raises(ValueError):
            Word.of([("P", "x")])

    def test_evaluate_frozen_product(self):
        w = Word.of([("g2", 1), ("P", 1), ("W", 1)])
        assert w.evaluate() == ProjMat.of([[15, 1], [104, 7]])

    def test_evaluate_generators(self):
        assert Word.of([("P", 1)]).evaluate() == ProjMat.of([[1, 1], [0, 1]])
        assert Word.of([("g3", 3)]).evaluate() == ProjMat.identity()

    def test_evaluate_matches_projmat_product(self):
        # the integer product against the exact ProjMat product, letter by
        # letter, with small exponents and parabolic ones near 10^6
        rng = random.Random(16)
        for _ in range(60):
            pairs = [(rng.choice(["P", "W", "g2", "g3"]),
                      rng.choice([-1, 1]) * rng.randint(1, 5))
                     for _ in range(rng.randint(0, 8))]
            if rng.random() < 0.3:
                pairs.insert(rng.randint(0, len(pairs)),
                             (rng.choice(["P", "W"]),
                              rng.choice([-1, 1]) * rng.randint(999_990, 1_000_010)))
            reference = ProjMat.identity()
            for gen, exp in pairs:
                reference = reference * GENERATORS[gen] ** exp
            assert Word.of(pairs).evaluate() == reference

    def test_concatenation_is_a_homomorphism(self):
        rng = random.Random(7)
        for _ in range(50):
            w1, w2 = random_word(rng, 6), random_word(rng, 6)
            w12 = Word.of(w1.letters + w2.letters)
            assert w12.evaluate() == w1.evaluate() * w2.evaluate()


class TestMembership:
    def test_generators_are_members(self):
        for mat in GENERATORS.values():
            assert is_member(mat)
            prim = [q.a for q in mat.primitive_entries()]
            assert prim[0] * prim[3] - prim[1] * prim[2] == 1

    def test_frozen_examples(self):
        assert is_member(ProjMat.of([[2, -1], [13, -6]]))
        assert not is_member(ProjMat.of([[1, 0], [1, 1]]))
        assert is_member(ProjMat.of([[2, 0], [0, 2]]))
        assert is_member(ProjMat.of([[5, -2], [13, -5]]))
        assert is_member(ProjMat.of([[1, 0], [26, 1]]))

    def test_fricke_matrix_is_not_a_member(self):
        assert not is_member(ProjMat.of([[0, -1], [13, 0]]))

    def test_irrational_class_is_not_a_member(self):
        s = QuadElem.sqrt_d()
        assert not is_member(ProjMat.of(Mat2.of([[s, 0], [0, 1]])))

    def test_level_parameter(self):
        w7 = ProjMat.of([[1, 0], [7, 1]])
        assert is_member(w7, 7)
        assert not is_member(w7, 13)

    def test_raw_rows_accepted(self):
        assert is_member([[1, 1], [0, 1]])
        assert not is_member([[1, 2], [1, 1]])  # negative determinant


class TestDecompose:
    def test_identity_gives_empty_word(self):
        assert decompose(ProjMat.identity()) == Word.of([])

    def test_single_generators(self):
        for name, mat in GENERATORS.items():
            assert decompose(mat).evaluate() == mat
            assert decompose(mat.inv()).evaluate() == mat.inv()

    def test_frozen_example(self):
        target = ProjMat.of([[15, 1], [104, 7]])
        assert decompose(target).evaluate() == target

    def test_greedy_stall_is_rescued_by_search(self):
        # g2^-1 g3 has height 13 and no single peel reduces it.
        target = ProjMat.of([[-5, 2], [-13, 5]])
        assert decompose(target).evaluate() == target

    def test_parabolic_runs_peel_in_one_step(self):
        # one round per letter of P^-123457 would exhaust the node cap
        word = Word.of([("g2", 1), ("P", -123457), ("W", 98765), ("g3", -1)])
        assert decompose(word.evaluate()) == word

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            decompose(ProjMat.of([[1, 0], [1, 1]]))

    def test_budget_exhaustion_is_explicit(self, monkeypatch):
        monkeypatch.setattr(gamma0, "_MAX_NODES", 3)
        rng = random.Random(99)
        word = Word.of([(rng.choice(["P", "W", "g2", "g3"]), rng.choice([-2, 2]))
                        for _ in range(12)])
        with pytest.raises(DecompositionError):
            decompose(word.evaluate())

    def test_round_trip_random_words(self):
        rng = random.Random(11)
        for _ in range(200):
            word = random_word(rng)
            target = word.evaluate()
            again = decompose(target)
            assert again.evaluate() == target
