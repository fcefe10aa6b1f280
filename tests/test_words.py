import math

import numpy as np
import pytest

from scalar_oracles import (
    DimensionMismatchError,
    Distribution,
    bias_of_word,
    diff,
    empirical_distribution,
    hamming_distance,
    shift,
    statistical_distance,
)
from sparsecode.errors import DomainError
from sparsecode.words import Word, is_prime


class TestWord:
    def test_validation(self):
        with pytest.raises(DomainError):
            Word(1, (0,))
        with pytest.raises(DomainError):
            Word(2, ())
        with pytest.raises(DomainError):
            Word(2, (0, 2))
        with pytest.raises(DomainError):
            Word(3, (0, -1))

    def test_shift_wraps_modulo_q(self):
        w = Word(3, (0, 1, 2))
        assert shift(w, 1).symbols == (1, 2, 0)
        assert shift(w, 3) == w

    def test_diff_inverts_shift(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = int(rng.choice([2, 3, 5]))
            a = Word(q, tuple(int(s) for s in rng.integers(0, q, size=6)))
            b = Word(q, tuple(int(s) for s in rng.integers(0, q, size=6)))
            d = diff(a, b)
            recon = tuple((x + y) % q for x, y in zip(d.symbols, b.symbols))
            assert recon == a.symbols

    def test_lexicographic_order(self):
        assert Word(2, (0, 1)) < Word(2, (1, 0))


class TestHammingDistance:
    def test_identical_words(self):
        w = Word(2, (0, 1, 1, 0))
        assert hamming_distance(w, w) == 0

    def test_complement(self):
        assert hamming_distance(Word(2, (0, 0)), Word(2, (1, 1))) == 2

    def test_ternary_single_disagreement(self):
        assert hamming_distance(Word(3, (0, 1, 2)), Word(3, (0, 2, 2))) == 1

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = int(rng.choice([2, 3, 5]))
            a, b, c = (
                Word(q, tuple(int(s) for s in rng.integers(0, q, size=8)))
                for _ in range(3)
            )
            dab = hamming_distance(a, b)
            assert dab == hamming_distance(b, a)
            assert (dab == 0) == (a == b)
            assert dab <= hamming_distance(a, c) + hamming_distance(c, b)

    def test_incompatible_words(self):
        with pytest.raises(DimensionMismatchError):
            hamming_distance(Word(2, (0, 1)), Word(3, (0, 1)))
        with pytest.raises(DimensionMismatchError):
            hamming_distance(Word(2, (0, 1)), Word(2, (0, 1, 0)))


class TestDistributions:
    def test_validation(self):
        with pytest.raises(DomainError):
            Distribution(2, (0.5,))
        with pytest.raises(DomainError):
            Distribution(2, (0.7, 0.7))
        with pytest.raises(DomainError):
            Distribution(2, (1.5, -0.5))

    def test_uniform_vs_uniform(self):
        u = Distribution.uniform(4)
        assert statistical_distance(u, u) == 0.0

    def test_disjoint_point_masses(self):
        p = Distribution(2, (1.0, 0.0))
        r = Distribution(2, (0.0, 1.0))
        assert statistical_distance(p, r) == 1.0

    def test_hand_evaluated_half_l1(self):
        p = Distribution(2, (0.75, 0.25))
        assert statistical_distance(p, Distribution.uniform(2)) == pytest.approx(0.25)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = int(rng.choice([2, 3, 4]))
            masses = rng.dirichlet(np.ones(q))
            p = Distribution(q, tuple(float(x) for x in masses / masses.sum()))
            u = Distribution.uniform(q)
            d = statistical_distance(p, u)
            assert d == statistical_distance(u, p)
            assert 0.0 <= d <= 1.0

    def test_alphabet_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            statistical_distance(Distribution.uniform(2), Distribution.uniform(3))


class TestEmpiricalDistribution:
    def test_balanced_word(self):
        assert empirical_distribution(Word(2, (0, 1, 0, 1))).masses == (0.5, 0.5)

    def test_constant_word(self):
        assert empirical_distribution(Word(2, (0, 0, 0, 0))).masses == (1.0, 0.0)

    def test_ternary_frequencies(self):
        d = empirical_distribution(Word(3, (0, 1, 1, 2, 2, 2)))
        assert d.masses == pytest.approx((1 / 6, 2 / 6, 3 / 6))


class TestBias:
    def test_exactly_uniform_word(self):
        assert bias_of_word(Word(2, (0, 1))) == 0.0

    def test_constant_word(self):
        assert bias_of_word(Word(2, (0, 0, 0, 0))) == pytest.approx(0.5)

    def test_near_uniform_word(self):
        assert bias_of_word(Word(2, (0, 0, 0, 1))) == pytest.approx(0.25)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for v in range(25):
        assert is_prime(v) == (v in primes)
