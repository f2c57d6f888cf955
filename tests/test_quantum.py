import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from franson import (
    RandomSource,
    chain_settings,
    chained_quantum_value,
    franson_correlation,
    sample_franson_events,
)
from franson import quantum
from franson.quantum import _cell_split


class TestCorrelationFunctions:
    def test_interferometric_worked_values(self):
        assert franson_correlation(0.0, 0.0) == pytest.approx(1.0)
        assert franson_correlation(math.pi / 6, math.pi / 6) == pytest.approx(0.5)
        assert franson_correlation(0.3, 0.4, visibility=0.5) == pytest.approx(
            0.5 * math.cos(0.7)
        )

    def test_sign_flip_maps_between_the_two_forms(self):
        # E_franson(phi, -psi) = -E_singlet(phi, psi), where the maximally
        # entangled spin pair has E_singlet(phi, psi) = -cos(phi - psi)
        rng = np.random.default_rng(3)
        for phi, psi in rng.uniform(0, 2 * math.pi, size=(50, 2)):
            singlet = -math.cos(phi - psi)
            assert franson_correlation(phi, -psi) == pytest.approx(-singlet, abs=1e-12)

    def test_visibility_validation(self):
        for bad in (1.2, -0.01, 2.0):
            with pytest.raises(ValueError, match="visibility"):
                franson_correlation(0.0, 0.0, visibility=bad)
        assert franson_correlation(0.0, 0.0, visibility=0.95) == 0.95


class TestChainedQuantumValue:
    @pytest.mark.parametrize("terms", [4, 6, 8, 10, 12, 40])
    def test_formula(self, terms):
        assert chained_quantum_value(terms) == pytest.approx(
            terms * math.cos(math.pi / terms), abs=1e-12
        )

    def test_four_terms_is_tsirelson(self):
        assert chained_quantum_value(4) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("terms", [3, 5, 2])
    def test_rejects_bad_counts(self, terms):
        with pytest.raises(ValueError):
            chained_quantum_value(terms)


def comb_events(monkeypatch, phi, psi, v, m=10_000):
    """``sample_franson_events`` on 4*m trials whose draws form a comb.

    Trial t gets the pattern draw (t // m + 1/2) / 4 and the outcome draw
    (t % m + 1/2) / m, so each arm pattern gets exactly m trials and, within
    a pattern, the outcome draws sweep [0, 1) evenly: frequencies are the
    sampler's exact cell measures up to the comb spacing 1/m.
    """
    t = np.arange(4 * m)
    u = np.empty(8 * m)
    u[0::2] = (t // m + 0.5) / 4.0
    u[1::2] = (t % m + 0.5) / m
    monkeypatch.setattr(quantum, "draw_uniforms", lambda rs, start, count: u[start:start + count])
    return sample_franson_events(phi, psi, v, RandomSource(seed=0), 0, 4 * m), 1.0 / m


class TestJointDistribution:
    # the joint law of (arm pattern, outcomes) as the sampler realizes it
    @pytest.mark.parametrize("phi,psi,v", [(0.0, 0.0, 1.0), (0.7, 1.9, 1.0), (2.0, 4.0, 0.6)])
    def test_normalization_and_masses(self, monkeypatch, phi, psi, v):
        (x1, x2, late1, late2), _ = comb_events(monkeypatch, phi, psi, v)
        assert set(np.unique(x1)) <= {-1, 1} and set(np.unique(x2)) <= {-1, 1}
        for l1, l2 in [(False, False), (True, True), (False, True), (True, False)]:
            assert np.mean((late1 == l1) & (late2 == l2)) == 0.25
        assert np.mean(late1 == late2) == 0.5

    @pytest.mark.parametrize("phi,psi,v", [(0.0, 0.0, 1.0), (0.7, 1.9, 0.8), (5.1, 0.2, 0.0)])
    def test_marginals_are_unbiased(self, monkeypatch, phi, psi, v):
        (x1, x2, _, _), tol = comb_events(monkeypatch, phi, psi, v)
        assert np.mean(x1 == 1) == pytest.approx(0.5, abs=2 * tol)
        assert np.mean(x2 == 1) == pytest.approx(0.5, abs=2 * tol)

    def test_conditional_correlation_matches_closed_form(self, monkeypatch):
        (x1, x2, late1, late2), tol = comb_events(monkeypatch, 0.4, 1.1, 0.9)
        coinc = late1 == late2
        prod = x1[coinc].astype(float) * x2[coinc]
        assert prod.mean() == pytest.approx(franson_correlation(0.4, 1.1, 0.9), abs=4 * tol)
        assert franson_correlation(0.4, 1.1, 0.9) == pytest.approx(0.9 * math.cos(1.5), abs=1e-12)

    def test_cross_patterns_are_independent_unbiased(self, monkeypatch):
        (x1, x2, late1, late2), tol = comb_events(monkeypatch, 0.4, 1.1, 1.0)
        for cross in (~late1 & late2, late1 & ~late2):
            for a in (1, -1):
                for b in (1, -1):
                    share = np.mean((x1[cross] == a) & (x2[cross] == b))
                    assert share == pytest.approx(0.25, abs=2 * tol)

    def test_visibility_validated_on_construction(self, rs):
        for bad in (1.5, -0.01):
            with pytest.raises(ValueError, match="visibility"):
                sample_franson_events(0.0, 0.0, bad, rs, 0, 10)


class TestCellSplit:
    def test_exact_proportions(self):
        # a uniform comb of u values recovers the cell probabilities exactly
        n = 4000
        u = (np.arange(n) + 0.5) / n
        for c in (-1.0, -0.4, 0.0, 0.6, 1.0):
            x1, x2 = _cell_split(u, np.full(n, c))
            assert np.mean(x1 * x2) == pytest.approx(c, abs=1e-9)
            assert np.mean(x1) == pytest.approx(0.0, abs=1e-9)
            assert np.mean(x2) == pytest.approx(0.0, abs=1e-9)

    def test_cell_order(self):
        u = np.array([0.0, 0.3, 0.6, 0.9])
        x1, x2 = _cell_split(u, np.zeros(4))
        assert x1.tolist() == [1, 1, -1, -1]
        assert x2.tolist() == [1, -1, 1, -1]


class TestSampler:
    def test_one_element_batches_match_batch(self, rs):
        phi, psi, v = 0.7, 2.1, 0.9
        whole = sample_franson_events(phi, psi, v, rs, 10, 40)
        for k in range(40):
            single = sample_franson_events(phi, psi, v, rs, 10 + k, 1)
            for part, full in zip(single, whole):
                assert part.tolist() == [full[k]]

    def test_concatenation_invariance(self, rs):
        a = sample_franson_events(0.3, 0.5, 1.0, rs, 0, 50)
        b = sample_franson_events(0.3, 0.5, 1.0, rs, 50, 50)
        whole = sample_franson_events(0.3, 0.5, 1.0, rs, 0, 100)
        for part_a, part_b, full in zip(a, b, whole):
            assert_allclose(np.concatenate([part_a, part_b]), full, rtol=0, atol=0)

    def test_deterministic(self):
        one = sample_franson_events(1.0, 2.0, 0.8, RandomSource(seed=9), 0, 100)
        two = sample_franson_events(1.0, 2.0, 0.8, RandomSource(seed=9), 0, 100)
        for x, y in zip(one, two):
            assert np.array_equal(x, y)

    def test_monte_carlo_agrees_with_distribution(self):
        phi, psi, v = 0.9, 0.4, 0.95
        n = 200_000
        x1, x2, late1, late2 = sample_franson_events(
            phi, psi, v, RandomSource(seed=77), 0, n
        )
        coinc = late1 == late2
        se = 1.0 / math.sqrt(n)
        assert np.mean(coinc) == pytest.approx(0.5, abs=4 * 0.5 * se / 0.5)
        target = franson_correlation(phi, psi, v)
        prod = (x1[coinc].astype(float) * x2[coinc]).mean()
        assert prod == pytest.approx(target, abs=4 / math.sqrt(coinc.sum()))
        # pattern frequencies: EE, LL, EL, LE near 1/4 each
        ee = (~late1 & ~late2).mean()
        ll = (late1 & late2).mean()
        assert ee == pytest.approx(0.25, abs=4 * se)
        assert ll == pytest.approx(0.25, abs=4 * se)
        assert np.mean(x1 == 1) == pytest.approx(0.5, abs=4 * se)
        assert np.mean(x2 == 1) == pytest.approx(0.5, abs=4 * se)


class TestExactEntries:
    def test_signed_sum_reaches_quantum_value(self):
        for terms in (4, 6, 10):
            chain = chain_settings(terms)
            total = sum(
                sign * franson_correlation(
                    chain.site1_settings[i].phase, chain.site2_settings[j].phase
                )
                for i, j, sign in chain.term_order
            )
            assert total == pytest.approx(chained_quantum_value(terms), abs=1e-9)
