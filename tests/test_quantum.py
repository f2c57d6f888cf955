import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from franson import (
    DelayClass,
    FransonJointDistribution,
    RandomSource,
    Visibility,
    chain_settings,
    chained_quantum_value,
    exact_correlation_entries,
    franson_correlation,
    franson_joint,
    sample_franson_events,
    singlet_correlation,
)
from franson.quantum import _cell_split

E, L = DelayClass.EARLY, DelayClass.LATE


class TestCorrelationFunctions:
    def test_singlet_worked_values(self):
        assert singlet_correlation(0.0, 0.0) == pytest.approx(-1.0)
        assert singlet_correlation(0.0, math.pi) == pytest.approx(1.0)
        assert singlet_correlation(math.pi / 4, -math.pi / 4) == pytest.approx(
            -math.cos(math.pi / 2)
        )

    def test_interferometric_worked_values(self):
        assert franson_correlation(0.0, 0.0) == pytest.approx(1.0)
        assert franson_correlation(math.pi / 6, math.pi / 6) == pytest.approx(0.5)
        assert franson_correlation(0.3, 0.4, visibility=0.5) == pytest.approx(
            0.5 * math.cos(0.7)
        )

    def test_sign_flip_maps_between_the_two_forms(self):
        # E_franson(phi, -psi) = -E_singlet(phi, psi)
        rng = np.random.default_rng(3)
        for phi, psi in rng.uniform(0, 2 * math.pi, size=(50, 2)):
            assert franson_correlation(phi, -psi) == pytest.approx(
                -singlet_correlation(phi, psi), abs=1e-12
            )

    def test_visibility_validation(self):
        with pytest.raises(ValueError):
            Visibility(1.2)
        with pytest.raises(ValueError):
            Visibility(-0.01)
        with pytest.raises(ValueError):
            franson_correlation(0.0, 0.0, visibility=2.0)
        assert float(Visibility(0.95)) == 0.95


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


class TestJointDistribution:
    @pytest.mark.parametrize("phi,psi,v", [(0.0, 0.0, 1.0), (0.7, 1.9, 1.0), (2.0, 4.0, 0.6)])
    def test_normalization_and_masses(self, phi, psi, v):
        joint = franson_joint(phi, psi, v)
        arr = joint.as_array()
        assert arr.shape == (4, 2, 2)
        assert np.all(arr >= 0)
        assert arr.sum() == pytest.approx(1.0, abs=1e-12)
        for d1, d2 in [(E, E), (L, L), (E, L), (L, E)]:
            assert joint.pattern_mass(d1, d2) == pytest.approx(0.25)
        assert joint.coincidence_mass() == pytest.approx(0.5)

    @pytest.mark.parametrize("phi,psi,v", [(0.0, 0.0, 1.0), (0.7, 1.9, 0.8), (5.1, 0.2, 0.0)])
    def test_marginals_are_unbiased(self, phi, psi, v):
        joint = franson_joint(phi, psi, v)
        assert joint.marginal(1) == pytest.approx(0.5, abs=1e-12)
        assert joint.marginal(2) == pytest.approx(0.5, abs=1e-12)

    def test_conditional_correlation_matches_closed_form(self):
        joint = franson_joint(0.4, 1.1, 0.9)
        arr = joint.as_array()
        vals = np.array([[1, -1], [-1, 1]], dtype=float)
        cond = (arr[0] * vals).sum() + (arr[1] * vals).sum()
        cond /= arr[0].sum() + arr[1].sum()
        assert cond == pytest.approx(joint.conditional_correlation(), abs=1e-12)
        assert joint.conditional_correlation() == pytest.approx(
            0.9 * math.cos(1.5), abs=1e-12
        )

    def test_cross_patterns_are_independent_unbiased(self):
        joint = franson_joint(0.4, 1.1)
        for d1, d2 in [(E, L), (L, E)]:
            for x1 in (1, -1):
                for x2 in (1, -1):
                    assert joint.probability(d1, d2, x1, x2) == pytest.approx(1 / 16)

    def test_probability_validates_outcomes(self):
        with pytest.raises(ValueError):
            franson_joint(0.0, 0.0).probability(E, E, 0, 1)

    def test_marginal_validates_site(self):
        with pytest.raises(ValueError):
            franson_joint(0.0, 0.0).marginal(3)

    def test_visibility_validated_on_construction(self):
        with pytest.raises(ValueError):
            FransonJointDistribution(0.0, 0.0, visibility=1.5)


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
    def test_matches_closed_form(self, chain6):
        entries = exact_correlation_entries(chain6, 0.9)
        assert len(entries) == 6
        for (i, j), value in entries.items():
            phi = chain6.site1_settings[i].phase
            psi = chain6.site2_settings[j].phase
            assert value == pytest.approx(franson_correlation(phi, psi, 0.9), abs=1e-12)

    def test_signed_sum_reaches_quantum_value(self):
        for terms in (4, 6, 10):
            chain = chain_settings(terms)
            entries = exact_correlation_entries(chain)
            total = sum(
                sign * entries[(i, j)] for i, j, sign in chain.term_order
            )
            assert total == pytest.approx(chained_quantum_value(terms), abs=1e-9)
