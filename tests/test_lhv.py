import math
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest

from franson import (
    LocalStrategy,
    RandomSource,
    TrialBatch,
    aklz_quadrature,
    aklz_strategy,
    chain_settings,
    draw_uniforms,
    monte_carlo_statistics,
    simulate_strategy_pairs,
    strategy_grid_statistics,
)
from franson.core import TWO_PI
from franson.lhv import _HALF_PI, _THREE_HALVES_PI


class DelayClass(Enum):
    """Arrival class labels for the worked examples below."""

    EARLY = "early"
    LATE = "late"


E, L = DelayClass.EARLY, DelayClass.LATE


# Plain-Python reference of the delay model, one hidden variable at a time:
# (outcome, late, detected) per site, written from the model's definition.
def reference_site1(phi, theta, r):
    cu = math.cos(theta + phi)
    h = (math.pi / 4.0) * abs(cu)
    early = r < h / 2.0 or (0.5 <= r < 1.0 - h / 2.0)
    return (1 if cu >= 0.0 else -1), not early, True


def reference_site2(psi, theta, r):
    return (1 if math.cos(theta - psi) >= 0.0 else -1), not r < 0.5, True


def respond_one(responder, setting, theta, r):
    """A single trial as a one-element batch."""
    o, late, det = responder(setting, np.array([theta]), np.array([r]))
    assert o.shape == late.shape == det.shape == (1,)
    return int(o[0]), bool(late[0]), bool(det[0])


class TestSiteResponses:
    # worked examples, checked by hand against the response definitions
    @pytest.mark.parametrize(
        "phi,theta,r,outcome,delay",
        [
            (0.0, 0.0, 0.2, +1, E),        # h/2 = pi/8 ~ 0.3927; r below it
            (0.0, math.pi / 2, 0.7, +1, E),  # cos ~ 0 tie -> +1; [1/2, 1-h/2) hit
            (0.0, math.pi, 0.45, -1, L),   # between the two early windows
            (0.0, math.pi, 0.55, -1, E),   # 0.5 <= r < 1 - h/2
            (0.0, 0.0, 0.95, +1, L),       # r beyond 1 - h/2
        ],
    )
    def test_site1(self, phi, theta, r, outcome, delay):
        got = respond_one(aklz_strategy().batch_site1, phi, theta, r)
        assert got == (outcome, delay is L, True)

    @pytest.mark.parametrize(
        "psi,theta,r,outcome,delay",
        [
            (math.pi / 3, math.pi / 3, 0.49, +1, E),
            (0.0, math.pi, 0.5, -1, L),
            (math.pi, 0.0, 0.1, -1, E),
        ],
    )
    def test_site2(self, psi, theta, r, outcome, delay):
        got = respond_one(aklz_strategy().batch_site2, psi, theta, r)
        assert got == (outcome, delay is L, True)

    def test_site2_delay_ignores_setting(self):
        site2 = aklz_strategy().batch_site2
        lates = {respond_one(site2, psi, 1.3, 0.37)[1] for psi in np.linspace(0, 6.2, 20)}
        assert lates == {False}

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        theta = rng.uniform(0, 2 * math.pi, 1000)
        r = rng.uniform(0, 1, 1000)
        strat = aklz_strategy()
        phi, psi = 0.9, 2.3
        o1, l1, d1 = strat.batch_site1(phi, theta, r)
        o2, l2, d2 = strat.batch_site2(psi, theta, r)
        for k in range(1000):
            t, u = float(theta[k]), float(r[k])
            assert reference_site1(phi, t, u) == (o1[k], l1[k], d1[k])
            assert reference_site2(psi, t, u) == (o2[k], l2[k], d2[k])


# The responders as they were first written, one cosine per site: the
# referee for the comparisons and reused buffers that replaced them.
def cosine_site1(phi, theta, r):
    cu = np.cos(theta + phi)
    outcome = np.where(cu >= 0.0, 1, -1).astype(np.int8)
    ht = (np.pi / 8.0) * np.abs(cu)
    early = (r < ht) | ((r >= 0.5) & (r < 1.0 - ht))
    detected = np.ones(theta.shape, dtype=bool)
    return outcome, ~early, detected


def cosine_site2(psi, theta, r):
    cw = np.cos(theta - psi)
    outcome = np.where(cw >= 0.0, 1, -1).astype(np.int8)
    early = r < 0.5
    detected = np.ones(theta.shape, dtype=bool)
    return outcome, ~early, detected


def assert_same_responses(setting, theta, r):
    strategy = aklz_strategy()
    for responder, reference in (
        (strategy.batch_site1, cosine_site1),
        (strategy.batch_site2, cosine_site2),
    ):
        got = responder(setting, theta, r)
        want = reference(setting, theta, r)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)


# pi to 60 places, far finer than the spacing of doubles near 2*pi
PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494459")

CHAIN_PHASES = sorted(
    {
        s.phase
        for terms in (4, 6, 8)
        for s in (*chain_settings(terms).site1_settings, *chain_settings(terms).site2_settings)
    }
)

# the largest uniform draw, 1 - 2**-53, times 2*pi
LARGEST_THETA = float(np.nextafter(1.0, 0.0)) * TWO_PI


def doubles_around(x: float, ulps: int) -> np.ndarray:
    """Every double within ``ulps`` ulps of the positive double ``x``."""
    bits = np.array([x]).view(np.int64) + np.arange(-ulps, ulps + 1)
    return bits.view(np.float64)


class TestCosineReferee:
    @pytest.fixture(scope="class")
    def hidden(self):
        rng = np.random.default_rng(2872)
        n = 1_000_000
        return rng.random(n) * TWO_PI, rng.random(n)

    @pytest.mark.parametrize("setting", CHAIN_PHASES)
    def test_random_hidden_variables(self, hidden, setting):
        assert_same_responses(setting, *hidden)

    @pytest.mark.parametrize(
        "zero,psi,sign",
        [
            (_HALF_PI, 0.0, 1),
            (_THREE_HALVES_PI, 0.0, 1),
            (_HALF_PI, math.pi, -1),
            (_THREE_HALVES_PI, 6.0, -1),
        ],
    )
    def test_every_double_near_the_zeros_of_the_cosine(self, zero, psi, sign):
        # theta - psi runs over every double within 10^4 ulps of +-pi/2 or
        # +-3*pi/2, with theta and psi in [0, 2*pi)
        x = sign * doubles_around(zero, 10_000)
        theta = x + psi
        assert np.array_equal(theta - psi, x)
        assert np.all((0.0 <= theta) & (theta < TWO_PI))
        r = np.random.default_rng(1999).random(x.size)
        assert_same_responses(psi, theta, r)

    @pytest.mark.parametrize("setting", CHAIN_PHASES)
    def test_extreme_hidden_variables(self, setting):
        theta = np.repeat([0.0, LARGEST_THETA], 5)
        r = np.tile([0.0, 0.25, 0.5, 0.75, float(np.nextafter(1.0, 0.0))], 2)
        assert_same_responses(setting, theta, r)

    def test_sign_constants_are_the_largest_doubles_below_their_zeros(self):
        for c, zero in ((_HALF_PI, PI / 2), (_THREE_HALVES_PI, 3 * PI / 2)):
            assert Fraction(c) < zero < Fraction(float(np.nextafter(c, math.inf)))
        # so is the largest |theta - psi| accepted, 2*pi rounded down, and
        # the rule holds on all of [0, 2*pi]
        assert Fraction(TWO_PI) < 2 * PI

    def test_angles_beyond_two_pi_are_refused(self):
        site2 = aklz_strategy().batch_site2
        r = np.array([0.5])
        # |theta - psi| = 2*pi rounded down is the largest accepted
        assert_same_responses(0.0, np.array([TWO_PI]), r)
        assert_same_responses(TWO_PI, np.array([0.0]), r)
        for psi, theta in (
            (0.0, float(np.nextafter(TWO_PI, math.inf))),
            (0.0, -7.0),
            (-1.0, 6.0),
            (7.0, 0.5),
            (0.0, math.nan),
            (math.inf, 1.0),
            (math.nan, 1.0),
        ):
            with pytest.raises(ValueError, match=r"\|theta - psi\| <= 2\*pi"):
                site2(psi, np.array([1.0, theta, 2.0]), np.full(3, 0.5))
        # an empty batch has nothing to refuse
        assert all(a.size == 0 for a in site2(9.0, np.empty(0), np.empty(0)))


def early_measure_overlap_sum(u: float, n_r: int = 1024) -> float:
    """Sum of per-cell overlaps of the site-1 early region on an n_r grid.

    The early region at fixed theta is [0, h/2) union [1/2, 1 - h/2) with
    h = (pi/4)|cos(u)|.  Summing each grid cell's exact overlap telescopes
    to the closed-form measure 1/2 used by ``aklz_quadrature``; this helper
    exists so tests can verify that equivalence cell by cell.
    """
    ht = (math.pi / 8.0) * abs(math.cos(u))
    edges = np.linspace(0.0, 1.0, n_r + 1)
    lo, hi = edges[:-1], edges[1:]

    def overlap(a: float, b: float) -> float:
        return float(np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None).sum())

    return overlap(0.0, ht) + overlap(0.5, 1.0 - ht)


class TestQuadrature:
    def test_reproduces_cosine_correlation(self):
        # the local model's coincident correlation equals cos(phi+psi)
        for phi in np.linspace(0, 2 * math.pi, 5, endpoint=False):
            for psi in np.linspace(0.1, 2 * math.pi, 5, endpoint=False):
                stats = aklz_quadrature(phi, psi)
                assert stats.conditional_correlation == pytest.approx(
                    math.cos(phi + psi), abs=1e-9
                )

    def test_masses_and_marginals(self):
        stats = aklz_quadrature(0.7, 1.9)
        assert stats.coincidence_mass == pytest.approx(0.5, abs=1e-12)
        assert stats.mass_ee == pytest.approx(0.25, abs=1e-12)
        assert stats.mass_ll == pytest.approx(0.25, abs=1e-12)
        assert stats.marginal1 == pytest.approx(0.5, abs=1e-9)
        assert stats.marginal2 == pytest.approx(0.5, abs=1e-9)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            aklz_quadrature(0.0, 0.0, n_theta=0)

    def test_overlap_sum_telescopes_to_half(self):
        for u in (0.0, 0.4, math.pi / 2, 2.2, 5.9):
            for n_r in (7, 64, 1024):
                assert early_measure_overlap_sum(u, n_r) == pytest.approx(
                    0.5, abs=1e-12
                )

    def test_grid_statistics_agree_with_quadrature(self):
        phi, psi = 1.1, 0.4
        grid = strategy_grid_statistics(aklz_strategy(), phi, psi, n_theta=2048, n_r=512)
        exact = aklz_quadrature(phi, psi)
        assert grid.conditional_correlation == pytest.approx(
            exact.conditional_correlation, abs=2e-3
        )
        assert grid.coincidence_mass == pytest.approx(0.5, abs=2e-3)
        assert grid.mass_ee == pytest.approx(0.25, abs=2e-3)
        # the midpoint rule is the sample mean over equal-weight cells
        assert grid.count == round(grid.coincidence_mass * 2048 * 512)


class TestSimulatePairs:
    def test_batch_and_scalar_paths_identical(self):
        # the batch run equals the plain-Python reference trial by trial
        rs = RandomSource(seed=21)
        fast = simulate_strategy_pairs(aklz_strategy(), 0.8, 1.7, 500, rs)
        u = draw_uniforms(rs, 0, 1000)
        for k in range(500):
            t, r = float(u[2 * k]) * 2 * math.pi, float(u[2 * k + 1])
            assert reference_site1(0.8, t, r) == (fast.outcome1[k], fast.late1[k], fast.detected1[k])
            assert reference_site2(1.7, t, r) == (fast.outcome2[k], fast.late2[k], fast.detected2[k])

    def test_start_trial_concatenation(self):
        rs = RandomSource(seed=22)
        strat = aklz_strategy()
        first = simulate_strategy_pairs(strat, 0.1, 0.2, 30, rs, start_trial=0)
        second = simulate_strategy_pairs(strat, 0.1, 0.2, 70, rs, start_trial=30)
        whole = simulate_strategy_pairs(strat, 0.1, 0.2, 100, rs, start_trial=0)
        for a, b, full in zip(first, second, whole):
            assert np.array_equal(np.concatenate([a, b]), full)

    def test_monte_carlo_matches_quadrature(self):
        phi, psi = 0.6, 1.2
        n = 100_000
        batch = simulate_strategy_pairs(aklz_strategy(), phi, psi, n, RandomSource(seed=5))
        stats = monte_carlo_statistics(batch)
        se = 1.0 / math.sqrt(n)
        assert stats.coincidence_mass == pytest.approx(0.5, abs=4 * 0.5 * se * 2)
        assert stats.conditional_correlation == pytest.approx(
            math.cos(phi + psi), abs=4 / math.sqrt(stats.count)
        )
        assert stats.mass_ee == pytest.approx(0.25, abs=4 * se)
        assert stats.mass_ll == pytest.approx(0.25, abs=4 * se)
        assert stats.marginal1 == pytest.approx(0.5, abs=4 * se)
        assert stats.marginal2 == pytest.approx(0.5, abs=4 * se)


class TestMonteCarloStatistics:
    def test_handmade_batch(self):
        batch = TrialBatch(
            outcome1=np.array([1, 1, -1, -1, 1], dtype=np.int8),
            late1=np.array([False, True, False, True, False]),
            detected1=np.array([True, True, True, True, True]),
            outcome2=np.array([1, -1, 1, -1, 1], dtype=np.int8),
            late2=np.array([False, True, True, True, False]),
            detected2=np.array([True, True, True, False, True]),
        )
        stats = monte_carlo_statistics(batch)
        # coincident trials: 0 (EE, +1), 1 (LL, -1), 4 (EE, +1)
        assert stats.count == 3
        assert stats.conditional_correlation == pytest.approx(1 / 3)
        assert stats.coincidence_mass == pytest.approx(3 / 5)
        assert stats.mass_ee == pytest.approx(2 / 5)
        assert stats.mass_ll == pytest.approx(1 / 5)
        assert stats.marginal1 == pytest.approx(3 / 5)
        assert stats.marginal2 == pytest.approx(3 / 5)

    def test_empty_coincidences(self):
        batch = TrialBatch(
            outcome1=np.array([1], dtype=np.int8),
            late1=np.array([True]),
            detected1=np.array([True]),
            outcome2=np.array([1], dtype=np.int8),
            late2=np.array([False]),
            detected2=np.array([True]),
        )
        stats = monte_carlo_statistics(batch)
        assert stats.count == 0
        assert math.isnan(stats.conditional_correlation)


def probe_strategy():
    """A strategy whose outcomes record the hidden variables it was shown."""
    seen = []

    def site(setting, theta, r):
        seen.append((theta.copy(), r.copy()))
        ones = np.ones(theta.shape, dtype=bool)
        return np.ones(theta.shape, dtype=np.int8), ~ones, ones

    return LocalStrategy(batch_site1=site, batch_site2=site), seen


class TestDrawHiddenVariable:
    def test_ranges_and_determinism(self, rs):
        strategy, seen = probe_strategy()
        simulate_strategy_pairs(strategy, 0.0, 0.0, 50, rs)
        simulate_strategy_pairs(strategy, 0.0, 0.0, 50, rs)
        theta, r = seen[0]
        assert np.all((0.0 <= theta) & (theta < 2 * math.pi))
        assert np.all((0.0 <= r) & (r < 1.0))
        # both sites see the same hidden variables, and reruns repeat them
        for t, u in seen[1:]:
            assert np.array_equal(t, theta) and np.array_equal(u, r)

    def test_consumes_paired_draws(self, rs):
        # trial t uses draws 2t and 2t+1
        strat = aklz_strategy()
        batch = simulate_strategy_pairs(strat, 0.8, 1.7, 1, rs, start_trial=7)
        u = draw_uniforms(rs, 14, 2)
        theta, r = np.array([u[0] * 2 * math.pi]), np.array([u[1]])
        expected = (*strat.batch_site1(0.8, theta, r), *strat.batch_site2(1.7, theta, r))
        for got, want in zip(batch, expected):
            assert np.array_equal(got, want)
