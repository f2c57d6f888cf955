import ast
import math
import pathlib
import re
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

import franson
from franson import (
    RandomSource,
    Setting,
    SettingsChain,
    chain_settings,
    draw_uniforms,
    random_settings_chain,
    reduce_phase,
    setting_key,
)
from franson.core import TWO_PI


class TestReducePhase:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (0.0, 0.0),
            (TWO_PI, 0.0),
            (-TWO_PI, 0.0),
            (math.pi, math.pi),
            (-math.pi / 2, 3 * math.pi / 2),
            (5 * TWO_PI + 0.25, 0.25),
        ],
    )
    def test_known_values(self, raw, expected):
        assert reduce_phase(raw) == pytest.approx(expected, abs=1e-12)

    def test_range_on_awkward_inputs(self):
        for x in [-1e9, -1e-18, 1e9, 123456.789, -0.0, TWO_PI * (1 - 1e-16)]:
            r = reduce_phase(x)
            assert 0.0 <= r < TWO_PI

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-50, 50, size=200):
            assert reduce_phase(reduce_phase(x)) == reduce_phase(x)


class TestSettingKey:
    def test_stable_under_wrapping(self):
        for p in [0.0, 0.3, math.pi / 4, 5.5]:
            assert setting_key(p) == setting_key(p + TWO_PI) == setting_key(p - TWO_PI)

    def test_distinct_settings_differ(self):
        assert setting_key(math.pi / 4) != setting_key(math.pi / 3)

    def test_setting_object_uses_same_key(self):
        s = Setting(math.pi / 4 + TWO_PI)
        assert s.key == setting_key(math.pi / 4)


class TestSetting:
    def test_phase_reduced_on_construction(self):
        assert Setting(-math.pi / 2).phase == pytest.approx(3 * math.pi / 2)

    def test_whole_turns_are_the_same_setting(self):
        assert Setting(0.0) == Setting(TWO_PI)
        assert Setting(0.0) != Setting(0.1)


def test_all_lists_every_public_name():
    # dir, not vars: a lazily provided name is bound only after its first use
    bound = {
        name
        for name in dir(franson)
        if not name.startswith("_") and not isinstance(getattr(franson, name), types.ModuleType)
    }
    assert set(franson.__all__) == bound


def test_every_public_name_is_used_outside_the_tests():
    # public API that only the tests call is dead weight: each exported name
    # must appear in the package beyond its own definition, in a demo, in
    # the benchmark, or in the README
    root = pathlib.Path(__file__).resolve().parents[1]
    package = root / "src" / "franson"
    texts = [p.read_text() for p in package.glob("*.py") if p.name != "__init__.py"]
    texts += [p.read_text() for d in ("demos", "bench") for p in (root / d).glob("*.py")]
    texts.append((root / "README.md").read_text())
    unused = []
    for name in franson.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^(?:def|class) {re.escape(name)}\b|^{re.escape(name)} = ", re.M)
        uses = sum(len(word.findall(t)) - len(definition.findall(t)) for t in texts)
        if uses < 1:
            unused.append(name)
    assert unused == []


def test_every_private_name_is_used_in_the_package():
    # a private helper that only the tests call is dead weight too: each
    # module-level name with a leading underscore must be read somewhere in
    # the package, as a name or an attribute, beyond its own definition
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "franson"
    defined, read = set(), set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = {n for n in defined if n.startswith("_") and not n.endswith("__")}
    assert private
    assert sorted(private - read) == []


class TestChainSettings:
    @pytest.mark.parametrize("terms", [4, 6, 8, 10, 12])
    def test_valid_chain(self, terms):
        chain = chain_settings(terms)
        assert chain.terms == terms
        assert len(chain.site1_settings) == terms // 2
        assert len(chain.groups) == terms // 2
        signs = [s for _, _, s in chain.term_order]
        assert signs.count(-1) == 1

    @pytest.mark.parametrize("terms", [4, 6, 8, 10, 12])
    def test_every_term_contributes_equally(self, terms):
        # sign * cos(phi + psi) is the same for every term of the schedule
        chain = chain_settings(terms)
        target = math.cos(math.pi / terms)
        for i, j, sign in chain.term_order:
            c = math.cos(chain.site1_settings[i].phase + chain.site2_settings[j].phase)
            assert sign * c == pytest.approx(target, abs=1e-12)

    @pytest.mark.parametrize("terms", [3, 5, 2, 0, -4])
    def test_rejects_bad_term_counts(self, terms):
        with pytest.raises(ValueError):
            chain_settings(terms)

    def test_four_term_structure(self, chain4):
        assert chain4.term_order == ((0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, -1))


class TestSettingsChainValidation:
    def _settings(self, n):
        return tuple(Setting(0.1 * k) for k in range(n))

    def test_rejects_two_minus_signs(self):
        with pytest.raises(ValueError, match="one -1"):
            SettingsChain(
                4,
                self._settings(2),
                self._settings(2),
                ((0, 0, 1), (0, 1, -1), (1, 1, 1), (1, 0, -1)),
            )

    def test_rejects_repeated_pair(self):
        with pytest.raises(ValueError):
            SettingsChain(
                4,
                self._settings(2),
                self._settings(2),
                ((0, 0, 1), (0, 0, 1), (1, 1, 1), (1, 0, -1)),
            )

    def test_rejects_wrong_settings_count(self):
        with pytest.raises(ValueError):
            SettingsChain(
                4,
                self._settings(3),
                self._settings(2),
                ((0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, -1)),
            )

    def test_rejects_disconnected_cycles(self):
        # two separate 4-cycles instead of one single 8-cycle
        with pytest.raises(ValueError, match="single"):
            SettingsChain(
                8,
                self._settings(4),
                self._settings(4),
                (
                    (0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 1),
                    (2, 2, 1), (2, 3, 1), (3, 3, 1), (3, 2, -1),
                ),
            )


    @pytest.mark.parametrize("zero_in_longer", [True, False])
    def test_rejects_an_eight_and_a_four_cycle(self, zero_in_longer):
        # settings 0-3 of each site in one cycle and 4-5 in the other, or
        # 0-1 and 2-5: the walk from site-1 setting 0 meets 8 or 4 terms
        def ring(first, size):
            ends = range(first, first + size)
            return [(i, j, 1) for i in ends for j in (i, first + (i - first + 1) % size)]

        long, short = (ring(0, 4), ring(4, 2)) if zero_in_longer else (ring(2, 4), ring(0, 2))
        order = long + short
        order[-1] = order[-1][:2] + (-1,)
        with pytest.raises(ValueError, match="single"):
            SettingsChain(12, self._settings(6), self._settings(6), tuple(order))

    def test_cycle_walks_every_term_once(self):
        from test_strategyopt import random_term_chain

        rng = np.random.default_rng(5)
        for terms in range(4, 44, 2):
            for chain in (chain_settings(terms), random_term_chain(terms, rng)):
                cycle = chain.cycle
                assert sorted(cycle) == list(range(terms))
                cells = [chain.term_order[t][:2] for t in cycle]
                assert cells[0][0] == 0
                # from site-1 setting 0 the walk shares site-2 settings, then
                # site-1 ones, alternately, and closes at site-1 setting 0
                for k in range(terms):
                    site = (k + 1) % 2
                    assert cells[k][site] == cells[(k + 1) % terms][site]


class TestRandomSettingsChain:
    def test_is_valid_and_deterministic(self):
        rs = RandomSource(seed=7)
        a = random_settings_chain(6, rs)
        b = random_settings_chain(6, rs)
        assert a == b
        assert a.terms == 6
        assert all(0.0 <= s.phase < TWO_PI for s in a.site1_settings)

    def test_different_streams_differ(self):
        rs = RandomSource(seed=7)
        a = random_settings_chain(6, rs)
        c = random_settings_chain(6, rs.substream(1))
        assert a != c


class TestRandomSource:
    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            RandomSource(seed=-1)
        with pytest.raises(ValueError):
            RandomSource(seed=2**64)

    def test_substream(self):
        rs = RandomSource(seed=5, stream=2)
        assert rs.substream(3) == RandomSource(seed=5, stream=5)

    def test_draws_in_unit_interval(self, rs):
        u = draw_uniforms(rs, 0, 1000)
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_scalar_matches_batch_across_block_boundaries(self, rs):
        # draws live in counter blocks of four; check every offset against
        # slices of one longer call and against one-element calls
        longer = draw_uniforms(rs, 0, 32)
        for start in range(8):
            for count in range(1, 10):
                batch = draw_uniforms(rs, start, count)
                assert_allclose(batch, longer[start : start + count], rtol=0, atol=0)
                scalar = [draw_uniforms(rs, i, 1)[0] for i in range(start, start + count)]
                assert_allclose(batch, scalar, rtol=0, atol=0)

    def test_batch_split_invariance(self, rs):
        whole = draw_uniforms(rs, 0, 100)
        parts = np.concatenate([draw_uniforms(rs, 0, 37), draw_uniforms(rs, 37, 63)])
        assert_allclose(whole, parts, rtol=0, atol=0)

    def test_streams_are_distinct(self):
        a = draw_uniforms(RandomSource(seed=1, stream=0), 0, 64)
        b = draw_uniforms(RandomSource(seed=1, stream=1), 0, 64)
        assert not np.array_equal(a, b)

    def test_same_arguments_reproduce(self):
        a = draw_uniforms(RandomSource(seed=42, stream=9), 5, 50)
        b = draw_uniforms(RandomSource(seed=42, stream=9), 5, 50)
        assert_allclose(a, b, rtol=0, atol=0)

    def test_negative_index_rejected(self, rs):
        with pytest.raises(ValueError):
            draw_uniforms(rs, -1, 4)
        with pytest.raises(ValueError):
            draw_uniforms(rs, 0, -1)

    def test_paired_streams_look_independent(self):
        # chi-square independence of (stream 0, stream 1) pairs on a
        # 16 x 16 occupancy grid
        from scipy.stats import chi2

        n = 4096
        a = draw_uniforms(RandomSource(seed=2024, stream=0), 0, n)
        b = draw_uniforms(RandomSource(seed=2024, stream=1), 0, n)
        counts, _, _ = np.histogram2d(a, b, bins=16, range=[[0, 1], [0, 1]])
        expected = n / 256.0
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, 255)
