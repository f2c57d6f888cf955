import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from franson import (
    BoundReport,
    CorrelationTable,
    DeterministicVertex,
    GameSpec,
    LocalStrategy,
    MixedStrategy,
    ModelClass,
    ModelKind,
    OptimizerBudget,
    ResourceLimitError,
    Setting,
    SettingsChain,
    SiteVertex,
    aklz_mixed_strategy,
    aklz_quadrature,
    chain_settings,
    chained_statistic,
    emission_time_lp_value,
    evaluate_mixed,
    max_statistic,
    monte_carlo_statistics,
    random_settings_chain,
    setting_key,
    simulate_strategy_pairs,
    statistic_stderr,
    verify_bound,
)
from franson import strategyopt
from franson.core import TWO_PI, RandomSource
from franson.strategyopt import (
    _COLUMN_ROUNDS,
    _COLUMNS_PER_ROUND,
    _SEARCH_ATOM_LIMIT,
    _Restart,
    _arrival_core,
    _atoms,
    _cell_indices,
    _check_pricing_size,
    _check_search_size,
    _climb_in_lockstep,
    _column_classes,
    _constraints,
    _et_best_columns,
    _lp_step,
    _oo_best_columns,
    _open_round,
    _pattern_coef,
    _restart_support,
    _side_arrays,
    _side_rows,
    _site_vertex,
    _stacked_lp,
    _statistic,
    _support_matrices,
    _vertex_index,
)

SQRT2 = math.sqrt(2.0)


def game(kind_factory, chain):
    return GameSpec(model=kind_factory(), chain=chain)


def joint_vertex(g, i, j):
    """Joint vertex of site-1 row i and site-2 row j of the game's sides."""
    sides = _side_arrays(g.model.kind, g.n_settings)
    return DeterministicVertex(_site_vertex(sides, i), _site_vertex(sides, j))


def strategy_from_mixture(mixed: MixedStrategy, chain: SettingsChain) -> LocalStrategy:
    """Run a finite-game mixture through the event-level simulator.

    The hidden variable's angle selects the vertex (its quantile over the
    mixture weights); each station then answers from its own map.  Only
    single-phase vertices translate; the two-phase emission-time vertices
    have no single-setting response to give.  A setting outside the chain
    raises KeyError.
    """
    if any(v.site1.late_outcomes is not None for v in mixed.vertices):
        raise ValueError("two-phase vertices cannot run the single-setting pipeline")
    cum = np.cumsum(np.asarray(mixed.weights))
    last = len(mixed.vertices) - 1

    def responder(settings, sides: list[SiteVertex]):
        lut = {s.key: i for i, s in enumerate(settings)}
        # (vertices, settings) response tables
        outcomes = np.array([sv.outcomes for sv in sides], dtype=np.int8)
        late = ~np.array([sv.early for sv in sides], dtype=bool)
        detected = np.array([sv.detected for sv in sides], dtype=bool)

        def respond(setting: float, theta: np.ndarray, r: np.ndarray):
            idx = lut.get(setting_key(setting))
            if idx is None:
                raise KeyError(f"setting {setting} is not part of the chain")
            k = np.minimum(np.searchsorted(cum, theta / TWO_PI, side="right"), last)
            return outcomes[k, idx], late[k, idx], detected[k, idx]

        return respond

    return LocalStrategy(
        batch_site1=responder(chain.site1_settings, [v.site1 for v in mixed.vertices]),
        batch_site2=responder(chain.site2_settings, [v.site2 for v in mixed.vertices]),
    )


@pytest.fixture(scope="module")
def chain4m():
    return chain_settings(4)


@pytest.fixture(scope="module")
def chain6m():
    return chain_settings(6)


@pytest.fixture(scope="module")
def et4_result(chain4m):
    g = game(ModelClass.emission_time_realism, chain4m)
    return g, max_statistic(g, OptimizerBudget(restarts=8, seed=0))


class TestMixedStrategy:
    def _vertex(self, late=False):
        sv = SiteVertex(
            outcomes=(1, -1),
            early=(True, True),
            detected=(True, True),
            late_outcomes=(1, 1) if late else None,
        )
        return DeterministicVertex(sv, sv)

    def test_weight_validation(self):
        v = self._vertex()
        with pytest.raises(ValueError):
            MixedStrategy(vertices=(v,), weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            MixedStrategy(vertices=(v, v), weights=(0.7, 0.7))
        with pytest.raises(ValueError):
            MixedStrategy(vertices=(v,), weights=(-0.2,))
        with pytest.raises(ValueError):
            MixedStrategy(vertices=(), weights=())
        # NaN compares False with every bound, so no violation of one shows
        for bad in ((math.nan,), (math.inf,), (0.5, math.nan, 0.5)):
            with pytest.raises(ValueError, match="probability vector"):
                MixedStrategy(vertices=(v,) * len(bad), weights=bad)
        assert MixedStrategy(vertices=(v,), weights=(1.0,)).weights == (1.0,)

    @pytest.mark.parametrize("late", [False, True])
    def test_json_roundtrip(self, late):
        strategy = MixedStrategy(
            vertices=(self._vertex(late), self._vertex(late)), weights=(0.25, 0.75)
        )
        d = json.loads(json.dumps(strategy.to_json_dict()))

        def side(s):
            late = s["late_outcomes"]
            return SiteVertex(
                outcomes=tuple(s["outcomes"]),
                early=tuple(s["early"]),
                detected=tuple(s["detected"]),
                late_outcomes=None if late is None else tuple(late),
            )

        again = MixedStrategy(
            vertices=tuple(
                DeterministicVertex(side(v["site1"]), side(v["site2"])) for v in d["vertices"]
            ),
            weights=tuple(d["weights"]),
        )
        assert again == strategy


class TestGameSpec:
    def test_properties(self, chain4m, chain6m):
        g4 = game(ModelClass.emission_time_realism, chain4m)
        assert g4.n_settings == 2
        assert g4.cells == ((0, 0), (0, 1), (1, 1), (1, 0))
        assert g4.has_equal_mass_constraint
        g6 = game(ModelClass.outcomes_only, chain6m)
        assert g6.n_settings == 3
        assert not g6.has_equal_mass_constraint


class TestEnumeration:
    @pytest.mark.parametrize(
        "factory,count",
        [
            (ModelClass.plain_local_realism, 16),
            (ModelClass.path_realism, 64),
            (ModelClass.emission_time_realism, 4096),
            (ModelClass.outcomes_only, 4096),
        ],
    )
    def test_joint_vertex_counts(self, chain4m, factory, count):
        g = game(factory, chain4m)
        sides = _side_arrays(g.model.kind, g.n_settings)
        assert sides.size**2 == count
        # every row is a distinct vertex
        assert len({_site_vertex(sides, k) for k in range(sides.size)}) == sides.size

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "factory",
        [
            ModelClass.plain_local_realism,
            ModelClass.path_realism,
            ModelClass.emission_time_realism,
            ModelClass.outcomes_only,
        ],
    )
    def test_rows_decode_in_the_table_order(self, factory, n):
        """The decoder against the table it replaced: sign and bool
        patterns tiled in mixed-radix order."""
        kind = factory().kind
        P = 2**n
        bools = ((np.arange(P)[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
        signs = (1 - 2 * bools.astype(np.int64)).astype(np.int8)
        ones = np.ones((P, n), dtype=bool)
        late = None
        if kind is ModelKind.PLAIN_LOCAL_REALISM:
            out, early, det = signs, ones, ones
        elif kind is ModelKind.PATH_REALISM:
            out = np.repeat(signs, 2, axis=0)
            early = np.repeat(np.tile([True, False], P)[:, None], n, axis=1)
            det = np.ones_like(early)
        else:
            high, rest = np.divmod(np.arange(P**3), P * P)
            mid, low = np.divmod(rest, P)
            out = signs[high]
            if kind is ModelKind.OUTCOMES_ONLY:
                early, det = bools[mid], bools[low]
            else:
                late, early, det = signs[mid], bools[low], np.ones((P**3, n), dtype=bool)
        sides = _side_arrays(kind, n)
        np.testing.assert_array_equal(sides.outcomes, out)
        np.testing.assert_array_equal(sides.early, early)
        np.testing.assert_array_equal(sides.detected, det)
        assert (sides.late_outcomes is None) == (late is None)
        if late is not None:
            np.testing.assert_array_equal(sides.late_outcomes, late)
        np.testing.assert_array_equal(sides.n_late, (~early).sum(axis=1))
        # any rows decode like those rows of the whole table
        rows = np.random.default_rng(n).integers(sides.size, size=9)
        part = _side_arrays(kind, n, rows)
        for name in ("outcomes", "early", "detected", "n_late"):
            np.testing.assert_array_equal(getattr(part, name), getattr(sides, name)[rows])

    def test_emission_time_vertices_carry_late_maps(self, chain4m):
        v = joint_vertex(game(ModelClass.emission_time_realism, chain4m), 0, 0)
        assert v.site1.late_outcomes is not None
        assert len(v.site1.late_outcomes) == 2

    def test_resource_limit(self):
        # both oracles price 8^n site-1 vertices over every term, so one
        # rule lets the 12-term games of both searched classes fit
        _check_pricing_size(game(ModelClass.emission_time_realism, chain_settings(12)))
        _check_pricing_size(game(ModelClass.outcomes_only, chain_settings(12)))
        big = game(ModelClass.emission_time_realism, chain_settings(14))
        with pytest.raises(ResourceLimitError, match="emission-time pricing entries"):
            emission_time_lp_value(big)


def enumerated_vertex_max(g):
    """Largest statistic over every joint vertex of a linear class, from
    the whole (S, S, terms) array of signed correlations.  Path-realism
    vertices coincide only when their constant arrival classes match."""
    sides = _side_arrays(g.model.kind, g.n_settings)
    a_idx, b_idx, signs = _cell_indices(g)
    signed = sides.outcomes[:, None, a_idx] * sides.outcomes[None, :, b_idx] * signs
    stats = np.abs(signed[:, :, 0::2] + signed[:, :, 1::2]).sum(axis=2)
    if g.model.kind is ModelKind.PATH_REALISM:
        c = sides.early[:, 0]
        stats = np.where(c[:, None] == c[None, :], stats, -np.inf)
    return stats.max()


LINEAR_NOTES = (
    "closed form at the all-+1 vertex: each setting lies in two terms "
    "and one sign is -1, so every vertex has a -1 term under every "
    "group sign pattern and none exceeds terms - 2"
)


class TestExactMaxima:
    def test_plain_four_terms(self, chain4m):
        result = max_statistic(game(ModelClass.plain_local_realism, chain4m))
        assert result.exact
        assert result.value == pytest.approx(2.0, abs=1e-12)
        assert len(result.witness.vertices) == 1

    @pytest.mark.parametrize(
        "factory, terms",
        [(ModelClass.plain_local_realism, t) for t in (4, 6, 8, 10)]
        + [(ModelClass.path_realism, t) for t in (4, 6, 8)],
    )
    def test_matches_the_whole_vertex_enumeration(self, factory, terms):
        rng = np.random.default_rng(terms)
        chains = [chain_settings(terms)] + [random_term_chain(terms, rng) for _ in range(2)]
        for chain in chains:
            g = game(factory, chain)
            result = max_statistic(g)
            assert result.exact
            assert result.value == enumerated_vertex_max(g) == terms - 2
            assert result.notes == LINEAR_NOTES
            assert len(result.witness.vertices) == 1
            ev = evaluate_mixed(g, result.witness)
            assert ev.feasible
            assert ev.statistic == result.value

    @pytest.mark.parametrize(
        "factory, top", [(ModelClass.plain_local_realism, 126), (ModelClass.path_realism, 124)]
    )
    def test_closed_form_up_to_the_widest_int64_rows(self, factory, top):
        # site rows of n (plain) or n + 1 (path) bits fill 63 bits at the top
        rng = np.random.default_rng(top)
        for terms in (40, 64, top):
            for chain in (chain_settings(terms), random_term_chain(terms, rng)):
                g = game(factory, chain)
                result = max_statistic(g)
                assert (result.method, result.exact) == ("exact-maximum", True)
                assert result.value == terms - 2
                ev = evaluate_mixed(g, result.witness)
                assert ev.feasible
                assert ev.statistic == result.value
        with pytest.raises(ResourceLimitError, match="64-bit site rows; int64 holds 63 bits"):
            max_statistic(game(factory, chain_settings(top + 2)))

    @pytest.mark.parametrize(
        "factory, top", [(ModelClass.plain_local_realism, 126), (ModelClass.path_realism, 124)]
    )
    def test_no_random_vertex_beats_the_parity_bound(self, factory, top):
        """Parity referee beyond any enumeration: random +-1 vertices, alone
        and mixed, never exceed terms - 2 under ``evaluate_mixed``.  On the
        standard chain each site-1 setting's two terms form one group, so
        random site-1 outcomes against an all-+1 site 2 reach the bound."""
        rng = np.random.default_rng(top)
        plain = factory().kind is ModelKind.PLAIN_LOCAL_REALISM
        for terms in range(40, top + 1, 2):
            n = terms // 2
            standard = chain_settings(terms)
            for chain in (standard, random_term_chain(terms, rng)):
                g = game(factory, chain)
                # path realism: one constant arrival class, shared by both sites
                early = plain or bool(rng.integers(2))

                def side(flip):
                    outcomes = np.where(rng.random(n) < flip, -1, 1)
                    return SiteVertex(tuple(int(x) for x in outcomes), (early,) * n, (True,) * n)

                vertices = [
                    DeterministicVertex(side(flip1), side(flip2))
                    for flip1, flip2 in ((0.5, 0.5), (0.1, 0.1), (0.5, 0.0))
                ]
                stats = [evaluate_mixed(g, MixedStrategy((v,), (1.0,))).statistic for v in vertices]
                assert max(stats) <= terms - 2
                assert max(stats) == terms - 2 or chain is not standard
                mixed = evaluate_mixed(g, MixedStrategy(tuple(vertices), (0.25, 0.25, 0.5)))
                assert mixed.feasible
                assert mixed.statistic <= terms - 2

    @pytest.mark.parametrize(
        "factory, terms, bits",
        [(ModelClass.plain_local_realism, 130, 65), (ModelClass.path_realism, 126, 64)],
    )
    def test_a_vertex_wider_than_int64_is_a_resource_limit(self, factory, terms, bits):
        # at 65 settings a -1 at setting 64 needs bit 64 of the row
        n = terms // 2
        side = SiteVertex((1,) * (n - 1) + (-1,), (True,) * n, (True,) * n)
        g = game(factory, chain_settings(terms))
        with pytest.raises(ResourceLimitError, match=f"{bits}-bit site rows; int64 holds 63 bits"):
            evaluate_mixed(g, MixedStrategy((DeterministicVertex(side, side),), (1.0,)))

    def test_plain_six_terms(self, chain6m):
        result = max_statistic(game(ModelClass.plain_local_realism, chain6m))
        assert result.value == pytest.approx(4.0, abs=1e-12)

    def test_path_realism_four_terms(self, chain4m):
        result = max_statistic(game(ModelClass.path_realism, chain4m))
        assert result.exact
        assert result.value == pytest.approx(2.0, abs=1e-12)
        # the witness must use one consistent arrival class on both sides
        v = result.witness.vertices[0]
        assert set(v.site1.early) == set(v.site2.early)

    def test_witness_reproduces_value(self, chain4m):
        g = game(ModelClass.plain_local_realism, chain4m)
        result = max_statistic(g)
        ev = evaluate_mixed(g, result.witness)
        assert ev.statistic == pytest.approx(result.value, abs=1e-12)
        assert ev.feasible

    def test_phase_values_do_not_matter(self):
        rs = RandomSource(seed=99)
        for k in range(3):
            chain = random_settings_chain(6, rs.substream(k))
            result = max_statistic(game(ModelClass.plain_local_realism, chain))
            assert result.value == pytest.approx(4.0, abs=1e-12)

    def test_no_finite_game_for_efficiency_classes(self, chain4m):
        side = SiteVertex(outcomes=(1, 1), early=(True, True), detected=(True, True))
        witness = MixedStrategy(vertices=(DeterministicVertex(side, side),), weights=(1.0,))
        for model in (ModelClass.inefficiency(0.9), ModelClass.delays(0.9)):
            with pytest.raises(ValueError, match="analytic"):
                max_statistic(GameSpec(model=model, chain=chain4m))
            with pytest.raises(ValueError, match="no finite-settings game"):
                evaluate_mixed(GameSpec(model=model, chain=chain4m), witness)


class TestOptimizer:
    def test_emission_time_four_terms(self, et4_result):
        g, result = et4_result
        assert not result.exact
        assert result.value <= 3.0 + 1e-6
        assert result.value >= 3.0 - 1e-6

    def test_emission_time_witness_is_feasible(self, et4_result):
        g, result = et4_result
        ev = evaluate_mixed(g, result.witness)
        assert ev.feasible
        assert ev.statistic == pytest.approx(result.value, abs=1e-8)
        # equal early-early and late-late mass forces every cell to 1/2
        for m in ev.masses:
            assert m == pytest.approx(0.5, abs=1e-8)

    def test_six_term_search_reaches_lp_value_with_feasible_witness(self, chain6m):
        rs = RandomSource(seed=5)
        chains = [chain6m] + [random_settings_chain(6, rs.substream(k)) for k in range(2)]
        for k, chain in enumerate(chains):
            g = game(ModelClass.emission_time_realism, chain)
            result = max_statistic(g, OptimizerBudget(restarts=8, seed=k))
            assert result.restarts_used == 8
            assert result.value == pytest.approx(emission_time_lp_value(g), abs=1e-9)
            ev = evaluate_mixed(g, result.witness)
            assert ev.feasible
            assert ev.constraint_residual <= 1e-9
            assert ev.statistic == pytest.approx(result.value, abs=1e-9)
            for m in ev.masses:
                assert m == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("field", ["restarts", "iterations", "support_size"])
    def test_budget_counts_must_be_positive(self, field):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            OptimizerBudget(**{field: 0})

    def test_outcomes_only_reaches_algebraic_max(self, chain4m):
        g = game(ModelClass.outcomes_only, chain4m)
        result = max_statistic(g, OptimizerBudget(restarts=4, seed=1))
        assert result.value == pytest.approx(4.0, abs=1e-6)
        assert result.value <= 4.0 + 1e-6

    @pytest.mark.parametrize("terms", [4, 6, 8])
    def test_outcomes_only_search_is_exact_with_a_basic_witness(self, terms):
        chains = [chain_settings(terms), random_settings_chain(terms, RandomSource(seed=9))]
        for k, chain in enumerate(chains):
            g = game(ModelClass.outcomes_only, chain)
            result = max_statistic(g, OptimizerBudget(restarts=8, seed=k))
            assert result.value == pytest.approx(terms, abs=1e-9)
            ev = evaluate_mixed(g, result.witness)
            assert ev.feasible
            assert ev.statistic == pytest.approx(result.value, abs=1e-9)
            # each LP step ends at a basic solution: one atom per row at most
            assert len(result.witness.vertices) <= terms + 1

    def test_class_ordering(self, chain4m, et4_result):
        plain = max_statistic(game(ModelClass.plain_local_realism, chain4m)).value
        et = et4_result[1].value
        oo = max_statistic(
            game(ModelClass.outcomes_only, chain4m), OptimizerBudget(restarts=4, seed=2)
        ).value
        assert plain <= et + 1e-9 <= oo + 1e-9

    def test_resource_limit_in_optimizer(self):
        for g in (
            game(ModelClass.emission_time_realism, chain_settings(14)),
            game(ModelClass.outcomes_only, chain_settings(14)),
        ):
            with pytest.raises(ResourceLimitError):
                max_statistic(g, OptimizerBudget(restarts=1))

    def test_ten_term_search_witness_is_feasible(self):
        g = game(ModelClass.emission_time_realism, chain_settings(10))
        result = max_statistic(g, OptimizerBudget(restarts=4, seed=1))
        assert result.value == pytest.approx(9.0, abs=1e-6)
        ev = evaluate_mixed(g, result.witness)
        assert ev.feasible
        assert ev.constraint_residual <= 1e-9
        assert ev.statistic == pytest.approx(result.value, abs=1e-9)

    @pytest.mark.parametrize("terms", [4, 6, 8])
    def test_emission_time_witness_is_basic(self, terms):
        g = game(ModelClass.emission_time_realism, chain_settings(terms))
        result = max_statistic(g, OptimizerBudget(restarts=8, seed=terms))
        ev = evaluate_mixed(g, result.witness)
        assert ev.feasible
        assert ev.constraint_residual <= 1e-9
        assert ev.statistic == pytest.approx(result.value, abs=1e-9)
        # a basic solution of its restart's LP: one atom per row of A at most
        assert len(result.witness.vertices) <= terms + 2

    def test_restarts_share_each_lp_step(self, chain4m, monkeypatch):
        import scipy.optimize

        rows = []
        solve = scipy.optimize.linprog

        def counting_linprog(*args, **kwargs):
            rows.append(kwargs["A_eq"].shape[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counting_linprog)
        budget = OptimizerBudget(restarts=48, iterations=3, seed=0)
        # rows per restart: one per cell, the late-late mass under emission-time
        # realism, and the simplex row
        for factory, block_rows in (
            (ModelClass.emission_time_realism, 4 + 2), (ModelClass.outcomes_only, 4 + 1)
        ):
            rows.clear()
            max_statistic(game(factory, chain4m), budget)
            # one stacked LP per step, not one or more per restart
            assert 1 <= len(rows) <= (_COLUMN_ROUNDS + 1) * budget.iterations
            assert rows[0] == budget.restarts * block_rows

    def test_lockstep_climb_keeps_each_restarts_stopping_rule(self, monkeypatch):
        # one group of two cells at unit mass: the statistic is |w @ (-2, 1, 2)|
        signs = np.ones(2)
        mass = np.ones((3, 2))
        num = np.array([[-1.0, -1.0], [1.0, 0.0], [1.0, 1.0]])

        def restart(w):
            r = _Restart(np.zeros(3, int), np.zeros(3, int), np.array(w), mass=mass, num=num)
            r.stat, r.corr, r.m, r.groups = _statistic(r.w, mass, num, signs)
            return r

        script, calls = {}, []

        def scripted_step(restarts, signs):
            calls.append([script[id(r)][0] for r in restarts])
            return [np.array(script[id(r)].pop(1)) for r in restarts]

        monkeypatch.setattr(strategyopt, "_lp_step", scripted_step)
        # "a" rises and flips its sign pattern, then rises and keeps it;
        # "b" is offered a step that does not rise
        a, b = restart([0.9, 0.1, 0.0]), restart([0.0, 0.0, 1.0])
        script[id(a)] = ["a", [0.0, 0.1, 0.9], [0.0, 0.0, 1.0]]
        script[id(b)] = ["b", [0.5, 0.0, 0.5]]
        _climb_in_lockstep([a, b], signs, iterations=5)
        assert calls == [["a", "b"], ["a"]]
        assert a.w.tolist() == [0.0, 0.0, 1.0] and a.stat == 2.0
        assert b.w.tolist() == [0.0, 0.0, 1.0] and b.stat == 2.0
        # iterations caps the steps even while the pattern keeps changing
        a = restart([0.9, 0.1, 0.0])
        script[id(a)] = ["a", [0.0, 0.1, 0.9]]
        calls.clear()
        _climb_in_lockstep([a], signs, iterations=1)
        assert calls == [["a"]]
        assert a.w.tolist() == [0.0, 0.1, 0.9]

    @pytest.mark.parametrize("terms", [4, 6])
    @pytest.mark.parametrize(
        "factory", [ModelClass.emission_time_realism, ModelClass.outcomes_only]
    )
    def test_stacked_lp_solves_each_block_like_a_separate_lp(self, terms, factory, monkeypatch):
        from scipy.optimize import linprog

        g = game(factory, random_settings_chain(terms, RandomSource(seed=terms)))
        _, _, signs = _cell_indices(g)
        rng = np.random.default_rng(terms)
        restarts, blocks = [], []
        for size in (8, 40, 192, 192):
            r = _Restart(*_restart_support(g, OptimizerBudget(support_size=size), rng))
            _open_round(g, r, signs)
            restarts.append(r)
            # the block's whole LP, built here from the row builders
            atoms = _atoms(g, r.idx1, r.idx2)
            mass, num = _support_matrices(g, *atoms)
            if g.has_equal_mass_constraint:
                A, b = _constraints(g, *atoms)
            else:
                A, b = np.vstack([mass.T, np.ones(r.idx1.size)]), np.append(r.w @ mass, 1.0)
            blocks.append((num @ _pattern_coef(signs, r.m, r.groups), A, b))
        steps = _lp_step(restarts, signs)
        passed = []

        def marking_stacked_lp(objs, As, bs):
            # weight k + 1 on the k-th column handed over, to see its atom
            passed.extend(zip(objs, As))
            return [np.arange(1.0, obj.size + 1) for obj in objs]

        monkeypatch.setattr(strategyopt, "_stacked_lp", marking_stacked_lp)
        marked = _lp_step(restarts, signs)
        # each block hands over its own distinct constraint columns, one
        # atom each: of those sharing the column, the first of the largest
        # objective in support order
        for r, (obj, A, _), (obj_k, A_k), w in zip(restarts, blocks, passed, marked):
            assert A_k is r.A
            distinct = np.unique(A, axis=1)
            assert obj_k.size == distinct.shape[1] < obj.size
            assert np.unique(A_k, axis=1).shape == distinct.shape
            for j in range(obj_k.size):
                alike = np.flatnonzero(np.all(A == A_k[:, [j]], axis=0))
                best = obj[alike].max()
                assert obj_k[j] == best
                assert w[alike[obj[alike] == best][0]] == j + 1
            assert np.count_nonzero(w) == obj_k.size
        # every column stacked, and the climb's step over the columns it keeps
        for xs in (_stacked_lp(*zip(*blocks)), steps):
            assert len(xs) == len(blocks)
            for (obj, A, b), x in zip(blocks, xs):
                res = linprog(-obj, A_eq=A, b_eq=b, bounds=(0.0, None), method="highs")
                assert res.success, res.message
                assert x.shape == obj.shape
                assert np.all(x >= 0.0)
                assert np.max(np.abs(A @ x - b)) <= 1e-9
                assert obj @ x == pytest.approx(-res.fun, abs=1e-9)


    @pytest.mark.parametrize("seed", range(6))
    def test_column_classes_match_one_unique_call(self, seed):
        rng = np.random.default_rng(seed)
        rows, size = rng.integers(1, 4), rng.integers(1, 60)
        # few distinct values, so columns repeat, with signed zeros among them
        A = rng.integers(-1, 2, size=(rows, size)).astype(np.float64)
        A[A == 0.0] *= np.where(rng.random((A == 0.0).sum()) < 0.5, -1.0, 1.0)
        assert np.signbit(A[A == 0.0]).any()
        # the referee: np.unique's classes, compared as a partition of the
        # columns, so 0.0 and -0.0 fall in one class in both
        ref_A, ref_cls = np.unique(A, axis=1, return_inverse=True)
        ref_cls = ref_cls.reshape(-1)
        distinct, cls = _column_classes(A)
        assert distinct.shape == ref_A.shape
        np.testing.assert_array_equal(cls[:, None] == cls, ref_cls[:, None] == ref_cls)
        np.testing.assert_array_equal(distinct[:, cls], A)

    @pytest.mark.parametrize("with_zero_columns", [False, True])
    @pytest.mark.parametrize("blocks", [1, 4])
    def test_stacked_constraint_matrix_is_the_block_diagonal(
        self, blocks, with_zero_columns, monkeypatch
    ):
        import scipy.optimize
        from scipy.sparse import block_diag, csc_array

        rng = np.random.default_rng(blocks)
        As = [
            rng.integers(0, 3, size=(5, size)) * rng.choice([-0.5, 0.25, 1.0], size=(5, size))
            for size in rng.integers(1, 12, size=blocks)
        ]
        if with_zero_columns:
            for A in As:
                A[:, rng.integers(A.shape[1])] = 0.0
        A_eqs = []

        def capturing_linprog(c, **kwargs):
            A_eqs.append(kwargs["A_eq"])
            return type("Result", (), {"success": True, "x": np.zeros(c.size)})

        monkeypatch.setattr(scipy.optimize, "linprog", capturing_linprog)
        xs = _stacked_lp([np.ones(A.shape[1]) for A in As], As, [np.ones(5)] * blocks)
        assert [x.size for x in xs] == [A.shape[1] for A in As]
        ref = block_diag([csc_array(A) for A in As], format="csc")
        (got,) = A_eqs
        assert got.format == "csc"
        assert got.shape == ref.shape
        assert got.indices.dtype == got.indptr.dtype == ref.indices.dtype == np.int32
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        np.testing.assert_array_equal(got.data, ref.data)

    @pytest.mark.parametrize(
        "factory, terms",
        [
            (ModelClass.emission_time_realism, 4),
            (ModelClass.emission_time_realism, 6),
            (ModelClass.emission_time_realism, 8),
            (ModelClass.outcomes_only, 4),
        ],
    )
    def test_restart_support_matches_scalar_draws(self, factory, terms):
        def scalar_support(g, sides, budget, rng):
            """One ``rng.integers`` call per map, pick by pick."""
            n = g.n_settings
            picks1, picks2 = [], []
            if g.has_equal_mass_constraint:
                arrivals = list(_arrival_core(n)) + [
                    (1 << a, 1 << b) for a in range(n) for b in range(n) for _ in range(2)
                ]
                for ep1, ep2 in arrivals:
                    o1, l1 = rng.integers(2**n), rng.integers(2**n)
                    o2, l2 = rng.integers(2**n), rng.integers(2**n)
                    picks1.append(_vertex_index(n, o1, l1, ep1))
                    picks2.append(_vertex_index(n, o2, l2, ep2))
            extra = max(budget.support_size - len(picks1), 8)
            picks1.extend(int(x) for x in rng.integers(sides.size, size=extra))
            picks2.extend(int(x) for x in rng.integers(sides.size, size=extra))
            w0 = np.zeros(len(picks1))
            if g.has_equal_mass_constraint:
                w0[:4] = 0.25
            else:
                w0[:] = 1.0 / w0.size
                w0 = 0.5 * w0 + 0.5 * rng.dirichlet(np.ones(w0.size))
            return np.array(picks1), np.array(picks2), w0

        g = game(factory, chain_settings(terms))
        sides = _side_arrays(g.model.kind, g.n_settings)
        for seed, size in itertools.product((0, 5, 7, 2**40 + 3), (1, 40, 192)):
            budget = OptimizerBudget(support_size=size)
            got = _restart_support(g, budget, np.random.default_rng(seed))
            ref = scalar_support(g, sides, budget, np.random.default_rng(seed))
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "factory, terms, support",
        [
            (ModelClass.emission_time_realism, 4, 192),
            (ModelClass.emission_time_realism, 4, 1),
            (ModelClass.emission_time_realism, 10, 40),
            (ModelClass.emission_time_realism, 12, 1),
            (ModelClass.outcomes_only, 4, 1),
            (ModelClass.outcomes_only, 6, 192),
        ],
    )
    def test_search_size_counts_every_atom_a_support_can_hold(self, factory, terms, support):
        g = game(factory, chain_settings(terms))
        budget = OptimizerBudget(support_size=support)
        drawn = _restart_support(g, budget, np.random.default_rng(0))[0].size
        per_restart = drawn + _COLUMN_ROUNDS * _COLUMNS_PER_ROUND
        at_limit = _SEARCH_ATOM_LIMIT // per_restart
        _check_search_size(g, OptimizerBudget(restarts=at_limit, support_size=support))
        with pytest.raises(ResourceLimitError, match="support atoms"):
            _check_search_size(g, OptimizerBudget(restarts=at_limit + 1, support_size=support))

    @pytest.mark.parametrize(
        "budget",
        [OptimizerBudget(restarts=1000), OptimizerBudget(restarts=320, support_size=400)],
    )
    def test_search_size_admits_large_four_term_budgets(self, chain4m, budget):
        for factory in (ModelClass.emission_time_realism, ModelClass.outcomes_only):
            _check_search_size(game(factory, chain4m), budget)

    def test_search_size_limit_comes_before_any_draw_or_lp(self, chain4m, monkeypatch):
        def fail(*args):
            raise AssertionError("the search or the LP started")

        monkeypatch.setattr(strategyopt, "_restart_support", fail)
        monkeypatch.setattr(strategyopt, "emission_time_lp_value", fail)
        for factory in (ModelClass.emission_time_realism, ModelClass.outcomes_only):
            for budget in (
                OptimizerBudget(restarts=10**12),
                OptimizerBudget(restarts=1, support_size=10**12),
            ):
                g = game(factory, chain4m)
                with pytest.raises(ResourceLimitError):
                    max_statistic(g, budget)
                if g.has_equal_mass_constraint:
                    with pytest.raises(ResourceLimitError):
                        verify_bound(g, budget, lp_check=True)


class TestEvaluateMixed:
    def test_rejects_vertex_outside_class(self, chain4m):
        g = game(ModelClass.plain_local_realism, chain4m)
        sv = SiteVertex(outcomes=(1, 1), early=(True, False), detected=(True, True))
        foreign = MixedStrategy(
            vertices=(DeterministicVertex(sv, sv),), weights=(1.0,)
        )
        with pytest.raises(ValueError, match="outside this game's class"):
            evaluate_mixed(g, foreign)
        # path realism holds one arrival class for every setting
        g = game(ModelClass.path_realism, chain4m)
        with pytest.raises(ValueError, match="outside this game's class"):
            evaluate_mixed(g, foreign)
        # maps for four settings where the game has two, on every vertex alike
        wide = SiteVertex(outcomes=(1, -1, 1, 1), early=(True,) * 4, detected=(True,) * 4)
        with pytest.raises(ValueError, match="outside this game's class"):
            evaluate_mixed(
                g, MixedStrategy(vertices=(DeterministicVertex(wide, wide),), weights=(1.0,))
            )
        # malformed maps: a value off the outcome or flag alphabet, a wrong
        # length, a missing late map
        g = game(ModelClass.emission_time_realism, chain4m)
        v = joint_vertex(g, 5, 9)
        for bad in (
            {"outcomes": (1, 0)},
            {"outcomes": (1, -1, 1)},
            {"early": (True, 2)},
            {"late_outcomes": None},
        ):
            odd = DeterministicVertex(replace(v.site1, **bad), v.site2)
            with pytest.raises(ValueError, match="outside this game's class"):
                evaluate_mixed(g, MixedStrategy(vertices=(v, odd), weights=(0.5, 0.5)))

    def test_constraint_residual_reported(self, chain4m):
        # a single emission-time vertex cannot satisfy the equal-mass rule
        g = game(ModelClass.emission_time_realism, chain4m)
        v = joint_vertex(g, 0, 0)
        ev = evaluate_mixed(g, MixedStrategy(vertices=(v,), weights=(1.0,)))
        assert ev.constraint_residual > 1e-3
        assert not ev.feasible

    @pytest.mark.parametrize(
        "factory",
        [
            ModelClass.plain_local_realism,
            ModelClass.path_realism,
            ModelClass.emission_time_realism,
            ModelClass.outcomes_only,
        ],
    )
    def test_side_rows_find_every_vertex(self, chain4m, factory):
        g = game(factory, chain4m)
        sides = _side_arrays(g.model.kind, g.n_settings)
        rows = np.random.default_rng(23).permutation(sides.size)
        vertices = [_site_vertex(sides, int(k)) for k in rows]
        found = _side_rows(g.model.kind, g.n_settings, vertices)
        assert found.tolist() == rows.tolist()


def full_lp_matrices(g):
    """Dense LP over every joint vertex: equality rows, right-hand side and
    one objective per sign pattern, in ``itertools.product((1, -1), ...)``
    order.  Column i * S2 + j is site-1 vertex i with site-2 vertex j."""
    n = g.n_settings
    s1 = _side_arrays(g.model.kind, n)
    s2 = _side_arrays(g.model.kind, n)
    a_idx, b_idx, signs = _cell_indices(g)
    T = len(a_idx)
    S1, S2 = s1.size, s2.size
    e1 = s1.early[:, a_idx].astype(np.float64)
    e2 = s2.early[:, b_idx].astype(np.float64)
    o1 = s1.outcomes[:, a_idx].astype(np.float64)
    o2 = s2.outcomes[:, b_idx].astype(np.float64)
    l1 = s1.late_outcomes[:, a_idx].astype(np.float64)
    l2 = s2.late_outcomes[:, b_idx].astype(np.float64)
    nl1 = s1.n_late.astype(np.float64) / n
    nl2 = s2.n_late.astype(np.float64) / n
    # per-cell early-early mass, the late-late mass, total mass
    rows = [np.outer(e1[:, t], e2[:, t]).ravel() for t in range(T)]
    rows.append(np.outer(nl1, nl2).ravel())
    rows.append(np.ones(S1 * S2))
    A_eq = np.vstack(rows)
    b_eq = np.array([0.25] * T + [0.25, 1.0])
    objs = {}
    for pattern in itertools.product((1.0, -1.0), repeat=T // 2):
        coef = np.repeat(np.array(pattern), 2) * signs
        obj = np.zeros(S1 * S2)
        for t in range(T):
            # corr_t = 2 * (early part + late part) once masses are pinned
            obj += 2.0 * coef[t] * (
                np.outer(e1[:, t] * o1[:, t], e2[:, t] * o2[:, t]).ravel()
                + np.outer(nl1 * l1[:, t], nl2 * l2[:, t]).ravel()
            )
        objs[pattern] = obj
    return A_eq, b_eq, objs


def full_lp_pattern_values(g):
    """Reference LP values per sign pattern, every joint vertex handed to
    HiGHS at once.  Slow (262,144 columns at 6 terms), so the tests use it
    at 4 terms."""
    from scipy.optimize import linprog

    A_eq, b_eq, objs = full_lp_matrices(g)
    values = {}
    for pattern, obj in objs.items():
        res = linprog(-obj, A_eq=A_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
        assert res.success, res.message
        values[pattern] = float(-res.fun)
    return values


def random_term_chain(terms, rng):
    """A chain with random phases, a random term order and the minus sign
    on a random term, so the absolute-value groups pair other cells."""
    base = chain_settings(terms)
    half = terms // 2
    while True:
        cells = [base.term_order[k][:2] for k in rng.permutation(terms)]
        minus = int(rng.integers(terms))
        order = tuple((i, j, -1 if k == minus else 1) for k, (i, j) in enumerate(cells))
        try:
            return SettingsChain(
                terms,
                tuple(Setting(float(x)) for x in rng.uniform(0, 2 * math.pi, half)),
                tuple(Setting(float(x)) for x in rng.uniform(0, 2 * math.pi, half)),
                order,
            )
        except ValueError:
            continue


def groups_share_a_setting(chain):
    """Whether the two terms of every group share a setting on some site."""
    return all(a[0] == b[0] or a[1] == b[1] for a, b in chain.groups)


class TestOneSignPattern:
    """Why the all-+1 sign pattern alone gives the exact maximum: negating
    a set of settings' outcome maps in every vertex negates exactly the
    terms that cross that set, a cut of the chain's setting graph, and
    keeps every mass; every union of groups is such a cut."""

    @pytest.mark.parametrize("terms", [4, 6, 8])
    def test_every_union_of_groups_is_a_cut(self, terms):
        rng = np.random.default_rng(terms)
        chains = [chain_settings(terms)] + [random_term_chain(terms, rng) for _ in range(3)]
        assert not all(groups_share_a_setting(c) for c in chains)
        n = terms // 2
        for chain in chains:
            # nodes 0..n-1 are the site-1 settings, n..2n-1 the site-2 ones;
            # a set of nodes is a bit mask, and so is a set of terms
            ends = [(i, n + j) for i, j, _ in chain.term_order]
            cuts = {
                sum(1 << t for t, (u, v) in enumerate(ends) if (nodes >> u ^ nodes >> v) & 1)
                for nodes in range(2**terms)
            }
            # a connected graph has 2^(nodes - 1) cuts; a cycle's are its
            # 2^(terms - 1) even-size edge sets
            assert len(cuts) == 2 ** (terms - 1)
            assert all(bin(cut).count("1") % 2 == 0 for cut in cuts)
            for groups in range(2**n):
                union = sum(0b11 << 2 * k for k in range(n) if groups >> k & 1)
                assert union in cuts

    @pytest.mark.parametrize(
        "factory",
        [ModelClass.plain_local_realism, ModelClass.path_realism,
         ModelClass.emission_time_realism, ModelClass.outcomes_only],
    )
    def test_flipping_settings_negates_the_terms_that_cross(self, factory):
        rng = np.random.default_rng(7)
        g = game(factory, random_term_chain(6, rng))
        n = g.n_settings
        size = _side_arrays(g.model.kind, n).size
        a_idx, b_idx, _ = _cell_indices(g)

        def flip(sides, settings):
            sign = np.where(settings, -1, 1).astype(np.int8)
            late = sides.late_outcomes
            return replace(
                sides,
                outcomes=sides.outcomes * sign,
                late_outcomes=None if late is None else late * sign,
            )

        for _ in range(4):
            s1, s2 = _atoms(g, *rng.integers(size, size=(2, 50)))
            x1, x2 = rng.random((2, n)) < 0.5
            mass, num = _support_matrices(g, s1, s2)
            f1, f2 = flip(s1, x1), flip(s2, x2)
            flipped_mass, flipped_num = _support_matrices(g, f1, f2)
            crossing = x1[a_idx] != x2[b_idx]
            np.testing.assert_array_equal(flipped_mass, mass)
            np.testing.assert_array_equal(flipped_num, np.where(crossing, -num, num))
            for before, after in zip(_constraints(g, s1, s2), _constraints(g, f1, f2)):
                np.testing.assert_array_equal(after, before)


class TestLpCrossCheck:
    def test_exact_value_four_terms(self, chain4m):
        g = game(ModelClass.emission_time_realism, chain4m)
        assert emission_time_lp_value(g) == pytest.approx(3.0, abs=1e-9)

    def test_only_for_emission_time(self, chain4m):
        with pytest.raises(ValueError):
            emission_time_lp_value(game(ModelClass.plain_local_realism, chain4m))

    def test_matches_full_lp_on_standard_and_random_chains(self, chain4m):
        # every sign pattern's dense LP has the one LP's value, on term
        # orders whose groups share a setting and on ones whose groups do not
        rng = np.random.default_rng(41)
        chains = [chain4m] + [random_term_chain(4, rng) for _ in range(6)]
        assert len({c.term_order for c in chains}) > 3
        assert groups_share_a_setting(chain4m)
        assert not all(groups_share_a_setting(c) for c in chains)
        for chain in chains:
            g = game(ModelClass.emission_time_realism, chain)
            value = emission_time_lp_value(g)
            reference = full_lp_pattern_values(g)
            assert len(reference) == 4
            for pattern_value in reference.values():
                assert pattern_value == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("terms", [4, 6])
    def test_oracle_price_matches_dense_lp(self, chain4m, terms):
        rng = np.random.default_rng(43 + terms)
        base = chain4m if terms == 4 else chain_settings(6)
        chains = [base] + [random_term_chain(terms, rng) for _ in range(2 if terms == 4 else 1)]
        for chain in chains:
            g = game(ModelClass.emission_time_realism, chain)
            A_eq, b_eq, objs = full_lp_matrices(g)
            S = _side_arrays(g.model.kind, g.n_settings).size
            _, _, signs = _cell_indices(g)
            for pattern, obj in objs.items():
                coef = 2.0 * np.repeat(np.array(pattern), 2) * signs
                y = rng.normal(size=b_eq.size)
                dense = obj - A_eq.T @ y
                price, i, j = _et_best_columns(g, coef, y, 16)
                assert price[0] == pytest.approx(dense.max(), abs=1e-9)
                assert np.all(np.diff(price) <= 0.0)
                # each returned column carries its own dense price
                assert np.allclose(price, dense[i * S + j], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("terms", [4, 6])
    def test_zero_prices_give_each_arrival_pairs_best_vertex(self, terms):
        # at y = 0 the oracle's price is the all-+1 objective, and each
        # arrival pair comes back once, with the best of the joint vertices
        # that share its constraint column
        rng = np.random.default_rng(53 + terms)
        for chain in (chain_settings(terms), random_term_chain(terms, rng)):
            g = game(ModelClass.emission_time_realism, chain)
            n = g.n_settings
            _, _, objs = full_lp_matrices(g)
            obj = objs[(1.0,) * n]
            S = _side_arrays(g.model.kind, n).size
            # a row's arrival map is its lowest n bits (_vertex_index)
            best = obj.reshape((2**n,) * 6).max(axis=(0, 1, 3, 4))
            _, _, signs = _cell_indices(g)
            price, i, j = _et_best_columns(g, 2.0 * signs, np.zeros(2 * n + 2), 4**n)
            e1, e2 = i % 2**n, j % 2**n
            assert sorted((e1 * 2**n + e2).tolist()) == list(range(4**n))
            np.testing.assert_allclose(price, best[e1, e2], rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(obj[i * S + j], price, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("terms", [4, 6, 8, 10, 12])
    def test_one_solve_over_the_arrival_pairs(self, terms):
        # the referee: one HiGHS solve of the all-+1 LP over the 4^n arrival
        # pairs, each with its best outcome maps, matches the closed form
        from scipy.optimize import linprog

        rng = np.random.default_rng(71 + terms)
        for chain in (chain_settings(terms), random_term_chain(terms, rng)):
            g = game(ModelClass.emission_time_realism, chain)
            n = g.n_settings
            _, _, signs = _cell_indices(g)
            coef = 2.0 * signs
            _, i, j = _et_best_columns(g, coef, np.zeros(terms + 2), 4**n)
            assert i.size == 4**n
            s1, s2 = _atoms(g, i, j)
            _, num = _support_matrices(g, s1, s2)
            A_eq, b_eq = _constraints(g, s1, s2)
            res = linprog(-(num @ coef), A_eq=A_eq, b_eq=b_eq, bounds=(0.0, None),
                          method="highs")
            assert res.success, res.message
            assert emission_time_lp_value(g) == pytest.approx(-res.fun, abs=1e-9)

    def test_eight_term_game_is_solved_exactly(self):
        g = game(ModelClass.emission_time_realism, chain_settings(8))
        assert emission_time_lp_value(g) == pytest.approx(7.0, abs=1e-9)

    def test_twelve_term_game_is_solved_exactly(self):
        g = game(ModelClass.emission_time_realism, chain_settings(12))
        assert emission_time_lp_value(g) == pytest.approx(11.0, abs=1e-9)


class TestExactDefaults:
    """Referees for the exact answers ``verify_bound`` reports by default."""

    @pytest.mark.parametrize("terms", [4, 6, 8, 12, 20, 40, 42])
    def test_outcomes_only_closed_form_reaches_the_algebraic_maximum(self, terms):
        rs = RandomSource(seed=terms)
        chains = [chain_settings(terms)]
        if terms == 8:
            chains += [random_settings_chain(8, rs.substream(k)) for k in range(3)]
            chains += [random_term_chain(8, np.random.default_rng(k)) for k in range(2)]
        for chain in chains:
            g = game(ModelClass.outcomes_only, chain)
            result = strategyopt._outcomes_only_closed_form(g)
            assert (result.method, result.exact, result.value) == ("closed-form", True, terms)
            assert result.witness.weights == (2.0 / terms,) * (terms // 2)
            ev = evaluate_mixed(g, result.witness)
            assert ev.feasible
            assert ev.statistic == terms
            assert ev.masses == (2.0 / terms,) * terms

    def test_outcomes_only_closed_form_stops_at_int64_rows(self):
        g = game(ModelClass.outcomes_only, chain_settings(44))
        with pytest.raises(ResourceLimitError, match="66-bit site rows"):
            strategyopt._outcomes_only_closed_form(g)

    @pytest.mark.parametrize("terms", [4, 6, 8, 12])
    def test_emission_time_lp_witness_is_feasible(self, terms):
        g = game(ModelClass.emission_time_realism, chain_settings(terms))
        result = emission_time_lp_value(g, solution=True)
        assert (result.method, result.exact, result.value) == ("lp", True, terms - 1)
        assert result.value == emission_time_lp_value(g)
        certificate = result.certificate
        assert certificate.closed
        assert certificate.dual_value == terms - 1
        assert certificate.largest_profit == 0.0
        assert certificate.duals == (2.0,) * terms + (2.0 * (terms - 2), 0.0)
        # the primal's positive weights only, at most one per equality row
        assert min(result.witness.weights) > 0.0
        assert len(result.witness.vertices) <= terms + 2
        ev = evaluate_mixed(g, result.witness)
        assert ev.feasible
        assert ev.constraint_residual <= 1e-9
        assert ev.statistic == pytest.approx(terms - 1, abs=1e-9)
        for m in ev.masses:
            assert m == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("terms", [4, 6, 8, 10, 12])
    def test_certificate_is_the_closed_form_exactly(self, terms):
        # the duals are exact integers and no joint vertex earns a reduced
        # profit, also on chains with random settings
        rs = RandomSource(seed=100 + terms)
        chains = [chain_settings(terms)]
        chains += [random_settings_chain(terms, rs.substream(k)) for k in range(2)]
        for chain in chains:
            g = game(ModelClass.emission_time_realism, chain)
            certificate = emission_time_lp_value(g, solution=True).certificate
            assert certificate.duals == (2.0,) * terms + (2.0 * (terms - 2), 0.0)
            assert certificate.largest_profit == 0.0
            assert certificate.dual_value == terms - 1
            assert certificate.closed

    @pytest.mark.parametrize("terms", range(4, 44, 2))
    def test_closed_form_witness_is_exact_in_rationals(self, terms):
        # the (terms + 2)-atom witness in Fraction arithmetic: its weights,
        # every equal-mass row and the statistic, on the standard chain and
        # on one whose groups pair other cells
        n = terms // 2
        rng = np.random.default_rng(83 + terms)
        for chain in (chain_settings(terms), random_term_chain(terms, rng)):
            g = game(ModelClass.emission_time_realism, chain)
            i, j, counts = strategyopt._et_witness(g)
            total = int(counts.sum())
            w = [Fraction(int(c), total) for c in counts]
            single = Fraction(1, 8 * (n - 1))
            assert w == [single] * terms + [Fraction(1, 4), Fraction(2 * n - 3, 4 * (n - 1))]
            assert sum(w) == 1
            s1, s2 = _atoms(g, i, j)
            e1, e2 = s1.early.tolist(), s2.early.tolist()
            o1, o2 = s1.outcomes.tolist(), s2.outcomes.tolist()
            l1, l2 = s1.late_outcomes.tolist(), s2.late_outcomes.tolist()
            lam = [Fraction(int(a * b), n * n) for a, b in zip(s1.n_late, s2.n_late)]
            assert sum(wk * lk for wk, lk in zip(w, lam)) == Fraction(1, 4)
            signed = []
            for a, b, sign in chain.term_order:
                ee = [wk * (e1[k][a] and e2[k][b]) for k, wk in enumerate(w)]
                assert sum(ee) == Fraction(1, 4)
                num = sum(
                    ee[k] * o1[k][a] * o2[k][b] + w[k] * lam[k] * l1[k][a] * l2[k][b]
                    for k in range(len(w))
                )
                # every cell mass is 1/4 + 1/4
                signed.append(sign * num / Fraction(1, 2))
            statistic = sum(abs(signed[k] + signed[k + 1]) for k in range(0, terms, 2))
            assert statistic == terms - 1

    @pytest.mark.parametrize("terms", [4, 6, 12])
    def test_shifted_witness_weight_leaves_the_certificate_open(self, terms, monkeypatch):
        g = game(ModelClass.emission_time_realism, chain_settings(terms))
        i, j, counts = strategyopt._et_witness(g)
        # a weight shifted by 1e-6, atom by atom; then 1e-6 moved between
        # two single-late atoms, which keeps the objective and the simplex
        # row, so only the equal-mass residual can open the certificate
        shifts = [np.eye(counts.size)[k] for k in range(counts.size)]
        shifts.append(np.eye(counts.size)[0] - np.eye(counts.size)[1])
        for shift in shifts:
            mutant = counts + 1e-6 * counts.sum() * shift
            monkeypatch.setattr(strategyopt, "_et_witness", lambda g: (i, j, mutant))
            result = emission_time_lp_value(g, solution=True)
            assert not result.certificate.closed
            assert not result.exact
            assert result.certificate.largest_profit == 0.0
        assert result.value == pytest.approx(terms - 1, abs=1e-12)

    def test_positive_profit_leaves_the_certificate_open(self, chain4m, monkeypatch):
        # a joint vertex priced above 1e-10 under the duals: no bound, and
        # the value is the LP's own, not y.b
        oracle = strategyopt._et_best_columns

        def profitable(game, c, y, k):
            price, i, j = oracle(game, c, y, k)
            return (price + 1e-6 if k == 1 else price), i, j

        monkeypatch.setattr(strategyopt, "_et_best_columns", profitable)
        g = game(ModelClass.emission_time_realism, chain4m)
        result = emission_time_lp_value(g, solution=True)
        assert not result.certificate.closed
        assert result.certificate.largest_profit == pytest.approx(1e-6, abs=1e-12)
        assert not result.exact
        assert result.value == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("terms", [4, 6])
    def test_closed_form_duals_bound_every_joint_vertex(self, terms):
        # y = 2 on every early-early row, 2(terms - 2) on the late-late row
        # and 0 on the simplex row, in exact integers: scaled by n^2, every
        # entry of the dense LP is an integer, and no joint vertex has a
        # positive reduced profit, while some has profit exactly 0
        n = terms // 2
        chains = [chain_settings(terms)]
        if terms == 4:
            rng = np.random.default_rng(61)
            chains += [random_term_chain(4, rng) for _ in range(2)]
        y = np.array([2] * terms + [2 * (terms - 2), 0], dtype=np.int64)
        for chain in chains:
            g = game(ModelClass.emission_time_realism, chain)
            A_eq, b_eq, objs = full_lp_matrices(g)

            def integers(x):
                scaled = x * n**2
                exact = np.rint(scaled)
                assert np.all(np.abs(scaled - exact) <= 1e-9)
                return exact.astype(np.int64)

            profit = integers(objs[(1.0,) * n]) - y @ integers(A_eq)
            assert profit.max() == 0
            dual_value = sum(int(v) * Fraction(b) for v, b in zip(y, b_eq))
            assert dual_value == terms - 1


class TestVerifyBound:
    def test_plain_report(self, chain4m):
        report = verify_bound(game(ModelClass.plain_local_realism, chain4m))
        assert report.passed
        assert report.exact
        assert report.method == "exact-maximum"
        assert report.search is None
        assert report.bound == 2.0
        assert report.margin == pytest.approx(0.0, abs=1e-12)

    def test_emission_time_report_with_lp(self, chain4m):
        g = game(ModelClass.emission_time_realism, chain4m)
        report = verify_bound(g, OptimizerBudget(restarts=6, seed=3), lp_check=True)
        assert report.passed
        assert report.exact
        assert report.method == "lp"
        assert report.certificate.closed
        assert report.lp_value == report.best_value == 3.0
        # the search, on request, reports beside the exact answer
        assert report.search.restarts == 6
        assert report.search.passed
        assert report.search.best_value == pytest.approx(3.0, abs=1e-6)

    def test_lp_check_calls_no_solver(self, chain4m, chain6m, monkeypatch):
        # the exact answer and its certificate are closed forms, so a solver
        # that raises changes no number and no dual
        import scipy.optimize

        def no_solver(*args, **kwargs):
            raise AssertionError("the exact answer called linprog")

        monkeypatch.setattr(scipy.optimize, "linprog", no_solver)
        for chain in (chain4m, chain6m):
            terms = chain.terms
            report = verify_bound(game(ModelClass.emission_time_realism, chain), lp_check=True)
            assert report.lp_value == report.best_value == terms - 1
            assert (report.method, report.exact, report.passed) == ("lp", True, True)
            assert report.certificate == strategyopt.DualCertificate(
                duals=(2.0,) * terms + (2.0 * (terms - 2), 0.0),
                dual_value=terms - 1,
                largest_profit=0.0,
                closed=True,
            )

    def test_a_failed_search_fails_the_report(self, chain4m, monkeypatch):
        g = game(ModelClass.outcomes_only, chain4m)
        exact = strategyopt._outcomes_only_closed_form(g)
        # a search that claims to beat the algebraic maximum
        monkeypatch.setattr(
            strategyopt, "max_statistic", lambda g, budget: replace(exact, value=4.5)
        )
        report = verify_bound(g, OptimizerBudget(restarts=1))
        assert report.best_value == 4.0
        assert not report.search.passed
        assert report.search.margin == -0.5
        assert not report.passed

    @pytest.mark.parametrize("broken", ["value", "witness"])
    def test_witness_failing_its_recheck_raises(self, chain4m, monkeypatch, broken):
        g = game(ModelClass.emission_time_realism, chain4m)
        exact = emission_time_lp_value(g, solution=True)
        if broken == "value":
            bad = replace(exact, value=5.0)
        else:
            # one vertex of the LP's witness alone breaks the equal-mass rows
            bad = replace(exact, witness=MixedStrategy(exact.witness.vertices[:1], (1.0,)))
        monkeypatch.setattr(strategyopt, "_exact_answer", lambda g: bad)
        with pytest.raises(RuntimeError, match="fails its re-check"):
            verify_bound(g)

    def test_four_term_bound_is_checked_before_the_search(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(strategyopt, "max_statistic", fail)
        monkeypatch.setattr(strategyopt, "emission_time_lp_value", fail)
        with pytest.raises(ValueError, match="4 terms only"):
            verify_bound(GameSpec(ModelClass.inefficiency(0.9), chain_settings(6)))
        # so is the class of an LP check, which the search now precedes
        with pytest.raises(ValueError, match="emission-time game"):
            verify_bound(game(ModelClass.outcomes_only, chain_settings(4)), lp_check=True)
        # and of a search: the linear games need none
        for factory in (ModelClass.plain_local_realism, ModelClass.path_realism):
            with pytest.raises(ValueError, match="the search applies"):
                verify_bound(game(factory, chain_settings(4)), OptimizerBudget(restarts=1))

    def test_json_dict_witness_toggle(self, chain4m):
        report = verify_bound(game(ModelClass.plain_local_realism, chain4m))
        with_witness = report.to_json_dict()
        assert "witness" in with_witness
        without = report.to_json_dict(include_witness=False)
        assert "witness" not in without
        json.dumps(with_witness)


def dense_outcomes_only_prices(g, c, y):
    """Price of every outcomes-only joint vertex, the whole (S, S) matrix:
    sum_t sel_t (c_t o1 o2 - y_t), rows site-1 vertices, columns site-2.

    Every component factorizes over the sites, so the matrix is a handful
    of small matrix products; the selection is
    det1 det2 (e1 e2 + (1 - e1)(1 - e2)).  64^n entries, so the tests use
    it up to 6 terms."""
    a_idx, b_idx, _ = _cell_indices(g)
    sides = _side_arrays(g.model.kind, g.n_settings)

    def prod(f1, f2, coeff):
        return (f1 * coeff[None, :]) @ f2.T

    o1, e1, det1 = (
        x[:, a_idx].astype(np.float64) for x in (sides.outcomes, sides.early, sides.detected)
    )
    o2, e2, det2 = (
        x[:, b_idx].astype(np.float64) for x in (sides.outcomes, sides.early, sides.detected)
    )
    g1, g2 = det1 * e1, det2 * e2
    h1, h2 = det1 * (1.0 - e1), det2 * (1.0 - e2)
    score = prod(g1 * o1, g2 * o2, c) + prod(h1 * o1, h2 * o2, c)
    score -= prod(g1, g2, y) + prod(h1, h2, y)
    return score


class TestInsertionScores:
    @pytest.mark.parametrize(
        "factory", [ModelClass.emission_time_realism, ModelClass.outcomes_only]
    )
    def test_matches_finite_difference(self, chain4m, factory):
        g = game(factory, chain4m)
        size = _side_arrays(g.model.kind, g.n_settings).size
        rng = np.random.default_rng(19)
        k = 24
        idx1 = rng.integers(0, size, k)
        idx2 = rng.integers(0, size, k)
        w = rng.dirichlet(np.ones(k))
        _, _, signs = _cell_indices(g)
        mass, num = _support_matrices(g, *_atoms(g, idx1, idx2))
        stat0, corr, m, groups = _statistic(w, mass, num, signs)
        sig = np.where(groups >= 0.0, 1.0, -1.0)
        coef_over_m = np.repeat(sig, 2) * signs / np.maximum(m, 1e-12)
        d = coef_over_m * corr
        if g.has_equal_mass_constraint:
            # the oracle's price with y = (c corr, sum c corr, 0)
            scores, v1s, v2s = _et_best_columns(g, coef_over_m, np.append(d, [d.sum(), 0.0]), 6)
        else:
            scores, v1s, v2s = _oo_best_columns(g, coef_over_m, d, 6)
        eps = 1e-6
        for v1, v2, score in zip(v1s.tolist(), v2s.tolist(), scores.tolist()):
            atoms = _atoms(g, np.append(idx1, v1), np.append(idx2, v2))
            mass_aug, num_aug = _support_matrices(g, *atoms)
            stat_eps, _, _, _ = _statistic(
                np.append(w, eps), mass_aug, num_aug, signs
            )
            fd = (stat_eps - stat0) / eps
            assert score == pytest.approx(fd, abs=2e-4)

    @pytest.mark.parametrize("terms", [4, 6])
    def test_outcomes_only_oracle_matches_dense_prices(self, terms):
        rng = np.random.default_rng(47 + terms)
        chains = (chain_settings(terms), random_settings_chain(terms, RandomSource(seed=terms)))
        for chain in chains:
            g = game(ModelClass.outcomes_only, chain)
            for _ in range(5):
                c, y = rng.normal(size=(2, terms))
                dense = dense_outcomes_only_prices(g, c, y)
                price, i, j = _oo_best_columns(g, c, y, 64)
                assert price.size == 64
                assert price[0] == pytest.approx(dense.max(), abs=1e-12)
                assert np.all(np.diff(price) <= 0.0)
                # each pair carries its own dense price, the best of its row
                np.testing.assert_allclose(price, dense[i, j], rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(price, dense[i].max(axis=1), rtol=0.0, atol=1e-12)
                # one pair per site-1 vertex, and no better row left out
                assert np.unique(i).size == i.size
                assert np.sort(dense.max(axis=1))[-64] == pytest.approx(price[-1], abs=1e-12)


class TestModelWitnessBridge:
    def test_aklz_mixture_is_feasible_and_tight(self):
        # the projected mixture refereed against the model's own quadrature,
        # term by term along the chain: 2.8284271, 5.1961524 and 7.3910363
        for terms in (4, 6, 8):
            chain = chain_settings(terms)
            ev = evaluate_mixed(game(ModelClass.outcomes_only, chain), aklz_mixed_strategy(chain))
            assert ev.feasible
            chained = sum(
                sign
                * aklz_quadrature(
                    chain.site1_settings[i].phase, chain.site2_settings[j].phase
                ).conditional_correlation
                for i, j, sign in chain.term_order
            )
            assert ev.statistic == pytest.approx(chained, abs=1e-9)
            if terms == 4:
                assert ev.statistic == pytest.approx(2 * SQRT2, abs=1e-9)
            for m in ev.masses:
                assert m == pytest.approx(0.5, abs=1e-9)

    def test_aklz_mixture_embeds_in_emission_time_game(self, chain4m):
        # the model's outcome never depends on arrival time, so pinning
        # each vertex's late outcomes to its early ones is faithful
        mixed = aklz_mixed_strategy(chain4m)
        lifted = MixedStrategy(
            vertices=tuple(
                DeterministicVertex(
                    site1=replace(v.site1, late_outcomes=v.site1.outcomes),
                    site2=replace(v.site2, late_outcomes=v.site2.outcomes),
                )
                for v in mixed.vertices
            ),
            weights=mixed.weights,
        )
        ev = evaluate_mixed(game(ModelClass.emission_time_realism, chain4m), lifted)
        assert ev.feasible
        assert ev.constraint_residual <= 1e-9
        # half the coincidence mass sits in the late-late channel, which
        # pairs the deterministic outcome maps across re-randomized
        # settings and therefore cannot beat the plain deterministic value
        # of 2; the early-early half carries the model's 2*sqrt(2)
        assert ev.statistic == pytest.approx((2 * SQRT2 + 2) / 2, abs=1e-9)
        assert ev.statistic < 3.0

    def test_single_phase_mixture_runs_as_strategy(self, chain4m):
        g = game(ModelClass.plain_local_realism, chain4m)
        result = max_statistic(g)
        strategy = strategy_from_mixture(result.witness, chain4m)
        v = result.witness.vertices[0]
        theta, r = np.array([0.0]), np.array([0.3])
        for idx, setting in enumerate(chain4m.site1_settings):
            outcome, _, _ = strategy.batch_site1(setting.phase, theta, r)
            assert outcome.tolist() == [v.site1.outcomes[idx]]
        for idx, setting in enumerate(chain4m.site2_settings):
            outcome, _, _ = strategy.batch_site2(setting.phase, theta, r)
            assert outcome.tolist() == [v.site2.outcomes[idx]]

    def test_mixture_quantiles_select_vertices(self, chain4m):
        g = game(ModelClass.plain_local_realism, chain4m)
        vertices = (joint_vertex(g, 0, 0), joint_vertex(g, 0, 1))
        mixed = MixedStrategy(vertices=vertices, weights=(0.25, 0.75))
        strategy = strategy_from_mixture(mixed, chain4m)
        psi = chain4m.site2_settings[0].phase
        quantiles = np.array([0.1, 0.25, 0.9])
        outcome, _, _ = strategy.batch_site2(psi, quantiles * 2 * math.pi, np.full(3, 0.5))
        # quantiles below the first weight pick the first vertex
        picks = [vertices[k].site2.outcomes[0] for k in (0, 1, 1)]
        assert picks[0] != picks[1]
        assert outcome.tolist() == picks

    def test_two_phase_vertices_refuse_single_setting_pipeline(self, et4_result):
        g, result = et4_result
        with pytest.raises(ValueError, match="two-phase"):
            strategy_from_mixture(result.witness, g.chain)

    def test_unknown_setting_raises(self, chain4m):
        g = game(ModelClass.plain_local_realism, chain4m)
        strategy = strategy_from_mixture(max_statistic(g).witness, chain4m)
        with pytest.raises(KeyError):
            strategy.batch_site1(1.2345, np.array([0.0]), np.array([0.0]))


def simulated_statistic(strategy, chain, trials, rs):
    """Chained statistic and its stderr of a strategy run through the simulator."""
    table = CorrelationTable()
    for p, (i, j, _) in enumerate(chain.term_order):
        phi, psi = chain.site1_settings[i], chain.site2_settings[j]
        batch = simulate_strategy_pairs(strategy, phi.phase, psi.phase, trials, rs.substream(p + 1))
        stats = monte_carlo_statistics(batch)
        table.set_counts(phi, psi, round(stats.conditional_correlation * stats.count), stats.count)
    return chained_statistic(table, chain), statistic_stderr(table, chain)


class TestMixtureThroughSimulator:
    def test_mixture_statistic_matches_game_value(self, chain4m):
        g = game(ModelClass.plain_local_realism, chain4m)
        # all outcomes +1 against site 2 answering -1: every cell correlates
        # at 0.25 - 0.75, so the value 1.0 depends on the weights
        mixed = MixedStrategy(
            vertices=(joint_vertex(g, 0, 0), joint_vertex(g, 0, 3)), weights=(0.25, 0.75)
        )
        expected = evaluate_mixed(g, mixed).statistic
        assert expected == pytest.approx(1.0, abs=1e-12)
        stat, se = simulated_statistic(
            strategy_from_mixture(mixed, chain4m), chain4m, 20_000, RandomSource(seed=31)
        )
        assert se > 0.0
        assert abs(stat - expected) < 4 * se

    def test_single_vertex_witness_is_exact(self, chain4m):
        g = game(ModelClass.plain_local_realism, chain4m)
        witness = max_statistic(g).witness
        assert len(witness.vertices) == 1
        stat, _ = simulated_statistic(
            strategy_from_mixture(witness, chain4m), chain4m, 1_000, RandomSource(seed=32)
        )
        assert stat == 2.0
