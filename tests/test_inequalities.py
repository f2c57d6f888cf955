import json
import math

import pytest

from franson import (
    CellEstimate,
    CorrelationTable,
    ModelClass,
    ModelKind,
    Setting,
    bound_for,
    chain_settings,
    chained_quantum_value,
    chained_statistic,
    critical_visibility,
    evaluate,
    franson_correlation,
    statistic_stderr,
    threshold_efficiency,
)
from franson.inequalities import binomial_stderr

SQRT2 = math.sqrt(2.0)


def exact_entries(chain, visibility=1.0):
    """(site-1 setting, site-2 setting, closed-form correlation) per term."""
    for i, j, _ in chain.term_order:
        phi, psi = chain.site1_settings[i], chain.site2_settings[j]
        yield phi, psi, franson_correlation(phi.phase, psi.phase, visibility)


def exact_table(chain, visibility=1.0):
    table = CorrelationTable()
    for phi, psi, value in exact_entries(chain, visibility):
        table.set_exact(phi, psi, value)
    return table


class TestCellEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            CellEstimate(1.2)
        with pytest.raises(ValueError):
            CellEstimate(0.0, count=-1)
        with pytest.raises(ValueError):
            CellEstimate(0.0, stderr=-0.1)
        assert CellEstimate(0.5).count == 0

    def test_binomial_stderr(self):
        assert binomial_stderr(0.0, 100) == pytest.approx(0.1)
        assert binomial_stderr(1.0, 100) == 0.0
        assert binomial_stderr(0.5, 0) == 0.0
        assert binomial_stderr(0.6, 400) == pytest.approx(math.sqrt(0.64 / 400))


class TestCorrelationTable:
    def test_set_and_get_exact(self):
        t = CorrelationTable()
        t.set_exact(0.3, 0.4, -0.7)
        assert t.has(0.3, 0.4)
        assert not t.has(0.3, 0.5)
        cell = t.cell(0.3, 0.4)
        assert cell.estimate == -0.7
        assert cell.count == 0
        assert cell.stderr == 0.0
        assert len(list(t.items())) == 1

    def test_wrapped_phases_share_a_cell(self):
        t = CorrelationTable()
        t.set_exact(0.3, 0.4, 0.2)
        assert t.has(0.3 + 2 * math.pi, 0.4 - 2 * math.pi)
        assert t.cell(0.3 + 2 * math.pi, 0.4).estimate == 0.2

    def test_setting_and_float_keys_agree(self):
        t = CorrelationTable()
        t.set_exact(Setting(1.0), Setting(2.0), 0.5)
        assert t.has(1.0, 2.0)
        assert t.cell(1.0, Setting(2.0)).estimate == 0.5

    def test_set_counts(self):
        t = CorrelationTable()
        t.set_counts(0.1, 0.2, product_sum=60, count=100)
        cell = t.cell(0.1, 0.2)
        assert cell.estimate == pytest.approx(0.6)
        assert cell.count == 100
        assert cell.stderr == pytest.approx(binomial_stderr(0.6, 100))
        with pytest.raises(ValueError):
            t.set_counts(0.1, 0.2, product_sum=0, count=0)

    def test_missing_cell_raises(self):
        with pytest.raises(KeyError):
            CorrelationTable().cell(0.0, 0.0)

    def test_items_and_json(self):
        t = CorrelationTable()
        t.set_exact(0.2, 0.1, 0.9)
        t.set_counts(1.5, 2.5, product_sum=-10, count=40)
        d = t.to_json_dict()
        assert len(d["cells"]) == 2
        row = d["cells"][0]
        assert set(row) == {"phi_rad", "psi_rad", "estimate", "count", "stderr"}
        json.dumps(d)  # serializable
        assert dict(t.items())[(0.2, 0.1)].estimate == 0.9


class TestModelClass:
    def test_eta_required_only_for_efficiency_kinds(self):
        with pytest.raises(ValueError):
            ModelClass(ModelKind.INEFFICIENCY)
        with pytest.raises(ValueError):
            ModelClass(ModelKind.DELAYS, eta=0.0)
        with pytest.raises(ValueError):
            ModelClass(ModelKind.PLAIN_LOCAL_REALISM, eta=0.9)
        assert ModelClass.inefficiency(0.9).eta == 0.9
        assert ModelClass.plain_local_realism().eta is None

    def test_kind_properties(self):
        # the one home of which classes take an efficiency and which bounds
        # are 4-term only; the CLI's bound rows and verdicts read them
        efficiency = {ModelKind.INEFFICIENCY, ModelKind.DELAYS}
        assert {k for k in ModelKind if k.takes_efficiency} == efficiency
        assert {k for k in ModelKind if k.four_term_only} == efficiency

    def test_labels(self):
        # a report names a model class by its kind's value and its eta
        assert ModelClass.path_realism().kind.value == "path-realism"
        assert ModelClass.path_realism().eta is None
        delays = ModelClass.delays(0.85)
        assert (delays.kind.value, delays.eta) == ("delays", 0.85)

    def test_json_roundtrip(self):
        for m in (
            ModelClass.plain_local_realism(),
            ModelClass.inefficiency(0.9),
            ModelClass.delays(0.88),
            ModelClass.path_realism(),
            ModelClass.emission_time_realism(),
            ModelClass.outcomes_only(),
        ):
            d = json.loads(json.dumps(m.to_json_dict()))
            assert ModelClass(ModelKind(d["kind"]), d["eta"]) == m


class TestBounds:
    @pytest.mark.parametrize("terms", [4, 6, 8, 10, 12])
    def test_plain(self, terms):
        assert bound_for(ModelClass.plain_local_realism(), terms) == terms - 2

    @pytest.mark.parametrize("terms", [4, 6, 8, 10, 12])
    def test_emission_time(self, terms):
        assert bound_for(ModelClass.emission_time_realism(), terms) == terms - 1

    @pytest.mark.parametrize("terms", [4, 6, 8])
    def test_outcomes_only_is_algebraic_max(self, terms):
        assert bound_for(ModelClass.outcomes_only(), terms) == terms

    def test_path_realism(self):
        assert bound_for(ModelClass.path_realism(), 4) == 2.0

    @pytest.mark.parametrize("terms", [6, 8, 10, 12, 38])
    def test_path_realism_is_the_plain_bound_at_every_term_count(self, terms):
        assert bound_for(ModelClass.path_realism(), terms) == terms - 2

    def test_inefficiency_formula_and_clip(self):
        assert bound_for(ModelClass.inefficiency(1.0), 4) == pytest.approx(2.0)
        assert bound_for(ModelClass.inefficiency(0.9), 4) == pytest.approx(4 / 0.9 - 2)
        # at eta <= 2/3 the formula exceeds the algebraic maximum
        assert bound_for(ModelClass.inefficiency(0.5), 4) == 4.0

    def test_delays_formula_and_clip(self):
        assert bound_for(ModelClass.delays(1.0), 4) == pytest.approx(2.0)
        assert bound_for(ModelClass.delays(0.9), 4) == pytest.approx(6 / 0.9 - 4)
        # at eta <= 3/4 the formula exceeds the algebraic maximum
        assert bound_for(ModelClass.delays(0.7), 4) == 4.0

    @pytest.mark.parametrize(
        "model",
        [ModelClass.inefficiency(0.9), ModelClass.delays(0.9)],
    )
    def test_four_terms_only_kinds_reject_longer_chains(self, model):
        with pytest.raises(ValueError):
            bound_for(model, 6)

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            bound_for(ModelClass.plain_local_realism(), 3)


class TestThresholds:
    def test_closed_forms(self):
        assert threshold_efficiency(ModelKind.INEFFICIENCY) == pytest.approx(
            2 * (SQRT2 - 1), abs=1e-15
        )
        assert threshold_efficiency(ModelKind.DELAYS) == pytest.approx(
            3 - 3 / SQRT2, abs=1e-15
        )

    def test_bound_meets_quantum_value_at_threshold(self):
        for kind in (ModelKind.INEFFICIENCY, ModelKind.DELAYS):
            eta = threshold_efficiency(kind)
            model = ModelClass(kind, eta)
            assert bound_for(model, 4) == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_other_kinds_have_no_threshold(self):
        with pytest.raises(ValueError):
            threshold_efficiency(ModelKind.PLAIN_LOCAL_REALISM)


class TestCriticalVisibility:
    def test_formula(self):
        for terms in (4, 6, 8, 10, 12):
            expected = (terms - 1) / (terms * math.cos(math.pi / terms))
            assert critical_visibility(terms) == pytest.approx(expected, abs=1e-15)

    def test_four_terms_cannot_discriminate(self):
        assert critical_visibility(4) > 1.0

    def test_minimum_is_at_ten_terms(self):
        values = {t: critical_visibility(t) for t in range(4, 41, 2)}
        assert min(values, key=values.get) == 10

    def test_statistic_at_critical_visibility_sits_on_bound(self):
        for terms in (6, 8, 10):
            cv = critical_visibility(terms)
            chain = chain_settings(terms)
            stat = chained_statistic(exact_table(chain, cv), chain)
            assert stat == pytest.approx(terms - 1, abs=1e-9)


class TestStatistics:
    @pytest.mark.parametrize("terms", [4, 6, 10])
    def test_exact_table_reaches_quantum_value(self, terms):
        chain = chain_settings(terms)
        stat = chained_statistic(exact_table(chain), chain)
        assert stat == pytest.approx(chained_quantum_value(terms), abs=1e-9)

    def test_visibility_scales_statistic(self, chain6):
        stat = chained_statistic(exact_table(chain6, 0.9), chain6)
        assert stat == pytest.approx(0.9 * chained_quantum_value(6), abs=1e-9)

    def test_stderr_propagates_in_quadrature(self, chain4):
        table = CorrelationTable()
        for phi, psi, value in exact_entries(chain4):
            count = 400
            product_sum = round(value * count)
            table.set_counts(phi, psi, product_sum, count)
        se = statistic_stderr(table, chain4)
        expected = math.sqrt(
            sum(cell.stderr**2 for _, cell in table.items())
        )
        assert se == pytest.approx(expected, abs=1e-12)
        assert se > 0

    def test_exact_table_has_zero_stderr(self, chain4):
        assert statistic_stderr(exact_table(chain4), chain4) == 0.0


class TestEvaluate:
    def test_plain_violated_at_full_visibility(self, chain4):
        verdict = evaluate(exact_table(chain4), chain4, ModelClass.plain_local_realism())
        assert verdict.violated
        assert verdict.statistic == pytest.approx(2 * SQRT2, abs=1e-9)
        assert verdict.bound == 2.0
        assert verdict.excess == pytest.approx(2 * SQRT2 - 2, abs=1e-9)
        # an exact table has stderr 0, so the ratio has no finite value
        assert verdict.significance is None

    def test_emission_time_not_violated_by_four_terms(self, chain4):
        verdict = evaluate(exact_table(chain4), chain4, ModelClass.emission_time_realism())
        assert not verdict.violated
        assert verdict.bound == 3.0
        assert verdict.significance is None

    def test_emission_time_violated_by_six_terms(self, chain6):
        verdict = evaluate(exact_table(chain6), chain6, ModelClass.emission_time_realism())
        assert verdict.violated
        assert verdict.excess == pytest.approx(6 * math.cos(math.pi / 6) - 5, abs=1e-9)

    def test_zero_excess_gives_zero_significance(self, chain4):
        # counted cells of exactly +-0.5 put the statistic on the plain
        # bound with a positive stderr
        table = CorrelationTable()
        table.set_counts(chain4.site1_settings[0], chain4.site2_settings[0], 50, 100)
        table.set_counts(chain4.site1_settings[0], chain4.site2_settings[1], 50, 100)
        table.set_counts(chain4.site1_settings[1], chain4.site2_settings[1], 50, 100)
        table.set_counts(chain4.site1_settings[1], chain4.site2_settings[0], -50, 100)
        verdict = evaluate(table, chain4, ModelClass.plain_local_realism())
        assert not verdict.violated
        assert verdict.excess == 0.0
        assert verdict.stderr > 0.0
        assert verdict.significance == 0.0

    def test_exact_table_has_null_significance(self, chain4):
        table = CorrelationTable()
        table.set_exact(chain4.site1_settings[0], chain4.site2_settings[0], 0.5)
        table.set_exact(chain4.site1_settings[0], chain4.site2_settings[1], 0.5)
        table.set_exact(chain4.site1_settings[1], chain4.site2_settings[1], 0.5)
        table.set_exact(chain4.site1_settings[1], chain4.site2_settings[0], -0.5)
        verdict = evaluate(table, chain4, ModelClass.plain_local_realism())
        assert verdict.excess == 0.0
        assert verdict.stderr == 0.0
        assert verdict.significance is None
        assert json.loads(json.dumps(verdict.to_json_dict()))["significance"] is None

    def test_empirical_significance(self, chain4):
        table = CorrelationTable()
        for phi, psi, value in exact_entries(chain4):
            count = 10_000
            product_sum = round(value * count)
            table.set_counts(phi, psi, product_sum, count)
        verdict = evaluate(table, chain4, ModelClass.plain_local_realism())
        assert verdict.violated
        assert verdict.stderr > 0
        assert verdict.significance == pytest.approx(
            verdict.excess / verdict.stderr, abs=1e-12
        )

    def test_verdict_json(self, chain4):
        verdict = evaluate(exact_table(chain4), chain4, ModelClass.path_realism())
        d = verdict.to_json_dict()
        assert d["model"]["kind"] == "path-realism"
        assert d["violated"] is True
        parsed = json.loads(json.dumps(verdict.to_json_dict()))
        assert parsed["terms"] == 4
