import json
import math

import numpy as np
import pytest

from franson import (
    ModelKind,
    RandomSource,
    SetupVariant,
    expected_coincidence_fraction,
    model_class_for,
    path_is_element_of_reality,
    sample_setup_pairs,
    simulate_setup,
)

ALL_VARIANTS = list(SetupVariant)


class TestVariantProperties:
    def test_declared_model_classes(self):
        assert model_class_for(SetupVariant.FRANSON).kind is ModelKind.EMISSION_TIME_REALISM
        assert model_class_for(SetupVariant.CROSS_COUPLED).kind is ModelKind.PATH_REALISM
        for v in (SetupVariant.POLARIZATION_ENTANGLED, SetupVariant.SWITCHED_MIRRORS):
            assert model_class_for(v).kind is ModelKind.PLAIN_LOCAL_REALISM

    def test_path_reality_flags(self):
        assert not path_is_element_of_reality(SetupVariant.FRANSON)
        for v in ALL_VARIANTS:
            if v is not SetupVariant.FRANSON:
                assert path_is_element_of_reality(v)

    def test_expected_coincidence_fractions(self):
        assert expected_coincidence_fraction(SetupVariant.FRANSON) == 0.5
        assert expected_coincidence_fraction(SetupVariant.CROSS_COUPLED) == 0.5
        assert expected_coincidence_fraction(SetupVariant.POLARIZATION_ENTANGLED) == 1.0
        assert expected_coincidence_fraction(SetupVariant.SWITCHED_MIRRORS) == 1.0


class TestSamplers:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_coincident_correlation_and_fraction(self, variant):
        phi, psi, v = 0.4, 0.9, 1.0
        n = 50_000
        x1, x2, mask = sample_setup_pairs(
            variant, phi, psi, v, RandomSource(seed=31), 0, n
        )
        frac = mask.mean()
        expected = expected_coincidence_fraction(variant)
        se = math.sqrt(expected * (1 - expected) / n) if expected < 1 else 0.0
        assert frac == pytest.approx(expected, abs=max(4 * se, 1e-12))
        corr = (x1.astype(float) * x2)[mask].mean()
        target = math.cos(phi + psi)
        assert corr == pytest.approx(target, abs=4 / math.sqrt(mask.sum()))

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_marginals_unbiased(self, variant):
        n = 50_000
        x1, x2, _ = sample_setup_pairs(
            variant, 1.0, 0.3, 1.0, RandomSource(seed=32), 0, n
        )
        se = 0.5 / math.sqrt(n)
        assert np.mean(x1 == 1) == pytest.approx(0.5, abs=4 * se)
        assert np.mean(x2 == 1) == pytest.approx(0.5, abs=4 * se)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_deterministic_and_concatenable(self, variant):
        rs = RandomSource(seed=33)
        a = sample_setup_pairs(variant, 0.1, 0.2, 0.9, rs, 0, 40)
        b = sample_setup_pairs(variant, 0.1, 0.2, 0.9, rs, 40, 60)
        whole = sample_setup_pairs(variant, 0.1, 0.2, 0.9, rs, 0, 100)
        for part_a, part_b, full in zip(a, b, whole):
            assert np.array_equal(np.concatenate([part_a, part_b]), full)


class TestSimulateSetup:
    @pytest.mark.parametrize(
        "variant,expect_violation",
        [
            (SetupVariant.POLARIZATION_ENTANGLED, True),
            (SetupVariant.SWITCHED_MIRRORS, True),
            (SetupVariant.CROSS_COUPLED, True),
            (SetupVariant.FRANSON, False),
        ],
    )
    def test_four_term_verdicts_at_full_visibility(self, chain4, variant, expect_violation):
        # the three path-real variants beat their bound of 2; the plain
        # interferometric run stays under the emission-time bound of 3
        run = simulate_setup(variant, chain4, 1.0, 30_000, RandomSource(seed=34))
        assert run.verdict.model == model_class_for(variant)
        assert run.verdict.violated is expect_violation
        if expect_violation:
            assert run.verdict.bound == 2.0
            assert run.verdict.significance > 5.0
        else:
            assert run.verdict.bound == 3.0
        assert run.verdict.statistic == pytest.approx(2 * math.sqrt(2), abs=0.05)
        expected = expected_coincidence_fraction(variant)
        assert run.coincidence_fraction == pytest.approx(expected, abs=0.01)

    def test_table_covers_all_chain_cells(self, chain4):
        run = simulate_setup(
            SetupVariant.FRANSON, chain4, 1.0, 2_000, RandomSource(seed=35)
        )
        assert len(list(run.table.items())) == 4
        for i, j, _ in chain4.term_order:
            assert run.table.has(chain4.site1_settings[i], chain4.site2_settings[j])

    def test_reproducible(self, chain4):
        one = simulate_setup(SetupVariant.CROSS_COUPLED, chain4, 0.9, 5_000, RandomSource(seed=36))
        two = simulate_setup(SetupVariant.CROSS_COUPLED, chain4, 0.9, 5_000, RandomSource(seed=36))
        assert one.verdict.statistic == two.verdict.statistic
        assert one.coincidence_fraction == two.coincidence_fraction

    def test_json_dict(self, chain4):
        run = simulate_setup(
            SetupVariant.SWITCHED_MIRRORS, chain4, 1.0, 1_000, RandomSource(seed=37)
        )
        d = run.to_json_dict()
        assert d["variant"] == "switched-mirrors"
        assert d["trials_per_pair"] == 1000
        assert len(d["table"]["cells"]) == 4
        json.dumps(d)  # serializable
