"""
Checking the bounds by brute force and by search
================================================

Every bound used in the verdicts is a statement about a finite game:
mixtures over deterministic per-setting response maps.  One sign pattern
of the absolute-value groups is enough everywhere: negating a set of
settings' outcome maps carries any pattern to the all-+1 one and keeps
every cell mass.  So the linear games are solved exactly over one site's
outcome maps, the other site answering each setting with the sign of its
column sum.  The ratio-form games get a multi-start search by successive
LP.  With every cell mass held fixed, each ascent step is one exact LP
under the current sign pattern: the equal-mass game pins every cell mass
to 1/2, and the outcomes-only game pins them at the start of each column
round.  The equal-mass game is cross-checked by one exact linear program
with one column per pair of arrival maps: every vertex with the same
arrival maps has the same constraint column, so only the best of them
can matter.

The local delay model itself appears here as a witness: projected onto
game vertices it is a feasible mixture of the outcomes-only class, and
its in-game value is exactly the quantum CHSH maximum.  That is the
precise sense in which outcome-dependent postselection swallows the
quantum correlation.
"""

import math

from franson import (
    GameSpec,
    ModelClass,
    OptimizerBudget,
    aklz_mixed_strategy,
    chain_settings,
    emission_time_lp_value,
    evaluate_mixed,
    max_statistic,
)

chain4 = chain_settings(4)
chain6 = chain_settings(6)

print("exact maxima, four-term games")
for model in (ModelClass.plain_local_realism(), ModelClass.path_realism()):
    result = max_statistic(GameSpec(model, chain4))
    print(f"  {model.kind.value:>22}: max = {result.value:.6f} ({result.notes})")

print()
print("multi-start search, equal-mass and outcomes-only games")
budget = OptimizerBudget(restarts=32, seed=0)
for model, chain, bound in (
    (ModelClass.emission_time_realism(), chain4, 3.0),
    (ModelClass.emission_time_realism(), chain6, 5.0),
    (ModelClass.outcomes_only(), chain4, 4.0),
):
    result = max_statistic(GameSpec(model, chain), budget)
    print(
        f"  {model.kind.value:>22}, {chain.terms} terms:"
        f" best found {result.value:.9f}, bound {bound}"
    )

print()
for chain in (chain4, chain6, chain_settings(8)):
    lp = emission_time_lp_value(GameSpec(ModelClass.emission_time_realism(), chain))
    print(f"exact LP value of the equal-mass game, {chain.terms} terms: {lp:.9f}")

mixed = aklz_mixed_strategy(chain4)
ev = evaluate_mixed(GameSpec(ModelClass.outcomes_only(), chain4), mixed)
print()
print(f"delay model as a mixture of {len(mixed.vertices)} deterministic vertices:")
print(f"  feasible for outcomes-only selection: {ev.feasible}")
print(f"  in-game statistic {ev.statistic:.9f}  = 2*sqrt(2) = {2 * math.sqrt(2):.9f}")
print(f"  per-pair coincidence masses {[round(m, 6) for m in ev.masses]}")
