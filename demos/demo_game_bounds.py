"""
Checking the bounds exactly, and by search
==========================================

Every bound used in the verdicts is a statement about a finite game:
mixtures over deterministic per-setting response maps.  One sign pattern
of the absolute-value groups is enough everywhere: negating a set of
settings' outcome maps carries any pattern to the all-+1 one and keeps
every cell mass.  So each game has an exact answer, a closed form that
needs no solver.  The linear games (plain local realism,
path realism) reach terms - 2 at the all-+1 vertex: each setting lies in
two terms and one sign is -1, so under every sign pattern each vertex
has a -1 term.  The equal-mass game is one linear program, met by a
mixture of terms + 2 atoms whose value, terms - 1, equals that of
integer duals; those duals, priced over every joint vertex, certify the
value.  Outcomes-only selection reaches the algebraic maximum with a
closed-form mixture.

The ratio-form games also get a multi-start search by successive LP,
which tries to beat the exact answers.  With every cell mass held fixed,
each ascent step is one exact LP under the current sign pattern: the
equal-mass game pins every cell mass to 1/2, and the outcomes-only game
pins them at the start of each column round.

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
    evaluate_mixed,
    max_statistic,
    verify_bound,
)

chain4 = chain_settings(4)
chain6 = chain_settings(6)

print("exact answers, six-term games")
for model in (
    ModelClass.plain_local_realism(),
    ModelClass.path_realism(),
    ModelClass.emission_time_realism(),
    ModelClass.outcomes_only(),
):
    report = verify_bound(GameSpec(model, chain6))
    print(
        f"  {model.kind.value:>22}: max = {report.best_value:.6f}, bound {report.bound}"
        f" ({report.method}, {len(report.witness.vertices)}-vertex witness)"
    )

print()
for chain in (chain4, chain6, chain_settings(8)):
    report = verify_bound(GameSpec(ModelClass.emission_time_realism(), chain))
    cert = report.certificate
    print(
        f"equal-mass game, {chain.terms} terms: LP value {report.best_value:.9f},"
        f" dual certificate closed {cert.closed} (largest profit {cert.largest_profit:.1e})"
    )

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

mixed = aklz_mixed_strategy(chain4)
ev = evaluate_mixed(GameSpec(ModelClass.outcomes_only(), chain4), mixed)
print()
print(f"delay model as a mixture of {len(mixed.vertices)} deterministic vertices:")
print(f"  feasible for outcomes-only selection: {ev.feasible}")
print(f"  in-game statistic {ev.statistic:.9f}  = 2*sqrt(2) = {2 * math.sqrt(2):.9f}")
print(f"  per-pair coincidence masses {[round(m, 6) for m in ev.masses]}")
