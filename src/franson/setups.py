"""Apparatus variants and what a Bell violation rules out in each.

The plain unbalanced-interferometer source needs postselection on equal
arrival classes, so a violation there only constrains models in which the
emission time is an element of reality.  Three modified sources change that
accounting: a polarization-entangled source and a switched-mirrors source
remove the postselection entirely (every pair is coincident, full local
realism is tested), and a cross-coupled-interferometer source keeps a 50
percent pair yield but makes the chosen path an element of reality, so the
path-realism bound applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import RandomSource, SettingsChain, draw_uniforms
from .inequalities import CorrelationTable, ModelClass, Verdict, evaluate
from .quantum import _cell_split, franson_correlation, sample_franson_events


class SetupVariant(Enum):
    FRANSON = "franson"
    POLARIZATION_ENTANGLED = "polarization-entangled"
    SWITCHED_MIRRORS = "switched-mirrors"
    CROSS_COUPLED = "cross-coupled"


def model_class_for(variant: SetupVariant) -> ModelClass:
    """The model family a violation in this setup rules out."""
    if variant is SetupVariant.FRANSON:
        return ModelClass.emission_time_realism()
    if variant is SetupVariant.CROSS_COUPLED:
        return ModelClass.path_realism()
    return ModelClass.plain_local_realism()


def path_is_element_of_reality(variant: SetupVariant) -> bool:
    """Whether each photon's path can be assigned before the settings act.

    True for every variant except the plain interferometric setup, where a
    pre-assigned path would destroy the interference being measured.
    """
    return variant is not SetupVariant.FRANSON


def expected_coincidence_fraction(variant: SetupVariant) -> float:
    if variant in (SetupVariant.POLARIZATION_ENTANGLED, SetupVariant.SWITCHED_MIRRORS):
        return 1.0
    return 0.5


@dataclass(frozen=True)
class SetupRun:
    """One simulated correlation scan of a setup."""

    variant: SetupVariant
    table: CorrelationTable
    coincidence_fraction: float
    verdict: Verdict
    trials_per_pair: int

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "coincidence_fraction": self.coincidence_fraction,
            "trials_per_pair": self.trials_per_pair,
            "table": self.table.to_json_dict(),
            "verdict": self.verdict.to_json_dict(),
        }


def _sample_routed(variant, phi, psi, visibility, rs, start, count):
    """Sources that route each pair without an arm lottery: routing draw 2t
    below the variant's coincidence fraction sends the photons to opposite
    sites (always, as uniforms are below 1, in the polarization-entangled
    and switched-mirrors sources; half of the pairs leave through the same
    port of cross-coupled interferometers).  Outcomes come from the ideal
    conditional distribution (draw 2t+1)."""
    c = np.full(count, franson_correlation(phi, psi, visibility))
    u = draw_uniforms(rs, 2 * start, 2 * count)
    x1, x2 = _cell_split(u[1::2], c)
    return x1, x2, u[0::2] < expected_coincidence_fraction(variant)


def sample_setup_pairs(
    variant: SetupVariant,
    phi: float,
    psi: float,
    visibility: float,
    rs: RandomSource,
    start_trial: int,
    count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome arrays (x1, x2) and the coincidence mask for one setting pair."""
    start, count = int(start_trial), int(count)
    if variant is SetupVariant.FRANSON:
        x1, x2, late1, late2 = sample_franson_events(phi, psi, visibility, rs, start, count)
        return x1, x2, late1 == late2
    return _sample_routed(variant, phi, psi, visibility, rs, start, count)


def simulate_setup(
    variant: SetupVariant,
    chain: SettingsChain,
    visibility: float,
    trials_per_pair: int,
    rs: RandomSource,
) -> SetupRun:
    """Scan every setting pair of the chain and judge the declared model class.

    Each pair uses an independent substream of ``rs`` (pair index p maps to
    stream offset p+1), so the run is reproducible under any scheduling.
    A setting pair without a single coincidence raises ValueError naming it.
    """
    table = CorrelationTable()
    n = int(trials_per_pair)
    total = 0
    coinc = 0
    for p, (i, j, _) in enumerate(chain.term_order):
        phi = chain.site1_settings[i].phase
        psi = chain.site2_settings[j].phase
        x1, x2, mask = sample_setup_pairs(variant, phi, psi, visibility, rs.substream(p + 1), 0, n)
        if not mask.any():
            raise ValueError(
                f"no coincidences at (phi, psi) = ({phi!r}, {psi!r}) of the "
                f"{chain.terms}-term chain in {n} trial(s) per setting pair; "
                "raise the trial count"
            )
        prod = (x1.astype(np.int64) * x2.astype(np.int64))[mask]
        table.set_counts(phi, psi, int(prod.sum()), int(mask.sum()))
        total += n
        coinc += int(mask.sum())
    verdict = evaluate(table, chain, model_class_for(variant))
    return SetupRun(
        variant=variant,
        table=table,
        coincidence_fraction=coinc / total,
        verdict=verdict,
        trials_per_pair=n,
    )
