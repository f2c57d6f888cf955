"""Ideal two-photon statistics for energy-time interferometric Bell pairs.

Closed-form correlation functions, the joint distribution over arrival-time
patterns and outcomes behind an unbalanced-interferometer pair, the chained
statistic value predicted by quantum mechanics, and an exact event sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DelayClass,
    RandomSource,
    SettingsChain,
    draw_uniforms,
)

_PATTERNS = (
    (DelayClass.EARLY, DelayClass.EARLY),
    (DelayClass.LATE, DelayClass.LATE),
    (DelayClass.EARLY, DelayClass.LATE),
    (DelayClass.LATE, DelayClass.EARLY),
)


@dataclass(frozen=True)
class Visibility:
    """Interference visibility, a contrast factor in [0, 1]."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"visibility must lie in [0, 1], got {self.value}")

    def __float__(self) -> float:
        return self.value


def _vis(visibility: float | Visibility) -> float:
    v = float(visibility)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    return v


def singlet_correlation(phi: float, psi: float) -> float:
    """Two-spin correlation of the maximally entangled spin pair."""
    return -math.cos(phi - psi)


def franson_correlation(phi: float, psi: float, visibility: float | Visibility = 1.0) -> float:
    """Coincident-outcome correlation of the interferometric pair.

    Conditioned on both photons taking the same arm length, the outcome
    product averages to visibility * cos(phi + psi).
    """
    return _vis(visibility) * math.cos(phi + psi)


def chained_quantum_value(terms: int) -> float:
    """Quantum prediction for the chained statistic: terms * cos(pi/terms)."""
    if terms < 4 or terms % 2 != 0:
        raise ValueError(f"terms must be an even number >= 4, got {terms}")
    return terms * math.cos(math.pi / terms)


@dataclass(frozen=True)
class FransonJointDistribution:
    """Joint law of (delay pattern, outcomes) for one interferometric pair.

    The four arm patterns EE, LL, EL, LE are equally likely (1/4 each).
    Within the coincident patterns EE and LL the outcomes follow
    P(x1, x2 | pattern) = (1 + x1*x2*visibility*cos(phi+psi)) / 4.
    Within the cross patterns EL and LE the outcomes are independent and
    unbiased, a modeling convention: those events carry no interference.
    """

    phi: float
    psi: float
    visibility: float = 1.0

    def __post_init__(self) -> None:
        _vis(self.visibility)

    def probability(self, d1: DelayClass, d2: DelayClass, x1: int, x2: int) -> float:
        if x1 not in (-1, 1) or x2 not in (-1, 1):
            raise ValueError("outcomes must be +1 or -1")
        if d1 == d2:
            c = float(self.visibility) * math.cos(self.phi + self.psi)
            return 0.25 * (1.0 + x1 * x2 * c) / 4.0
        return 0.25 / 4.0

    def as_array(self) -> np.ndarray:
        """Probabilities indexed [pattern, x1, x2] with pattern order
        EE, LL, EL, LE and outcome order (+1, -1)."""
        out = np.empty((4, 2, 2))
        for p, (d1, d2) in enumerate(_PATTERNS):
            for a, x1 in enumerate((+1, -1)):
                for b, x2 in enumerate((+1, -1)):
                    out[p, a, b] = self.probability(d1, d2, x1, x2)
        return out

    def pattern_mass(self, d1: DelayClass, d2: DelayClass) -> float:
        return 0.25

    def coincidence_mass(self) -> float:
        """Fraction of pairs surviving the equal-arm postselection."""
        return 0.5

    def conditional_correlation(self) -> float:
        """E[X1*X2 | equal delay classes]."""
        return franson_correlation(self.phi, self.psi, self.visibility)

    def marginal(self, site: int) -> float:
        """P(X = +1) at one site, unconditioned.  Exactly 1/2 by symmetry."""
        if site not in (1, 2):
            raise ValueError("site must be 1 or 2")
        arr = self.as_array()
        if site == 1:
            return float(arr[:, 0, :].sum())
        return float(arr[:, :, 0].sum())


def franson_joint(phi: float, psi: float, visibility: float | Visibility = 1.0) -> FransonJointDistribution:
    """Joint distribution over (delay pattern, X1, X2) for given settings."""
    return FransonJointDistribution(phi, psi, _vis(visibility))


# ---------------------------------------------------------------------------
# sampling

def _cell_split(u: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map uniforms to outcome pairs ordered (+,+), (+,-), (-,+), (-,-) with
    probabilities (1+c)/4, (1-c)/4, (1-c)/4, (1+c)/4."""
    p1 = (1.0 + c) / 4.0
    p2 = p1 + (1.0 - c) / 4.0
    p3 = p2 + (1.0 - c) / 4.0
    # cells: [0,p1) -> (+,+)  [p1,p2) -> (+,-)  [p2,p3) -> (-,+)  [p3,1) -> (-,-)
    x1 = np.where(u < p2, 1, -1).astype(np.int8)
    x2 = np.where((u < p1) | ((u >= p2) & (u < p3)), 1, -1).astype(np.int8)
    return x1, x2


def sample_franson_events(
    phi: float,
    psi: float,
    visibility: float | Visibility,
    rs: RandomSource,
    start_trial: int,
    count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized exact sampling of ``count`` pairs starting at ``start_trial``.

    Returns int8 outcome arrays (x1, x2) and boolean late-arm flags
    (late1, late2).  Trial t consumes draws 2t and 2t+1 of ``rs``, so any
    batching reproduces identical events.
    """
    v = _vis(visibility)
    u = draw_uniforms(rs, 2 * int(start_trial), 2 * int(count))
    u_pat, u_out = u[0::2], u[1::2]
    pattern = np.floor(u_pat * 4.0).astype(np.int8)  # 0 EE, 1 LL, 2 EL, 3 LE
    same = pattern < 2
    c = np.where(same, v * math.cos(phi + psi), 0.0)
    x1, x2 = _cell_split(u_out, c)
    late1 = (pattern == 1) | (pattern == 3)
    late2 = (pattern == 1) | (pattern == 2)
    return x1, x2, late1, late2


def exact_correlation_entries(
    chain: SettingsChain, visibility: float | Visibility = 1.0
) -> dict[tuple[int, int], float]:
    """Closed-form coincident correlations for every term of a chain,
    keyed by (site-1 index, site-2 index)."""
    v = _vis(visibility)
    out: dict[tuple[int, int], float] = {}
    for i, j, _ in chain.term_order:
        phi = chain.site1_settings[i].phase
        psi = chain.site2_settings[j].phase
        out[(i, j)] = v * math.cos(phi + psi)
    return out
