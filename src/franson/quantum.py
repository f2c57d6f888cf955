"""Ideal two-photon statistics for energy-time interferometric Bell pairs.

The closed-form coincident correlation, the chained statistic value
predicted by quantum mechanics, and an exact event sampler.  The sampler
is the one statement of the pair's joint law: the four arm patterns EE,
LL, EL, LE are equally likely, coincident patterns (EE, LL) carry the
outcome correlation ``franson_correlation``, and cross patterns carry
independent unbiased outcomes, a modeling convention: those events show
no interference.
"""

from __future__ import annotations

import math

import numpy as np

from .core import RandomSource, draw_uniforms


def franson_correlation(phi: float, psi: float, visibility: float = 1.0) -> float:
    """Coincident-outcome correlation of the interferometric pair.

    Conditioned on both photons taking the same arm length, the outcome
    product averages to visibility * cos(phi + psi).  Every sampler of the
    package takes its correlation from here; a visibility outside [0, 1]
    raises ValueError.
    """
    v = float(visibility)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    return v * math.cos(phi + psi)


def chained_quantum_value(terms: int) -> float:
    """Quantum prediction for the chained statistic: terms * cos(pi/terms)."""
    if terms < 4 or terms % 2 != 0:
        raise ValueError(f"terms must be an even number >= 4, got {terms}")
    return terms * math.cos(math.pi / terms)


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
    visibility: float,
    rs: RandomSource,
    start_trial: int,
    count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized exact sampling of ``count`` pairs starting at ``start_trial``.

    Returns int8 outcome arrays (x1, x2) and boolean late-arm flags
    (late1, late2).  Trial t consumes draws 2t and 2t+1 of ``rs``, so any
    batching reproduces identical events.
    """
    corr = franson_correlation(phi, psi, visibility)
    u = draw_uniforms(rs, 2 * int(start_trial), 2 * int(count))
    u_pat, u_out = u[0::2], u[1::2]
    pattern = np.floor(u_pat * 4.0).astype(np.int8)  # 0 EE, 1 LL, 2 EL, 3 LE
    same = pattern < 2
    c = np.where(same, corr, 0.0)
    x1, x2 = _cell_split(u_out, c)
    late1 = (pattern == 1) | (pattern == 3)
    late2 = (pattern == 1) | (pattern == 2)
    return x1, x2, late1, late2

