"""Local hidden-variable side of the simulator.

A local strategy is a pair of batch responders, one per station, that see
only their own setting and the shared hidden variables.  Holds the explicit
delay-based local model that reproduces the coincident interferometric
correlation cos(phi+psi) while remaining local and deterministic per hidden
variable, the Monte Carlo trial runner, and deterministic evaluators for
model statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import TWO_PI, RandomSource, draw_uniforms

# Batch response: arrays (outcome int8, late bool, detected bool) from
# (setting, theta array, r array).
BatchResponder = Callable[[float, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class LocalStrategy:
    """A pair of per-site batch responders sharing only the hidden variable.

    Each responder is called as ``respond(setting, theta, r)``, where theta
    (in [0, 2*pi)) and r (in [0, 1)) are equal-length arrays of hidden
    variables, and returns arrays of that length: outcome (int8, +1 or
    -1), late (bool) and detected (bool).  Locality is structural: each
    callable sees its own site's setting and the hidden variables, nothing
    else.  A single trial is a one-element batch.
    """

    batch_site1: BatchResponder
    batch_site2: BatchResponder


# ---------------------------------------------------------------------------
# the explicit delay-based local model


# For a double |x| <= 2*pi, cos(x) >= 0 exactly when |x| <= _HALF_PI or
# |x| > _THREE_HALVES_PI.  Each constant is the largest double below its
# multiple of pi, so no double lies between a constant and the zero it
# stands for, and the comparisons give the sign of the true cosine.
_HALF_PI = 0.5 * math.pi
_THREE_HALVES_PI = 1.5 * math.pi


def _signs(positive: np.ndarray) -> np.ndarray:
    """+1 where ``positive`` holds and -1 elsewhere, as int8, written over
    the bool array."""
    out = positive.view(np.int8)
    out <<= 1
    out -= 1
    return out


def _aklz_site1_float64(phi: float, theta: np.ndarray, r: np.ndarray):
    # with u = theta + phi: outcome sign(cos u) (ties +1); early iff r < h/2
    # or 1/2 <= r < 1 - h/2, h = (pi/4)|cos u|, so P(early) = 1/2 per setting
    cu = np.add(theta, phi)
    np.cos(cu, out=cu)
    outcome = _signs(cu >= 0.0)
    ht = np.abs(cu, out=cu)
    ht *= np.pi / 8.0
    early = r < ht
    np.subtract(1.0, ht, out=ht)
    window = r < ht
    window &= r >= 0.5
    early |= window
    return outcome, np.invert(early, out=early)


# the bounds of site 1's float32 screen; see _aklz_site1_arrays
_SCREEN_MARGIN = 2.0**-12
_SCREEN_ANGLE = 16.0


def _aklz_site1_arrays(phi: float, theta: np.ndarray, r: np.ndarray):
    """Site 1's responses, bit for bit those of ``_aklz_site1_float64``.

    A float32 screen decides the trials whose float64 decision it can
    prove, and ``_aklz_site1_float64`` re-decides the rest: NaN, infinite
    and large angles, and on random hidden variables about 0.1% of the
    others.  With u = fl64(theta + phi), c its float64 cosine and
    H = fl64(p|c|), p = fl64(pi)/8, the float64 formula gives outcome +1 iff
    c >= 0 and calls a trial early iff r < H or 1/2 <= r < fl64(1 - H).  The
    screen takes u' = fl32(u), c' its float32 cosine, h' = fl32(p'|c'|) with
    p' = fl32(p), r' = fl32(r) and q' = min(r', fl32(1 - r')).  It gives
    outcome +1 iff c' >= 0 and late = (q' < h') XOR (r < 1/2), and it
    decides a trial when |u'| <= 16, |c'| >= 2^-12 and |q' - h'| >= 2^-12.

    Proof that such a trial gets the float64 formula's answer.  As
    |u'| <= 16, |u| <= 16 + 2^-20, where the float32 spacing is at most
    2^-19, so |u' - u| <= 2^-20.  Float32 cosine is within 2^-20 of float64
    cosine at every float32 in [-16, 16] (a premise that
    ``tests/test_lhv.py`` sweeps), and float64 cosine is within 2^-53 of
    cos near 1 and closer below, so
    |c' - c| <= (2^-20 + 2^-53) + |u' - u| + 2^-53 < 2^-18.9.  With
    |c'| >= 2^-12, c then has the sign of c' and is not zero.  p' and the
    float32 product p'|c'| < 1/2 each round by at most 2^-26, and the
    float64 product by at most 2^-55, so |h' - H| <= 2^-25 + p 2^-18.9 +
    2^-55 < 2^-20.  For r in [0, 1], r' is within 2^-25 of r, 1 - r' is exact
    when r' >= 1/2, and fl32(1 - r') >= 1/2 > r' otherwise, so
    q' = min(r', 1 - r') is within 2^-25 of Q = min(r, 1 - r).  So
    (q' - h') - (Q - H) is under 2^-19, more than 64 times inside the
    margin: Q - H has the sign of q' - h' and |Q - H| > 2^-13.  For
    r < 1/2, Q = r and the trial is early iff r < H iff q' < h'.  For
    r >= 1/2, r < H fails as H < 1/2, fl64(1 - H) is within 2^-54 of 1 - H,
    and the trial is early iff 1 - r > H iff q' > h', that is iff not
    q' < h'.  For r outside [0, 1], both call the trial early when r < 0
    (then q' <= 0 < h' and r < 0 < H) and late when r > 1 (then
    q' <= 0 < h' and r > 1 >= fl64(1 - H)).  A NaN anywhere fails a
    comparison of the screen, so its trial is re-decided.
    """
    n = theta.shape
    # the float32 cast overflows beyond 3.4e38 and the cosine of an infinite
    # angle is invalid: those trials are re-decided in float64, which warns
    # where the float64 formula always did
    with np.errstate(all="ignore"):
        c = np.add(theta, phi, out=np.empty(n, np.float32), casting="same_kind")
        tmp = np.abs(c)
        decided = tmp <= _SCREEN_ANGLE
        np.cos(c, out=c)
        outcome = _signs(c >= 0.0)
        ht = np.abs(c, out=c)
        decided &= ht >= _SCREEN_MARGIN
        ht *= np.float32(np.pi / 8.0)
        q = r.astype(np.float32)
        np.subtract(1.0, q, out=tmp)
        np.minimum(q, tmp, out=q)
        np.subtract(q, ht, out=tmp)
        np.abs(tmp, out=tmp)
        decided &= tmp >= _SCREEN_MARGIN
        late = q < ht
    late ^= r < 0.5
    redo = np.flatnonzero(np.invert(decided, out=decided))
    if redo.size:
        outcome[redo], late[redo] = _aklz_site1_float64(phi, theta[redo], r[redo])
    return outcome, late, np.ones(n, dtype=bool)


def _aklz_site2_arrays(psi: float, theta: np.ndarray, r: np.ndarray):
    # outcome sign(cos(theta - psi)), read off |theta - psi| as above;
    # early iff r < 1/2, whatever the setting
    x = np.subtract(theta, psi)
    np.abs(x, out=x)
    if x.size and not x.max() <= TWO_PI:
        raise ValueError(
            f"the delay model's site 2 needs |theta - psi| <= 2*pi, got up to "
            f"{float(x.max())!r} at psi = {psi!r}"
        )
    positive = x <= _HALF_PI
    positive |= x > _THREE_HALVES_PI
    return _signs(positive), ~(r < 0.5), np.ones(theta.shape, dtype=bool)


def aklz_strategy() -> LocalStrategy:
    """The delay-based local model as a LocalStrategy."""
    return LocalStrategy(batch_site1=_aklz_site1_arrays, batch_site2=_aklz_site2_arrays)


# ---------------------------------------------------------------------------
# Monte Carlo


class TrialBatch(NamedTuple):
    """Vectorized responses of both stations for a block of trials."""

    outcome1: np.ndarray
    late1: np.ndarray
    detected1: np.ndarray
    outcome2: np.ndarray
    late2: np.ndarray
    detected2: np.ndarray


def simulate_strategy_pairs(
    strategy: LocalStrategy,
    phi: float,
    psi: float,
    trials: int,
    rs: RandomSource,
    start_trial: int = 0,
) -> TrialBatch:
    """Run ``trials`` shared-hidden-variable trials at fixed settings.

    Trial t draws theta = 2*pi*u[2t] and r = u[2t+1] from the uniforms of
    ``rs``, so results are deterministic given (rs, start_trial) and blocks
    run from consecutive start trials concatenate to one longer run.
    """
    n = int(trials)
    u = draw_uniforms(rs, 2 * int(start_trial), 2 * n)
    theta = u[0::2] * TWO_PI
    # contiguous: the responders read r three times, and one read of the
    # strided view costs about as much as this copy
    r = np.ascontiguousarray(u[1::2])
    del u  # theta and r are copies; free the uniforms before the responders run
    return TrialBatch(*strategy.batch_site1(phi, theta, r), *strategy.batch_site2(psi, theta, r))


def monte_carlo_statistics(batch: TrialBatch) -> "ModelStatistics":
    """Empirical coincident statistics from a trial batch."""
    both = batch.detected1 & batch.detected2
    coinc = both & (batch.late1 == batch.late2)
    n = len(batch.outcome1)
    n_coinc = int(coinc.sum())
    prod = batch.outcome1.astype(np.int32) * batch.outcome2.astype(np.int32)
    corr = float(prod[coinc].mean()) if n_coinc else float("nan")
    ee = both & ~batch.late1 & ~batch.late2
    ll = both & batch.late1 & batch.late2
    return ModelStatistics(
        conditional_correlation=corr,
        coincidence_mass=n_coinc / n if n else float("nan"),
        mass_ee=float(ee.sum()) / n if n else float("nan"),
        mass_ll=float(ll.sum()) / n if n else float("nan"),
        marginal1=float((batch.outcome1 == 1).mean()) if n else float("nan"),
        marginal2=float((batch.outcome2 == 1).mean()) if n else float("nan"),
        count=n_coinc,
    )


@dataclass(frozen=True)
class ModelStatistics:
    """Summary statistics of a local model at one setting pair."""

    conditional_correlation: float
    coincidence_mass: float
    mass_ee: float
    mass_ll: float
    marginal1: float          # P(X1 = +1), unconditioned
    marginal2: float          # P(X2 = +1), unconditioned
    count: int = 0


# ---------------------------------------------------------------------------
# deterministic quadrature


# Gauss nodes per theta cell of ``aklz_quadrature``
_QUADRATURE_ORDER = 4


def aklz_quadrature(
    phi: float, psi: float, n_theta: int = 4096, n_r: int = 1024
) -> ModelStatistics:
    """Integrate the delay-based model exactly on a (theta, r) grid.

    The theta axis uses an ``n_theta``-cell uniform grid whose cells are
    additionally split at the response breakpoints (the zeros of
    cos(theta+phi) and cos(theta-psi)) with a fixed-order Gauss rule per
    cell; between breakpoints every integrand is a plain cosine, so the
    rule is exact to machine rounding.  Along r the responses are piecewise
    constant with analytically known interval endpoints, so each of the
    ``n_r`` grid cells contributes its exact overlap measure; the closed
    form used here equals that overlap sum for every n_r (the pieces
    telescope), leaving no r discretization error.
    """
    if n_theta < 1 or n_r < 1:
        raise ValueError("grid sizes must be positive")
    from ._gauss import panel_nodes

    breaks = [
        math.pi / 2.0 - phi,
        3.0 * math.pi / 2.0 - phi,
        psi + math.pi / 2.0,
        psi + 3.0 * math.pi / 2.0,
    ]
    th, w = panel_nodes(breaks, n_base=n_theta, order=_QUADRATURE_ORDER)
    cu = np.cos(th + phi)
    cw = np.cos(th - psi)
    x1 = np.where(cu >= 0.0, 1.0, -1.0)
    x2 = np.where(cw >= 0.0, 1.0, -1.0)
    h = (np.pi / 4.0) * np.abs(cu)
    # exact r measures at fixed theta: EE on [0, h/2), LL on [1 - h/2, 1)
    ee = float(np.sum(w * (h / 2.0))) / TWO_PI
    ll = ee
    den = float(np.sum(w * h)) / TWO_PI
    num = float(np.sum(w * x1 * x2 * h)) / TWO_PI
    m1 = float(np.sum(w * (x1 > 0))) / TWO_PI
    m2 = float(np.sum(w * (x2 > 0))) / TWO_PI
    return ModelStatistics(
        conditional_correlation=num / den,
        coincidence_mass=den,
        mass_ee=ee,
        mass_ll=ll,
        marginal1=m1,
        marginal2=m2,
    )

