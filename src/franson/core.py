"""Shared vocabulary for the interferometric Bell-test simulator.

Phase settings, chained measurement schedules, and a counter-based random
source whose draws are pure functions of (seed, stream, index).  Outcomes
are plain +1/-1 integers and arrival classes plain late flags, in numpy
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

TWO_PI = 2.0 * math.pi

# quantization used for dictionary keys; coarse on purpose so that
# re-reduced phases land in the same bucket
_KEY_QUANTUM = 1e-10
_KEY_WRAP = round(TWO_PI / _KEY_QUANTUM)


class ResourceLimitError(RuntimeError):
    """A game exceeds a size limit: int64 site rows, pricing or search atoms."""


def reduce_phase(phase: float) -> float:
    """Map an angle in radians to the canonical interval [0, 2*pi)."""
    r = math.fmod(float(phase), TWO_PI)
    if r < 0.0:
        r += TWO_PI
    elif r == 0.0:
        # fmod keeps the sign of a zero; -0.0 would print as "-0.0"
        r = 0.0
    if r >= TWO_PI:
        # fmod output plus 2*pi can round up to exactly 2*pi
        r -= TWO_PI
    return r


def setting_key(phase: float) -> int:
    """Quantized integer key for a phase, stable under re-reduction.

    Buckets are 1e-10 rad wide, far coarser than double rounding, so
    settings produced by the same constructor always collide onto one key.
    """
    return round(reduce_phase(phase) / _KEY_QUANTUM) % _KEY_WRAP


@dataclass(frozen=True)
class Setting:
    """An analyzer phase setting, stored reduced to [0, 2*pi)."""

    phase: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase", reduce_phase(self.phase))

    @property
    def key(self) -> int:
        return setting_key(self.phase)


@dataclass(frozen=True)
class SettingsChain:
    """Measurement schedule for a chained Bell statistic.

    ``terms`` is the even number of correlation terms (4 gives the familiar
    two-settings-per-side statistic).  ``term_order`` lists, per term, the
    site-1 setting index, site-2 setting index, and a sign.  Consecutive
    pairs of terms form the absolute-value groups of the statistic; exactly
    one term (the closing one) carries sign -1.

    The settings of both sites and the terms between them form the setting
    graph, which must be one cycle.  ``cycle`` lists the terms, as indices
    into ``term_order``, in the order one walk of it meets them: from
    site-1 setting 0 along the first term that uses it, then along each
    setting's other term, so the walk alternates between the sites.
    """

    terms: int
    site1_settings: tuple[Setting, ...]
    site2_settings: tuple[Setting, ...]
    term_order: tuple[tuple[int, int, int], ...]
    cycle: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.terms
        if n < 4 or n % 2 != 0:
            raise ValueError(f"terms must be an even number >= 4, got {n}")
        half = n // 2
        if len(self.site1_settings) != half or len(self.site2_settings) != half:
            raise ValueError("each site needs exactly terms/2 settings")
        if len(self.term_order) != n:
            raise ValueError("term_order must contain exactly `terms` entries")
        pairs = [(i, j) for i, j, _ in self.term_order]
        if len(set(pairs)) != n:
            raise ValueError("term_order must visit each setting pair at most once")
        signs = [s for _, _, s in self.term_order]
        if any(s not in (-1, 1) for s in signs) or signs.count(-1) != 1:
            raise ValueError("term_order must carry exactly one -1 sign")
        for i, j in pairs:
            if not (0 <= i < half and 0 <= j < half):
                raise ValueError("term_order references an unknown setting index")
        at = [[] for _ in range(n)]  # the terms at each setting, site 1's then site 2's
        for t, (i, j) in enumerate(pairs):
            at[i].append(t)
            at[half + j].append(t)
        if any(len(ts) != 2 for ts in at):
            raise ValueError("every setting must appear in exactly two terms")
        walk, node = [at[0][0]], 0
        while True:
            i, j = pairs[walk[-1]]
            node = i + half + j - node  # the other end of the last term
            after = sum(at[node]) - walk[-1]  # the setting's other term
            if after == walk[0]:
                break
            walk.append(after)
        if len(walk) != n:
            raise ValueError("term pairs must form a single alternating cycle")
        object.__setattr__(self, "cycle", tuple(walk))

    @property
    def groups(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Terms grouped in consecutive pairs; one group per absolute value."""
        order = self.term_order
        return tuple(order[k : k + 2] for k in range(0, len(order), 2))


def chain_settings(terms: int) -> SettingsChain:
    """Build the standard chain of phase settings for a given term count.

    Site 1 uses phases (2k-1)*pi/terms for k = 1..terms/2; site 2 uses
    reductions of -2j*pi/terms for j = 0..terms/2-1.  Terms alternate
    between the two site-2 neighbours of each site-1 setting, and the
    closing wrap-around term carries the minus sign.  Under the ideal
    interferometric correlation cos(phi+psi), every term then contributes
    cos(pi/terms) and the statistic reaches terms*cos(pi/terms).
    """
    if terms < 4 or terms % 2 != 0:
        raise ValueError(f"terms must be an even number >= 4, got {terms}")
    half = terms // 2
    step = math.pi / terms
    site1 = tuple(Setting((2 * k - 1) * step) for k in range(1, half + 1))
    site2 = tuple(Setting(-2.0 * j * step) for j in range(half))
    order: list[tuple[int, int, int]] = []
    for k in range(half):
        order.append((k, k, +1))
        wrap = (k + 1) % half
        order.append((k, wrap, -1 if k == half - 1 else +1))
    return SettingsChain(terms, site1, site2, tuple(order))


def random_settings_chain(terms: int, rs: "RandomSource") -> SettingsChain:
    """The standard term template with uniformly random phases.

    The local-model bounds do not depend on the phase values, so checking
    them on randomized chains exercises more of the strategy space than the
    quantum-optimal chain alone.
    """
    base = chain_settings(terms)
    u = draw_uniforms(rs, 0, terms)
    half = terms // 2
    site1 = tuple(Setting(float(x) * TWO_PI) for x in u[:half])
    site2 = tuple(Setting(float(x) * TWO_PI) for x in u[half:])
    return SettingsChain(terms, site1, site2, base.term_order)


# ---------------------------------------------------------------------------
# counter-based randomness


@dataclass(frozen=True)
class RandomSource:
    """Stateless random source: draw i is a pure function of (seed, stream, i).

    Backed by the Philox counter-based bit generator keyed on
    (seed, stream); draw index i lives in counter block i // 4 at word
    offset i % 4.  Distinct stream ids give statistically independent
    sequences, and any batching or execution order reproduces the same
    values bit for bit.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not (0 <= int(v) < 2**64):
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")

    def substream(self, offset: int) -> "RandomSource":
        """A related source on stream id ``stream + offset``."""
        return RandomSource(self.seed, self.stream + int(offset))


def _generator(rs: RandomSource, block: int) -> Generator:
    key = np.array([rs.seed, rs.stream], dtype=np.uint64)
    counter = np.array([block, 0, 0, 0], dtype=np.uint64)
    return Generator(Philox(key=key, counter=counter))


def draw_uniforms(rs: RandomSource, start: int, count: int) -> np.ndarray:
    """Uniform draws with indices [start, start+count), each in [0, 1).

    Draw i is the same value whichever call produces it: any slice of a
    longer call equals the shorter call over the same indices, and a
    single draw is a one-element call.
    """
    start, count = int(start), int(count)
    if start < 0 or count < 0:
        raise ValueError("start and count must be nonnegative")
    block, offset = divmod(start, 4)
    return _generator(rs, block).random(offset + count)[offset:]
