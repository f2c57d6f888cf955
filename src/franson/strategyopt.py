"""Strategy-space verification of the model-class bounds.

Deterministic local strategies with finitely many settings form the
vertices of each model class; mixtures over them span the whole class.
Every finite class has an exact answer.  Classes whose statistic is
linear in the mixture (plain local realism, path realism) reach their
maximum, terms - 2, at the all-+1 vertex, which a parity argument shows
optimal.  The emission-time game's value is one LP, solved in closed
form: a mixture of terms + 2 atoms meets integer duals, whose dual
certificate, priced over every joint vertex, bounds them all, so no
solver runs.  Outcomes-only selection reaches the algebraic maximum with
a closed-form mixture.  Only the search needs scipy.

Classes with strategy-dependent postselection (outcomes-only selection,
emission-time realism) have a ratio-form statistic; a multi-start
search over mixture weights, run on request, tries to exceed the exact
answer and never claims exactness.  It climbs by successive LP.  With
every cell mass held fixed the statistic is at least the linear
objective of its current sign pattern, with equality at the current
point, so each ascent step is one exact LP under that pattern (the full
conditional-gradient step of Frank and Wolfe).  In the emission-time game
the equal-mass constraints pin every cell mass to 1/2; under outcomes-only
selection each column round pins the masses at its starting point.  The
restarts climb in lockstep: each step stacks the LPs of every restart
still climbing into one block-diagonal LP, which is separable, so one
solve gives each restart its own optimum.

Every LP here rests on one argument.  Two columns with the same
constraint column are alike in every row, so moving weight from one to
the other keeps the LP feasible, and moving it to the one of larger
objective does not lower the objective: an LP that keeps only the best
column of each constraint column has the same value.  So each search
step hands the solver one atom per distinct constraint column of its
support.  The column rounds and the certificate price joint vertices
with structured oracles and never build a joint-vertex array.  The
search's top-k columns come from ``_et_best_columns``, which maximizes
over arrival and site-1 outcome maps, the rest in closed form, and
``_oo_best_columns``, which separates over the site-2 settings; both sum
8^n items, so the search stops at 12 terms.  The certificate needs only
the largest price, a max-plus DP around the setting cycle
(``_et_best_price``) in O(terms n^2).  A site vertex is a mixed-radix
index of its maps, decoded by bit shifts where needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import TWO_PI, ResourceLimitError, SettingsChain
from .inequalities import ModelClass, ModelKind, bound_for

PASS_TOLERANCE = 1e-6
CONSTRAINT_TOLERANCE = 1e-9
# an exact answer's witness must re-evaluate to its value within this
WITNESS_TOLERANCE = 1e-9
# a dual certificate closes when no joint vertex has a reduced profit above
# this and a feasible witness's objective is within WITNESS_TOLERANCE of y.b
PROFIT_TOLERANCE = 1e-10

# emission-time game formalization note, included in reports
EMISSION_TIME_NOTE = (
    "two-phase game: each run draws independent early and late settings per "
    "side; the delay map sees (lambda, early setting); early detections "
    "report the early outcome under the early setting, late detections the "
    "late outcome under the late setting; coincidence means equal delay "
    "classes; early-early and late-late coincidence mass are both pinned to "
    "1/4 per setting pair (other formalizations of emission-time realism "
    "exist; this one keeps late-side correlations local-realist)"
)


@dataclass(frozen=True)
class SiteVertex:
    """One station's deterministic response maps over the chain's settings.

    ``outcomes`` is the reported outcome per setting (the early-arrival
    outcome in the two-phase game), ``late_outcomes`` the late-arrival
    outcome per setting where the game distinguishes them, ``early`` the
    arrival class per setting, ``detected`` the detection flag per setting.
    """

    outcomes: tuple[int, ...]
    early: tuple[bool, ...]
    detected: tuple[bool, ...]
    late_outcomes: tuple[int, ...] | None = None


@dataclass(frozen=True)
class DeterministicVertex:
    site1: SiteVertex
    site2: SiteVertex


@dataclass(frozen=True)
class MixedStrategy:
    """A probability mixture over deterministic vertices."""

    vertices: tuple[DeterministicVertex, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.weights):
            raise ValueError("one weight per vertex required")
        w = np.asarray(self.weights, dtype=float)
        # stated as what must hold: NaN compares False, so it fails the test
        if not (w.size and np.all(w >= -1e-12) and abs(w.sum() - 1.0) <= 1e-9):
            raise ValueError("weights must be a probability vector")

    def to_json_dict(self) -> dict:
        def side(v: SiteVertex) -> dict:
            return {
                "outcomes": list(v.outcomes),
                "early": list(v.early),
                "detected": list(v.detected),
                "late_outcomes": None if v.late_outcomes is None else list(v.late_outcomes),
            }

        return {
            "weights": list(self.weights),
            "vertices": [
                {"site1": side(v.site1), "site2": side(v.site2)} for v in self.vertices
            ],
        }


@dataclass(frozen=True)
class GameSpec:
    """A model class played on the settings and term structure of a chain.

    Settings enter the finite game only through their indices; the bounds
    are setting-independent, which is why verifying them on freshly
    randomized chains is a meaningful falsification exercise.
    """

    model: ModelClass
    chain: SettingsChain

    @property
    def n_settings(self) -> int:
        return self.chain.terms // 2

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per term of ``term_order``: the site-1 setting, the site-2 setting
        and the sign (float).  Read-only, since every caller shares them."""
        a_idx, b_idx, signs = np.array(self.chain.term_order).T.copy()
        cells = (a_idx, b_idx, signs.astype(float))
        for x in cells:
            x.flags.writeable = False
        return cells

    @property
    def has_equal_mass_constraint(self) -> bool:
        return self.model.kind is ModelKind.EMISSION_TIME_REALISM


# ---------------------------------------------------------------------------
# site vertices as rows


def _map_bits(maps: np.ndarray, n: int) -> np.ndarray:
    """(K, n) bits of indices below 2^64, least significant first."""
    octets = np.asarray(maps, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little").view(bool)


def _sign_index(x: np.ndarray) -> np.ndarray:
    """Index of the outcome map sign(x) along the last axis, +1 at 0."""
    return (x < 0) @ (1 << np.arange(x.shape[-1]))


@dataclass
class _SideArrays:
    outcomes: np.ndarray                 # (K, n) int8
    early: np.ndarray                    # (K, n) bool
    detected: np.ndarray                 # (K, n) bool
    late_outcomes: np.ndarray | None     # (K, n) int8 or None

    @property
    def size(self) -> int:
        return self.outcomes.shape[0]

    @cached_property
    def n_late(self) -> np.ndarray:
        """(K,) late arrival classes; einsum sums short rows faster than sum."""
        return self.early.shape[1] - np.einsum("ij->i", self.early.view(np.uint8)).astype(int)


_ROW_BITS = 63  # site rows are int64 indices


def _side_size(kind: ModelKind, n: int) -> int:
    """Vertices per site of a class with n settings per site.  Every decode
    of site rows comes through here, and every encoded row is decoded, so a
    row wider than ``_ROW_BITS`` raises ResourceLimitError: plain local
    realism stops at 126 terms, path realism at 124, the three-map classes
    at 42."""
    if kind is ModelKind.PLAIN_LOCAL_REALISM:
        bits = n
    elif kind is ModelKind.PATH_REALISM:
        bits = n + 1
    elif kind in (ModelKind.OUTCOMES_ONLY, ModelKind.EMISSION_TIME_REALISM):
        bits = 3 * n
    else:
        raise ValueError(f"{kind.value} has no finite-settings game here")
    if bits > _ROW_BITS:
        raise ResourceLimitError(
            f"{kind.value} vertices of {n} settings per site need {bits}-bit site rows; "
            f"int64 holds {_ROW_BITS} bits"
        )
    return 2**bits


def _vertex_index(n: int, high, mid, low):
    """Row of a three-map site vertex by its map indices; see ``_side_arrays``."""
    return (high * 2**n + mid) * 2**n + low


def _side_arrays(kind: ModelKind, n: int, rows=None) -> _SideArrays:
    """Site vertices of a class, decoded from their rows by bit shifts.

    A row is a mixed-radix index of the vertex's maps, each an n-bit index
    whose bit i set means -1, early or detected at setting i.  Plain: the
    outcome map.  Path realism: the outcome map, then a bit for a late
    constant arrival class.  Outcomes-only: outcome, arrival and detection
    maps (``_vertex_index``).  Emission-time: early-outcome, late-outcome
    and arrival maps, always detected.  Decodes ``rows``, or every row.
    """
    size = _side_size(kind, n)  # a class without a finite game, or too wide, raises here
    rows = np.arange(size) if rows is None else np.asarray(rows, dtype=np.int64)
    bits = _map_bits(rows, size.bit_length() - 1)  # the maps, last first
    signs = 1 - 2 * bits.view(np.int8)  # outcome maps: -1 where a bit is set
    ones = np.ones((rows.size, n), dtype=bool)
    late = None
    if kind is ModelKind.PLAIN_LOCAL_REALISM:
        out, early, det = signs, ones, ones
    elif kind is ModelKind.PATH_REALISM:
        out, early, det = signs[:, 1:], ones & ~bits[:, :1], ones
    elif kind is ModelKind.OUTCOMES_ONLY:
        out, early, det = signs[:, 2 * n :], bits[:, n : 2 * n], bits[:, :n]
    else:
        out, early, det, late = signs[:, 2 * n :], bits[:, :n], ones, signs[:, n : 2 * n]
    return _SideArrays(outcomes=out, early=early, detected=det, late_outcomes=late)


def _site_vertices(sides: _SideArrays) -> list[SiteVertex]:
    """Every vertex of ``sides``, in row order; each map array is decoded
    to Python ints and bools by one ``tolist``."""
    late = sides.late_outcomes
    lates = [None] * sides.size if late is None else map(tuple, late.tolist())
    maps = zip(sides.outcomes.tolist(), sides.early.tolist(), sides.detected.tolist(), lates)
    return [SiteVertex(tuple(o), tuple(e), tuple(d), lo) for o, e, d, lo in maps]


def _side_rows(kind: ModelKind, n: int, vertices: list[SiteVertex]) -> np.ndarray:
    """Rows of ``vertices`` among the class's site vertices: their maps
    encoded as ``_side_arrays`` lays them out, which must decode to the
    same maps exactly.  A vertex outside the game's class raises ValueError.
    """
    two_phase = kind is ModelKind.EMISSION_TIME_REALISM
    fields = ("outcomes", "early", "detected", "late_outcomes")[: 3 + two_phase]
    outside = ValueError("strategy contains a vertex outside this game's class")
    if any((v.late_outcomes is not None) != two_phase for v in vertices):
        raise outside
    try:  # ragged, non-integer or wrong-length maps fail here
        query = {
            f: np.array([getattr(v, f) for v in vertices], dtype=np.int64).reshape(len(vertices), n)
            for f in fields
        }
    except (TypeError, ValueError, OverflowError):
        raise outside from None
    # a flag map encodes as the outcome map 1 - 2 flag does
    out, early = _sign_index(query["outcomes"]), _sign_index(1 - 2 * query["early"])
    if two_phase:
        rows = _vertex_index(n, out, _sign_index(query["late_outcomes"]), early)
    elif kind is ModelKind.OUTCOMES_ONLY:
        rows = _vertex_index(n, out, early, _sign_index(1 - 2 * query["detected"]))
    elif kind is ModelKind.PATH_REALISM:
        rows = 2 * out + (query["early"][:, 0] != 1)
    else:
        rows = out
    decoded = _side_arrays(kind, n, rows)  # a class without a finite game, or too wide, raises here
    if not all(np.array_equal(getattr(decoded, f), query[f]) for f in fields):
        raise outside
    return rows


def _arrival_core(n: int) -> tuple[tuple[int, int], ...]:
    """The four all-early / all-late (site-1, site-2) arrival maps.

    Weight 1/4 on each pair meets every equal-mass constraint, whatever the
    outcome maps.
    """
    all_early = 2**n - 1  # bool pattern index with every bit set
    all_late = 0
    return (
        (all_early, all_early), (all_early, all_late),
        (all_late, all_early), (all_late, all_late),
    )


# ---------------------------------------------------------------------------
# mixture evaluation


def _column_sums(game: GameSpec, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_{t: b_t = b} c_t x[..., a_t] per site-2 setting b, for site-1
    values x per setting.  Against a site-1 outcome map x, the best site-2
    outcome at b is the sign of its column sum, worth its absolute value."""
    a_idx, b_idx, _ = game.cells
    to_b = (b_idx[:, None] == np.arange(game.n_settings)).astype(np.float64)
    return (x[..., a_idx] * c) @ to_b


def _atoms(game: GameSpec, idx1, idx2) -> tuple[_SideArrays, _SideArrays]:
    """Site-1 and site-2 vertices of the atoms (idx1, idx2), decoded."""
    return tuple(_side_arrays(game.model.kind, game.n_settings, idx) for idx in (idx1, idx2))


def _witness(game: GameSpec, idx1, idx2, w) -> MixedStrategy:
    """The mixture of the atoms (idx1, idx2), decoded, at weights ``w / w.sum()``."""
    s1, s2 = _atoms(game, idx1, idx2)
    return MixedStrategy(
        vertices=tuple(map(DeterministicVertex, _site_vertices(s1), _site_vertices(s2))),
        weights=tuple(float(x) for x in w / w.sum()),
    )


def _support_rows(game: GameSpec, s1, s2):
    """Rows of the atoms of ``_atoms`` s1 and s2: cell masses and signed
    numerators, shapes (K, terms), and the equality system A w = b.

    The last row of A is always the simplex sum.  The equal-mass game puts
    the per-cell early-early masses and the late-late mass, each pinned to
    1/4, in front of it.
    """
    a_idx, b_idx, _ = game.cells
    kind = game.model.kind
    o = s1.outcomes[:, a_idx].astype(np.float64) * s2.outcomes[:, b_idx].astype(np.float64)
    e1, e2 = s1.early[:, a_idx], s2.early[:, b_idx]
    ones = np.ones((1, s1.size))
    if kind is ModelKind.EMISSION_TIME_REALISM:
        ee = (e1 & e2).astype(np.float64)
        ll = (s1.n_late * s2.n_late) / game.n_settings**2
        ol = s1.late_outcomes[:, a_idx].astype(np.float64) * s2.late_outcomes[:, b_idx]
        A = np.vstack([ee.T, ll, ones])
        b = np.array([0.25] * a_idx.size + [0.25, 1.0])
        return ee + ll[:, None], ee * o + ll[:, None] * ol, A, b
    if kind is ModelKind.PLAIN_LOCAL_REALISM:
        sel = np.ones_like(o)
    else:
        det = s1.detected[:, a_idx] & s2.detected[:, b_idx]
        sel = (det & (e1 == e2)).astype(np.float64)
    return sel, sel * o, ones, np.ones(1)


MIN_CELL_MASS = 1e-12


def _statistic(w, mass, num, signs):
    m = w @ mass
    nu = w @ num
    m_safe = np.maximum(m, MIN_CELL_MASS)
    corr = nu / m_safe
    signed = signs * corr
    groups = signed[0::2] + signed[1::2]
    stat = float(np.abs(groups).sum())
    return stat, corr, m, groups


def _pattern_coef(signs, m, groups):
    """Per-cell coefficients c_t of the groups' current sign pattern; at
    the current point the statistic is sum_t c_t * (w @ num[:, t])."""
    sig = np.where(groups >= 0.0, 1.0, -1.0)
    return np.repeat(sig, 2) * signs / np.maximum(m, MIN_CELL_MASS)


@dataclass(frozen=True)
class GameEvaluation:
    """A mixture's statistic with per-cell detail and feasibility checks."""

    statistic: float
    correlations: tuple[float, ...]
    masses: tuple[float, ...]
    constraint_residual: float
    feasible: bool


def evaluate_mixed(game: GameSpec, strategy: MixedStrategy) -> GameEvaluation:
    """Re-evaluate a mixture in the game; checks class membership and
    constraint residuals rather than trusting the caller."""
    vs = strategy.vertices
    sites = [v.site1 for v in vs] + [v.site2 for v in vs]  # one vertex set
    rows = _side_rows(game.model.kind, game.n_settings, sites)
    idx1, idx2 = rows[: len(vs)], rows[len(vs):]
    w = np.asarray(strategy.weights, dtype=float)
    _, _, signs = game.cells
    mass, num, A, b = _support_rows(game, *_atoms(game, idx1, idx2))
    stat, corr, m, _ = _statistic(w, mass, num, signs)
    residual = float(np.max(np.abs(A @ w - b)))
    feasible = bool(np.all(m > MIN_CELL_MASS)) and residual <= CONSTRAINT_TOLERANCE
    return GameEvaluation(
        statistic=stat,
        correlations=tuple(float(c) for c in corr),
        masses=tuple(float(x) for x in m),
        constraint_residual=residual,
        feasible=feasible,
    )


# ---------------------------------------------------------------------------
# the optimizer


# column rounds after each restart's first climb, with the candidate window,
# the columns added per round and the best insertion price that ends a restart
_COLUMN_ROUNDS = 2
_COLUMN_WINDOW = 4 * 16
_COLUMNS_PER_ROUND = 16
_PRICE_TOLERANCE = 1e-12

# pricing size a searched game may reach; the 12-term games of both fit
_PRICING_LIMIT = 1 << 22

# support atoms the restarts of one search may hold at once.  The search's
# memory (the restarts' matrices and the stacked LP, whose columns are at
# most these atoms) grows with them: peak RSS rose by 0.26 kB per atom at
# 4 terms and 1.6 kB at 12 terms, and a 12-term search at the limit
# peaked at 875 MB.  1000 restarts at 4 terms hold 224,000.
_SEARCH_ATOM_LIMIT = 1 << 19

# atoms a restart's support draws, core included
_SUPPORT_ATOMS = 192


@dataclass(frozen=True)
class OptimizerBudget:
    """Effort knobs for the mixture search.

    ``restarts`` independent starts, each running to completion; the
    restarts advance in lockstep, one stacked LP per step, and each takes
    at most ``iterations`` LP steps per column round.  Both must be at
    least 1, and ``seed``, which seeds the restarts' supports, at least 0.
    """

    restarts: int = 48
    iterations: int = 220
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("restarts", "iterations"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")


def _check_search_size(game: GameSpec, budget: OptimizerBudget) -> None:
    """Refuse a search whose pricing or supports would outgrow their limits.

    Pricing first: both top-k oracles of the column rounds,
    ``_et_best_columns`` and ``_oo_best_columns``, sum 8^n items over every
    term, and past ``_PRICING_LIMIT`` such entries the search is refused.
    The emission-time certificate's cycle DP ``_et_best_price`` is not
    limited here.  Then the atoms, against ``_SEARCH_ATOM_LIMIT``: after
    its last column round a restart's support holds ``_restart_support``'s
    draw, at least ``_SUPPORT_ATOMS`` atoms and at least 8 beyond the
    emission-time core (the four ``_arrival_core`` pairs and two pairs per
    cell), plus ``_COLUMNS_PER_ROUND`` per round.
    """
    n = game.n_settings
    size = 8**n * game.chain.terms
    if size > _PRICING_LIMIT:
        name = "emission-time" if game.has_equal_mass_constraint else "outcomes-only"
        raise ResourceLimitError(f"{size} {name} pricing entries exceed the limit {_PRICING_LIMIT}")
    core = len(_arrival_core(n)) + 2 * n * n if game.has_equal_mass_constraint else 0
    added = _COLUMN_ROUNDS * _COLUMNS_PER_ROUND
    atoms = budget.restarts * (max(_SUPPORT_ATOMS, core + 8) + added)
    if atoms > _SEARCH_ATOM_LIMIT:
        raise ResourceLimitError(
            f"{atoms} support atoms (restarts x (support of {core} core atoms "
            f"and at least 8 more, plus {added} added columns)) exceed the "
            f"limit {_SEARCH_ATOM_LIMIT}"
        )

@dataclass(frozen=True)
class DualCertificate:
    """An upper bound on the emission-time game value from the LP's duals.

    ``duals`` are y, one per equality row (the early-early mass of each
    cell, the late-late mass, the simplex sum): the closed form of
    ``emission_time_lp_value``, not the solver's.  ``dual_value`` is y.b.
    No joint vertex of the game, in the LP or not, has a reduced profit
    obj - A^T y above ``largest_profit``, the maximum over every joint
    vertex by the cycle DP ``_et_best_price``; the weights sum to 1, so no
    mixture's objective exceeds y.b + max(0, largest_profit).  ``closed``
    when that profit is at most ``PROFIT_TOLERANCE`` and a primal witness
    meets it: constraint residual at most ``CONSTRAINT_TOLERANCE``,
    objective within ``WITNESS_TOLERANCE`` of y.b.
    """

    duals: tuple[float, ...]
    dual_value: float
    largest_profit: float
    closed: bool

    def to_json_dict(self) -> dict:
        return {
            "duals": list(self.duals),
            "dual_value": self.dual_value,
            "largest_profit": self.largest_profit,
            "closed": self.closed,
        }


@dataclass(frozen=True)
class MaxStatisticResult:
    """A class's largest statistic, with a witness mixture.

    ``method`` names how it was found: "exact-maximum" (plain and path
    realism, at one vertex), "lp" (the emission-time game, with its
    ``certificate``), "closed-form" (outcomes-only selection) or
    "successive-lp" (the search, the one method that is not exact).
    """

    value: float
    witness: MixedStrategy
    exact: bool
    restarts_used: int
    method: str
    notes: str = ""
    certificate: DualCertificate | None = None


def _linear_closed_form(game: GameSpec) -> MaxStatisticResult:
    """Exact maximum for classes whose statistic is linear in the mixture:
    the all-+1 vertex, row 0 at both sites.

    Conditional weights then do not depend on the settings, so each
    correlation is one weighted mean of the vertices' (under path realism,
    of those whose arrival classes coincide), and by the triangle
    inequality no mixture exceeds its best vertex.  A vertex with
    outcomes a_i at site 1 and b_j at site 2 gives term t the signed value
    s_t a_i b_j.  Each setting lies in exactly two terms, each group holds
    two terms, and exactly one sign s_t is -1, so under any group sign
    pattern the product of the vertex's signed terms is -1.  At least one
    term is then -1, and no vertex exceeds terms - 2.  The all-+1 vertex
    reaches it: its statistic, sum_k |s_2k + s_2k+1|, is computed here from
    the chain's signs.  Path realism has the same value, with both constant
    arrival classes early; mismatched classes never coincide.
    """
    _, _, signs = game.cells
    row = np.zeros(1, dtype=np.int64)
    return MaxStatisticResult(
        value=float(np.abs(signs[0::2] + signs[1::2]).sum()),
        witness=_witness(game, row, row, np.ones(1)),
        exact=True,
        restarts_used=0,
        method="exact-maximum",
        notes=(
            "closed form at the all-+1 vertex: each setting lies in two terms "
            "and one sign is -1, so every vertex has a -1 term under every "
            "group sign pattern and none exceeds terms - 2"
        ),
    )


def _outcomes_only_closed_form(game: GameSpec) -> MaxStatisticResult:
    """A mixture at the algebraic maximum of outcomes-only selection.

    Vertex k of n = terms/2, each of weight 1/n: site 1 is detected only at
    setting k, early, with outcome +1; site 2 is detected early at every
    setting b, with the sign of term (k, b) as its outcome (+1 where no term
    pairs them).  Every coincidence is early-early, and only vertex a
    selects cell (a, b), so every cell has mass 1/n and correlation equal
    to its term's sign: each term contributes +1, the statistic is
    ``terms``.  Beyond 42 terms ``_side_size`` raises ResourceLimitError.
    """
    n = game.n_settings
    a_idx, b_idx, signs = game.cells
    outcomes2 = np.ones((n, n))
    outcomes2[a_idx, b_idx] = signs
    single = 1 << np.arange(n, dtype=np.int64)
    every = 2**n - 1
    rows1 = _vertex_index(n, 0, every, single)
    rows2 = _vertex_index(n, _sign_index(outcomes2), every, every)
    return MaxStatisticResult(
        value=float(game.chain.terms),
        witness=_witness(game, rows1, rows2, np.ones(n)),
        exact=True,
        restarts_used=0,
        method="closed-form",
        notes=(
            "closed form at the algebraic maximum: n = terms/2 vertices of "
            "weight 1/n; in vertex k site 1 is detected only at setting k, "
            "site 2 at every setting with the sign of its term; every "
            "correlation equals its term's sign"
        ),
    )


def _restart_support(game, rng):
    """Support atoms for one restart: a feasibility core plus random atoms,
    ``_SUPPORT_ATOMS`` in all and at least 8 beyond the core.

    In the emission-time game the core is the four ``_arrival_core`` pairs,
    which keep the equal-mass system solvable from the first iterate, then
    two pairs of single-early arrival maps per cell, which let the search
    place early mass cell by cell.  Each core pick draws its (site-1
    outcome, site-1 late, site-2 outcome, site-2 late) maps as one row of
    a single ``rng.integers`` call, in pick order; the random atoms, any
    of a site's 8^n vertices, are one call per site.
    """
    n = game.n_settings
    arrivals1 = arrivals2 = np.zeros(0, dtype=np.int64)
    if game.has_equal_mass_constraint:
        single = 1 << np.arange(n, dtype=np.int64)
        core1, core2 = np.array(_arrival_core(n), dtype=np.int64).T
        arrivals1 = np.concatenate([core1, np.repeat(single, 2 * n)])
        arrivals2 = np.concatenate([core2, np.tile(np.repeat(single, 2), n)])
    o1, l1, o2, l2 = rng.integers(2**n, size=(arrivals1.size, 4)).T
    extra = max(_SUPPORT_ATOMS - arrivals1.size, 8)
    idx1 = np.concatenate([_vertex_index(n, o1, l1, arrivals1), rng.integers(8**n, size=extra)])
    idx2 = np.concatenate([_vertex_index(n, o2, l2, arrivals2), rng.integers(8**n, size=extra)])
    w0 = np.zeros(idx1.size)
    if game.has_equal_mass_constraint:
        w0[:4] = 0.25
    else:
        w0[:] = 1.0 / idx1.size
        w0 = 0.5 * w0 + 0.5 * rng.dirichlet(np.ones(idx1.size))
    return idx1, idx2, w0


def _et_best_columns(game: GameSpec, c: np.ndarray, y: np.ndarray, k: int):
    """The k best emission-time joint columns for a linear price.

    Joint vertex (i, j) is priced

        sum_t c_t E_t o1 o2 - sum_t y_t E_t
            + lam1 lam2 (sum_t c_t l1 l2 - y_T) - y_(T+1),

    with E_t = e1 e2 the early-early mask of term t, o and l the early and
    late outcomes and e the arrival class at the term's settings, lam a
    site's late share, and y one entry per term, then a late-late and a
    total entry.  At y = 0 this is the LP's objective (c the pattern's
    coefficients); at y = (c corr, sum c corr, 0) it is the search's
    insertion derivative.  The late part depends on the arrival
    maps only through lam1 lam2 >= 0, so one pair of late maps is best for
    every arrival pair.  Given the arrival maps and the site-1 outcome map,
    the best site-2 outcome per setting is the sign of its column sum
    (``_column_sums``), so the early part is a maximum over 8^n (arrival,
    outcome, arrival) triples.  No (S, .) array is built.

    Returns the k arrival pairs of highest price, each with its best maps,
    as (price, site-1 rows, site-2 rows) of ``_side_arrays``, highest first.
    """
    n = game.n_settings
    a_idx, b_idx, _ = game.cells
    T = a_idx.size
    arrivals = _map_bits(np.arange(2**n), n).astype(np.float64)  # row = arrival map
    signs = 1.0 - 2.0 * arrivals  # row = outcome map
    late = _column_sums(game, signs, c)
    late_gain = np.abs(late).sum(axis=1)
    l1 = int(np.argmax(late_gain))
    l2 = int(_sign_index(late[l1]))
    early = _column_sums(game, arrivals[:, None, :] * signs[None, :, :], c)  # (e1, o1, b)
    gain = np.abs(early) @ arrivals.T                               # (e1, o1, e2)
    o1 = gain.argmax(axis=1)                                        # (e1, e2)
    lam = 1.0 - arrivals.mean(axis=1)
    price = (
        gain.max(axis=1)
        - (arrivals[:, a_idx] * y[:T]) @ arrivals[:, b_idx].T
        + np.outer(lam, lam) * (late_gain[l1] - y[T])
        - y[T + 1]
    )
    k = min(k, price.size)
    top = np.argpartition(price, -k, axis=None)[-k:]
    top = top[np.argsort(-price.flat[top], kind="stable")]
    e1, e2 = np.divmod(top, 2**n)
    o1 = o1[e1, e2]
    o2 = _sign_index(early[e1, o1])
    return (
        price.flat[top],
        _vertex_index(n, o1, l1, e1),
        _vertex_index(n, o2, l2, e2),
    )


def _et_best_price(game: GameSpec, c: np.ndarray, y: np.ndarray):
    """The largest emission-time price over every joint vertex, priced as
    in ``_et_best_columns``, by a max-plus DP around the setting cycle in
    O(terms n^2).

    The settings of both sites are the 2n nodes of one cycle, and each term
    t is an edge.  Given the arrival maps, the best early outcomes solve a
    +-1 chain problem on the early-early edges: each earns |c_t| on a path,
    and on the whole cycle, when the signs of c multiply to a negative
    number, 2 min |c_t| less.  The late part is the same problem on the
    whole cycle, its maximum L times the late shares' product
    lam1 lam2 = (n - k1)(n - k2) / n^2 for k1 and k2 early settings.  So
    the walk of ``SettingsChain.cycle``, from site-1 setting 0, carries
    the best partial sum per state (node 0 early, this node early, k1,
    k2), and each step takes the next node late or early, earning
    w_t = |c_t| - y_t on an edge whose ends are both early.  Works in any
    dtype numpy can compare: floats, or ``Fraction`` objects for an exact
    price.
    """
    n = game.n_settings
    T = game.chain.terms
    cycle = game.chain.cycle
    gain = np.abs(c)
    w = gain - y[:T]
    # a c_t of 0 opens the cycle, and then min |c_t| is 0 too
    loss = 2 * gain.min() if np.count_nonzero(c < 0) % 2 else 0
    V = np.full((2, 2, n + 1, n + 1), -np.inf, dtype=w.dtype)  # [node 0, node, k1, k2]
    V[0, 0, 0, 0] = V[1, 1, 1, 0] = 0
    for k in range(1, 2 * n):
        late = np.maximum(V[:, 0], V[:, 1])
        early = np.maximum(V[:, 0], V[:, 1] + w[cycle[k - 1]])
        V = np.full_like(V, -np.inf)
        V[:, 0] = late
        if k % 2:  # site 2's settings are the odd nodes
            V[:, 1, :, 1:] = early[..., :-1]
        else:
            V[:, 1, 1:] = early[:, :-1]
    V[1, 1] += w[cycle[-1]]  # the edge that closes the cycle
    V[1, 1, n, n] -= loss
    lam = np.arange(n, -1, -1)
    late_part = np.outer(lam, lam) * (gain.sum() - loss - y[T]) / (n * n)
    return (V + late_part).max() - y[T + 1]


def _oo_best_columns(game: GameSpec, c: np.ndarray, y: np.ndarray, k: int):
    """The k best outcomes-only joint columns for a linear price.

    Joint vertex (i, j) is priced sum_t sel_t (c_t o1 o2 - y_t), with
    sel_t = det1 det2 (e1 e2 + (1 - e1)(1 - e2)) the selection of term t;
    y = c corr gives the search's insertion derivative.  The price
    separates over the site-2 settings b: undetected is worth 0, detected
    early or late with the best outcome is worth

        F_b(m) = |sum_{t: b_t = b} c_t m o1| - sum_{t: b_t = b} y_t m

    for the site-1 mask m = det1 e1 or det1 (1 - e1) at a_t.  A site-1
    vertex's best price is sum_b max(0, F_b(early mask), F_b(late mask)):
    O(8^n n) for all of them, and no (S, S) array.

    Returns the top k site-1 vertices as ``_et_best_columns`` does, each
    with its best site-2 vertex: detected only where that earns more than
    0, early on a tie, else +1 and late.
    """
    n = game.n_settings
    masks = _map_bits(np.arange(2**n), n).astype(np.float64)  # row = mask map
    signs = 1.0 - 2.0 * masks  # row = outcome map
    sums = _column_sums(game, masks[:, None, :] * signs[None, :, :], c)  # (mask, o1, b)
    gain = np.abs(sums) - _column_sums(game, masks, y)[:, None, :]
    o1, e1, det1 = np.unravel_index(np.arange(8**n), (2**n,) * 3)  # site-1 maps per row
    early, late = gain[e1 & det1, o1], gain[~e1 & det1, o1]  # (S, b)
    price = np.maximum(np.maximum(early, late), 0.0).sum(axis=1)
    k = min(k, price.size)
    top = np.argpartition(price, -k)[-k:]
    top = top[np.argsort(-price[top], kind="stable")]
    o1, e1, det1 = o1[top], e1[top], det1[top]
    is_early = early[top] >= late[top]
    detected = np.maximum(early[top], late[top]) > 0.0
    mask = np.where(is_early, (e1 & det1)[:, None], (~e1 & det1)[:, None])
    o2 = _sign_index(np.where(detected, sums[mask, o1[:, None], np.arange(n)], 0.0))
    bit = 1 << np.arange(n)
    return price[top], top, _vertex_index(n, o2, (detected & is_early) @ bit, detected @ bit)


@dataclass
class _Restart:
    """One restart of the search: its support and weights, the statistic
    at ``w``, and the LP of the column round it is climbing.

    ``A`` holds the distinct columns of the round's constraint rows, and
    ``cls`` the index among them of each support atom's column, both from
    ``_column_classes``.
    """

    idx1: np.ndarray
    idx2: np.ndarray
    w: np.ndarray
    stat: float = -math.inf
    corr: np.ndarray | None = None
    m: np.ndarray | None = None
    groups: np.ndarray | None = None
    mass: np.ndarray | None = None
    num: np.ndarray | None = None
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    cls: np.ndarray | None = None


def _column_classes(A: np.ndarray):
    """Distinct columns of ``A`` and the class of each column among them.

    One stable ``np.lexsort`` with the rows of ``A`` as keys makes equal
    columns neighbours; a change anywhere between neighbours starts a
    class.  Entries are compared by value.  Returns (distinct columns, cls):
    the columns that differ, in sorted order, and the index among them of
    each column of ``A``.
    """
    order = np.lexsort(A)
    ordered = A[:, order]
    new = np.concatenate([[True], (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)])
    cls = np.empty(order.size, dtype=np.int64)
    cls[order] = np.cumsum(new) - 1
    return ordered[:, new], cls


def _open_round(game: GameSpec, r: _Restart, signs) -> None:
    """Set up a column round's LP for restart ``r`` at its current point:
    the support's rows and numerators, the statistic at ``w``, and the
    constraint classes of ``_column_classes``."""
    r.mass, r.num, A, r.b = _support_rows(game, *_atoms(game, r.idx1, r.idx2))
    if not game.has_equal_mass_constraint:
        # pin every cell mass at the current point for this round
        A = np.vstack([r.mass.T, A])
        r.b = np.append(r.w @ r.mass, r.b)
    r.stat, r.corr, r.m, r.groups = _statistic(r.w, r.mass, r.num, signs)
    r.A, r.cls = _column_classes(A)


def _block_diagonal(As):
    """The block-diagonal CSC matrix of dense blocks with equal row counts.

    One ``np.nonzero`` over the blocks placed side by side gives the
    nonzeros' rows and columns; each block's row indices are offset by the
    rows of the blocks before it.  The indices are int32, as scipy's own
    sparse constructors pick at these sizes: int64 ones are copied again on
    their way into HiGHS, which raises the solve's peak memory.
    """
    from scipy.sparse import csc_array

    side_by_side = np.hstack(As)
    rows, cols = side_by_side.shape
    row, col = np.nonzero(side_by_side)
    data = side_by_side[row, col]
    row += rows * np.repeat(np.arange(len(As)), [A.shape[1] for A in As])[col]
    return csc_array(
        (data, (row.astype(np.int32), col.astype(np.int32))), shape=(rows * len(As), cols)
    )


def _stacked_lp(objs, As, bs) -> list[np.ndarray]:
    """Maximize every ``objs[k] @ x`` over {As[k] x = bs[k], x >= 0} in one LP.

    The blocks share no variable and no row, so the stacked LP is separable
    (Dantzig and Wolfe, 1960): its optimum restricted to each block is that
    block's optimum, and one solve serves every block.  Every block has the
    same number of rows, and ``A_eq`` is their ``_block_diagonal``, built
    before the solve so that its dense scratch is freed by then.  Returns
    the solution split back by block; a failed solve raises RuntimeError.
    """
    from scipy.optimize import linprog

    res = linprog(
        -np.concatenate(objs),
        A_eq=_block_diagonal(As),
        b_eq=np.concatenate(bs),
        bounds=(0.0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"successive-LP step failed: {res.message}")
    return np.split(res.x, np.cumsum([o.size for o in objs[:-1]]))


def _lp_step(restarts: list[_Restart], signs) -> list[np.ndarray]:
    """One successive-LP step of every restart, in one stacked LP.

    Each restart maximizes the linear objective of its current sign pattern
    over its round's feasible set.  Two atoms with the same constraint
    column are alike in every row, so moving weight from one to the other
    keeps the LP feasible, and moving it to the one of larger objective
    does not lower the objective.  The LP over one atom of largest
    objective per constraint column, the first in support order, thus has
    the whole support's optimum, and its constraint matrix is ``r.A``
    itself.  Returns each restart's new weights over its whole support.
    """
    objs, keeps = [], []
    for r in restarts:
        obj = r.num @ _pattern_coef(signs, r.m, r.groups)
        # by class, largest objective first, ties in support order
        by_class = np.lexsort((-obj, r.cls))
        keep = by_class[np.flatnonzero(np.diff(r.cls[by_class], prepend=-1))]
        objs.append(obj[keep])
        keeps.append(keep)
    xs = _stacked_lp(objs, [r.A for r in restarts], [r.b for r in restarts])
    ws = []
    for r, keep, x in zip(restarts, keeps, xs):
        w = np.zeros(r.w.size)
        w[keep] = x
        ws.append(w)
    return ws


def _climb_in_lockstep(restarts: list[_Restart], signs, iterations: int) -> None:
    """Successive LP for every restart at once, each from a feasible ``w``.

    The rows of a restart's ``A`` hold every cell mass fixed, so its
    statistic is at least the linear objective of its current sign pattern,
    with equality at ``w``.  Each step maximizes that objective for every
    climbing restart (``_lp_step``).  A restart takes the step only while
    its statistic rises; a step that keeps its sign pattern ends its climb,
    because its next LP would be the same one.  At most ``iterations``
    steps.
    """
    climbing = restarts
    for _ in range(iterations):
        if not climbing:
            break
        patterns = [r.groups >= 0.0 for r in climbing]
        still = []
        for r, w, pattern in zip(climbing, _lp_step(climbing, signs), patterns):
            trial = _statistic(w, r.mass, r.num, signs)
            if trial[0] <= r.stat + 1e-12:
                continue
            r.w = w
            r.stat, r.corr, r.m, r.groups = trial
            if not np.array_equal(r.groups >= 0.0, pattern):
                still.append(r)
        climbing = still


def _add_columns(game: GameSpec, r: _Restart, signs) -> bool:
    """Column generation for one restart: pull in the joint vertices with
    the largest insertion derivative.  False when none has a positive price
    or every priced one is already in the support: the restart is done."""
    coef = _pattern_coef(signs, r.m, r.groups)
    d = coef * r.corr
    if game.has_equal_mass_constraint:
        price, top1, top2 = _et_best_columns(
            game, coef, np.append(d, [d.sum(), 0.0]), _COLUMN_WINDOW
        )
    else:
        price, top1, top2 = _oo_best_columns(game, coef, d, _COLUMN_WINDOW)
    if price[0] <= _PRICE_TOLERANCE:
        return False  # no column raises the statistic to first order
    taken = set(zip(r.idx1.tolist(), r.idx2.tolist()))
    new = [ij for ij in zip(top1.tolist(), top2.tolist()) if ij not in taken]
    if not new:
        return False
    new1, new2 = np.array(new[:_COLUMNS_PER_ROUND], dtype=np.int64).T
    r.idx1 = np.concatenate([r.idx1, new1])
    r.idx2 = np.concatenate([r.idx2, new2])
    r.w = np.concatenate([r.w, np.zeros(new1.size)])
    return True


def max_statistic(game: GameSpec, budget: OptimizerBudget | None = None) -> MaxStatisticResult:
    """Largest statistic found within the class, with a witness mixture.

    Exact for plain local realism and path realism (``_linear_closed_form``),
    which raise ResourceLimitError beyond 126 and 124 terms (``_side_size``).
    Else a multi-start successive-LP search with column rounds.  Each round's LP
    steps keep every cell mass fixed: at 1/2 by the equal-mass constraints
    of emission-time realism, at the round's starting masses under
    outcomes-only selection.  A column round adds the joint vertices of
    largest insertion derivative from the game's structured oracle,
    ``_et_best_columns`` or ``_oo_best_columns``, which open both games up
    to 12 terms.  A larger game, or a budget whose supports could outgrow
    ``_SEARCH_ATOM_LIMIT`` atoms, raises ResourceLimitError from the one
    check ``_check_search_size``, before any support is drawn.  Without a
    budget the search runs at ``OptimizerBudget()``.  A restart ends
    after its last round, or earlier once no column has a positive price
    (above 1e-12).  The restarts advance through the rounds in lockstep:
    each LP step is one stacked LP over every restart still climbing
    (``_lp_step``), and ``iterations`` still caps the steps of each restart
    per round.  Each restart draws its support from its own generator,
    seeded in turn from ``seed``, and gets the same LP values as a solve of
    its own; only the choice among optimal vertices of a degenerate LP can
    differ.  Every restart runs to completion, and the first restart with
    the largest value gives the witness.  A failed LP step raises
    RuntimeError.
    """
    kind = game.model.kind
    if kind in (ModelKind.PLAIN_LOCAL_REALISM, ModelKind.PATH_REALISM):
        return _linear_closed_form(game)
    if kind.takes_efficiency:
        raise ValueError(
            f"{kind.value} has no finite-settings game here; its bound is "
            "analytic in the efficiency (see bound_for)"
        )
    budget = budget or OptimizerBudget()
    _check_search_size(game, budget)
    _, _, signs = game.cells
    rng_master = np.random.default_rng(budget.seed)
    restarts = [
        _Restart(*_restart_support(game, np.random.default_rng(seed)))
        for seed in rng_master.integers(2**63, size=budget.restarts)
    ]
    # restarts still in their column rounds, climbing in lockstep
    open_restarts = restarts
    for round_no in range(_COLUMN_ROUNDS + 1):
        for r in open_restarts:
            _open_round(game, r, signs)
        _climb_in_lockstep(open_restarts, signs, budget.iterations)
        if round_no < _COLUMN_ROUNDS:
            open_restarts = [r for r in open_restarts if _add_columns(game, r, signs)]
    best_value = -math.inf
    best_support = None
    for r in restarts:
        if np.all(r.m > MIN_CELL_MASS) and r.stat > best_value:
            best_value = r.stat
            keep = r.w > 0.0
            best_support = (r.idx1[keep], r.idx2[keep], r.w[keep])
    if best_support is None:
        raise RuntimeError("optimizer found no feasible mixture; raise the budget")
    witness = _witness(game, *best_support)
    notes = "multi-start successive LP over mixture weights"
    if game.has_equal_mass_constraint:
        notes += "; " + EMISSION_TIME_NOTE
    return MaxStatisticResult(
        value=float(best_value),
        witness=witness,
        exact=False,
        restarts_used=budget.restarts,
        method="successive-lp",
        notes=notes,
    )


# ---------------------------------------------------------------------------
# the emission-time game's LP, solved in closed form


def _et_witness(game: GameSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An optimal emission-time mixture in closed form: terms + 2 atoms.

    Weights are integer counts over their sum, 8(n - 1):
    - one atom per setting, count 1: its site is early except at that
      setting, the other site all early;
    - both sites all late, late outcomes all +1, count 2(n - 1);
    - site 1 all early against site 2 all late, count 2(2n - 3), which
      enters no row but the simplex sum.
    Only the all-late atom has late-late mass.  A single-late atom's
    early-early terms are the setting cycle without its late setting's
    node, a path, so outcome maps meeting o1 o2 = s_t on each of them
    exist: the sign prefixes of the chain's walk (``SettingsChain.cycle``)
    meet every term but the last one walked, and negating the nodes
    walked before the late one moves that term onto an edge of the late
    node.  Every cell then has early-early mass 2(n - 1) / 8(n - 1) = 1/4
    and late-late mass 1/4, so corr_t = (1 + s_t) / 2 and the statistic
    is terms - 1 under any grouping: y.b of the closed-form duals.  Returns (site-1 rows,
    site-2 rows, counts), the rows as ``_side_arrays`` lays them out.
    """
    n = game.n_settings
    a_idx, b_idx, signs = game.cells
    cycle = np.array(game.chain.cycle)
    k = np.arange(2 * n)
    # the cycle's settings as nodes, site 1's then site 2's, in walk order,
    # each with the product of the signs of the terms walked before it
    walk = np.where(k % 2, n + b_idx[cycle], a_idx[cycle])
    prefix = np.cumprod(np.append(1.0, signs[cycle][:-1]))
    outcomes = np.empty((2 * n, 2 * n), dtype=np.int64)  # [late node, node]
    outcomes[np.ix_(walk, walk)] = np.where(k < k[:, None], -1, 1) * prefix
    every = 2**n - 1
    late_at = every ^ (1 << np.arange(n, dtype=np.int64))
    all_early = np.full(n, every)
    rows1 = _vertex_index(n, _sign_index(outcomes[:, :n]), 0, np.append(late_at, all_early))
    rows2 = _vertex_index(n, _sign_index(outcomes[:, n:]), 0, np.append(all_early, late_at))
    return (
        np.append(rows1, [0, _vertex_index(n, 0, 0, every)]),
        np.append(rows2, [0, 0]),
        np.array([1] * (2 * n) + [2 * (n - 1), 2 * (2 * n - 3)], dtype=np.int64),
    )


def emission_time_lp_value(game: GameSpec, solution: bool = False):
    """Exact in-game maximum of the emission-time statistic, in closed form.

    On the equal-mass manifold every cell mass equals 1/(2 n^2), so each
    absolute-value sign pattern turns the statistic into a linear
    functional of the mixture, and the game value is the largest of the
    patterns' LP optima.  One LP, the all-+1 pattern, has that value.
    Negating site-1 setting k's outcome maps, early and late, in every
    vertex maps vertices one-to-one onto vertices, keeps every arrival map
    (so every mass and constraint row) and negates the two terms that use
    setting k.  Flipping a set of settings thus negates the terms that
    cross it: a cut of the setting graph, whose nodes are the settings and
    whose edges are the terms.  ``SettingsChain`` requires that graph to
    be one cycle, and the cuts of a cycle are its even-size edge sets.  A
    union of groups has even size, so every pattern becomes the all-+1
    pattern under some flip, with the same LP value.

    That LP is solved by a matching primal and dual, both closed forms,
    so no solver runs.  The equality duals are 2 on each early-early row,
    2(terms - 2) on the late-late row and 0 on the simplex row, so
    y.b = terms - 1: each early-early part of a correlation is at most
    its mass, and the late-late part is a plain local-realist chained
    sum, at most terms - 2, times lam1 lam2 >= 0.  They give the
    ``DualCertificate``: the cycle DP ``_et_best_price``, priced at y,
    finds the largest reduced profit over every joint vertex in
    O(terms n^2), a sum of small integers that is exactly 0 when the
    bound holds.  The primal is ``_et_witness``'s terms + 2 atoms,
    whose objective and constraint
    residual come from the search's own row builder, ``_support_rows``.
    The certificate closes when the profit is at most
    ``PROFIT_TOLERANCE``, the residual at most ``CONSTRAINT_TOLERANCE``
    and the witness's objective within ``WITNESS_TOLERANCE`` of y.b; the
    value is then y.b, else the witness's objective.

    Returns the value; with ``solution``, a ``MaxStatisticResult`` of
    method "lp" instead, exact when the certificate closes, whose witness
    is ``_et_witness``'s mixture.  The result is asked for by flag, not
    built by a separate helper, because ``verify_bound`` must reach the
    exact answer through this module-level name, which ``bench/spans.py``
    wraps as its ``strategyopt.lp`` span; the float return stays for the
    public API and the criterion tests.

    Beyond 42 terms the witness's site rows outgrow int64 and
    ``_side_size`` raises ResourceLimitError.  Independent of the
    successive-LP search, which solves only its restart's support under
    the sign pattern it climbs.
    """
    if game.model.kind is not ModelKind.EMISSION_TIME_REALISM:
        raise ValueError("the LP cross-check applies to the emission-time game")
    _, _, signs = game.cells
    terms = game.chain.terms
    # the all-+1 pattern; corr_t = 2 * (early part + late part) once masses are pinned
    coef = 2.0 * signs
    i, j, counts = _et_witness(game)
    w = counts / counts.sum()
    _, num, A_eq, b_eq = _support_rows(game, *_atoms(game, i, j))
    primal_value = float(w @ num @ coef)
    residual = float(np.max(np.abs(A_eq @ w - b_eq)))
    # the closed-form duals: early-early rows, late-late row, simplex row
    y = np.array([2.0] * terms + [2.0 * (terms - 2), 0.0])
    dual_value = float(y @ b_eq)
    profit = _et_best_price(game, coef, y)
    certificate = DualCertificate(
        duals=tuple(float(v) for v in y),
        dual_value=dual_value,
        largest_profit=float(profit),
        closed=bool(
            profit <= PROFIT_TOLERANCE
            and residual <= CONSTRAINT_TOLERANCE
            and abs(primal_value - dual_value) <= WITNESS_TOLERANCE
        ),
    )
    value = dual_value if certificate.closed else primal_value
    if not solution:
        return value
    return MaxStatisticResult(
        value=value,
        witness=_witness(game, i, j, counts),
        exact=certificate.closed,
        restarts_used=0,
        method="lp",
        notes=(
            "closed-form LP: a mixture of terms + 2 atoms meets the integer "
            "duals, whose certificate bounds every joint vertex; "
            + EMISSION_TIME_NOTE
        ),
        certificate=certificate,
    )


# ---------------------------------------------------------------------------
# bound verification reports


@dataclass(frozen=True)
class SearchReport:
    """The successive-LP search's best value against the bound."""

    best_value: float
    margin: float
    passed: bool
    restarts: int
    notes: str

    def to_json_dict(self) -> dict:
        return {
            "method": "successive-lp",
            "best_value": self.best_value,
            "margin": self.margin,
            "passed": self.passed,
            "restarts": self.restarts,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking a class bound against its exact maximum, and
    against the search when one ran."""

    model: ModelClass
    terms: int
    bound: float
    method: str
    best_value: float
    margin: float
    passed: bool
    exact: bool
    notes: str
    lp_value: float | None = None
    certificate: DualCertificate | None = None
    search: SearchReport | None = None
    witness: MixedStrategy | None = field(default=None, compare=False)

    def to_json_dict(self, include_witness: bool = True) -> dict:
        d = {
            "model": self.model.to_json_dict(),
            "terms": self.terms,
            "bound": self.bound,
            "method": self.method,
            "best_value": self.best_value,
            "margin": self.margin,
            "passed": self.passed,
            "exact": self.exact,
            "notes": self.notes,
            "lp_value": self.lp_value,
            "certificate": None if self.certificate is None else self.certificate.to_json_dict(),
            "search": None if self.search is None else self.search.to_json_dict(),
        }
        if include_witness and self.witness is not None:
            d["witness"] = self.witness.to_json_dict()
        return d


# the classes with a ratio-form statistic, which the search plays
_SEARCHED = (ModelKind.EMISSION_TIME_REALISM, ModelKind.OUTCOMES_ONLY)


def _exact_answer(game: GameSpec) -> MaxStatisticResult:
    """The class's exact maximum by its cheapest exact method."""
    kind = game.model.kind
    if kind is ModelKind.EMISSION_TIME_REALISM:
        return emission_time_lp_value(game, solution=True)
    if kind is ModelKind.OUTCOMES_ONLY:
        return _outcomes_only_closed_form(game)
    return max_statistic(game)  # plain and path realism's closed form; refuses the rest


def verify_bound(
    game: GameSpec, budget: OptimizerBudget | None = None, lp_check: bool = False
) -> BoundReport:
    """Check the class's bound against its exact maximum and report PASS/FAIL.

    PASS means the value does not exceed the closed-form bound beyond a
    1e-6 numerical allowance.  ``method`` names the exact method:
    "exact-maximum" (plain and path realism), "lp" (the emission-time
    game, with its dual ``certificate``; exact when the certificate
    closes) or "closed-form" (outcomes-only selection).  The witness is
    re-checked by ``evaluate_mixed``: unless it is feasible with a
    statistic within 1e-9 of the value, RuntimeError.

    With a ``budget`` the successive-LP search (``max_statistic``) also
    runs, on the emission-time and outcomes-only games only, and reports
    under ``search``; ``passed`` then needs both to pass.  With
    ``lp_check`` the emission-time report states the LP's value as
    ``lp_value`` too; its closed form is computed once either way, and
    only the search loads scipy.  An LP check or a
    budget outside its classes, or a 4-term-only bound on a longer chain,
    raises ValueError before any work; an oversized game or budget raises
    ResourceLimitError, the search's before the LP.
    """
    bound = bound_for(game.model, game.chain.terms)
    kind = game.model.kind
    if lp_check and not game.has_equal_mass_constraint:
        raise ValueError("the LP cross-check applies to the emission-time game")
    if budget is not None and kind not in _SEARCHED:
        raise ValueError(
            "the search applies to the emission-time and outcomes-only games; "
            f"{kind.value} is solved exactly without one"
        )
    search = None
    if budget is not None:
        found = max_statistic(game, budget)
        search = SearchReport(
            best_value=found.value,
            margin=bound - found.value,
            passed=found.value <= bound + PASS_TOLERANCE,
            restarts=found.restarts_used,
            notes=found.notes,
        )
    result = _exact_answer(game)
    check = evaluate_mixed(game, result.witness)
    if not (check.feasible and abs(check.statistic - result.value) <= WITNESS_TOLERANCE):
        raise RuntimeError(
            f"the {result.method} witness fails its re-check: feasible "
            f"{check.feasible}, statistic {check.statistic!r} against {result.value!r}"
        )
    best = result.value
    passed = best <= bound + PASS_TOLERANCE
    return BoundReport(
        model=game.model,
        terms=game.chain.terms,
        bound=bound,
        method=result.method,
        best_value=best,
        margin=bound - best,
        passed=passed and (search is None or search.passed),
        exact=result.exact,
        notes=result.notes,
        lp_value=best if lp_check else None,
        certificate=result.certificate,
        search=search,
        witness=result.witness,
    )


# ---------------------------------------------------------------------------
# the delay-based local model as a finite-game witness


# theta panels of ``aklz_mixed_strategy``: a uniform base grid of this many
# cells, split at the breakpoints, with this many Gauss nodes per panel
_AKLZ_BASE_CELLS = 512
_AKLZ_ORDER = 16


def aklz_mixed_strategy(chain: SettingsChain) -> MixedStrategy:
    """Project the delay-based local model onto the finite game of a chain.

    For fixed theta the model's response maps over the chain's settings are
    piecewise constant in r with analytically known breakpoints, and the
    maps themselves change only at finitely many theta values; integrating
    panel by panel gives the exact mixture weights over deterministic
    vertices.  The induced mixture is a feasible point of the
    outcomes-only game and reproduces the model's statistic.
    """
    from ._gauss import panel_nodes

    a = [s.phase for s in chain.site1_settings]
    b = [s.phase for s in chain.site2_settings]
    n = len(a)
    breaks: list[float] = []
    for ph in a:
        breaks += [math.pi / 2 - ph, 3 * math.pi / 2 - ph]
    for ps in b:
        breaks += [ps + math.pi / 2, ps + 3 * math.pi / 2]
    for i in range(n):
        for j in range(i + 1, n):
            base = -(a[i] + a[j]) / 2.0
            breaks += [base + k * math.pi / 2.0 for k in range(4)]
    nodes, wts = panel_nodes(breaks, n_base=_AKLZ_BASE_CELLS, order=_AKLZ_ORDER)
    # panel boundaries: recover panels from the node layout
    panels = nodes.reshape(-1, _AKLZ_ORDER)
    pwts = wts.reshape(-1, _AKLZ_ORDER)
    acc: dict[tuple, float] = {}
    for p in range(panels.shape[0]):
        th = panels[p]
        ww = pwts[p]
        mid = float(th[_AKLZ_ORDER // 2])
        o1 = tuple(1 if math.cos(mid + ph) >= 0 else -1 for ph in a)
        o2 = tuple(1 if math.cos(mid - ps) >= 0 else -1 for ps in b)
        t = np.stack([(np.pi / 8.0) * np.abs(np.cos(th + ph)) for ph in a])  # (n, _AKLZ_ORDER)
        t_mid = t[:, _AKLZ_ORDER // 2]
        perm = np.argsort(t_mid, kind="stable")
        t_sorted = t[perm]  # ascending thresholds along each node
        edges = np.vstack([np.zeros(_AKLZ_ORDER), t_sorted, np.full(_AKLZ_ORDER, 0.5)])
        lengths = np.diff(edges, axis=0)  # (n+1, _AKLZ_ORDER)
        for k in range(n + 1):
            weight = float((lengths[k] * ww).sum()) / TWO_PI
            if weight <= 0.0:
                continue
            # in [T_(k-1), T_(k)) the k smallest thresholds have lapsed:
            # first half of r, those settings arrive late; second half
            # mirrors, they arrive early
            lapsed = frozenset(perm[:k].tolist())
            d1_half1 = tuple(i not in lapsed for i in range(n))
            d1_half2 = tuple(i in lapsed for i in range(n))
            key1 = (o1, o2, d1_half1, True)
            key2 = (o1, o2, d1_half2, False)
            acc[key1] = acc.get(key1, 0.0) + weight
            acc[key2] = acc.get(key2, 0.0) + weight
    total = sum(acc.values())
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"vertex measures sum to {total}, expected 1")
    vertices = []
    weights = []
    all_true = tuple(True for _ in range(n))
    for (o1, o2, d1, d2_early), wgt in sorted(acc.items()):
        vertices.append(
            DeterministicVertex(
                site1=SiteVertex(outcomes=o1, early=d1, detected=all_true),
                site2=SiteVertex(
                    outcomes=o2,
                    early=tuple(d2_early for _ in range(n)),
                    detected=all_true,
                ),
            )
        )
        weights.append(wgt / total)
    return MixedStrategy(vertices=tuple(vertices), weights=tuple(weights))

