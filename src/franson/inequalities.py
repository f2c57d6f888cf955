"""Bell statistics, model-class bounds, and violation verdicts.

A CorrelationTable holds per-setting-pair coincident correlation estimates;
chained_statistic folds them through a SettingsChain; bound_for supplies the
local-model bound appropriate to a declared model class; evaluate wraps the
comparison in a Verdict with propagated uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import Setting, SettingsChain, setting_key

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CellEstimate:
    """One coincident-correlation estimate.

    ``count`` is the number of coincident pairs behind the estimate; zero
    means the value is exact (analytic) and carries no sampling error.
    ``product_sum`` is the integer sum of outcome products behind an
    empirical estimate (0 for an exact one), so merged blocks stay exact.
    """

    estimate: float
    count: int = 0
    stderr: float = 0.0
    product_sum: int = 0

    def __post_init__(self) -> None:
        if not (-1.0 <= self.estimate <= 1.0):
            raise ValueError(f"correlation estimate out of [-1, 1]: {self.estimate}")
        if self.count < 0 or self.stderr < 0.0:
            raise ValueError("count and stderr must be nonnegative")


def binomial_stderr(estimate: float, count: int) -> float:
    """Standard error of a +-1 product mean: sqrt((1 - e^2) / n)."""
    if count <= 0:
        return 0.0
    return math.sqrt(max(0.0, 1.0 - estimate * estimate) / count)


class CorrelationTable:
    """Coincident correlation estimates keyed by (site-1, site-2) setting."""

    def __init__(self) -> None:
        self._cells: dict[tuple[int, int], CellEstimate] = {}
        self._phases: dict[tuple[int, int], tuple[float, float]] = {}

    @staticmethod
    def _phase_pair(phi: float | Setting, psi: float | Setting) -> tuple[float, float]:
        """The two phases as floats, given as Setting objects or numbers."""
        return tuple(s.phase if isinstance(s, Setting) else float(s) for s in (phi, psi))

    @classmethod
    def _key(cls, phi: float | Setting, psi: float | Setting) -> tuple[int, int]:
        p, q = cls._phase_pair(phi, psi)
        return setting_key(p), setting_key(q)

    def set_exact(self, phi: float | Setting, psi: float | Setting, value: float) -> None:
        """Record an analytic correlation (no sampling error)."""
        k = self._key(phi, psi)
        self._cells[k] = CellEstimate(value, 0, 0.0)
        self._phases[k] = self._phase_pair(phi, psi)

    def set_counts(
        self, phi: float | Setting, psi: float | Setting, product_sum: int, count: int
    ) -> None:
        """Record an empirical estimate from coincident outcome products."""
        if count <= 0:
            raise ValueError("empirical cells need a positive coincidence count")
        est = product_sum / count
        k = self._key(phi, psi)
        self._cells[k] = CellEstimate(est, count, binomial_stderr(est, count), product_sum)
        self._phases[k] = self._phase_pair(phi, psi)

    def cell(self, phi: float | Setting, psi: float | Setting) -> CellEstimate:
        k = self._key(phi, psi)
        if k not in self._cells:
            raise KeyError(f"no correlation recorded for settings ({phi}, {psi})")
        return self._cells[k]

    def has(self, phi: float | Setting, psi: float | Setting) -> bool:
        return self._key(phi, psi) in self._cells

    def items(self):
        for k, cell in self._cells.items():
            yield self._phases[k], cell

    def to_json_dict(self) -> dict:
        rows = []
        for (phi, psi), cell in sorted(self.items()):
            rows.append(
                {
                    "phi_rad": phi,
                    "psi_rad": psi,
                    "estimate": cell.estimate,
                    "count": cell.count,
                    "stderr": cell.stderr,
                }
            )
        return {"cells": rows}


# ---------------------------------------------------------------------------
# model classes and bounds


class ModelKind(Enum):
    """Families of local realist models ordered by what they treat as real."""

    PLAIN_LOCAL_REALISM = "plain-local-realism"
    INEFFICIENCY = "inefficiency"
    DELAYS = "delays"
    PATH_REALISM = "path-realism"
    EMISSION_TIME_REALISM = "emission-time-realism"
    OUTCOMES_ONLY = "outcomes-only"

    @property
    def takes_efficiency(self) -> bool:
        """Whether the class's bound depends on a detection efficiency."""
        return self in _KINDS_WITH_ETA

    @property
    def four_term_only(self) -> bool:
        """Whether the class's bound is defined for the 4-term statistic only."""
        return self in _CHSH_ONLY


_KINDS_WITH_ETA = {ModelKind.INEFFICIENCY, ModelKind.DELAYS}
# classes whose bound is only defined for the 4-term statistic
_CHSH_ONLY = {ModelKind.INEFFICIENCY, ModelKind.DELAYS}


@dataclass(frozen=True)
class ModelClass:
    """A model family tag, with the postselection efficiency where relevant."""

    kind: ModelKind
    eta: float | None = None

    def __post_init__(self) -> None:
        if self.kind.takes_efficiency:
            if self.eta is None or not (0.0 < self.eta <= 1.0):
                raise ValueError(f"{self.kind.value} requires an efficiency in (0, 1]")
        elif self.eta is not None:
            raise ValueError(f"{self.kind.value} does not take an efficiency")

    @classmethod
    def plain_local_realism(cls) -> "ModelClass":
        return cls(ModelKind.PLAIN_LOCAL_REALISM)

    @classmethod
    def inefficiency(cls, eta: float) -> "ModelClass":
        return cls(ModelKind.INEFFICIENCY, float(eta))

    @classmethod
    def delays(cls, eta: float) -> "ModelClass":
        return cls(ModelKind.DELAYS, float(eta))

    @classmethod
    def path_realism(cls) -> "ModelClass":
        return cls(ModelKind.PATH_REALISM)

    @classmethod
    def emission_time_realism(cls) -> "ModelClass":
        return cls(ModelKind.EMISSION_TIME_REALISM)

    @classmethod
    def outcomes_only(cls) -> "ModelClass":
        return cls(ModelKind.OUTCOMES_ONLY)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind.value, "eta": self.eta}


def bound_for(model: ModelClass, terms: int) -> float:
    """Largest chained-statistic value reachable by the model class.

    Plain local realism: terms - 2.  Detection inefficiency eta (4 terms):
    4/eta - 2.  Setting-dependent delays with efficiency eta (4 terms):
    6/eta - 4.  Path realism: terms - 2 too, since a path fixed before the
    settings act makes the coincidence selection setting-independent.
    Emission-time realism with equal early/late coincidence mass:
    terms - 1.  Outcomes treated as the only elements of reality: the
    algebraic maximum, terms.  Bounds above the algebraic maximum are
    clipped to it.
    """
    if terms < 4 or terms % 2 != 0:
        raise ValueError(f"terms must be an even number >= 4, got {terms}")
    if model.kind.four_term_only and terms != 4:
        raise ValueError(f"{model.kind.value} bound is defined for 4 terms only")
    if model.kind in (ModelKind.PLAIN_LOCAL_REALISM, ModelKind.PATH_REALISM):
        raw = terms - 2.0
    elif model.kind is ModelKind.INEFFICIENCY:
        raw = 4.0 / model.eta - 2.0
    elif model.kind is ModelKind.DELAYS:
        raw = 6.0 / model.eta - 4.0
    elif model.kind is ModelKind.EMISSION_TIME_REALISM:
        raw = terms - 1.0
    elif model.kind is ModelKind.OUTCOMES_ONLY:
        raw = float(terms)
    else:  # pragma: no cover
        raise ValueError(f"unknown model kind {model.kind}")
    return min(raw, float(terms))


def threshold_efficiency(kind: ModelKind) -> float:
    """Efficiency at which the class bound meets the 4-term quantum value.

    Solves bound(eta) = 2*sqrt(2): inefficiency gives eta = 2*(sqrt(2)-1),
    about 82.84 percent; setting-dependent delays give eta = 3 - 3/sqrt(2),
    about 87.87 percent.
    """
    if kind is ModelKind.INEFFICIENCY:
        return 2.0 * (SQRT2 - 1.0)
    if kind is ModelKind.DELAYS:
        return 3.0 - 3.0 / SQRT2
    raise ValueError(f"{kind.value} has no efficiency threshold")


def critical_visibility(terms: int) -> float:
    """Visibility above which the chained statistic exceeds the
    emission-time-realism bound: (terms - 1) / (terms * cos(pi/terms)).

    Values above 1 mean the test cannot discriminate at that term count.
    """
    if terms < 4 or terms % 2 != 0:
        raise ValueError(f"terms must be an even number >= 4, got {terms}")
    return (terms - 1.0) / (terms * math.cos(math.pi / terms))


# ---------------------------------------------------------------------------
# statistics and verdicts


def chained_statistic(table: CorrelationTable, chain: SettingsChain) -> float:
    """Sum over groups of |signed sums| of the chain's correlation terms."""
    total = 0.0
    for group in chain.groups:
        acc = 0.0
        for i, j, sign in group:
            cell = table.cell(chain.site1_settings[i], chain.site2_settings[j])
            acc += sign * cell.estimate
        total += abs(acc)
    return total


def statistic_stderr(table: CorrelationTable, chain: SettingsChain) -> float:
    """Quadrature-propagated standard error of the chained statistic."""
    var = 0.0
    for i, j, _ in chain.term_order:
        cell = table.cell(chain.site1_settings[i], chain.site2_settings[j])
        var += cell.stderr**2
    return math.sqrt(var)


@dataclass(frozen=True)
class Verdict:
    """Outcome of comparing a measured statistic to a model-class bound."""

    model: ModelClass
    terms: int
    statistic: float
    bound: float
    excess: float
    stderr: float
    significance: float | None
    violated: bool

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.to_json_dict(),
            "terms": self.terms,
            "statistic": self.statistic,
            "bound": self.bound,
            "excess": self.excess,
            "stderr": self.stderr,
            "significance": self.significance,
            "violated": self.violated,
        }


def evaluate(table: CorrelationTable, chain: SettingsChain, model: ModelClass) -> Verdict:
    """Compare the chained statistic on ``table`` with the model bound.

    ``violated`` is strict: any positive excess counts.  Significance is
    excess over the propagated standard error.  With an exact table
    (stderr 0) it is None, which reports print as null: the ratio has no
    finite value, and its sign is already carried by ``excess``.
    """
    stat = chained_statistic(table, chain)
    bound = bound_for(model, chain.terms)
    excess = stat - bound
    se = statistic_stderr(table, chain)
    return Verdict(
        model=model,
        terms=chain.terms,
        statistic=stat,
        bound=bound,
        excess=excess,
        stderr=se,
        significance=excess / se if se > 0.0 else None,
        violated=excess > 0.0,
    )
