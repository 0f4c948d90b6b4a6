"""Incentive and adoption arithmetic for attested replication checking.

Three pieces, all pure functions:

* Author compliance: an author with a manipulated package is published with
  probability 1-d and sanctioned with probability d, so manipulating pays
  B(1-d) - d*S. Compliance holds iff d*S >= B(1-d), i.e. S >= B(1-d)/d.
  Manual review detects with d = p*pi; attested execution detects with
  d = 1-epsilon, epsilon being the chance of a successful hardware exploit.
* Journal adoption: manual review costs c_J per submission; attestation
  costs c_A per accepted paper, i.e. c_A*alpha per submission. Adoption is
  strictly cheaper iff c_A*alpha < c_J, equivalently alpha < c_J/c_A. The
  number of submissions scales both sides alike, so it is not an input.
* Certification stringency: a journal picks detection stringency v in [0,1]
  at convex cost C(v) = k*v^m (k > 0, m > 1) against linear benefit b*v.
  The interior optimum solves C'(v) = b. Attestation offers v = 1 at flat
  cost c_A, which wins whenever c_A < C(1).

Compliance and stringency work in floats (payoffs in utils); adoption and
the cost table use exact Decimal at 4 places so dollar figures never drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from typing import Sequence

_CENTS4 = Decimal("0.0001")


class Regime(Enum):
    MANUAL = "manual"
    TEE = "tee"


def _as_decimal(value: Decimal | str | int | float) -> Decimal:
    # str() round-trips floats at shortest repr, so Decimal("1.57") == _as_decimal(1.57)
    return value if isinstance(value, Decimal) else Decimal(str(value))


def _quantize(value: Decimal) -> Decimal:
    return value.quantize(_CENTS4, rounding=ROUND_HALF_UP)


@dataclass(frozen=True)
class ComplianceParams:
    """Author-side payoff parameters, all in utils / probabilities."""

    publication_value: float
    sanction: float
    scrutiny_probability: float
    catch_probability: float
    exploit_probability: float

    def __post_init__(self) -> None:
        if self.publication_value <= 0:
            raise ValueError("publication_value must be > 0")
        if self.sanction <= 0:
            raise ValueError("sanction must be > 0")
        for name in ("scrutiny_probability", "catch_probability", "exploit_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    def detection(self, regime: Regime) -> float:
        if regime is Regime.MANUAL:
            return self.scrutiny_probability * self.catch_probability
        return 1.0 - self.exploit_probability


def manipulate_payoff(params: ComplianceParams, d: float) -> float:
    """Expected payoff of submitting a manipulated package at detection d."""
    if not 0.0 <= d <= 1.0:
        raise ValueError("d must be in [0, 1]")
    return params.publication_value * (1.0 - d) - d * params.sanction


def min_sanction(publication_value: float, d: float) -> float:
    """Smallest sanction that deters manipulation at detection probability d.

    Returns ``math.inf`` when d = 0: no finite sanction deters an author
    who is never caught.
    """
    if publication_value <= 0:
        raise ValueError("publication_value must be > 0")
    if not 0.0 <= d <= 1.0:
        raise ValueError("d must be in [0, 1]")
    if d == 0.0:
        return math.inf
    return publication_value * (1.0 - d) / d


def complies(params: ComplianceParams, regime: Regime) -> bool:
    """Whether the author's best response is an honest package.

    Weak inequality: at the exact threshold the author complies. Computed
    through the same expression as ``min_sanction`` so the two never
    disagree at the boundary.
    """
    return params.sanction >= min_sanction(params.publication_value, params.detection(regime))


@dataclass(frozen=True)
class AdoptionParams:
    """Journal-side costs: attested run per accepted paper vs manual per submission."""

    tee_cost_per_accepted: Decimal
    manual_cost_per_submission: Decimal
    acceptance_rate: Decimal

    def __init__(
        self,
        tee_cost_per_accepted: Decimal | str | int | float,
        manual_cost_per_submission: Decimal | str | int | float,
        acceptance_rate: Decimal | str | int | float,
    ) -> None:
        object.__setattr__(self, "tee_cost_per_accepted", _as_decimal(tee_cost_per_accepted))
        object.__setattr__(self, "manual_cost_per_submission", _as_decimal(manual_cost_per_submission))
        object.__setattr__(self, "acceptance_rate", _as_decimal(acceptance_rate))
        if self.tee_cost_per_accepted <= 0 or self.manual_cost_per_submission <= 0:
            raise ValueError("costs must be positive")
        if not Decimal(0) < self.acceptance_rate <= Decimal(1):
            raise ValueError("acceptance_rate must be in (0, 1]")


@dataclass(frozen=True)
class AdoptionResult:
    tee_cost_per_submission: Decimal
    ratio: Decimal
    adopts: bool
    alpha_bound: Decimal

    def to_dict(self) -> dict:
        return {
            "tee_cost_per_submission": str(self.tee_cost_per_submission),
            "ratio": str(self.ratio),
            "adopts": self.adopts,
            "alpha_bound": str(self.alpha_bound),
        }


def adoption(params: AdoptionParams) -> AdoptionResult:
    """Evaluate the adoption condition c_A * alpha < c_J.

    Strict inequality: at exact cost parity the journal has no reason to
    switch.
    """
    per_submission = params.tee_cost_per_accepted * params.acceptance_rate
    return AdoptionResult(
        tee_cost_per_submission=_quantize(per_submission),
        ratio=_quantize(params.manual_cost_per_submission / per_submission),
        adopts=per_submission < params.manual_cost_per_submission,
        alpha_bound=_quantize(params.manual_cost_per_submission / params.tee_cost_per_accepted),
    )


@dataclass(frozen=True)
class StringencyParams:
    """Convex review-cost family C(v) = k * v^m and linear benefit slope b."""

    cost_scale: float
    cost_exponent: float
    benefit_slope: float

    def __post_init__(self) -> None:
        if self.cost_scale <= 0:
            raise ValueError("cost_scale must be > 0")
        if self.cost_exponent <= 1:
            raise ValueError("cost_exponent must be > 1 for convexity")
        if self.benefit_slope <= 0:
            raise ValueError("benefit_slope must be > 0")

    def cost(self, v: float) -> float:
        return self.cost_scale * v**self.cost_exponent


@dataclass(frozen=True)
class StringencyResult:
    v_star: float
    regime_cost: float
    regime: str

    def to_dict(self) -> dict:
        return {"v_star": self.v_star, "regime_cost": self.regime_cost, "regime": self.regime}


def stringency_optimum(
    params: StringencyParams,
    tee_cost: Decimal | str | int | float | None = None,
) -> StringencyResult:
    """Optimal verification stringency with and without attestation.

    Manual regime: first-order condition k*m*v^(m-1) = b, clipped to [0, 1].
    Attestation is available exactly when ``tee_cost`` is given; at a flat
    cost below C(1), full stringency v = 1 dominates any interior manual
    optimum.
    """
    k, m, b = params.cost_scale, params.cost_exponent, params.benefit_slope
    ratio = b / (k * m)  # the root is at least 1 exactly when the ratio is; raising it could overflow
    v_manual = 1.0 if ratio >= 1.0 else ratio ** (1.0 / (m - 1.0))
    manual = StringencyResult(v_star=v_manual, regime_cost=params.cost(v_manual), regime="manual")
    if tee_cost is None:
        return manual
    tee_cost_f = float(_as_decimal(tee_cost))
    if tee_cost_f < params.cost(1.0):
        return StringencyResult(v_star=1.0, regime_cost=tee_cost_f, regime="tee")
    return manual


@dataclass(frozen=True)
class ComparisonRow:
    dimension: str
    manual: str
    tee: str


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]
    adoption: AdoptionResult

    def to_dict(self) -> dict:
        return {
            "rows": [
                {"dimension": row.dimension, "manual": row.manual, "tee": row.tee}
                for row in self.rows
            ],
            "adoption": self.adoption.to_dict(),
        }

    def render_text(self) -> str:
        width_dim = max(len(row.dimension) for row in self.rows)
        width_manual = max(len(row.manual) for row in self.rows + (ComparisonRow("", "manual review", ""),))
        lines = [
            f"{'dimension':<{width_dim}}  {'manual review':<{width_manual}}  attested execution",
            f"{'-' * width_dim}  {'-' * width_manual}  {'-' * 18}",
        ]
        for row in self.rows:
            lines.append(f"{row.dimension:<{width_dim}}  {row.manual:<{width_manual}}  {row.tee}")
        lines.append("")
        lines.append(
            f"tee cost per submission: ${self.adoption.tee_cost_per_submission}"
            f"  (cost ratio {self.adoption.ratio}, adopts: {self.adoption.adopts})"
        )
        return "\n".join(lines)


def format_usd(value: Decimal | str | int | float) -> str:
    """Render a dollar amount: integral values bare, others at 2 places."""
    dec = _as_decimal(value)
    if dec == dec.to_integral_value():
        return str(dec.quantize(Decimal(1)))
    return str(dec.quantize(Decimal("0.01")))


def cost_comparison(
    params: AdoptionParams,
    storage_range: tuple[float, float] | tuple[Decimal, Decimal] = (Decimal("0.05"), Decimal("0.30")),
    tee_cost_range: tuple[float, float] | tuple[Decimal, Decimal] | None = None,
) -> ComparisonTable:
    """Side-by-side comparison of manual review and attested execution.

    ``tee_cost_range`` gives the observed low/high per-accepted-paper cost
    band; when omitted the single configured cost is used for both ends.
    """
    lo, hi = (
        (_as_decimal(tee_cost_range[0]), _as_decimal(tee_cost_range[1]))
        if tee_cost_range is not None
        else (params.tee_cost_per_accepted, params.tee_cost_per_accepted)
    )
    if not 0 < lo <= hi:
        raise ValueError("tee_cost_range must be positive and ordered")
    storage_lo, storage_hi = _as_decimal(storage_range[0]), _as_decimal(storage_range[1])
    if not 0 <= storage_lo <= storage_hi:
        raise ValueError("storage_range must be non-negative and ordered")
    tee_cost_cell = f"${format_usd(lo)}–${format_usd(hi)} per accepted paper"
    if storage_hi > 0:
        tee_cost_cell += f" (+ ${format_usd(storage_lo)}–${format_usd(storage_hi)} storage)"

    rows = (
        ComparisonRow(
            "per_paper_cost",
            f"${format_usd(params.manual_cost_per_submission)} per submission",
            tee_cost_cell,
        ),
        ComparisonRow("cost_bearer", "journal / authors (via fee)", "journal (negligible per paper)"),
        ComparisonRow("detection_probability", "below 1 (reviewer effort and supply)", "near 1 (cryptographic binding)"),
        ComparisonRow("proprietary_data_coverage", "usually exempted", "covered; data never leaves the enclave"),
        ComparisonRow("verification_time", "weeks to months", "milliseconds"),
        ComparisonRow("auditability", "not independently checkable", "public, replayable, tamper-evident"),
        ComparisonRow("scalability", "bounded by reviewer supply", "scales with cloud capacity"),
    )
    return ComparisonTable(rows=rows, adoption=adoption(params))
