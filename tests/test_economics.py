from __future__ import annotations

import math
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attestrep.economics import (
    AdoptionParams,
    ComplianceParams,
    Regime,
    StringencyParams,
    adoption,
    complies,
    cost_comparison,
    format_usd,
    manipulate_payoff,
    min_sanction,
    stringency_optimum,
)

positive_utils = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)
probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def params(B: float = 10.0, S: float = 5.0, p: float = 1.0, pi: float = 1.0, eps: float = 0.0) -> ComplianceParams:
    return ComplianceParams(
        publication_value=B,
        sanction=S,
        scrutiny_probability=p,
        catch_probability=pi,
        exploit_probability=eps,
    )


class TestManipulatePayoff:
    def test_no_detection_pays_publication_value(self) -> None:
        assert manipulate_payoff(params(B=10, S=5), d=0.0) == 10.0

    def test_certain_detection_pays_negative_sanction(self) -> None:
        assert manipulate_payoff(params(B=10, S=5), d=1.0) == -5.0

    def test_midpoint(self) -> None:
        assert manipulate_payoff(params(B=100, S=50), d=0.5) == pytest.approx(25.0)

    def test_strictly_decreasing_in_detection(self) -> None:
        p = params(B=100, S=50)
        values = [manipulate_payoff(p, d) for d in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)

    def test_domain_checked(self) -> None:
        with pytest.raises(ValueError):
            manipulate_payoff(params(), d=1.5)


class TestComplies:
    def test_tee_with_zero_exploit_always_complies(self) -> None:
        for sanction in (1e-9, 0.5, 1e9):
            assert complies(params(B=1e6, S=sanction, eps=0.0), Regime.TEE)

    def test_zero_detection_never_deters(self) -> None:
        assert not complies(params(B=10, S=1e9, p=0.0, pi=1.0), Regime.MANUAL)
        assert not complies(params(B=10, S=1e9, p=1.0, pi=0.0), Regime.MANUAL)

    def test_manual_arithmetic_example(self) -> None:
        # d = 0.25, deterrent 2.5 falls short of 75
        assert not complies(params(B=100, S=10, p=0.5, pi=0.5), Regime.MANUAL)

    def test_manual_complies_when_sanction_large(self) -> None:
        assert complies(params(B=100, S=301, p=0.5, pi=0.5), Regime.MANUAL)

    def test_tie_complies(self) -> None:
        # S exactly at the threshold: weak inequality keeps the author honest
        d = 0.25
        threshold = min_sanction(100.0, d)
        assert complies(params(B=100, S=threshold, p=0.5, pi=0.5), Regime.MANUAL)


class TestMinSanction:
    def test_tee_example(self) -> None:
        assert min_sanction(100.0, 0.99) == pytest.approx(100 * 0.01 / 0.99, abs=1e-9)

    def test_certain_detection_needs_nothing(self) -> None:
        assert min_sanction(100.0, 1.0) == 0.0

    def test_zero_detection_unbounded(self) -> None:
        assert min_sanction(100.0, 0.0) == math.inf

    def test_validates(self) -> None:
        with pytest.raises(ValueError):
            min_sanction(0.0, 0.5)


@given(
    B=positive_utils,
    S=positive_utils,
    p=probabilities,
    pi=probabilities,
    eps=probabilities,
    regime=st.sampled_from([Regime.MANUAL, Regime.TEE]),
)
def test_threshold_consistency(B, S, p, pi, eps, regime) -> None:
    cp = params(B=B, S=S, p=p, pi=pi, eps=eps)
    assert complies(cp, regime) == (S >= min_sanction(B, cp.detection(regime)))


@given(B=positive_utils, S=positive_utils, p=probabilities, pi=probabilities, bump=probabilities)
def test_monotone_in_scrutiny_and_catch(B, S, p, pi, bump) -> None:
    base = params(B=B, S=S, p=p, pi=pi)
    more_p = params(B=B, S=S, p=min(1.0, p + bump), pi=pi)
    more_pi = params(B=B, S=S, p=p, pi=min(1.0, pi + bump))
    if complies(base, Regime.MANUAL):
        assert complies(more_p, Regime.MANUAL)
        assert complies(more_pi, Regime.MANUAL)


@given(B=positive_utils, S=positive_utils, p=probabilities, pi=probabilities, extra=positive_utils)
def test_monotone_in_sanction(B, S, p, pi, extra) -> None:
    if complies(params(B=B, S=S, p=p, pi=pi), Regime.MANUAL):
        assert complies(params(B=B, S=S + extra, p=p, pi=pi), Regime.MANUAL)


@given(B=positive_utils, S=positive_utils, p=probabilities, pi=probabilities, eps=probabilities)
def test_tee_dominates_when_detection_not_lower(B, S, p, pi, eps) -> None:
    # detection never decreases exactly when eps <= 1 - p*pi
    cp = params(B=B, S=S, p=p, pi=pi, eps=eps)
    if cp.detection(Regime.TEE) >= cp.detection(Regime.MANUAL) and complies(cp, Regime.MANUAL):
        assert complies(cp, Regime.TEE)


class TestAdoption:
    def test_calibrated_example(self) -> None:
        result = adoption(AdoptionParams("1.57", "79", "0.08"))
        assert result.tee_cost_per_submission == Decimal("0.1256")
        assert Decimal("600") <= result.ratio <= Decimal("660")
        assert result.adopts is True

    def test_alpha_bound(self) -> None:
        result = adoption(AdoptionParams("1.57", "79", "0.08"))
        assert Decimal("50") <= result.alpha_bound <= Decimal("51")

    def test_generous_acceptance_rate(self) -> None:
        result = adoption(AdoptionParams("1.57", "79", "0.30"))
        assert abs(result.ratio - Decimal("167.7283")) <= Decimal("0.0001")

    def test_parity_does_not_adopt(self) -> None:
        result = adoption(AdoptionParams("79", "79", "1"))
        assert result.ratio == Decimal("1.0000")
        assert result.adopts is False

    def test_corollary_cheaper_per_paper_implies_adoption_at_any_rate(self) -> None:
        import random

        rng = random.Random(7)
        for _ in range(200):
            alpha = rng.uniform(1e-6, 1.0)
            result = adoption(AdoptionParams("1.57", "79", repr(alpha)))
            assert result.adopts

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            AdoptionParams("0", "79", "0.08")
        with pytest.raises(ValueError):
            AdoptionParams("1.57", "79", "0")
        with pytest.raises(ValueError):
            AdoptionParams("1.57", "79", "1.01")


class TestStringency:
    def test_closed_form_interior_optimum(self) -> None:
        result = stringency_optimum(StringencyParams(cost_scale=1, cost_exponent=2, benefit_slope=1))
        assert result.v_star == 0.5
        assert result.regime_cost == 0.25
        assert result.regime == "manual"

    def test_tee_wins_at_low_cost(self) -> None:
        result = stringency_optimum(
            StringencyParams(cost_scale=1, cost_exponent=2, benefit_slope=1),
            tee_cost="0.01",
        )
        assert result.v_star == 1.0
        assert result.regime_cost == 0.01
        assert result.regime == "tee"

    def test_expensive_tee_falls_back_to_manual(self) -> None:
        result = stringency_optimum(
            StringencyParams(cost_scale=1, cost_exponent=2, benefit_slope=1),
            tee_cost="5",
        )
        assert result.regime == "manual"
        assert result.v_star == 0.5

    def test_vanishing_benefit_vanishing_stringency(self) -> None:
        result = stringency_optimum(StringencyParams(cost_scale=1, cost_exponent=2, benefit_slope=1e-9))
        assert result.v_star < 1e-6

    def test_large_benefit_clips_to_one(self) -> None:
        result = stringency_optimum(StringencyParams(cost_scale=1, cost_exponent=2, benefit_slope=100))
        assert result.v_star == 1.0

    @given(
        k=st.floats(min_value=1e-3, max_value=1e3),
        m=st.floats(min_value=1.01, max_value=8.0),
        b=st.floats(min_value=1e-6, max_value=1e3),
    )
    @example(k=1e-3, m=1.01, b=2.0)  # (b / (k * m)) ** 100 overflows a float
    def test_interior_whenever_benefit_below_marginal_cost_at_one(self, k, m, b) -> None:
        result = stringency_optimum(StringencyParams(cost_scale=k, cost_exponent=m, benefit_slope=b))
        assert 0.0 <= result.v_star <= 1.0
        if b < k * m:
            assert result.v_star < 1.0


class TestCostComparison:
    def test_default_rows(self) -> None:
        table = cost_comparison(
            AdoptionParams("1.57", "79", "0.08"),
            tee_cost_range=(Decimal("1.35"), Decimal("1.80")),
        )
        rows = {row.dimension: row for row in table.rows}
        assert rows["per_paper_cost"].manual == "$79 per submission"
        assert rows["per_paper_cost"].tee.startswith("$1.35–$1.80 per accepted paper")
        assert "$0.05–$0.30 storage" in rows["per_paper_cost"].tee
        assert set(rows) == {
            "per_paper_cost",
            "cost_bearer",
            "detection_probability",
            "proprietary_data_coverage",
            "verification_time",
            "auditability",
            "scalability",
        }
        assert rows["verification_time"].tee == "milliseconds"
        assert table.adoption.adopts

    def test_single_cost_collapses_range(self) -> None:
        table = cost_comparison(AdoptionParams("1.57", "79", "0.08"), storage_range=(0, 0))
        row = next(row for row in table.rows if row.dimension == "per_paper_cost")
        assert row.tee == "$1.57–$1.57 per accepted paper"

    def test_parity_table_does_not_adopt(self) -> None:
        table = cost_comparison(AdoptionParams("79", "79", "1"))
        assert table.adoption.adopts is False
        assert table.adoption.ratio == Decimal("1.0000")

    def test_render_text_contains_rows(self) -> None:
        text = cost_comparison(AdoptionParams("1.57", "79", "0.08")).render_text()
        assert "per_paper_cost" in text
        assert "$79 per submission" in text

    def test_to_dict_round_trips_json(self) -> None:
        import json

        table = cost_comparison(AdoptionParams("1.57", "79", "0.08"))
        assert json.loads(json.dumps(table.to_dict()))["adoption"]["adopts"] is True


@pytest.mark.parametrize(
    "value, rendered",
    [("79", "79"), ("1.35", "1.35"), ("1.80", "1.80"), (1.8, "1.80"), ("0.05", "0.05"), (2, "2")],
)
def test_format_usd(value, rendered) -> None:
    assert format_usd(value) == rendered
