"""Unit tests for the opinion algebra."""

import math
import sys

import pytest

from certaintrust import (
    BehavioralProbability,
    DegenerateBase,
    EvidenceCount,
    EvidenceExceedsCap,
    Opinion,
    TrustParams,
    ZeroBase,
    average_rating,
    behavioral_probability,
    certainty,
    expectation,
    op_and,
    op_not,
    op_or,
    opinion_from_evidence,
    scale_rating,
    trust_percent,
)
from certaintrust.opinion import BASE_EPS, _CLIP_TOL, _clip_unit, _is_number

from oracle import frac_and, frac_or

P = TrustParams(N=7, w=1.0, f=0.5, scale=5.0)


class TestAverageRating:
    def test_no_evidence_defaults_to_half(self):
        assert average_rating(EvidenceCount(0, 0)) == 0.5

    def test_five_of_seven(self):
        assert average_rating(EvidenceCount(5, 2)) == pytest.approx(0.714286, abs=1e-6)

    def test_symmetric_evidence(self):
        assert average_rating(EvidenceCount(3, 3)) == 0.5

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            EvidenceCount(-1, 0)
        with pytest.raises(ValueError):
            EvidenceCount(0, -2)

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValueError):
            EvidenceCount(1.5, 0)


class TestCertainty:
    def test_cap_reached_gives_full_certainty(self):
        assert certainty(EvidenceCount(5, 2), P) == 1.0

    def test_no_evidence_gives_zero(self):
        for n, w in [(1, 0.5), (10, 1.0), (50, 3.0)]:
            assert certainty(EvidenceCount(0, 0), TrustParams(N=n, w=w)) == 0.0

    def test_partial_evidence(self):
        # 10*4 / (2*1*6 + 10*4) = 40/52, checked with exact arithmetic
        got = certainty(EvidenceCount(2, 2), TrustParams(N=10, w=1.0))
        assert got == pytest.approx(0.769231, abs=1e-6)
        assert got == pytest.approx(40 / 52, abs=1e-12)

    def test_over_cap_is_an_error(self):
        with pytest.raises(EvidenceExceedsCap):
            certainty(EvidenceCount(6, 2), P)

    def test_largest_cap_stays_a_float(self):
        assert certainty(EvidenceCount(2 ** 53, 0), TrustParams(N=2 ** 53)) == 1.0
        message = r"^N must be at most 2\*\*53, .* got 9007199254740993$"
        with pytest.raises(ValueError, match=message):
            TrustParams(N=2 ** 53 + 1)

    def test_monotone_in_total_evidence(self):
        p = TrustParams(N=20, w=2.0)
        values = [certainty(EvidenceCount(k, 0), p) for k in range(21)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 0.0
        assert values[-1] == 1.0


class TestExpectation:
    def test_benchmark_point(self):
        assert expectation(Opinion(0.714, 0.724, 0.5)) == pytest.approx(0.6549, abs=1e-4)

    def test_zero_certainty_returns_prior(self):
        for t in (0.0, 0.3, 1.0):
            assert expectation(Opinion(t, 0.0, 0.3)) == 0.3

    def test_full_certainty_returns_rating(self):
        for f in (0.0, 0.4, 1.0):
            assert expectation(Opinion(0.9, 1.0, f)) == 0.9

    def test_convex_combination_bounds(self):
        o = Opinion(0.8, 0.35, 0.2)
        assert min(o.t, o.f) <= expectation(o) <= max(o.t, o.f)


class TestNot:
    def test_components(self):
        got = op_not(Opinion(0.7, 0.4, 0.6))
        assert got.t == pytest.approx(0.3, abs=1e-15)
        assert got.c == 0.4
        assert got.f == pytest.approx(0.4, abs=1e-15)

    def test_involution(self):
        a = Opinion(0.7, 0.4, 0.6)
        assert op_not(op_not(a)) == a

    def test_fixed_point(self):
        a = Opinion(0.5, 1.0, 0.5)
        assert op_not(a) == a

    def test_expectation_complement(self):
        a = Opinion(0.7, 0.4, 0.6)
        assert expectation(op_not(a)) == pytest.approx(1.0 - expectation(a), abs=1e-14)

    def test_complement_certainty_mode(self):
        got = op_not(Opinion(0.7, 0.4, 0.6), not_mode="complement_certainty")
        assert got.t == pytest.approx(0.3, abs=1e-15)
        assert got.c == pytest.approx(0.6, abs=1e-15)
        assert got.f == pytest.approx(0.4, abs=1e-15)
        # the complemented variant does not satisfy the expectation complement
        assert expectation(got) != pytest.approx(1.0 - expectation(Opinion(0.7, 0.4, 0.6)))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            op_not(Opinion(0.5, 0.5, 0.5), not_mode="bogus")


class TestAnd:
    def test_full_certainty_reduces_to_product(self):
        got = op_and(Opinion(0.8, 1.0, 0.5), Opinion(0.5, 1.0, 0.5))
        assert got.t == pytest.approx(0.4, abs=1e-12)
        assert got.c == pytest.approx(1.0, abs=1e-12)
        assert got.f == pytest.approx(0.25, abs=1e-12)

    def test_zero_certainty_branch(self):
        got = op_and(Opinion(0.3, 0.0, 0.4), Opinion(0.9, 0.0, 0.7))
        assert got.t == 0.5
        assert got.c == 0.0
        assert got.f == pytest.approx(0.28, abs=1e-12)

    def test_general_point_against_exact_oracle(self):
        from fractions import Fraction as F

        a = Opinion(0.6, 0.5, 0.4)
        b = Opinion(0.7, 0.8, 0.3)
        ref = frac_and(
            (F(6, 10), F(5, 10), F(4, 10)), (F(7, 10), F(8, 10), F(3, 10))
        )
        got = op_and(a, b)
        assert got.t == pytest.approx(float(ref[0]), abs=1e-12)  # 2963/7275
        assert got.c == pytest.approx(float(ref[1]), abs=1e-12)  # 291/440
        assert got.f == pytest.approx(float(ref[2]), abs=1e-12)
        swapped = op_and(b, a)
        assert swapped.t == pytest.approx(got.t, abs=1e-12)
        assert swapped.c == pytest.approx(got.c, abs=1e-12)
        assert swapped.f == pytest.approx(got.f, abs=1e-12)

    def test_degenerate_base_rejected(self):
        with pytest.raises(DegenerateBase):
            op_and(Opinion(0.5, 0.5, 1.0), Opinion(0.5, 0.5, 1.0))


class TestOr:
    def test_full_certainty_reduces_to_probabilistic_or(self):
        got = op_or(Opinion(0.8, 1.0, 0.5), Opinion(0.5, 1.0, 0.5))
        assert got.t == pytest.approx(0.9, abs=1e-12)
        assert got.c == pytest.approx(1.0, abs=1e-12)
        assert got.f == pytest.approx(0.75, abs=1e-12)

    def test_zero_certainty_branch(self):
        got = op_or(Opinion(0.3, 0.0, 0.4), Opinion(0.9, 0.0, 0.7))
        assert got.t == 0.5
        assert got.c == 0.0
        assert got.f == pytest.approx(0.82, abs=1e-12)

    def test_general_point_against_exact_oracle(self):
        from fractions import Fraction as F

        a = Opinion(0.6, 0.5, 0.4)
        b = Opinion(0.7, 0.8, 0.3)
        ref = frac_or(
            (F(6, 10), F(5, 10), F(4, 10)), (F(7, 10), F(8, 10), F(3, 10))
        )
        got = op_or(a, b)
        assert got.t == pytest.approx(float(ref[0]), abs=1e-12)  # 5017/5775
        assert got.c == pytest.approx(float(ref[1]), abs=1e-12)  # 231/290
        assert got.f == pytest.approx(float(ref[2]), abs=1e-12)
        swapped = op_or(b, a)
        assert swapped.t == pytest.approx(got.t, abs=1e-12)
        assert swapped.c == pytest.approx(got.c, abs=1e-12)
        assert swapped.f == pytest.approx(got.f, abs=1e-12)

    def test_degenerate_base_rejected(self):
        with pytest.raises(DegenerateBase):
            op_or(Opinion(0.5, 0.5, 0.0), Opinion(0.5, 0.5, 0.0))

    def test_a_combined_prior_of_exactly_base_eps_is_degenerate(self):
        with pytest.raises(DegenerateBase):
            op_or(Opinion(0.5, 0.5, BASE_EPS), Opinion(0.5, 0.5, 0.0))


class TestFloatDrift:
    """Inputs whose raw ``c`` or ``t`` drifts just outside [0, 1]; without
    the clip each would raise ValueError when the result is built."""

    @pytest.mark.parametrize("op, a, b, expected", [
        # raw c is -1.39e-17
        (op_and, Opinion(0, 0, 0.2), Opinion(1, 0.1, 1.0), Opinion(0.5, 0.0, 0.2)),
        (op_or, Opinion(0, 0, 0.1), Opinion(0, 0.1, 0.0), Opinion(0.5, 0.0, 0.1)),
    ])
    def test_a_certainty_just_below_zero_is_zero(self, op, a, b, expected):
        assert op(a, b) == expected

    @pytest.mark.parametrize("op, a, b", [
        (op_and, Opinion(0, 0, 1.0), Opinion(1, 0.1, 0.2)),  # raw t is 1.0000000000000002
        (op_or, Opinion(0, 0, 1.0), Opinion(0.5, 1.0, 0.9)),
    ])
    def test_a_rating_just_above_one_is_one(self, op, a, b):
        assert op(a, b).t == 1.0

    def test_a_drift_of_exactly_the_tolerance_passes_through(self):
        assert _clip_unit(-_CLIP_TOL) == -_CLIP_TOL
        assert _clip_unit(1.0 + _CLIP_TOL) == 1.0 + _CLIP_TOL


class TestScaleRating:
    def test_benchmark_point(self):
        assert scale_rating(0.714, P) == pytest.approx(3.57, abs=1e-12)

    def test_zero(self):
        assert scale_rating(0.0, TrustParams(scale=7.0)) == 0.0

    def test_ceiling(self):
        assert scale_rating(1.0, P) == 5.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            scale_rating(1.2, P)


class TestTrustPercent:
    def test_benchmark_point(self):
        assert trust_percent(0.724, 3.57, P) == pytest.approx(51.69, abs=0.005)

    def test_table_row(self):
        assert trust_percent(0.6, 3.5, P) == pytest.approx(42.0, abs=1e-12)

    def test_maximum(self):
        assert trust_percent(1.0, 5.0, P) == pytest.approx(100.0, abs=1e-12)

    def test_rating_above_scale_rejected(self):
        with pytest.raises(ValueError):
            trust_percent(0.5, 5.5, P)


class TestBehavioralProbability:
    def test_above_base(self):
        got = behavioral_probability(58.375, P)
        assert got.value == pytest.approx(16.75, abs=0.01)
        assert got.direction == "above_base"

    def test_below_base(self):
        got = behavioral_probability(47.26, P)
        assert got.value == pytest.approx(-5.48, abs=0.01)
        assert got.direction == "below_base"

    def test_balanced(self):
        got = behavioral_probability(50.0, P)
        assert got.value == 0.0
        assert got.direction == "balanced"

    def test_zero_base_rejected(self):
        with pytest.raises(ZeroBase):
            behavioral_probability(50.0, TrustParams(f=0.0))

    def test_direction_consistency_enforced(self):
        with pytest.raises(ValueError):
            BehavioralProbability(5.0, "below_base")


class TestOpinionFromEvidence:
    def test_composition(self):
        got = opinion_from_evidence(EvidenceCount(5, 2), P)
        # the composed formulas give c = 1.0 here; benchmark texts quoting
        # c = 0.724 for these inputs treat it as a given literal instead
        assert got.t == pytest.approx(0.714286, abs=1e-6)
        assert got.c == 1.0
        assert got.f == 0.5

    def test_empty_evidence(self):
        assert opinion_from_evidence(EvidenceCount(0, 0), P) == Opinion(0.5, 0.0, 0.5)

    def test_all_positive_at_cap(self):
        got = opinion_from_evidence(EvidenceCount(10, 0), TrustParams(N=10, w=1.0))
        assert got == Opinion(1.0, 1.0, 0.5)

    def test_cap_error_propagates(self):
        with pytest.raises(EvidenceExceedsCap):
            opinion_from_evidence(EvidenceCount(8, 0), P)


class TestValidation:
    def test_the_largest_finite_floats_are_numbers(self):
        assert _is_number(sys.float_info.max)
        assert _is_number(-sys.float_info.max)

    def test_opinion_components_must_be_unit(self):
        for bad in [(-0.1, 0.5, 0.5), (0.5, 1.1, 0.5), (0.5, 0.5, 2.0)]:
            with pytest.raises(ValueError):
                Opinion(*bad)

    def test_params_invariants(self):
        with pytest.raises(ValueError):
            TrustParams(N=0)
        with pytest.raises(ValueError):
            TrustParams(w=0.0)
        with pytest.raises(ValueError):
            TrustParams(f=1.5)
        with pytest.raises(ValueError):
            TrustParams(scale=0.0)
