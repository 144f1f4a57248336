"""Coefficient bounds, envelopes and convergence-rate diagnostics."""

import math
import time
from fractions import Fraction

import pytest

from blockade import bounds


class TestKappa:
    def test_unit_argument_is_exact(self):
        kv = bounds.kappa(1.0)
        assert kv.tau == 1.0 and kv.omega == 1.0 and kv.log_kappa == 0.0

    @pytest.mark.parametrize("a", [0.2, 0.9, 2.5, 17.0, 430.0, 1e4, 3e7])
    def test_defining_residuals(self, a):
        kv = bounds.kappa(a)
        assert abs(a / kv.tau - 1.0 - math.log(kv.tau)) < bounds.RESIDUAL_TOL
        assert abs(kv.omega + math.log(kv.omega) - 1.0 - math.log(a)) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bounds.kappa(0.0)
        with pytest.raises(ValueError):
            bounds.kappa(-3.0)

    def test_large_argument_shift_asymptotics(self):
        a = 1e4
        ratio = math.exp(bounds.log_kappa(a - 1) - bounds.log_kappa(a))
        assert abs(ratio / (math.log(a) / a) - 1.0) < 0.20

    def test_factorial_omega_product_cap(self):
        # equality at n = 1 (everything is 1 there); strictly below from n = 2
        assert abs(bounds.log_kappa(1.0) - (math.lgamma(2) - bounds._log_omega_product(1))) < 1e-12
        for n in range(2, 101):
            assert bounds.log_kappa(float(n)) < math.lgamma(n + 1) - bounds._log_omega_product(n)

    def test_log_kappa_increasing_past_one(self):
        vals = [bounds.log_kappa(a) for a in (1.0, 1.5, 3.0, 10.0, 100.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("a", [1e6, 1e8])
    def test_omega_tracks_log(self, a):
        assert 0.8 < bounds.kappa(a).omega / math.log(a) < 1.2


class TestCoefficientBound:
    def test_first_density_bound(self):
        want = math.log(6.0) + bounds.log_kappa(2.0)
        assert abs(bounds.coefficient_bound(1, 1, 1, "density") - want) < 1e-13

    def test_density_caps_reference_values(self):
        known = {
            1: [Fraction(1), Fraction(-1), Fraction(3, 5), Fraction(-81, 280), Fraction(3023, 25200)],
            2: [Fraction(1), Fraction(-5, 3), Fraction(77, 45), Fraction(-713, 504)],
            3: [Fraction(1), Fraction(-7, 3), Fraction(152, 45)],
        }
        for lam, coeffs in known.items():
            for j, c in enumerate(coeffs, 1):
                assert math.log(abs(c)) <= bounds.coefficient_bound(j, lam, 1, "density")

    def test_word_class_caps_pair_counters(self):
        pair = {
            2: [Fraction(1), Fraction(-3, 2), Fraction(283, 240), Fraction(-739, 1120)],
            3: [Fraction(1), Fraction(-2), Fraction(61, 30), Fraction(-2393, 1680)],
        }
        for d, coeffs in pair.items():
            for j, c in enumerate(coeffs, 2):
                assert math.log(abs(c)) <= bounds.coefficient_bound(2 * j, 1, d + 1, "word")

    def test_order_zero_guarded(self):
        with pytest.raises(ValueError):
            bounds.coefficient_bound(0, 1, 1, "density")

    def test_ratio_grows_without_bound(self):
        # consecutive bound ratios b_{j-1}/b_j grow like the squared log
        samples = [2, 4, 8, 16, 64, 256, 1024, 4096, 10000]
        deltas = [
            bounds.coefficient_bound(j - 1, 1, 1, "density")
            - bounds.coefficient_bound(j, 1, 1, "density")
            for j in samples
        ]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] - deltas[0] > math.log(10.0)


class TestEnvelope:
    def test_zero_time(self):
        assert bounds.log_error_envelope(10, 1, 1, 0.0) == float("-inf")
        assert bounds.error_envelope(10, 1, 1, 0.0) == 0.0

    def test_leading_power_small_time(self):
        slope = (
            bounds.log_error_envelope(18, 1, 1, 2e-3)
            - bounds.log_error_envelope(18, 1, 1, 1e-3)
        ) / math.log(2.0)
        assert abs(slope - 36.0) < 1e-3

    def test_consecutive_size_ratio_cap(self):
        for L in range(5, 21):
            ratio = math.exp(
                bounds.log_error_envelope(L, 1, 1, 1.0)
                - bounds.log_error_envelope(L - 1, 1, 1, 1.0)
            )
            assert ratio < 36.0 / (bounds.omega(2 * L - 1) * bounds.omega(2 * L))

    def test_word_class_ratio_below_formula(self):
        t = 0.5
        for L in range(10, 41):
            ratio = math.exp(
                bounds.log_error_envelope(L + 2, 1, 1, t, "word")
                - bounds.log_error_envelope(L, 1, 1, t, "word")
            )
            assert ratio <= bounds.convergence_ratio(L, 1, 1, t)

    def test_longer_range_envelope_evaluates(self):
        assert math.isfinite(bounds.log_error_envelope(9, 2, 1, 0.3))

    def test_overflow_guard(self):
        with pytest.raises(bounds.EnvelopeOverflowError):
            bounds.error_envelope(18, 1, 1, 1.3)
        assert math.isfinite(bounds.log_error_envelope(18, 1, 1, 1.3))

    def test_uncertifiable_depth_reported(self):
        with pytest.raises(bounds.EnvelopeDepthError):
            bounds.log_error_envelope(10, 1, 1, 1.0, "word", max_terms=100)

    @pytest.mark.parametrize("lam, cls", [(1, "density"), (2, "density"), (1, "word")])
    def test_hopeless_depth_refused_up_front(self, lam, cls):
        # the term-ratio majorant is still above 1 at the millionth term, so
        # no closure can certify the tail; summing all of them took ~20 s
        tabulated = len(bounds._OMEGA)
        start = time.perf_counter()
        with pytest.raises(bounds.EnvelopeDepthError) as err:
            bounds.log_error_envelope(18, lam, 1, 30.0, cls)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == "envelope tail not certified within 1000000 terms at t=30.0"
        assert len(bounds._OMEGA) == tabulated  # no term was summed, no omega tabulated

    @pytest.mark.parametrize("lam, cls", [(1, "density"), (2, "density"), (1, "word")])
    def test_up_front_refusal_keeps_every_certifiable_depth(self, lam, cls):
        # bisect the smallest depth that certifies: it gives the full-depth
        # value, so the up-front check refuses no depth the sum would certify
        def certified(depth):
            try:
                return bounds.log_error_envelope(6, lam, 1, 0.5, cls, max_terms=depth)
            except bounds.EnvelopeDepthError:
                return None

        lo, hi = 1, 10**4  # certified(hi), not certified(lo - 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if certified(mid) is None:
                lo = mid + 1
            else:
                hi = mid
        assert lo > 1
        assert certified(lo) == bounds.log_error_envelope(6, lam, 1, 0.5, cls)


class TestConvergenceRatio:
    def test_reference_point(self):
        assert bounds.convergence_ratio(100, 1, 1, 1.0) == pytest.approx(
            12.0 / math.log(50.0), rel=1e-15
        )

    def test_decreasing_in_size(self):
        vals = [bounds.convergence_ratio(L, 1, 1, 1.0) for L in range(10, 60, 5)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            bounds.convergence_ratio(2, 1, 1, 1.0)
        with pytest.raises(ValueError):
            bounds.convergence_ratio(3, 2, 10, 1.0)
