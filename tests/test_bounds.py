"""Coefficient bounds, envelopes and convergence-rate diagnostics."""

import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockade import bounds
from blockade.series import density, general_word, universality_threshold
from blockade.words import NUM, make_word, ring


# ---------------------------------------------------------------------------
# sequential references: the scalar solver and tail loop the array code replaced
# ---------------------------------------------------------------------------


def reference_tau(a: float) -> float:
    """Root of g(t) = a/t - 1 - ln t by Newton with bisection fallback."""
    if a == 1.0:
        return 1.0
    lo, hi = min(1.0, a), max(1.0, a)
    t = 0.5 * (lo + hi)
    for _ in range(200):
        g = a / t - 1.0 - math.log(t)
        if abs(g) < bounds.RESIDUAL_TOL:
            return t
        step = t - g / (-a / (t * t) - 1.0 / t)
        if g > 0.0:
            lo = t
        else:
            hi = t
        t = step if lo < step < hi else 0.5 * (lo + hi)
    raise ArithmeticError(f"tau solve did not converge for a={a}")


def reference_kappa(a: float) -> tuple[float, float, float]:
    """(tau, omega, log_kappa) from the scalar solver."""
    tau = reference_tau(a)
    return tau, a / tau, (a - tau) * math.log(tau)


def reference_bound(j, lam, ell, cls):
    if cls == "density":
        a = 2 * j + 1.0 / lam - 1.0
        return (
            math.log(2.0) + (2 * j - 1) * math.log(6.0 * lam)
            + reference_kappa(a)[2] - math.lgamma(2 * j + 1)
        )
    a = j + ell / (2.0 * lam) - 1.0
    return j * math.log(12.0 * lam) + reference_kappa(a)[2] - math.lgamma(j + 1)


def reference_tail(L, lam, ell, t, cls):
    """(log envelope, start index, closing index) by the term-by-term loop."""
    if cls == "density" and lam == 1:
        start = L
        omegas = [None] + [reference_kappa(float(k))[1] for k in range(1, 2 * L - 1)]
        prefix = [0.0]
        for w in omegas[1:]:
            prefix.append(prefix[-1] + math.log(w))

        def log_term(j):
            while len(prefix) <= 2 * j:
                omegas.append(reference_kappa(float(len(omegas)))[1])
                prefix.append(prefix[-1] + math.log(omegas[-1]))
            return math.log(2.0 / 3.0) + 2 * j * math.log(6.0 * t) - prefix[2 * j]

        def ratio(j):
            w = reference_kappa(float(2 * j + 1))[1] * reference_kappa(float(2 * j + 2))[1]
            return 36.0 * t * t / w

    elif cls == "density":
        start = (L - 1) // lam + 1

        def log_term(j):
            return math.log(2.0) + reference_bound(j, lam, 1, cls) + 2 * j * math.log(t)

        def ratio(j):
            tau = reference_kappa(2.0 * j + 2)[0]
            return (6.0 * lam * t * tau) ** 2 / ((2 * j + 1) * (2 * j + 2))

    else:
        start = (L - ell) // (2 * lam) + 1
        c = max(1, math.ceil(ell / (2.0 * lam)))

        def log_term(n):
            return math.log(2.0) + reference_bound(n, lam, ell, cls) + n * math.log(t)

        def ratio(n):
            return 12.0 * lam * t * reference_kappa(float(n + c))[0] / (n + 1)

    m, acc = -math.inf, 0.0  # running max of the log terms, sum of exp(x - m)
    for i in range(start, start + bounds.TAIL_TERM_CAP):
        x = log_term(i)
        if x <= m:
            acc += math.exp(x - m)
        else:
            acc = acc * math.exp(m - x) + 1.0 if m > -math.inf else 1.0
            m = x
        rho = ratio(i)
        if rho < 1.0:
            log_rem = x + math.log(rho) - math.log1p(-rho)
            if log_rem <= m + math.log(acc) + math.log(bounds.TAIL_RELATIVE_CUTOFF):
                acc += math.exp(log_rem - m)
                return m + math.log(acc), start, i
    raise AssertionError("reference tail not closed")


@pytest.fixture
def solved(monkeypatch):
    """The size of every array `bounds._solve` is given, in call order."""
    sizes = []
    solve = bounds._solve
    monkeypatch.setattr(bounds, "_solve", lambda a: sizes.append(np.size(a)) or solve(a))
    return sizes


class TestKappa:
    def test_unit_argument_is_exact(self):
        kv = bounds.kappa(1.0)
        assert kv.tau == 1.0 and kv.omega == 1.0 and kv.log_kappa == 0.0
        assert all(type(v) is float for v in (kv.tau, kv.omega, kv.log_kappa))

    @given(
        st.floats(min_value=1e-300, max_value=1e7)
        | st.integers(1, 10**7).map(float)
        | st.integers(0, 2 * 10**7 - 1).map(lambda k: k + 0.5)
    )
    @settings(max_examples=300, deadline=None)
    @example(1.0 + 2**-52)
    @example(1e7)
    def test_array_solver_equals_scalar_reference(self, a):
        tau, om, lk = (float(v[0]) for v in bounds._solve(np.array([a])))
        ref_tau, ref_om, ref_lk = reference_kappa(a)
        assert tau == pytest.approx(ref_tau, rel=1e-12, abs=0)
        assert om == pytest.approx(ref_om, rel=1e-12, abs=0)
        # log_kappa is stationary in tau and vanishes at a = 1, where a tau
        # rounded to a float moves it by about ulp^2
        assert lk == pytest.approx(ref_lk, rel=1e-12, abs=1e-28)

    def test_unconverged_solver_is_refused(self, monkeypatch):
        monkeypatch.setattr(bounds, "_HALLEY_STEPS", 0)
        with pytest.raises(ArithmeticError, match="kappa residuals too large at a=2.5"):
            bounds.kappa(2.5)
        with pytest.raises(ArithmeticError):
            bounds._solve(np.arange(1.0, 1e4))
        with pytest.raises(ArithmeticError):
            bounds.log_error_envelope(18, 1, 1, 1.0)

    def test_array_lgamma(self):
        z = np.concatenate([np.arange(1.0, 4e4), np.arange(0.5, 4e4)])
        want = np.array([math.lgamma(v) for v in z])
        got = bounds._lgamma(z)
        assert np.all(got[want == 0.0] == 0.0)
        nonzero = want != 0.0
        assert np.max(np.abs(got[nonzero] / want[nonzero] - 1.0)) < 2e-15

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

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_before_solving(self, a, solved):
        with pytest.raises(ValueError) as err:
            bounds.kappa(a)
        assert str(err.value) == f"kappa needs a finite a > 0, got {a}"
        with pytest.raises(ValueError) as err:
            bounds.omega(a)
        assert str(err.value) == f"omega is tabulated for integer k >= 1, not {a}"
        assert solved == []

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
        # the bound at t = 1.3 on 18 sites is past the largest float; its log is not
        log_e = bounds.log_error_envelope(18, 1, 1, 1.3)
        assert math.isfinite(log_e) and log_e > math.log(sys.float_info.max)

    def test_uncertifiable_depth_reported(self):
        with pytest.raises(bounds.EnvelopeDepthError):
            bounds.log_error_envelope(10, 1, 1, 1.0, "word", max_terms=100)

    @pytest.mark.parametrize("lam, cls", [(1, "density"), (2, "density"), (1, "word")])
    def test_hopeless_depth_refused_up_front(self, lam, cls, monkeypatch):
        # the term-ratio majorant is still above 1 at the millionth term, so
        # no closure can certify the tail; summing all of them took ~20 s
        solved = []
        solve = bounds._solve
        monkeypatch.setattr(bounds, "_solve", lambda a: solved.append(np.size(a)) or solve(a))
        start = time.perf_counter()
        with pytest.raises(bounds.EnvelopeDepthError) as err:
            bounds.log_error_envelope(18, lam, 1, 30.0, cls)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == "envelope tail not certified within 1000000 terms at t=30.0"
        # one solve of the majorant at the first and the last index: no term
        # was summed
        assert solved == [4 if (lam, cls) == (1, "density") else 2]

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


class TestChunkedTail:
    CASES = [
        (10, 1, 1, 1.0, "density"),
        (7, 1, 1, 0.4, "density"),
        (9, 2, 1, 0.5, "density"),
        (12, 3, 1, 0.3, "density"),
        (10, 1, 1, 0.5, "word"),
        (14, 1, 2, 0.6, "word"),
        (15, 1, 3, 0.5, "word"),  # ell > 2 lambda: the majorant reads tau(n + 2)
    ]

    @staticmethod
    def case_id(c):
        return f"{c[4]}-lam{c[1]}-ell{c[2]}-t{c[3]}"

    def _closing_depth_is(self, case, depth):
        L, lam, ell, t, cls = case
        value = bounds.log_error_envelope(L, lam, ell, t, cls, max_terms=depth)
        with pytest.raises(bounds.EnvelopeDepthError):
            bounds.log_error_envelope(L, lam, ell, t, cls, max_terms=depth - 1)
        return value

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_equals_sequential_loop(self, case):
        want, start, closing = reference_tail(*case)
        got = bounds.log_error_envelope(*case[:4], case[4])
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        # the same closing index: the shortest depth that certifies ends there
        assert self._closing_depth_is(case, closing - start + 1) == got

    @pytest.mark.parametrize("case", [CASES[1], CASES[3], CASES[4], CASES[6]], ids=case_id)
    def test_closure_is_added(self, case, monkeypatch):
        # with a loose cutoff the geometric closure is a visible part of the
        # bound, so dropping it instead of adding it would show
        monkeypatch.setattr(bounds, "TAIL_RELATIVE_CUTOFF", 0.5)
        want, start, closing = reference_tail(*case)
        got = self._closing_depth_is(case, closing - start + 1)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", [CASES[0], CASES[2], CASES[4]], ids=case_id)
    def test_chunk_layout_does_not_move_the_value(self, case, monkeypatch):
        _, start, closing = reference_tail(*case)
        depth = closing - start + 1
        want = bounds.log_error_envelope(*case)
        layouts = [(depth, 1 << 16), (depth - 1, 1 << 16), (1, 4), (3, 3)]
        for first, cap in layouts:  # closure last of one chunk, first of the next, ...
            monkeypatch.setattr(bounds, "_CHUNK_FIRST", first)
            monkeypatch.setattr(bounds, "_CHUNK_CAP", cap)
            bounds._piece.cache_clear()  # read in pieces of `cap` orders
            # the bounded depth first: a wrong piece seam fails here at once
            # instead of leaving the full-depth tail unclosed for 10^6 terms
            assert self._closing_depth_is(case, depth) == want
            assert bounds.log_error_envelope(*case) == want


class TestTailTables:
    """The memoised t- and L-free tail pieces: shared by every envelope call,
    solved once per order while cached, bounded in number, and invisible in
    the values."""

    # one case per tail form: the omega product, the kappa density, and words
    # read through tau(n + 1) (ell <= 2 lambda) and tau(n + 2) (ell > 2
    # lambda); at these times the tails run past the first pieces of a table
    FORMS = [
        (10, 1, 1, 1.3, "density"),
        (9, 2, 1, 0.7, "density"),
        (10, 1, 2, 0.7, "word"),
        (15, 1, 3, 0.7, "word"),
    ]

    @staticmethod
    def cold():
        bounds._piece.cache_clear()

    @pytest.mark.parametrize("case", FORMS, ids=TestChunkedTail.case_id)
    def test_warm_table_never_moves_a_value(self, case):
        L, lam, ell, t, cls = case
        calls = [(L2, lam, ell, t2, cls) for L2 in (L, L + 1, L + 7) for t2 in (0.2, 0.5, t)]
        want = {}
        for c in calls:  # each from cold tables
            self.cold()
            want[c] = bounds.log_error_envelope(*c)
        for before in (
            (L, lam, ell, t + 0.1, cls),  # deeper: a larger t
            (L + 12, lam, ell, t, cls),  # another L, whose tail starts later
            (max(ell, 3), lam, ell, t, cls),  # another L, whose tail starts sooner
        ):
            for c in calls:
                self.cold()
                bounds.log_error_envelope(*before)
                assert bounds.log_error_envelope(*c) == want[c]
        rng = np.random.default_rng(7)
        for _ in range(3):
            self.cold()
            for i in rng.permutation(len(calls)):
                assert bounds.log_error_envelope(*calls[i]) == want[calls[i]]

    @pytest.mark.parametrize(
        "calls, majorant",
        [
            ([(L, 1, 1, 1.0, "density") for L in range(9, 41)], 4),  # the ratio table
            ([(18, 2, 1, 0.1 * i, "density") for i in range(1, 9)], 2),
            ([(18, 1, 2, 0.1 * i, "word") for i in range(1, 9)], 2),
        ],
        ids=["density-lam1-L9..40", "density-lam2-t-grid", "word-ell2-t-grid"],
    )
    def test_each_order_solved_once(self, calls, majorant, solved, monkeypatch):
        # every form solves two elements per order: two omegas, or the
        # kappa of the bound and the tau of the majorant
        self.cold()
        deepest = [0]
        rows = bounds._tail_rows
        monkeypatch.setattr(
            bounds, "_tail_rows",
            lambda key, lo, hi: deepest.append(hi - 1) or rows(key, lo, hi),
        )
        for c in calls:
            bounds.log_error_envelope(*c)
        piece = 2 * bounds._CHUNK_CAP + 2
        assert sum(solved) <= 2 * max(deepest) + piece + majorant * len(calls)
        assert max(solved) <= piece  # tables grow a cache-sized piece at a time
        # a repeated or shallower call solves its up-front majorant only
        for c in (calls[-1], calls[0], calls[-1][:3] + (0.05,) + calls[-1][4:]):
            solved.clear()
            bounds.log_error_envelope(*c)
            assert solved == [majorant]

    @pytest.mark.parametrize(
        "case",
        [(10**6, 2, 1, 0.5, "density"), (10**6, 3, 1, 0.3, "density"), (10**6, 1, 3, 0.5, "word")],
    )
    def test_long_chain_solves_only_the_pieces_it_reads(self, case, solved, monkeypatch):
        # a kappa form is elementwise: a tail that starts past order 3e5
        # solves the pieces it sums, not every piece from order 1
        self.cold()
        deepest = [0]
        rows = bounds._tail_rows
        monkeypatch.setattr(
            bounds, "_tail_rows",
            lambda key, lo, hi: deepest.append(hi - 1) or rows(key, lo, hi),
        )
        got = bounds.log_error_envelope(*case)
        piece = 2 * bounds._CHUNK_CAP
        assert max(deepest) > 50 * piece
        assert sum(solved) <= 2 * piece + 2
        # the same bits as from a table filled from order 1
        self.cold()
        _, lam, ell, _, cls = case
        for i in range(max(deepest) // bounds._CHUNK_CAP + 1):
            bounds._piece((lam, ell if cls == "word" else 1, cls), bounds._CHUNK_CAP, i)
        assert bounds.log_error_envelope(*case) == got

    def test_threads_agree_with_serial(self):
        calls = [
            (L2, lam, ell, t2, cls)
            for L, lam, ell, t, cls in self.FORMS
            for L2 in (L, L + 5)
            for t2 in (0.3, t)
        ]
        self.cold()
        want = [bounds.log_error_envelope(*c) for c in calls]
        self.cold()
        start = threading.Barrier(4, timeout=60)

        def run(seed):
            order = np.random.default_rng(seed).permutation(len(calls))
            start.wait()
            return {int(i): bounds.log_error_envelope(*calls[i]) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-growth as often as possible
        try:
            with ThreadPoolExecutor(4) as pool:  # more threads than cores
                results = list(pool.map(run, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4
        for got in results:
            assert [got[i] for i in range(len(calls))] == want

    def test_cache_stays_bounded_and_eviction_never_moves_a_value(self, monkeypatch):
        # in pieces of 4 orders one deep tail reads more pieces than the cache
        # holds, so the pieces it read first are evicted and solved again
        deep = (18, 1, 1, 1.3, "density")
        calls = [(10, 1, 1, 1.0, "density"), deep, (9, 2, 1, 0.7, "density"), (10, 1, 2, 0.7, "word")]
        want = {}
        for c in calls:  # each from a cold cache, in pieces that are never evicted
            self.cold()
            want[c] = bounds.log_error_envelope(*c).hex()
        monkeypatch.setattr(bounds, "_CHUNK_CAP", 4)
        self.cold()
        assert bounds.log_error_envelope(*deep).hex() == want[deep]
        info = bounds._piece.cache_info()
        assert info.misses > bounds._TABLE_PIECES >= info.currsize
        for c in calls:
            assert bounds.log_error_envelope(*c).hex() == want[c]
            assert bounds._piece.cache_info().currsize <= bounds._TABLE_PIECES

    def test_cold_long_chain_reads_the_running_sum_one_piece_deep(self):
        # the tail from order 10^6 starts in piece 488; the pieces below it
        # are read in order first, so no piece recurses through the cache to
        # piece 0 (which fails near depth 500)
        self.cold()
        assert bounds.log_error_envelope(10**6, 1, 1, 0.5).hex() == "-0x1.522746f4b4887p+21"

    def test_warm_tables_still_refuse_a_broken_solver(self, monkeypatch):
        for case in self.FORMS:
            bounds.log_error_envelope(*case)
        monkeypatch.setattr(bounds, "_HALLEY_STEPS", 0)
        for case in self.FORMS:
            with pytest.raises(ArithmeticError, match="kappa residuals too large"):
                bounds.log_error_envelope(*case)


class TestDomain:
    """Every public entry that takes a blockade range refuses one below 1,
    and the envelope a lattice of no site, naming the value."""

    @pytest.mark.parametrize("lam", [0, -1, -2])
    def test_blockade_range_below_one(self, lam):
        message = f"blockade range must be at least 1, not {lam}"
        for call in (
            lambda: bounds.coefficient_bound(3, lam, 1, "density"),
            lambda: bounds.coefficient_bound(3, lam, 2, "word"),
            lambda: bounds.log_error_envelope(10, lam, 1, 0.5),
            lambda: bounds.log_error_envelope(10, lam, 1, 0.0, "word"),
            lambda: bounds.convergence_ratio(10, lam, 1, 1.0),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    @pytest.mark.parametrize("L", [0, -5])
    def test_envelope_needs_a_site(self, L):
        for cls in ("density", "word"):
            with pytest.raises(ValueError) as err:
                bounds.log_error_envelope(L, 1, 1, 0.5, cls)
            assert str(err.value) == f"an envelope needs at least one site, not L={L}"

    @pytest.mark.parametrize("L, lam, ell", [(2, 1, 3), (1, 1, 2), (1, 3, 2), (5, 2, 9), (7, 1, 0)])
    def test_word_must_fit_on_the_chain(self, L, lam, ell, solved):
        # refused before any solve, also at t = 0 and at a hopeless t
        for t in (0.5, 0.0, 30.0):
            with pytest.raises(ValueError) as err:
                bounds.log_error_envelope(L, lam, ell, t, "word")
            assert str(err.value) == f"a word needs 1 <= ell <= L, not ell={ell} on L={L} sites"
        assert solved == []
        # the density does not read ell
        assert math.isfinite(bounds.log_error_envelope(L, lam, ell, 0.05))

    @pytest.mark.parametrize("j, ell", [(2, 0), (5, -2), (1, 0)])
    def test_word_bound_needs_a_letter(self, j, ell, solved):
        with pytest.raises(ValueError) as err:
            bounds.coefficient_bound(j, 1, ell, "word")
        assert str(err.value) == f"a word needs ell >= 1, not ell={ell}"
        assert solved == []
        # the density does not read ell
        assert math.isfinite(bounds.coefficient_bound(j, 1, ell, "density"))

    def test_unknown_observable_class(self):
        with pytest.raises(ValueError) as err:
            bounds.coefficient_bound(1, 1, 1, "bogus")
        assert str(err.value) == "unknown observable class 'bogus'"

    def test_envelope_time_must_be_finite(self):
        with pytest.raises(ValueError) as err:
            bounds.log_error_envelope(18, 1, 1, float("nan"))
        assert str(err.value) == "time must be finite"

    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_tail_starts_past_the_universal_column(self, lam, monkeypatch):
        # the envelope sums exactly the orders the series does not certify
        starts = []
        monkeypatch.setattr(
            bounds, "_certified_tail_log", lambda chunk, ratio, start, *rest: starts.append(start)
        )
        for L in range(2 * lam + 1, 30):
            bounds.log_error_envelope(L, lam, 1, 0.5)
            assert starts[-1] == universality_threshold(ring(L, lam), density()) + 1
            for ell in (1, 2, 3):
                word = general_word(make_word({k: NUM for k in range(1, ell + 1)}))
                bounds.log_error_envelope(L, lam, ell, 0.5, "word")
                assert starts[-1] == universality_threshold(ring(L, lam), word) + 1


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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time(self, t):
        with pytest.raises(ValueError) as err:
            bounds.convergence_ratio(100, 1, 1, t)
        assert str(err.value) == "time must be finite"
