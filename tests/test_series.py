"""Taylor coefficients: golden values, universality metadata, deficits, export."""

import math
from fractions import Fraction

import pytest

import blockade.series
from blockade import bounds
from blockade.dynamics import taylor_oracle
from blockade.series import (
    SeriesCoefficients,
    _deficit,
    boundary_deficits,
    certified_order,
    coefficient_records,
    correlation,
    correlation_coefficients,
    density,
    density_coefficients,
    eval_even_series,
    eval_series,
    general_word,
    local_number,
    observable_scale,
    records_to_csv,
    universality_threshold,
    word_coefficients,
)
from blockade.words import (
    LOWER,
    NUM,
    PROJ,
    AdOrderBudgetError,
    infinite_chain,
    line,
    make_word,
    ring,
)


def F(s):
    return Fraction(s)


UNIVERSAL_NN = [F("1"), F("-1"), F("3/5"), F("-81/280"), F("3023/25200")]


class TestDensity:
    def test_universal_nearest_neighbour(self):
        sc = density_coefficients(infinite_chain(1), 5)
        assert sc.even_values() == UNIVERSAL_NN

    def test_universal_range2(self):
        sc = density_coefficients(infinite_chain(2), 4)
        assert sc.even_values() == [F("1"), F("-5/3"), F("77/45"), F("-713/504")]

    def test_universal_range3(self):
        sc = density_coefficients(infinite_chain(3), 3)
        assert sc.even_values() == [F("1"), F("-7/3"), F("152/45")]

    def test_two_site_ring(self):
        sc = density_coefficients(ring(2), 2)
        assert sc.even_values() == [F(1), F("-2/3")]

    def test_symbolic_confirms_oracle_through_t16(self, monkeypatch):
        # ring 18 is universal through j = 17, so its exact coefficients are
        # the infinite chain's; the symbolic route confirms the first eight
        monkeypatch.setattr(blockade.series, "DEFAULT_ORDER_BUDGET", 16)
        sc = density_coefficients(infinite_chain(1), 8)
        orc = taylor_oracle(ring(18), density(), 17)
        assert sc.even_values() == orc.coefficients[:8]

    def test_ring_covered_by_the_blockade_refused(self):
        with pytest.raises(ValueError, match="covers the whole ring of 3 sites"):
            density_coefficients(ring(3, 3), 2)
        assert density_coefficients(ring(4, 3), 2).even_values()[0] == 1

    @pytest.mark.parametrize("L", [6, 9])
    def test_open_chain_closed_forms(self, L):
        sc = density_coefficients(line(L), 3)
        c = sc.even_values()
        assert c[0] == 1
        assert c[1] == -(1 - Fraction(2, 3 * L))
        assert c[2] == Fraction(3, 5) * (1 - Fraction(38, 27 * L))

    @pytest.mark.parametrize(
        "model, jmax", [(line(L), 2) for L in range(17, 21)] + [(line(17, 2), 1)]
    )
    def test_open_chain_equals_oracle_with_bulk_sites(self, model, jmax):
        # chains long enough that, at this order, some of their sites feel
        # neither end: the whole-chain series against the oracle
        sym = density_coefficients(model, jmax).even_values()
        assert sym == taylor_oracle(model, density(), jmax).coefficients

    def test_leading_coefficient_everywhere(self):
        for model in (infinite_chain(2), ring(5, 2), line(4, 3), ring(3)):
            assert density_coefficients(model, 1).even_values()[0] == 1

    def test_odd_orders_stored_as_zero(self):
        sc = density_coefficients(infinite_chain(), 3)
        assert [sc.coefficient(n) for n in (1, 3, 5)] == [0, 0, 0]
        assert sc.max_order == 6

    def test_budget_refusal(self):
        with pytest.raises(AdOrderBudgetError):
            density_coefficients(infinite_chain(), 7)

    @pytest.mark.parametrize(
        "series, order",
        [
            (lambda: density_coefficients(ring(6), 0), 0),
            (lambda: density_coefficients(ring(6), -1), -2),
            (lambda: correlation_coefficients(ring(8), 2, 0), 0),
            (lambda: word_coefficients(line(4), make_word({1: LOWER}), 0), 0),
        ],
        ids=["density-0", "density-neg", "correlation-0", "word-0"],
    )
    def test_non_positive_order_refused(self, series, order):
        with pytest.raises(ValueError, match=f"^the series needs at least order 1, not {order}$"):
            series()


class TestRingUniversality:
    def test_matches_until_reach_runs_out(self):
        uni = density_coefficients(infinite_chain(), 5).even_values()
        c3 = density_coefficients(ring(3), 3).even_values()
        assert c3[:2] == uni[:2] and c3[2] != uni[2]
        c4 = density_coefficients(ring(4), 4).even_values()
        assert c4[:3] == uni[:3] and c4[3] != uni[3]
        c6 = density_coefficients(ring(6), 5).even_values()
        assert c6 == uni


class TestCorrelation:
    def test_distance2(self):
        sc = correlation_coefficients(infinite_chain(), 2, 5)
        assert sc.even_values() == [
            F("0"), F("1"), F("-3/2"), F("283/240"), F("-739/1120"),
        ]

    def test_distance3(self):
        sc = correlation_coefficients(infinite_chain(), 3, 5)
        assert sc.even_values() == [
            F("0"), F("1"), F("-2"), F("61/30"), F("-2393/1680"),
        ]

    @pytest.mark.parametrize("d", [4, 6])
    def test_leading_orders_any_distance(self, d):
        sc = correlation_coefficients(infinite_chain(), d, 2)
        assert sc.even_values() == [F(0), F(1)]

    def test_leading_orders_range2(self):
        sc = correlation_coefficients(infinite_chain(2), 3, 2)
        assert sc.even_values() == [F(0), F(1)]

    def test_rejects_blockaded_distance(self):
        with pytest.raises(ValueError):
            correlation_coefficients(infinite_chain(1), 1, 2)
        with pytest.raises(ValueError):
            correlation_coefficients(infinite_chain(2), 2, 2)

    def test_rejects_cyclically_blockaded_distance(self):
        with pytest.raises(ValueError):
            correlation_coefficients(ring(6), 5, 2)  # wraps to distance 1

    def test_pair_factorises_at_leading_order(self):
        # normalised pair correlation tends to 1: c_{d,2} equals c_1 squared
        c1 = density_coefficients(infinite_chain(), 1).even_values()[0]
        cd = correlation_coefficients(infinite_chain(), 2, 2).even_values()[1]
        assert cd == c1 * c1


class TestWordCoefficients:
    def test_local_number_matches_density(self):
        sc = word_coefficients(ring(5), make_word({2: NUM}), 8)
        dc = density_coefficients(ring(5), 4)
        assert sc.values == dc.values

    def test_ground_projector_complements_density(self):
        sc = word_coefficients(infinite_chain(), make_word({0: PROJ}), 4)
        assert sc.coefficient(0) == 1
        assert sc.coefficient(2) == -1
        assert sc.coefficient(4) == 1  # complements -(-1) at fourth order

    def test_pair_word_matches_correlation(self):
        sc = word_coefficients(infinite_chain(), make_word({0: NUM, 2: NUM}), 10)
        cc = correlation_coefficients(infinite_chain(), 2, 5)
        assert sc.values == cc.values

    def test_single_letter_word_parity(self):
        sc = word_coefficients(infinite_chain(), make_word({0: LOWER}), 3)
        assert sc.odd_orders_imaginary
        assert sc.coefficient(0) == 0
        assert sc.coefficient(2) == 0
        assert sc.coefficient(1) == -1  # the dressed flip meets the bare one


class TestUniversalityThreshold:
    def test_density_examples(self):
        assert universality_threshold(ring(18), density()) == 17
        assert universality_threshold(ring(9, 2), density()) == 4

    def test_correlation_example(self):
        assert universality_threshold(ring(10), correlation(3)) == 7

    def test_general_word(self):
        w = general_word(make_word({1: NUM, 3: NUM}))
        assert universality_threshold(ring(10), w) == (10 - 3) // 2

    def test_open_chain_has_none(self):
        assert universality_threshold(line(12), density()) == 0

    def test_infinite_raises(self):
        with pytest.raises(ValueError):
            universality_threshold(infinite_chain(), density())

    def test_certified_order_classes(self):
        assert certified_order(18, 1, 1, "density") == 17
        assert certified_order(9, 2, 5, "density") == 4  # ell is not read
        assert certified_order(10, 1, 3, "word") == 3
        assert certified_order(13, 3, 1, "word") == 2
        with pytest.raises(ValueError, match="unknown observable class 'pair'"):
            certified_order(10, 1, 1, "pair")

    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_overlay_ring_is_the_smallest_certified(self, lam):
        # `blockade simulate --overlay-universal` inverts the density class
        # as ring(lam * jmax + 1, lam): the smallest ring certified through jmax
        for jmax in range(1, 13):
            reached = []
            for L in range(2, lam * jmax + 2):
                try:
                    model = ring(L, lam)
                except ValueError:  # a ring the blockade covers
                    continue
                if universality_threshold(model, density()) >= jmax:
                    reached.append(L)
            assert reached == [lam * jmax + 1]

    def test_observable_scale(self):
        assert observable_scale(density(), ring(12)) == Fraction(1, 12)
        assert observable_scale(density(), line(7, 2)) == Fraction(1, 7)
        assert observable_scale(density(), infinite_chain()) == 1
        assert observable_scale(local_number(3), ring(12)) == 1
        assert observable_scale(correlation(2), line(7)) == 1

    def test_metadata_flags(self):
        sc = density_coefficients(ring(4), 4)
        assert sc.is_universal(6) and not sc.is_universal(8)
        sc = density_coefficients(infinite_chain(), 2)
        assert sc.is_universal(4)


class TestBoundaryDeficits:
    def test_reference_values(self):
        assert boundary_deficits(5, L_probe=12) == [
            F("0"), F("2/3"), F("38/27"), F("518/243"), F("76016/27207"),
        ]

    def test_probe_independence(self):
        uni = density_coefficients(infinite_chain(), 2).even_values()
        for L in (6, 9):
            c = density_coefficients(line(L), 2).even_values()
            assert _deficit(c[1], uni[1], L) == F("2/3")

    def test_zero_universal_guard(self):
        assert _deficit(F(1), F(0), 7) is None

    @pytest.mark.parametrize("L, jmax", [(8, 3), (30, 5), (60, 5)])
    def test_deficit_identity_other_size(self, L, jmax):
        # c_j(L) = c_j (1 - deficit_j / L) exactly, checked at sizes not
        # probed; 30 and 60 are past the 26-site cap, where no oracle reaches
        qs = boundary_deficits(jmax, L_probe=12)
        uni = density_coefficients(infinite_chain(), jmax).even_values()
        c = density_coefficients(line(L), jmax).even_values()
        assert c == [uni[j] * (1 - qs[j] / L) for j in range(jmax)]

    def test_deficit_identity_with_range2_bulk_sites(self):
        # line(33, 2) is past every lattice the oracle can enumerate
        q = boundary_deficits(2, L_probe=12, blockade_range=2)[1]
        uni = density_coefficients(infinite_chain(2), 2).coefficient(4)
        c = density_coefficients(line(33, 2), 2).coefficient(4)
        assert c == uni * (1 - q / 33)


class TestEvalSeries:
    def test_zero_time(self):
        sc = density_coefficients(infinite_chain(), 3)
        assert eval_series(sc, 0.0) == 0.0

    def test_horner_matches_direct(self):
        sc = density_coefficients(infinite_chain(), 5)
        t = 0.37
        direct = sum(float(sc.coefficient(n)) * t**n for n in range(sc.max_order + 1))
        assert math.isclose(eval_series(sc, t), direct, rel_tol=1e-14)

    def test_truncation_prefixes_alternate(self):
        sc = density_coefficients(infinite_chain(), 5)
        t = 0.1
        partials = [eval_series(sc, t, truncation=2 * j) for j in range(1, 6)]
        diffs = [b - a for a, b in zip(partials, partials[1:])]
        assert partials[0] == pytest.approx(t * t)
        assert all(d1 * d2 < 0 for d1, d2 in zip(diffs, diffs[1:]))

    def test_even_layout_is_the_same_evaluator(self):
        sc = density_coefficients(infinite_chain(), 5)
        for i in range(-40, 41):
            t = 0.05 * i
            assert eval_even_series(sc.even_values(), t) == eval_series(sc, t)

    def test_truncation_capped(self):
        sc = density_coefficients(infinite_chain(), 2)
        with pytest.raises(ValueError):
            eval_series(sc, 0.1, truncation=12)


class TestBounds:
    def test_universal_coefficients_below_class_bound(self):
        for j, c in enumerate(UNIVERSAL_NN, 1):
            assert math.log(abs(c)) <= bounds.coefficient_bound(j, 1, 1, "density")


class TestObservableText:
    def test_names(self):
        assert str(density()) == "density"
        assert str(local_number(3)) == "number[3]"
        assert str(correlation(2)) == "correlation[d=2]"
        assert str(general_word(make_word({0: LOWER, 2: NUM}))) == "word[0:r 2:n]"
        assert str(general_word(())) == "word[1]"


class TestExport:
    def test_records_shape(self):
        sc = density_coefficients(ring(4), 2)
        recs = coefficient_records(sc)
        assert len(recs) == 5
        assert recs[2] == {
            "observable": "density",
            "topology": "ring",
            "L": 4,
            "lambda_b": 1,
            "order": 2,
            "numerator": 1,
            "denominator": 1,
            "universal": True,
        }

    def test_csv_modes(self):
        sc = density_coefficients(ring(2), 2)
        exact = records_to_csv(coefficient_records(sc))
        assert exact[-1].endswith("-2/3,false")
        decimal = records_to_csv(coefficient_records(sc), decimal=True)
        assert decimal[-1].split(",")[-2] == repr(-2 / 3)
