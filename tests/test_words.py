"""Word algebra: letter products, words, commutators, serialization."""

import hashlib
import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockade import bounds, series, words as W
from blockade.series import correlation_coefficients, density_coefficients, word_coefficients
from blockade.words import (
    LOWER,
    NUM,
    PROJ,
    RAISE,
    AdOrderBudgetError,
    Letter,
    OperatorSum,
    ad_power,
    adjoint,
    canonicalize,
    commutator_H,
    dumps_operator,
    hamiltonian_terms,
    infinite_chain,
    letter_mul,
    line,
    loads_operator,
    make_word,
    number_operator,
    ring,
    single_count,
    single_site,
    translation_classes,
    vacuum_expectation,
    word_adjoint,
    word_length,
    word_mul,
)

LETTERS = (LOWER, RAISE, NUM, PROJ)

# The full 16-entry single-site product table (rows: left factor).
FULL_TABLE = {
    (LOWER, LOWER): None, (LOWER, RAISE): PROJ, (LOWER, NUM): LOWER, (LOWER, PROJ): None,
    (RAISE, LOWER): NUM, (RAISE, RAISE): None, (RAISE, NUM): None, (RAISE, PROJ): RAISE,
    (NUM, LOWER): None, (NUM, RAISE): RAISE, (NUM, NUM): NUM, (NUM, PROJ): None,
    (PROJ, LOWER): LOWER, (PROJ, RAISE): None, (PROJ, NUM): None, (PROJ, PROJ): PROJ,
}

# 2x2 matrix representation (basis: ground, excited) used as an independent
# oracle for the product table.
_R = np.array([[0, 1], [0, 0]])
_MATS = {LOWER: _R, RAISE: _R.T, NUM: _R.T @ _R, PROJ: np.eye(2) - _R.T @ _R}


class TestLetterMul:
    def test_full_table(self):
        for (a, b), want in FULL_TABLE.items():
            assert letter_mul(a, b) is want

    def test_table_against_matrix_representation(self):
        for a in LETTERS:
            for b in LETTERS:
                product = _MATS[a] @ _MATS[b]
                got = letter_mul(a, b)
                if got is None:
                    assert not product.any()
                else:
                    assert np.array_equal(product, _MATS[got])

    @pytest.mark.parametrize(
        "a, b, want",
        [(PROJ, LOWER, LOWER), (PROJ, PROJ, PROJ), (LOWER, LOWER, None)],
    )
    def test_named_products(self, a, b, want):
        assert letter_mul(a, b) is want


class TestWordMul:
    def test_projector_absorbs_flip(self):
        assert word_mul(make_word({1: PROJ}), make_word({1: LOWER})) == make_word({1: LOWER})

    def test_identity(self):
        w = make_word({1: PROJ, 2: PROJ})
        assert word_mul(w, ()) == w
        assert word_mul((), w) == w

    def test_annihilating_site(self):
        # site 2 carries m * n = 0
        x = make_word({1: LOWER, 2: PROJ})
        y = make_word({1: RAISE, 2: NUM})
        assert word_mul(x, y) is None

    def test_disjoint_merge(self):
        x = make_word({1: NUM})
        y = make_word({3: PROJ})
        assert word_mul(x, y) == make_word({1: NUM, 3: PROJ})


def words(max_sites=4, span=4):
    site = st.integers(min_value=-span, max_value=span)
    letter = st.sampled_from(LETTERS)
    return st.dictionaries(site, letter, max_size=max_sites).map(make_word)


@given(words(), words())
def test_word_mul_stays_canonical(x, y):
    p = word_mul(x, y)
    if p is not None:
        sites = [s for s, _ in p]
        assert sites == sorted(set(sites))


@given(words(3, 3), words(3, 3), words(3, 3))
def test_word_mul_associative(x, y, z):
    def mul(a, b):
        return None if (a is None or b is None) else word_mul(a, b)

    assert mul(word_mul(x, y), z) == mul(x, word_mul(y, z))


@given(words(), words())
def test_adjoint_antihomomorphism(x, y):
    p = word_mul(x, y)
    q = word_mul(word_adjoint(y), word_adjoint(x))
    assert (p is None and q is None) or word_adjoint(p) == q


class TestAdjoint:
    def test_flip_letters(self):
        op = OperatorSum({make_word({1: LOWER, 2: PROJ}): 1})
        assert adjoint(op) == OperatorSum({make_word({1: RAISE, 2: PROJ}): 1})

    def test_self_adjoint_sum(self):
        op = OperatorSum(
            {make_word({1: PROJ, 2: NUM}): 1, make_word({1: PROJ, 2: PROJ}): -1}
        )
        assert adjoint(op) == op

    def test_first_commutator_is_anti_self_adjoint(self):
        chain = infinite_chain()
        ad1 = commutator_H(number_operator(0), chain)
        assert adjoint(ad1) == -ad1

    def test_involution(self):
        op = OperatorSum({make_word({0: LOWER}): Fraction(3, 7), (): 2})
        assert adjoint(adjoint(op)) == op


class TestHamiltonianTerms:
    def test_ring5_middle_term(self):
        terms = hamiltonian_terms(ring(5))
        want = OperatorSum(
            {
                make_word({1: PROJ, 2: LOWER, 3: PROJ}): 1,
                make_word({1: PROJ, 2: RAISE, 3: PROJ}): 1,
            }
        )
        assert terms[1] == want

    def test_ring2_merges_wrapped_neighbours(self):
        terms = hamiltonian_terms(ring(2))
        want = OperatorSum(
            {make_word({1: LOWER, 2: PROJ}): 1, make_word({1: RAISE, 2: PROJ}): 1}
        )
        assert terms[0] == want

    def test_line_edge_term(self):
        terms = hamiltonian_terms(line(3))
        want = OperatorSum(
            {make_word({1: LOWER, 2: PROJ}): 1, make_word({1: RAISE, 2: PROJ}): 1}
        )
        assert terms[0] == want

    def test_fully_blockaded_ring(self):
        # range covers all other sites: flip dressed by every other projector
        terms = hamiltonian_terms(ring(4, 3))
        want = OperatorSum(
            {
                make_word({1: LOWER, 2: PROJ, 3: PROJ, 4: PROJ}): 1,
                make_word({1: RAISE, 2: PROJ, 3: PROJ, 4: PROJ}): 1,
            }
        )
        assert terms[0] == want

    def test_rejects_tiny_ring(self):
        with pytest.raises(ValueError):
            ring(1)

    def test_construction_refuses_covered_ring(self):
        # the ring domain is stated once, in ModelSpec
        for L in range(2, 7):
            for lam in range(L, 9):
                with pytest.raises(ValueError) as err:
                    ring(L, lam)
                assert str(err.value) == (
                    f"blockade range {lam} covers the whole ring of {L} sites; "
                    "only the all-ground and single-excitation states survive"
                )
        assert ring(3, 2).size == 3 and ring(4, 3).size == 4

    def test_infinite_needs_lazy_terms(self):
        with pytest.raises(ValueError):
            hamiltonian_terms(infinite_chain())


class TestCommutator:
    def test_matches_dressed_flip_difference(self):
        chain = infinite_chain()
        got = commutator_H(number_operator(0), chain)
        want = OperatorSum(
            {
                make_word({-1: PROJ, 0: LOWER, 1: PROJ}): 1,
                make_word({-1: PROJ, 0: RAISE, 1: PROJ}): -1,
            }
        )
        assert got == want

    def test_identity_commutes(self):
        assert commutator_H(OperatorSum({(): Fraction(5, 3)}), ring(4)) == 0

    def test_two_site_ring(self):
        got = commutator_H(number_operator(1), ring(2))
        want = OperatorSum(
            {make_word({1: LOWER, 2: PROJ}): 1, make_word({1: RAISE, 2: PROJ}): -1}
        )
        assert got == want

    def test_matches_full_term_sum_on_ring(self):
        # restriction to the support window must agree with the full sum
        model = ring(7)
        op = OperatorSum({make_word({2: NUM, 4: LOWER}): 1})
        full = OperatorSum({})
        for h in hamiltonian_terms(model):
            full = full + (h * op - op * h)
        assert commutator_H(op, model) == full


class TestAdPower:
    def test_order_zero(self):
        op = number_operator(3)
        assert ad_power(op, line(5), 0) == op

    def test_second_order_structure(self):
        got = ad_power(number_operator(0), infinite_chain(), 2)
        want = OperatorSum(
            {
                make_word({-1: PROJ, 0: NUM, 1: PROJ}): 2,
                make_word({-1: PROJ, 0: PROJ, 1: PROJ}): -2,
                make_word({-2: PROJ, -1: LOWER, 0: RAISE, 1: PROJ}): 1,
                make_word({-2: PROJ, -1: RAISE, 0: LOWER, 1: PROJ}): 1,
                make_word({-1: PROJ, 0: LOWER, 1: RAISE, 2: PROJ}): 1,
                make_word({-1: PROJ, 0: RAISE, 1: LOWER, 2: PROJ}): 1,
            }
        )
        assert got == want

    def test_two_site_ring_fourth_order(self):
        got = ad_power(number_operator(1), ring(2), 4)
        want = OperatorSum(
            {
                make_word({1: NUM, 2: PROJ}): 10,
                make_word({1: PROJ, 2: NUM}): 6,
                make_word({1: PROJ, 2: PROJ}): -16,
                make_word({1: LOWER, 2: RAISE}): 8,
                make_word({1: RAISE, 2: LOWER}): 8,
            }
        )
        assert got == want

    def test_order_budget_refusal(self):
        with pytest.raises(AdOrderBudgetError) as err:
            ad_power(number_operator(0), infinite_chain(), 13)
        assert err.value.requested == 13


class TestVacuumExpectation:
    def test_second_order(self):
        ad2 = ad_power(number_operator(0), infinite_chain(), 2)
        assert vacuum_expectation(ad2) == -2

    def test_fourth_order(self):
        ad4 = ad_power(number_operator(0), infinite_chain(), 4)
        assert vacuum_expectation(ad4) == -24

    def test_projector_word(self):
        op = OperatorSum({make_word({3: PROJ, 5: PROJ}): Fraction(7, 2)})
        assert vacuum_expectation(op) == Fraction(7, 2)

    def test_odd_orders_vanish(self):
        chain = infinite_chain()
        op = number_operator(0)
        for j in (1, 3, 5):
            assert vacuum_expectation(ad_power(op, chain, j)) == 0

    def test_contracted_expectation_equals_direct(self):
        for model in (infinite_chain(), ring(5), line(6), infinite_chain(2)):
            op = ad_power(number_operator(1), model, 3)
            direct = vacuum_expectation(commutator_H(op, model))
            assert W.class_commutator_expectation(W._pack_operator(op, model)[0]) == direct


class TestStructuralInvariants:
    @pytest.mark.parametrize("model", [infinite_chain(), ring(5)])
    def test_alternating_self_adjointness(self, model):
        op = number_operator(1)
        for j in range(7):
            adj = ad_power(op, model, j)
            assert adjoint(adj) == (adj if j % 2 == 0 else -adj)

    def test_single_letter_parity(self):
        chain = infinite_chain()
        cur = number_operator(0)
        for j in range(1, 7):
            cur = commutator_H(cur, chain)
            assert all(single_count(w) % 2 == j % 2 for w in cur.terms)

    def test_words_flanked_by_projectors(self):
        chain = infinite_chain()
        cur = number_operator(0)
        for j in range(1, 7):
            cur = commutator_H(cur, chain)
            for w in cur.terms:
                assert w[0][1] is PROJ and w[-1][1] is PROJ
                assert word_length(w) <= j + 2

    def test_word_count_bound(self):
        chain = infinite_chain()
        cur = number_operator(0)
        for j in range(1, 9):
            cur = commutator_H(cur, chain)
            cap = 2 * 6 ** (j - 1) * np.exp(bounds.log_kappa(float(j)))
            assert len(cur.terms) <= cap


class TestCanonicalize:
    def test_ring_residue_folding(self):
        op = single_site(NUM, 5)
        assert canonicalize(op, ring(4)) == single_site(NUM, 1)

    def test_collision_annihilates(self):
        # n and m at the same residue multiply to zero
        op = OperatorSum({make_word({1: NUM, 5: PROJ}): 1})
        assert canonicalize(op, ring(4)) == 0

    def test_line_rejects_outside_sites(self):
        with pytest.raises(ValueError):
            canonicalize(single_site(NUM, 9), line(4))


class TestSerialization:
    def test_known_lines(self):
        op = OperatorSum(
            {
                make_word({-1: PROJ, 0: RAISE, 1: PROJ}): -1,
                make_word({-1: PROJ, 0: LOWER, 1: PROJ}): 1,
            }
        )
        assert dumps_operator(op) == "1/1 -1:m 0:r 1:m\n-1/1 -1:m 0:rd 1:m"

    def test_identity_term(self):
        op = OperatorSum({(): Fraction(-3, 4)})
        assert dumps_operator(op) == "-3/4"

    @given(
        st.dictionaries(
            words(3, 3),
            st.fractions(
                min_value=-5, max_value=5, max_denominator=40
            ).filter(lambda f: f != 0),
            max_size=5,
        )
    )
    @settings(max_examples=60)
    def test_round_trip(self, terms):
        op = OperatorSum(terms)
        assert loads_operator(dumps_operator(op)) == op

    def test_deterministic(self):
        op = ad_power(number_operator(0), infinite_chain(), 3)
        assert dumps_operator(op) == dumps_operator(loads_operator(dumps_operator(op)))

    @pytest.mark.parametrize(
        "seed, model, top, digest",
        [
            (number_operator(0), infinite_chain(1), 6, "9aada4bc0a904664"),
            (number_operator(0), infinite_chain(2), 4, "1d074a85e4c4d9fd"),
            (number_operator(1), ring(2), 4, "d561275cc2cba5a0"),
            (number_operator(1), ring(5), 5, "42564582ce2ecdc6"),
            (number_operator(2), ring(4, 3), 4, "8f1fbfce64046ae6"),
            (number_operator(3), line(6), 5, "1c3e2a38e9715298"),
            (OperatorSum({make_word({0: NUM, 2: NUM}): 1}), infinite_chain(1), 4, "ab2b704bd9a844d3"),
        ],
    )
    def test_nested_commutator_bytes(self, seed, model, top, digest):
        # digests of the serialised ad^0..ad^top, as written by the tuple engine
        h = hashlib.sha256()
        for j in range(top + 1):
            op = ad_power(seed, model, j)
            assert dumps_operator(op) == dumps_operator(ref_ad_power(seed, model, j))
            h.update(dumps_operator(op).encode() + b"\n\n")
        assert h.hexdigest()[:16] == digest


# ---------------------------------------------------------------------------
# tuple reference
# ---------------------------------------------------------------------------
#
# The site-by-site merge of (site, Letter) words, with the product table
# FULL_TABLE, that the packed kernel replaced.  It shares no code with
# `blockade.words` beyond `make_word` and the model's neighbourhoods, and is
# the differential oracle for the packed kernel and the translation classes.


def ref_word_mul(x, y):
    out = dict(x)
    for s, a in y:
        if s in out:
            p = FULL_TABLE[(out[s], a)]
            if p is None:
                return None
            out[s] = p
        else:
            out[s] = a
    return make_word(out)


def ref_drive_words(model, k):
    k = model.canonical_site(k)
    flank = {j: PROJ for j in model.neighborhood(k)}
    return make_word({**flank, k: LOWER}), make_word({**flank, k: RAISE})


def ref_commutator_H(op, model):
    lam = model.blockade_range
    acc = {}
    for w, c in op.terms.items():
        near = {k for s, _ in w for k in range(s - lam, s + lam + 1)}
        near = {model.canonical_site(k) for k in near if model.contains_site(k)}
        for k in sorted(near):
            for h in ref_drive_words(model, k):
                for p, sign in ((ref_word_mul(h, w), 1), (ref_word_mul(w, h), -1)):
                    if p is not None:
                        acc[p] = acc.get(p, 0) + sign * c
    return OperatorSum(acc)


def ref_ad_power(op, model, order):
    for _ in range(order):
        op = ref_commutator_H(op, model)
    return op


def ref_vacuum_expectation(op):
    return sum(c for w, c in op.terms.items() if all(a is PROJ for _, a in w))


def ref_commutator_vacuum_expectation(op, model):
    total = 0
    for w, c in op.terms.items():
        singles = [s for s, a in w if a in (LOWER, RAISE)]
        if len(singles) != 1:
            continue
        for h in ref_drive_words(model, singles[0]):
            for p, sign in ((ref_word_mul(h, w), 1), (ref_word_mul(w, h), -1)):
                if p is not None and all(a is PROJ for _, a in p):
                    total += sign * c
    return total


def ref_series(seed, model, max_order):
    """Per-site Taylor data of <seed(t)>, one commutator per order."""
    vals = [Fraction(ref_vacuum_expectation(seed))]
    cur = seed
    for order in range(1, max_order + 1):
        exp = ref_commutator_vacuum_expectation(cur, model)
        vals.append(Fraction((-1) ** (order // 2) * exp, math.factorial(order)))
        if order < max_order:
            cur = ref_commutator_H(cur, model)
    return tuple(vals)


@st.composite
def model_and_operator(draw):
    topology = draw(st.sampled_from(["ring", "line", "infinite"]))
    lam = draw(st.integers(1, 3))
    if topology == "ring":
        model = ring(draw(st.integers(lam + 1, 12)), lam)
        site = st.integers(1, model.size)
    elif topology == "line":
        model = line(draw(st.integers(1, 12)), lam)
        site = st.integers(1, model.size)
    else:
        model = infinite_chain(lam)
        site = st.integers(-5, 5)
    word = st.dictionaries(site, st.sampled_from(LETTERS), max_size=4).map(make_word)
    coeff = st.integers(-3, 3).filter(bool)
    return model, OperatorSum(draw(st.dictionaries(word, coeff, min_size=1, max_size=4)))


class TestPackedKernel:
    @given(model_and_operator())
    @example((ring(2), number_operator(2)))
    @example((ring(4, 3), OperatorSum({make_word({1: NUM, 3: RAISE}): 1, make_word({2: PROJ}): -2})))
    @settings(max_examples=100, deadline=None)
    def test_commutators_match_tuple_reference(self, case):
        model, op = case
        for _ in range(3):
            if len(op.terms) > 200:
                break  # enough words to cover every overlap pattern; keeps examples cheap
            want = ref_commutator_H(op, model)
            assert commutator_H(op, model) == want
            assert W.class_commutator_expectation(
                W._pack_operator(op, model)[0]
            ) == ref_commutator_vacuum_expectation(op, model)
            assert vacuum_expectation(op) == ref_vacuum_expectation(op)
            op = want

    @given(words(), words())
    @settings(max_examples=200)
    def test_word_mul_matches_tuple_reference(self, x, y):
        assert word_mul(x, y) == ref_word_mul(x, y)

    @given(
        st.integers(2, 12).flatmap(
            lambda L: st.tuples(
                st.just(L),
                st.lists(st.sampled_from(LETTERS + (None,)), min_size=L, max_size=L),
                st.integers(0, L - 1),
            )
        )
    )
    def test_ring_class_is_a_canonical_rotation(self, case):
        L, letters, r = case
        placed = [(s, a) for s, a in enumerate(letters) if a is not None]

        def rotated(shift):
            return W._pack(make_word({(s + shift) % L + 1: a for s, a in placed}), 1)

        rep = W._ring_class(rotated(0), L)
        assert W._ring_class(rotated(r), L) == rep
        assert rep in {rotated(q) for q in range(L)}

    @given(words(4, 6), st.integers(-9, 9))
    def test_shift_class_is_the_word_from_bit_zero(self, w, shift):
        moved = tuple((s + shift) for s, _ in w)
        x = make_word({s + shift: a for s, a in w})
        base = min(moved, default=0) - 3
        rep = W._shift_class(W._pack(x, base))
        assert rep == W._pack(w, w[0][0] if w else 0)

    def test_translation_classes_of_translates_coincide(self):
        for model, sites in ((ring(7, 2), range(1, 8)), (infinite_chain(2), range(-3, 4))):
            op = lambda k: OperatorSum({make_word({k: NUM, k + 3: LOWER}): 1})
            classes = {tuple(translation_classes(op(k), model).items()) for k in sites}
            assert len(classes) == 1

    @pytest.mark.parametrize("L", range(3, 13))
    def test_ring_class_series_equals_per_site_series(self, L):
        model = ring(L)
        assert density_coefficients(model, 5).values == ref_series(number_operator(1), model, 10)

    @pytest.mark.parametrize(
        "model, order",
        [(infinite_chain(1), 10), (infinite_chain(2), 8), (ring(5, 2), 8), (ring(8, 2), 8), (ring(11, 2), 8)],
    )
    def test_class_series_equals_per_site_series(self, model, order):
        site = 0 if model.topology == "infinite" else 1
        got = density_coefficients(model, order // 2).values
        assert got == ref_series(number_operator(site), model, order)

    @pytest.mark.parametrize("model, d", [(infinite_chain(1), 2), (ring(9), 3), (ring(10, 2), 4)])
    def test_pair_class_series_equals_per_site_series(self, model, d):
        seed = OperatorSum({make_word({1: NUM, 1 + d: NUM}): 1})
        assert correlation_coefficients(model, d, 4).values == ref_series(seed, model, 8)

    @pytest.mark.parametrize("model", [infinite_chain(1), ring(6), ring(7, 2)])
    def test_word_class_series_equals_per_site_series(self, model):
        w = make_word({2: RAISE, 3: PROJ, 4: NUM})
        got = word_coefficients(model, w, 7).values
        assert got == ref_series(OperatorSum({w: 1}), model, 7)


# ---------------------------------------------------------------------------
# reach bound of the series
# ---------------------------------------------------------------------------


def weight(p):
    """Letter bits of a packed word: 1 for r and rd, 2 for n, 0 for m."""
    _, O, I = p
    return O.bit_count() + I.bit_count()


class TestReachBound:
    @given(model_and_operator(), st.integers(1, 6))
    @example((infinite_chain(2), OperatorSum({make_word({0: NUM, 1: NUM, 3: RAISE, 5: NUM}): 1})), 6)
    @example((line(7, 1), OperatorSum({make_word({1: NUM, 4: NUM, 7: NUM}): 2})), 6)
    @example((ring(9, 2), OperatorSum({make_word({1: RAISE, 4: LOWER, 7: NUM}): 1})), 3)
    @settings(max_examples=30, deadline=None)
    def test_pruned_series_equals_unpruned_reference(self, case, max_order):
        model, op = case
        got = series._expectation_series(op, model, max_order)
        assert tuple(got) == ref_series(op, model, max_order)
        if min(weight(p) for p in W._pack_operator(op, model)[0]) > max_order:
            assert not any(got)  # no word of the seed can reach the vacuum in time

    @given(model_and_operator(), st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_each_commutator_moves_the_weight_by_one(self, case, reach):
        model, op = case
        terms, _ = W._pack_operator(op, model)
        for p in terms:
            assert {abs(weight(q) - weight(p)) for q in W._commute({p: 1}, model)} <= {1}
        full = W._commute(terms, model)
        pruned = W._commute(terms, model, reach)
        assert pruned == {q: c for q, c in full.items() if weight(q) <= reach}

    def test_a_reach_one_lower_changes_a_golden_coefficient(self, monkeypatch):
        golden = [Fraction(x) for x in ("1", "-1", "3/5", "-81/280", "3023/25200")]
        assert density_coefficients(infinite_chain(1), 5).even_values() == golden
        commute = series.commutator_classes
        monkeypatch.setattr(
            series, "commutator_classes", lambda c, model, reach: commute(c, model, reach - 1)
        )
        assert density_coefficients(infinite_chain(1), 5).even_values() != golden

    def test_words_built_stay_pruned(self, monkeypatch):
        # unpruned, this series builds 726,130 words, 491,942 at its last order
        built = []
        commute = W._commute

        def counted(terms, model, reach=None):
            out = commute(terms, model, reach)
            built.append(len(out))
            assert sum(built) <= 50_000
            return out

        monkeypatch.setattr(W, "_commute", counted)
        density_coefficients(infinite_chain(3), 6)
        assert len(built) == 11
        assert built[-1] <= 1_000
