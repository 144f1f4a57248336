"""Constrained basis construction and exact integer matrices."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockade.basis
from blockade.basis import (
    SparseIntMatrix,
    blockade_dimension,
    build_basis,
    drive_matrix_recursive,
    dumps_matrix,
    hamiltonian_matrix,
    observable_matrix,
    orbit_sector,
    parity_matrix,
    total_number_matrix_recursive,
)
from blockade.dynamics import _sector_eigensystem, evolve, spectral_checks
from blockade.series import correlation, density, general_word, local_number
from blockade.words import (
    LOWER,
    NUM,
    PROJ,
    RAISE,
    Letter,
    infinite_chain,
    line,
    make_word,
    ring,
)


def brute_force_states(L, lam, cyclic):
    """Independent enumeration: all bitsets with pairwise distances > lam."""
    out = []
    for s in range(1 << L):
        sites = [k for k in range(L) if s >> k & 1]
        ok = True
        for a, b in itertools.combinations(sites, 2):
            dist = b - a
            if cyclic:
                dist = min(dist, L - dist)
            if dist <= lam:
                ok = False
                break
        if ok:
            out.append(s)
    return out


class TestDimensions:
    @pytest.mark.parametrize("L, want", [(1, 2), (2, 3), (3, 5), (18, 6765)])
    def test_open_chain_fibonacci(self, L, want):
        assert build_basis(line(L)).dimension == want
        assert blockade_dimension(line(L)) == want

    def test_ring4(self):
        b = build_basis(ring(4))
        assert b.dimension == 7
        assert set(b.states) == set(brute_force_states(4, 1, cyclic=True))
        assert b.states[0] == 0  # all-ground first
        assert b.state_string(5) == "1010"

    @pytest.mark.parametrize("lam", [1, 2, 3])
    @pytest.mark.parametrize("topology", ["ring", "line"])
    def test_against_brute_force(self, lam, topology, subtests=None):
        for L in range(max(2, lam + 1), 13):
            if topology == "ring" and lam >= L:
                continue
            model = ring(L, lam) if topology == "ring" else line(L, lam)
            b = build_basis(model)
            want = brute_force_states(L, lam, cyclic=topology == "ring")
            assert sorted(b.states) == want
            assert blockade_dimension(model) == len(want)
            assert all(b.index[s] == i for i, s in enumerate(b.states))

    def test_open_chain_two_term_recursion(self):
        # a ground site, or an excited site forcing lam ground sites before it
        for lam in range(1, 9):
            d = {i: 1 for i in range(-lam, 1)}
            for L in range(1, 61):
                d[L] = d[L - 1] + d[L - lam - 1]
                assert blockade_dimension(line(L, lam)) == d[L]

    def test_closed_form(self):
        golden = (1 + math.sqrt(5)) / 2
        for L in range(1, 31):
            closed = (golden ** (L + 2) - (-1 / golden) ** (L + 2)) / math.sqrt(5)
            assert round(closed) == blockade_dimension(line(L))

    def test_saturated_ring_collapses(self):
        # blockade reaching every other site leaves only single excitations
        assert blockade_dimension(ring(6, 3)) == 7
        assert build_basis(ring(6, 3)).dimension == 7

    def test_rejections(self):
        with pytest.raises(ValueError):
            build_basis(ring(4, 4))
        with pytest.raises(ValueError):
            build_basis(infinite_chain())
        with pytest.raises(ValueError):
            blockade_dimension(infinite_chain())


def filtered_states(L, lam, cyclic):
    """Brute-force filter of all 2^L occupations: no excited pair d <= lam
    apart, by shifting (or rotating) the bitset onto itself."""
    mask = (1 << L) - 1

    def clash(s, d):
        if cyclic:
            return s & ((s << d | s >> (L - d)) & mask)
        return s & (s >> d)

    return [s for s in range(1 << L) if not any(clash(s, d) for d in range(1, lam + 1))]


class TestEnumeration:
    @pytest.mark.parametrize("lam", [1, 2, 3, 5])
    @pytest.mark.parametrize("topology", ["ring", "line"])
    def test_states_equal_brute_force_filter(self, topology, lam):
        for L in range(1, 15):
            if topology == "ring" and not lam < L:
                continue
            model = ring(L, lam) if topology == "ring" else line(L, lam)
            states = list(build_basis(model).states)
            assert states == filtered_states(L, lam, cyclic=topology == "ring")

    def test_memory_follows_the_dimension(self):
        # a mask over all 2^22 occupations peaked at 104 MB here
        tracemalloc.start()
        try:
            basis = build_basis(ring(22, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.dimension == 4489
        assert peak < 16 * 2**20

    def test_cap_message(self):
        with pytest.raises(ValueError, match="bitset enumeration capped at 26 sites"):
            build_basis(ring(27, 2))

    @pytest.mark.parametrize("L", [27, 40])
    def test_open_chain_refused_before_enumerating(self, L):
        # line(40) has 267,914,296 admissible states
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"capped at 26 sites \\(asked {L}\\)"):
                build_basis(line(L))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def placed_observables(model):
    """Observables of every kind that fit ``model``: the density, end and
    middle site counters, pair counters inside and outside the blockade, and
    words that raise, lower, leave the subspace (neighbouring raises) or, on
    a ring, fold to zero (n and m on one site) or wrap past the seam."""
    L = model.size
    out = [density(), local_number(1), local_number(L), local_number((L + 1) // 2)]
    out += [correlation(d, site=1) for d in range(1, min(L - 1, 4) + 1)]
    words = [{1: RAISE}, {L: LOWER}, {1: RAISE, 2: RAISE}, {1: LOWER, 3: RAISE}, {2: NUM, 4: PROJ}]
    if model.topology == "ring":
        words += [{1: NUM, L + 1: PROJ}, {L: RAISE, L + 2: NUM}, {2: RAISE, L + 2: LOWER}]
    span = 2 * L if model.topology == "ring" else L
    out += [general_word(make_word(w)) for w in words if max(w) <= span]
    return out


class TestOrbitSector:
    @pytest.mark.parametrize(
        "model, dim", [(ring(18), 209), (ring(20), 455), (ring(24, 2), 249), (line(16), 1309)]
    )
    def test_sector_dimensions(self, model, dim):
        drive, _ = orbit_sector(model, density())
        assert drive.dimension == dim

    def test_orbit_sums_of_the_four_ring(self):
        # ring(4) orbits in basis order: 0000; the four singles; 1010, 0101
        drive, number = orbit_sector(ring(4), density())
        assert drive.entries == {(0, 1): 4, (1, 0): 1, (1, 2): 1, (2, 1): 2}
        assert number.entries == {(1, 1): 4, (2, 2): 4}

    @pytest.mark.parametrize("model", [ring(8), line(9)])
    def test_asymmetric_drive_refused(self, model, monkeypatch):
        def raise_needs_k_plus_2_ground(s, masks):
            return [
                s ^ 1 << k
                for k, m in enumerate(masks)
                if s >> k & 1 or not s & (m | 1 << k + 2)
            ]

        monkeypatch.setattr(blockade.basis, "_flip_neighbours", raise_needs_k_plus_2_ground)
        with pytest.raises(ValueError, match="is not symmetric between orbits"):
            orbit_sector(model, density())

        def refuse(*args):
            raise AssertionError("eigh ran on an asymmetric drive")

        # `evolve` (through the orbit walk) and `spectral_checks` (full space)
        # refuse before `eigh`, which reads one triangle
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        _sector_eigensystem.cache_clear()  # so the drive is really rebuilt
        for route in (lambda: evolve(model, density(), [0.5]), lambda: spectral_checks(model)):
            with pytest.raises(ValueError, match=re.escape(f"drive of {model} is not symmetric")):
                route()

    @pytest.mark.parametrize("topology", ["ring", "line"])
    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_one_pass_observable_equals_orbit_pair_sums(self, topology, lam):
        # the two-pass reference: the full-space matrix, summed over each
        # pair of orbits, entry for entry and in the same insertion order
        sizes = range(lam + 1 if topology == "ring" else 1, 15)
        for L in sizes:
            model = ring(L, lam) if topology == "ring" else line(L, lam)
            sector = blockade.basis._orbit_walk(model)
            states, orbit_of = sector.basis.states, sector.orbit_of
            for obs in placed_observables(model):
                want: dict = {}
                for (i, j), v in observable_matrix(model, sector.basis, obs).entries.items():
                    key = (orbit_of[states[i]], orbit_of[states[j]])
                    want[key] = want.get(key, 0) + v
                got = sector.observable(obs)
                assert got.dimension == len(sector.sizes)
                assert list(got.entries.items()) == list(want.items()), (model, obs)

    def test_vacuum_is_orbit_zero(self):
        # the vacuum's L drive neighbours are the single excitations
        for model in (ring(7, 2), line(9), line(8, 3)):
            drive, _ = orbit_sector(model, density())
            row = {c: v for (r, c), v in drive.entries.items() if r == 0}
            assert 0 not in row and sum(row.values()) == model.size

    @pytest.mark.parametrize("model", [ring(8), ring(9, 2), line(9), line(8, 3)])
    def test_cyclic_walk_records_each_power(self, model):
        # state = g^l(first state of its orbit), g read from the site strings
        sector = blockade.basis._cyclic_walk(model)

        def g(s):
            sites = sector.basis.state_string(s)  # site k at position k - 1
            image = sites[-1] + sites[:-1] if model.topology == "ring" else sites[::-1]
            return int(image[::-1], 2)

        assert sector.firsts[0] == 0 and sector.sizes[0] == 1  # the vacuum, alone
        assert sum(sector.sizes) == blockade_dimension(model)
        for s, r in sector.orbit_of.items():
            t = sector.firsts[r]
            for _ in range(sector.power[s]):
                t = g(t)
            assert t == s and sector.power[s] < sector.sizes[r]
            assert sector.order % sector.sizes[r] == 0


class TestRecursiveOrdering:
    def test_small_chains(self):
        assert build_basis(line(1)).states == (0, 1)
        assert build_basis(line(2)).states == (0, 1, 2)
        assert build_basis(line(3)).states == (0, 1, 2, 4, 5)

    def test_prefix_property(self):
        # the (L-1)-chain order is a prefix of the L-chain order
        for L in range(2, 12):
            a = build_basis(line(L - 1)).states
            b = build_basis(line(L)).states
            assert b[: len(a)] == a


class TestDriveMatrix:
    def test_printed_small_matrices(self):
        h1 = hamiltonian_matrix(line(1), build_basis(line(1)))
        assert h1.to_dense(int).tolist() == [[0, 1], [1, 0]]
        h2 = hamiltonian_matrix(line(2), build_basis(line(2)))
        assert h2.to_dense(int).tolist() == [[0, 1, 1], [1, 0, 0], [1, 0, 0]]

    def test_recursion_equals_bit_flip(self):
        # the builders do not re-check themselves: this and acceptance C8 are
        # the cross-check, through every chain the dense budget admits
        for L in range(1, 21):
            b = build_basis(line(L))
            assert hamiltonian_matrix(line(L), b) == drive_matrix_recursive(L)
            assert observable_matrix(line(L), b, density()) == total_number_matrix_recursive(L)

    def test_ring4_vacuum_row(self):
        b = build_basis(ring(4))
        h = hamiltonian_matrix(ring(4), b)
        assert sum(h.entries.get((0, j), 0) for j in range(7)) == 4
        assert h.is_symmetric()
        assert all(v == 1 for v in h.entries.values())

    def test_bit_flip_rule_brute_force(self):
        # independent check: element 1 iff states differ by one admissible flip
        model = ring(6, 2)
        b = build_basis(model)
        h = hamiltonian_matrix(model, b)
        for i, s in enumerate(b.states):
            for j, t in enumerate(b.states):
                diff = s ^ t
                expected = 1 if diff and diff & (diff - 1) == 0 else 0
                assert h.entries.get((i, j), 0) == expected

    def test_basis_model_mismatch(self):
        b = build_basis(ring(4))
        with pytest.raises(ValueError):
            hamiltonian_matrix(ring(5), b)


class TestObservables:
    def test_total_counter(self):
        b = build_basis(line(2))
        n = observable_matrix(line(2), b, density())
        assert n.to_dense(int).tolist() == [[0, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_local_counter_vacuum_column(self):
        b = build_basis(ring(5))
        n1 = observable_matrix(ring(5), b, local_number(1))
        assert all(n1.entries.get((i, 0), 0) == 0 for i in range(b.dimension))

    def test_pair_counter_ring4(self):
        b = build_basis(ring(4))
        c = observable_matrix(ring(4), b, correlation(2, site=1))
        diag = c.diagonal()
        assert sum(diag) == 1 and diag[b.index[5]] == 1

    def test_word_projected_out_of_subspace(self):
        # raising neighbouring sites leaves the constrained space entirely
        b = build_basis(line(2))
        w = observable_matrix(line(2), b, general_word(make_word({1: RAISE, 2: RAISE})))
        assert w.entries == {}

    def test_word_matrix_matches_indicator(self):
        b = build_basis(line(4))
        w = observable_matrix(line(4), b, general_word(make_word({2: NUM})))
        want = {(i, i): 1 for i, s in enumerate(b.states) if s >> 1 & 1}
        assert w.entries == want


def apply_word(word, occupation, model):
    """Letter-by-letter image of a basis state under an unfolded word, or
    None if annihilated: the rightmost letter acts first, each on the bit of
    its canonical site, so ring letters that land on one site multiply in
    word order.  n needs an excitation, m needs ground, the lowering letter
    clears an excitation, the raising letter creates one."""
    s = occupation
    for site, letter in reversed(word):
        bit = 1 << (model.canonical_site(site) - 1)
        occupied = s & bit
        if letter in (NUM, LOWER) and not occupied:
            return None
        if letter in (PROJ, RAISE) and occupied:
            return None
        if letter in (LOWER, RAISE):
            s ^= bit
    return s


@st.composite
def word_cases(draw):
    """A ring or line of up to 10 sites, blockade range up to 3, and a word of
    1-4 letters; ring sites run to 2L, so words wrap and letters collide."""
    topology = draw(st.sampled_from(["ring", "line"]))
    lam = draw(st.integers(1, 3))
    L = draw(st.integers(lam + 1 if topology == "ring" else 1, 10))
    model = ring(L, lam) if topology == "ring" else line(L, lam)
    span = 2 * L if topology == "ring" else L
    letters = draw(
        st.dictionaries(
            st.integers(1, span), st.sampled_from(list(Letter)), min_size=1, max_size=4
        )
    )
    return model, make_word(letters)


class TestPackedWords:
    @settings(max_examples=300, deadline=None)
    @given(word_cases())
    def test_matrix_equals_letter_by_letter_reference(self, case):
        model, word = case
        b = build_basis(model)
        want: dict = {}
        for i, s in enumerate(b.states):
            image = apply_word(word, s, model)
            if image in b.index:
                key = (b.index[image], i)
                want[key] = want.get(key, 0) + 1
        assert observable_matrix(model, b, general_word(word)).entries == want


class TestParity:
    def test_vacuum_entry(self):
        p = parity_matrix(build_basis(ring(4)))
        assert p.entries[(0, 0)] == 1

    def test_line2(self):
        p = parity_matrix(build_basis(line(2)))
        assert p.to_dense(int).tolist() == [[1, 0, 0], [0, -1, 0], [0, 0, -1]]

    @pytest.mark.parametrize("model", [line(5), ring(6), ring(7, 2)])
    def test_anticommutes_exactly(self, model):
        b = build_basis(model)
        h = hamiltonian_matrix(model, b)
        p = parity_matrix(b).diagonal()
        assert all(p[r] + p[c] == 0 for (r, c) in h.entries)


class TestRingTranslation:
    @pytest.mark.parametrize("model", [ring(6), ring(8), ring(7, 2)])
    def test_drive_is_shift_covariant(self, model):
        # the orbits hold every rotation, and the drive commutes with them
        b = build_basis(model)
        L, mask = model.size, (1 << model.size) - 1

        def shift(s):
            return (s << 1 | s >> (L - 1)) & mask

        for s in b.states:
            rotations = [s]
            for _ in range(L - 1):
                rotations.append(shift(rotations[-1]))
            assert set(rotations) <= blockade.basis._orbit(s, model)
        h = hamiltonian_matrix(model, b)
        perm = [b.index[shift(s)] for s in b.states]
        shifted = {(perm[r], perm[c]): v for (r, c), v in h.entries.items()}
        assert shifted == h.entries


class TestSparseIntMatrix:
    def test_matvec_against_numpy(self):
        b = build_basis(ring(6))
        h = hamiltonian_matrix(ring(6), b)
        vec = list(range(1, b.dimension + 1))
        got = h.matvec_int(vec)
        want = (h.to_dense(np.int64) @ np.array(vec)).tolist()
        assert got == want

    def test_matvec_is_exact_on_big_integers(self):
        h = hamiltonian_matrix(line(3), build_basis(line(3)))
        big = 10**40
        out = h.matvec_int([big, 0, 0, 0, 0])
        assert out == (h.to_dense(object) @ np.array([big, 0, 0, 0, 0], dtype=object)).tolist()

    def test_dump_format(self):
        m = SparseIntMatrix(2, {(0, 1): 1, (1, 0): 1})
        assert dumps_matrix(m) == "1 2 1\n2 1 1"
