"""Constrained basis construction and exact integer matrices."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockade._residues
import blockade.basis
from blockade.basis import (
    SparseIntMatrix,
    _matrix,
    _sector,
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
from blockade.dynamics import _sector_eigensystem, evolve, spectral_checks, taylor_oracle
from blockade.series import _observable_word, correlation, density, general_word, local_number
from blockade.words import (
    LOWER,
    NUM,
    PROJ,
    RAISE,
    Letter,
    fold_word,
    infinite_chain,
    line,
    make_word,
    ring,
)


FLIPS = blockade.basis._flips  # the drive's flip rule, before any test patches it


def raise_needs_k_plus_2_ground(states, masks):
    """The flip rule with one change: raising site k also needs site k + 2
    unexcited (never across the seam), which breaks every lattice symmetry."""
    for k, m in enumerate(masks):
        yield 1 << k, (states >> k & 1 == 1) | (states & (m | 1 << k + 2) == 0)


def site_one_never_flips(states, masks):
    """The flip rule without site 1: the drive stays symmetric, but it no
    longer commutes with the rotation or the reflection."""
    return [(p, allowed) for p, allowed in FLIPS(states, masks) if p != 1]


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
        monkeypatch.setattr(blockade.basis, "_flips", raise_needs_k_plus_2_ground)
        with pytest.raises(ValueError, match="is not symmetric under its lattice permutation"):
            orbit_sector(model, density())

        def refuse(*args):
            raise AssertionError("eigh ran on an asymmetric drive")

        # `evolve` (through the orbit sector) and `spectral_checks` (Bloch
        # blocks) refuse before `eigh`, which reads one triangle
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
            sector = _sector(model, "lattice")
            orbit = sector.orbit.tolist()
            basis = build_basis(model)
            for obs in placed_observables(model):
                want: dict = {}
                for (i, j), v in observable_matrix(model, basis, obs).entries.items():
                    key = (orbit[i], orbit[j])
                    want[key] = want.get(key, 0) + v
                got = _matrix(sector, sector.observable(obs))
                assert got.dimension == len(sector.sizes)
                assert list(got.entries.items()) == list(want.items()), (model, obs)

    @pytest.mark.parametrize("rule", [raise_needs_k_plus_2_ground, site_one_never_flips])
    @pytest.mark.parametrize("model", [ring(4), ring(5), ring(6), ring(7), ring(8), line(4)])
    def test_symmetry_breaking_flips_refused_on_every_route(self, monkeypatch, rule, model):
        # orbit counts taken from each orbit's first state alone miss the
        # k + 2 rule on rings 4-7 and line 4; the check on every state does not
        def refuse(*args):
            raise AssertionError("eigh or a modular matrix-vector product ran")

        monkeypatch.setattr(blockade.basis, "_flips", rule)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(blockade._residues, "matvec", refuse)
        _sector_eigensystem.cache_clear()
        message = re.escape(f"drive of {model} is not symmetric under its lattice permutation")
        for route in (
            lambda: orbit_sector(model, density()),
            lambda: taylor_oracle(model, density(), 2),
            lambda: evolve(model, density(), [0.5]),
        ):
            with pytest.raises(ValueError, match=message):
                route()

    def test_vacuum_is_orbit_zero(self):
        # the vacuum's L drive neighbours are the single excitations
        for model in (ring(7, 2), line(9), line(8, 3)):
            drive, _ = orbit_sector(model, density())
            row = {c: v for (r, c), v in drive.entries.items() if r == 0}
            assert 0 not in row and sum(row.values()) == model.size

    @pytest.mark.parametrize("model", [ring(8), ring(9, 2), line(9), line(8, 3)])
    def test_cyclic_walk_records_each_power(self, model):
        # state = g^l(first state of its orbit), g read from the site strings
        sector = _sector(model, "cyclic")

        def g(s):
            sites = f"{s:0{model.size}b}"[::-1]  # site k at position k - 1
            image = sites[-1] + sites[:-1] if model.topology == "ring" else sites[::-1]
            return int(image[::-1], 2)

        assert sector.firsts[0] == 0 and sector.sizes[0] == 1  # the vacuum, alone
        assert sum(sector.sizes) == blockade_dimension(model)
        for s, r, l in zip(*(a.tolist() for a in (sector.states, sector.orbit, sector.power))):
            t = int(sector.firsts[r])
            for _ in range(l):
                t = g(t)
            assert t == s and l < sector.sizes[r]
            assert sector.order % sector.sizes[r] == 0

    @pytest.mark.parametrize("model, orbits", [(ring(22), 1022), (ring(26), 5536)])
    def test_reach_past_the_dense_budget(self, model, orbits):
        # the Burnside counts of the nearest-neighbour ring sectors
        drive, number = orbit_sector(model, density())
        assert drive.dimension == number.dimension == orbits
        assert sum(v for (r, c), v in drive.entries.items() if r == 0) == model.size


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

    def test_recursion_from_the_empty_chain(self):
        # the 0-site chain has one state, the empty one, and no entry
        for recursion in (drive_matrix_recursive, total_number_matrix_recursive):
            assert recursion(0).to_dense(int).tolist() == [[0]]
            with pytest.raises(ValueError, match="a chain has at least 0 sites, not -1"):
                recursion(-1)

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

        orbit = dict(zip(b.states, _sector(model, "lattice").orbit.tolist()))
        for s in b.states:
            rotations = [s]
            for _ in range(L - 1):
                rotations.append(shift(rotations[-1]))
            images = {orbit[t] for t in ref_orbit(s, model)}
            assert {orbit[t] for t in rotations} == {orbit[s]} == images
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


# ---------------------------------------------------------------------------
# set-walk reference: the orbit builders before the array sector, one state
# and one flip at a time over Python sets and dicts
# ---------------------------------------------------------------------------


def ref_flip_neighbours(s, masks):
    return [s ^ 1 << k for k, m in enumerate(masks) if s >> k & 1 or not s & m]


def ref_orbit(occupation, model):
    L = model.size
    images = {occupation, int(f"{occupation:0{L}b}"[::-1], 2)}
    if model.topology == "ring":
        mask = (1 << L) - 1
        images = {(s << d | s >> (L - d)) & mask for s in images for d in range(L)}
    return images


def ref_orbit_walk(model):
    orbit_of, firsts, sizes = {}, [], []
    for s in build_basis(model).states:
        if s not in orbit_of:
            members = ref_orbit(s, model)
            for t in members:
                orbit_of[t] = len(firsts)
            firsts.append(s)
            sizes.append(len(members))
    return orbit_of, firsts, sizes


def ref_cyclic_walk(model):
    L = model.size
    if model.topology == "ring":
        perm = [(k + 1) % L for k in range(L)]
    else:
        perm = [L - 1 - k for k in range(L)]
    orbit_of, power, firsts, sizes = {}, {}, [], []
    for s in build_basis(model).states:
        if s in orbit_of:
            continue
        t, l = s, 0
        while t not in orbit_of:  # until g^l(s) is s again
            orbit_of[t], power[t] = len(firsts), l
            t, l = sum(1 << g for k, g in enumerate(perm) if t >> k & 1), l + 1
        firsts.append(s)
        sizes.append(l)
    return orbit_of, firsts, sizes, power


def ref_drive(model, orbit_of, firsts, sizes):
    drive: dict = {}
    for r, s in enumerate(firsts):
        for t in ref_flip_neighbours(s, model.neighborhood_masks):
            key = (r, orbit_of[t])
            drive[key] = drive.get(key, 0) + 1
    assert all(sizes[r] * v == sizes[c] * drive.get((c, r), 0) for (r, c), v in drive.items())
    return drive


def ref_bloch_edges(model, orbit_of, sizes, power):
    edges: list = []
    for s in build_basis(model).states:  # the first state of an orbit comes first
        seen = sorted(
            (orbit_of[t], (power[t] - power[s]) % sizes[orbit_of[t]])
            for t in ref_flip_neighbours(s, model.neighborhood_masks)
        )
        if not power[s]:
            edges.append(seen)
        assert seen == edges[orbit_of[s]]
    counts: dict = {}
    for r, seen in enumerate(edges):
        for c, l in seen:
            counts[r, c, l] = counts.get((r, c, l), 0) + 1
    assert all(counts.get((c, r, -l % sizes[r])) == v for (r, c, l), v in counts.items())
    return counts


def ref_observable(model, orbit_of, obs):
    sums: dict = {}
    states = build_basis(model).states
    if obs.kind == "density":
        for s in states:
            key = (orbit_of[s],) * 2
            sums[key] = sums.get(key, 0) + bin(s).count("1")
        return {k: v for k, v in sums.items() if v}
    packed = fold_word(_observable_word(obs, model), model)
    if packed is not None:
        S, O, I = packed
        for s in states:
            if s & S == I:
                r = orbit_of.get(s & ~S | O)
                if r is not None:
                    key = (r, orbit_of[s])
                    sums[key] = sums.get(key, 0) + 1
    return sums


def lattices(max_size=14):
    for lam in (1, 2, 3):
        for L in range(lam + 1, max_size + 1):
            yield ring(L, lam)
        for L in range(1, max_size + 1):
            yield line(L, lam)


class TestArraySectorAgainstSetWalk:
    def test_lattice_sector(self):
        for model in lattices():
            orbit_of, firsts, sizes = ref_orbit_walk(model)
            sector = _sector(model, "lattice")
            assert sector.firsts.tolist() == firsts and sector.sizes.tolist() == sizes, model
            assert sector.orbit.tolist() == [orbit_of[s] for s in sector.states.tolist()]
            drive = _matrix(sector, sector.drive())
            assert list(drive.entries.items()) == list(ref_drive(model, orbit_of, firsts, sizes).items())
            for obs in placed_observables(model):
                got = _matrix(sector, sector.observable(obs)).entries
                assert list(got.items()) == list(ref_observable(model, orbit_of, obs).items())

    def test_cyclic_sector(self):
        for model in lattices():
            orbit_of, firsts, sizes, power = ref_cyclic_walk(model)
            sector = _sector(model, "cyclic")
            assert sector.firsts.tolist() == firsts and sector.sizes.tolist() == sizes, model
            states = sector.states.tolist()
            assert sector.orbit.tolist() == [orbit_of[s] for s in states]
            assert sector.power.tolist() == [power[s] for s in states]
            got = zip(*(a.tolist() for a in sector.bloch_edges()))
            want = ref_bloch_edges(model, orbit_of, sizes, power)
            assert [((r, c, l), v) for r, c, l, v in got] == list(want.items())
            for obs in placed_observables(model):
                got = _matrix(sector, sector.observable(obs)).entries
                assert list(got.items()) == list(ref_observable(model, orbit_of, obs).items())

    def test_excitation_count(self):
        for model in lattices():
            for group in ("trivial", "cyclic", "lattice"):
                sector = _sector(model, group)
                want = [bin(s).count("1") for s in sector.firsts.tolist()]
                assert sector.ones.tolist() == want, (model, group)

    def test_full_space(self):
        for model in lattices(12):
            basis = build_basis(model)
            singles = basis.index, basis.states, [1] * basis.dimension
            drive = hamiltonian_matrix(model, basis)
            assert list(drive.entries.items()) == list(ref_drive(model, *singles).items())
            for obs in placed_observables(model):
                got = observable_matrix(model, basis, obs).entries
                assert list(got.items()) == list(ref_observable(model, basis.index, obs).items())
