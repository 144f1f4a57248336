"""Evolution, the integer Taylor oracle, and spectral diagnostics."""

import functools
import math
import re
import statistics
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockade import basis, bounds, dynamics
from blockade.basis import (
    build_basis,
    hamiltonian_matrix,
    observable_matrix,
)
from blockade.dynamics import (
    DimensionBudgetError,
    evolve,
    evolution_records,
    evolution_to_csv,
    g2,
    oracle_records,
    spectral_checks,
    taylor_oracle,
    universal_window,
)
from blockade.series import (
    correlation,
    correlation_base_site,
    correlation_coefficients,
    density,
    density_coefficients,
    general_word,
    local_number,
    word_coefficients,
)
from blockade.words import RAISE, Letter, line, make_word, ring


def cache_sizes():
    """Size of the sector eigensystem cache, the only one."""
    return dynamics._sector_eigensystem.cache_info().currsize


@pytest.fixture
def cache_size(monkeypatch):
    """Make any basis, state enumeration or orbit sector fail; return the
    eigensystem cache size before."""

    def refuse(*args):
        raise AssertionError(f"built {args} before refusing")

    monkeypatch.setattr(dynamics, "_sector", refuse)
    monkeypatch.setattr(basis, "_sector", refuse)
    monkeypatch.setattr(basis, "build_basis", refuse)
    monkeypatch.setattr(basis, "_admissible_states", refuse)
    return cache_sizes()


def full_space_ad_expectations(model, obs, jmax):
    """The oracle's binomial sum over the whole blockade basis: the reference
    for the orbit-sum sector."""
    b = build_basis(model)
    drive = hamiltonian_matrix(model, b)
    matrix = observable_matrix(model, b, obs)
    vs = [[1] + [0] * (b.dimension - 1)]
    for _ in range(2 * jmax):
        vs.append(drive.matvec_int(vs[-1]))
    ovs = [matrix.matvec_int(v) for v in vs]
    norm = Fraction(1, model.size) if obs.kind == "density" else Fraction(1)
    out = {}
    for M in range(2 * jmax + 1):
        total = sum(
            (-1) ** m * math.comb(M, m) * sum(x * y for x, y in zip(vs[M - m], ovs[m]))
            for m in range(M + 1)
        )
        out[M] = Fraction(total) * norm
    return out


@functools.lru_cache(maxsize=2)
def full_space_eigensystem(model):
    """Basis and eigendecomposition of the drive over the whole blockade
    basis (up to 2,584 states), kept for a lattice drawn again."""
    b = build_basis(model)
    return b, *np.linalg.eigh(hamiltonian_matrix(model, b).to_dense(float))


def full_space_evolution(model, obs, times):
    """Complex <psi(t)|O|psi(t)> from the full-space eigendecomposition: the
    reference for the sector evolution."""
    b, energies, vectors = full_space_eigensystem(model)
    matrix = observable_matrix(model, b, obs).to_dense(float)
    scale = 1 / model.size if obs.kind == "density" else 1.0
    states = vectors @ (np.exp(-1j * np.outer(energies, times)) * vectors[0, :, None])
    return np.einsum("it,ij,jt->t", states.conj(), matrix, states) * scale


def draw_observable(draw, model):
    """An observable of any of the four kinds, placed on ``model``."""
    L, topology = model.size, model.topology
    kind = draw(st.sampled_from(["density", "local_number", "correlation", "word"]))
    if kind == "density":
        return density()
    if kind == "local_number":
        return local_number(draw(st.integers(1, L)))
    if kind == "correlation":
        assume(L >= 2)
        d = draw(st.integers(1, L - 1))
        return correlation(d, site=draw(st.integers(1, L if topology == "ring" else L - d)))
    span = 2 * L if topology == "ring" else L  # ring words may wrap and fold
    letters = draw(
        st.dictionaries(
            st.integers(1, span), st.sampled_from(list(Letter)), min_size=1, max_size=4
        )
    )
    return general_word(make_word(letters))


@st.composite
def oracle_cases(draw):
    """A lattice of up to 12 sites, blockade range up to 3, and an observable
    of every kind the oracle takes."""
    topology = draw(st.sampled_from(["ring", "line"]))
    lam = draw(st.integers(1, 3))
    L = draw(st.integers(lam + 1 if topology == "ring" else 1, 12))
    model = ring(L, lam) if topology == "ring" else line(L, lam)
    return model, draw_observable(draw, model), draw(st.integers(1, 4))


@st.composite
def evolution_cases(draw):
    """A ring of 3 to 16 sites or a line of up to 16, blockade range up to 3,
    an observable of every kind and a few times in [0, 8]."""
    lam = draw(st.integers(1, 3))
    if draw(st.sampled_from(["ring", "line"])) == "ring":
        L = draw(st.integers(3, 16))
        assume(lam < L)  # `ModelSpec` refuses a range that covers the ring
        model = ring(L, lam)
    else:
        model = line(draw(st.integers(1, 16)), lam)
    times = draw(st.lists(st.floats(0, 8), min_size=1, max_size=3))
    return model, draw_observable(draw, model), times


@st.composite
def g2_cases(draw):
    """A ring of 3 to 16 sites or a line of up to 14, blockade range up to 3,
    any distance from 1 to L, the default or an explicit base site, and a
    few positive times (some small enough for a vanishing denominator)."""
    lam = draw(st.integers(1, 3))
    if draw(st.sampled_from(["ring", "line"])) == "ring":
        L = draw(st.integers(3, 16))
        assume(lam < L)
        model = ring(L, lam)
    else:
        L = draw(st.integers(1, 14))
        model = line(L, lam)
    d = draw(st.integers(1, L))
    site = draw(st.one_of(st.none(), st.integers(1, L)))
    times = draw(st.lists(st.floats(1e-5, 8), min_size=1, max_size=4))
    return model, d, site, times


def composed_g2(model, d, times, site=None):
    """g2 composed from separate evolutions of the pair, n_k and (on a line)
    n_{k+d}: the reference for the single propagation."""
    pair = correlation(d, site=site)
    k = correlation_base_site(pair, model)
    numerator = evolve(model, pair, times).values
    na = evolve(model, local_number(k), times).values
    nb = na if model.topology == "ring" else evolve(model, local_number(k + d), times).values
    return [
        float("nan") if abs(a * b) < 1e-14 else num / (a * b)
        for num, a, b in zip(numerator, na, nb)
    ]


class TestEvolve:
    def test_zero_time_is_exactly_zero(self):
        for model in (ring(6), line(7), ring(8, 2)):
            assert evolve(model, density(), [0.0]).values[0] == 0.0

    def test_short_time_quadratic_growth(self):
        t = 1e-3
        rho = evolve(ring(10), density(), [t]).values[0]
        assert abs(rho / t**2 - 1.0) < 2 * t**2

    def test_matches_truncated_taylor_mid_time(self):
        orc = taylor_oracle(ring(8), density(), 8)
        rho = evolve(ring(8), density(), [0.5]).values[0]
        acc = 0.0
        for c in reversed(orc.coefficients):
            acc = (acc + float(c)) * 0.25
        assert abs(rho - acc) < 1e-6  # measured 3.8e-9
        assert abs(rho - acc) < bounds.error_envelope(8, 1, 1, 0.5)

    @pytest.mark.parametrize("model", [ring(8), ring(9, 2), line(10)])
    def test_density_stays_below_packing_cap(self, model):
        times = np.linspace(0.0, 20.0, 101)
        vals = evolve(model, density(), times).values
        cap = (model.size // (model.blockade_range + 1)) / model.size
        assert all(-1e-12 <= v <= cap + 1e-12 for v in vals)

    def test_matches_matrix_exponential(self):
        # an independent propagator: expm(-iHt) applied to the vacuum, with the
        # observable as a dense matrix; the word changes the excitation number
        # by two, so its expectation is real though its matrix is not diagonal
        times = [0.0, 0.7, 1.9]
        pair_raise = general_word(make_word({3: RAISE, 5: RAISE}))
        for model in (ring(9), line(8)):
            basis = build_basis(model)
            drive = hamiltonian_matrix(model, basis).to_dense(float)
            states = [scipy.linalg.expm(-1j * t * drive)[:, 0] for t in times]
            for obs in (density(), local_number(2), correlation(2), pair_raise):
                matrix = observable_matrix(model, basis, obs).to_dense(float)
                scale = 1 / model.size if obs.kind == "density" else 1.0
                want = [complex(np.vdot(psi, matrix @ psi)) * scale for psi in states]
                got = evolve(model, obs, times).values
                assert max(abs(w.imag) for w in want) < 1e-12
                assert max(abs(g - w.real) for g, w in zip(got, want)) < 1e-12

    def test_blocks_match_single_points(self):
        # a grid spanning three blocks of the state product, against one
        # product per point
        times = np.linspace(0.0, 9.0, 2 * dynamics._BLOCK_POINTS + 3)
        whole = evolve(ring(9), correlation(2), times).values
        single = [evolve(ring(9), correlation(2), [t]).values[0] for t in times]
        assert max(abs(a - b) for a, b in zip(whole, single)) < 1e-12

    @given(evolution_cases())
    @settings(max_examples=20, deadline=None)
    def test_sector_equals_full_space(self, case):
        model, obs, times = case
        want = full_space_evolution(model, obs, times)
        if np.max(np.abs(want.imag)) > dynamics._IMAG_TOL:
            # e.g. a lone raising operator: its expectation is imaginary
            with pytest.raises(ArithmeticError, match="imaginary residue"):
                evolve(model, obs, times)
        else:
            got = evolve(model, obs, times).values
            assert np.max(np.abs(np.array(got) - want.real)) < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_refused_before_building(self, cache_size, bad):
        for route in (
            lambda: evolve(ring(6), density(), [bad, 0.5]),
            lambda: evolve(ring(6), density(), [0.5, bad]),
            lambda: g2(ring(6), 2, [0.5, bad]),
            lambda: g2(ring(6), 1, [bad]),  # before the blockaded-pair shortcut
        ):
            with pytest.raises(ValueError, match=f"^times must be finite, got {bad}$"):
                route()
        assert cache_sizes() == cache_size

    @pytest.mark.parametrize("column, message", [(0, "norm defect"), (2, "imaginary residue")])
    def test_nan_fails_the_point_checks(self, monkeypatch, column, message):
        # a NaN norm or residue raises; it is not read as within tolerance
        def poisoned(energies, vectors, observables, times):
            shape = (len(observables), len(times))
            out = [np.ones(len(times)), np.zeros(shape), np.zeros(shape)]
            out[column][:] = np.nan
            return out

        monkeypatch.setattr(dynamics, "_expectations", poisoned)
        with pytest.raises(ArithmeticError, match=message):
            evolve(ring(6), density(), [0.5])

    def test_dimension_budget_refusal(self, cache_size):
        with pytest.raises(DimensionBudgetError) as err:
            evolve(line(21), density(), [0.1])
        assert err.value.dimension == 28657
        assert cache_sizes() == cache_size

    def test_ring_domain_message_is_shared(self):
        # the domain is checked once, when the model is built, so no route
        # (dimension, basis, evolution, oracle, series) ever sees such a ring
        with pytest.raises(ValueError) as err:
            ring(3, 3)
        assert str(err.value) == (
            "blockade range 3 covers the whole ring of 3 sites; "
            "only the all-ground and single-excitation states survive"
        )

    @pytest.mark.parametrize(
        "obs, message",
        [
            (correlation(2, site=16), r"^pair \(16, 18\) does not fit on 16 sites$"),
            (local_number(17), r"^site 17 outside line of 16 sites$"),
            (correlation(0), r"^correlation distance must be a positive integer$"),
        ],
        ids=["pair", "site", "d0"],
    )
    def test_observable_refused_before_building(self, cache_size, obs, message):
        # the observable is placed before the eigensystem or orbit sector
        for route in (
            lambda: evolve(line(16), obs, [0.5]),
            lambda: taylor_oracle(line(16), obs, 2),
        ):
            with pytest.raises(ValueError, match=message):
                route()
        assert cache_sizes() == cache_size

    def test_pair_that_does_not_fit_is_refused(self):
        # every route places a pair counter through one rule, so a pair
        # reaching past the chain's end is refused rather than read as zero
        for route in (
            lambda obs: evolve(line(8), obs, [0.5, 1.0]),
            lambda obs: taylor_oracle(line(8), obs, 2),
        ):
            with pytest.raises(ValueError, match=r"^pair \(8, 10\) does not fit on 8 sites$"):
                route(correlation(2, site=8))
        # a blockaded pair that fits still evolves as the zero it is
        assert evolve(line(8), correlation(1, site=3), [0.5, 1.0]).values == [0.0, 0.0]

    @pytest.mark.parametrize("d", [6, 12])
    def test_ring_pair_on_one_site_refused_on_every_route(self, cache_size, d):
        # d a multiple of L: both sites are site 1, one reading on no route
        want = rf"^pair \(1, {1 + d}\) names one site twice on a ring of 6 sites$"
        for route in (
            lambda: evolve(ring(6), correlation(d), [0.5]),
            lambda: g2(ring(6), d, [0.5]),
            lambda: taylor_oracle(ring(6), correlation(d), 2),
            lambda: correlation_coefficients(ring(6), d, 2),
        ):
            with pytest.raises(ValueError, match=want):
                route()
        assert cache_sizes() == cache_size

    def test_late_time_settles_to_small_fluctuations(self):
        early = evolve(ring(14), density(), np.linspace(0.0, 6.0, 121)).values
        late = evolve(ring(14), density(), np.linspace(15.0, 30.0, 151)).values
        swing = max(early) - min(early)
        assert statistics.pstdev(late) < 0.15 * swing
        assert 0.1 < statistics.fmean(late) < 0.4


class TestTaylorOracle:
    def test_leading_coefficient(self):
        assert taylor_oracle(ring(5), density(), 1).coefficients == [Fraction(1)]

    def test_two_site_ring(self):
        got = taylor_oracle(ring(2), density(), 2).coefficients
        assert got == [Fraction(1), Fraction(-2, 3)]

    def test_odd_orders_exactly_zero(self):
        # symmetric observables: only even orders are summed
        for model in (ring(6), ring(10, 2), line(9)):
            for obs in (density(), local_number(2), correlation(3, site=1)):
                orc = taylor_oracle(model, obs, 3)
                odd = [orc.ad_expectations[m] for m in (1, 3, 5)]
                assert all(type(v) is Fraction and v == 0 for v in odd), (model, obs)
                assert orc.ad_expectations == full_space_ad_expectations(model, obs, 3)

    @pytest.mark.parametrize("model", [ring(10, 2), line(9)])
    @pytest.mark.parametrize(
        "letters", [{1: RAISE}, {2: RAISE, 4: Letter.LOWER}], ids=["raise", "hop"]
    )
    def test_words_that_are_not_symmetric_take_the_full_sum(self, model, letters):
        # the lone raising word has non-zero odd orders, the hopping word
        # has its terms m and M - m unequal; every order equals the full space
        obs = general_word(make_word(letters))
        got = taylor_oracle(model, obs, 4).ad_expectations
        assert got == full_space_ad_expectations(model, obs, 4)
        assert any(got[m] for m in ((1, 3, 5, 7) if len(letters) == 1 else (2, 4, 6, 8)))

    @pytest.mark.parametrize("lam, jmax", [(1, 5), (2, 3)])
    @pytest.mark.parametrize("L", [3, 6, 9])
    def test_equals_symbolic_engine(self, L, lam, jmax):
        sym = density_coefficients(ring(L, lam), jmax).even_values()
        orc = taylor_oracle(ring(L, lam), density(), jmax).coefficients
        assert sym == orc

    def test_pair_counter_route(self):
        sym = correlation_coefficients_even(ring(7), 2, 4)
        orc = taylor_oracle(ring(7), correlation(2), 4).coefficients
        assert sym == orc

    def test_open_chain_route(self):
        sym = density_coefficients(line(9), 3).even_values()
        orc = taylor_oracle(line(9), density(), 3).coefficients
        assert sym == orc

    @given(oracle_cases())
    @settings(max_examples=80, deadline=None)
    def test_sector_equals_full_space(self, case):
        model, obs, jmax = case
        got = taylor_oracle(model, obs, jmax).ad_expectations
        assert got == full_space_ad_expectations(model, obs, jmax)

    @given(oracle_cases())
    @settings(max_examples=100, deadline=None)
    def test_symbolic_series_equals_oracle(self, case):
        # the two independent exact routes, every order and observable kind
        model, obs, jmax = case
        if obs.kind == "density":
            sym = density_coefficients(model, jmax).values
        else:
            if obs.kind == "local_number":
                word = make_word({obs.site: Letter.NUM})
            elif obs.kind == "correlation":
                word = make_word({obs.site: Letter.NUM, obs.site + obs.distance: Letter.NUM})
            else:
                word = obs.word
            sym = word_coefficients(model, word, 2 * jmax).values
        ads = taylor_oracle(model, obs, jmax).ad_expectations
        assert [v * math.factorial(n) * (-1) ** (n // 2) for n, v in enumerate(sym)] == [
            ads[n] for n in range(2 * jmax + 1)
        ]

    @pytest.mark.parametrize(
        "model, obs",
        [
            (ring(16), density()),
            (line(16), local_number(3)),
            (ring(14, 2), general_word(make_word({2: Letter.LOWER, 4: RAISE}))),
        ],
    )
    def test_sector_equals_full_space_on_larger_lattices(self, model, obs):
        got = taylor_oracle(model, obs, 6).ad_expectations
        assert got == full_space_ad_expectations(model, obs, 6)

    def test_work_budget_refusal(self):
        with pytest.raises(DimensionBudgetError):
            taylor_oracle(line(20), density(), 100)

    @pytest.mark.parametrize("jmax", [0, -1])
    def test_non_positive_jmax_refused_before_building(self, cache_size, jmax):
        with pytest.raises(ValueError, match=f"^jmax must be at least 1, not {jmax}$"):
            taylor_oracle(ring(6), density(), jmax)
        assert cache_sizes() == cache_size

    def test_work_budget_refused_before_building(self, cache_size):
        with pytest.raises(DimensionBudgetError) as err:
            taylor_oracle(ring(23), density(), 22)
        assert err.value.dimension == 44 * 64_079
        assert cache_sizes() == cache_size


def correlation_coefficients_even(model, d, jmax):
    from blockade.series import correlation_coefficients

    return correlation_coefficients(model, d, jmax).even_values()


class TestG2:
    def test_tends_to_one_and_from_above(self):
        vals = g2(ring(8), 2, [0.05, 0.1]).values
        assert abs(vals[0] - 1.0) < 0.01
        assert abs(vals[1] - 1.0) < 0.05

    def test_blockaded_distance_vanishes(self):
        assert g2(ring(8), 1, [0.5]).values == [0.0]
        assert g2(ring(9, 2), 2, [0.5]).values == [0.0]
        assert g2(ring(8), 7, [0.5]).values == [0.0]  # one step the other way round

    @pytest.mark.parametrize("model", [ring(6), line(8)])
    def test_non_positive_distance_refused(self, model):
        # placed before the blockaded-pair shortcut, which would read zeros
        for d in (0, -2):
            with pytest.raises(ValueError, match="correlation distance must be a positive integer"):
                g2(model, d, [0.5])

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            g2(ring(6), 2, [0.0, 0.5])

    def test_open_chain_site_resolved(self):
        vals = g2(line(8), 2, [0.3], site=2).values
        assert math.isfinite(vals[0]) and vals[0] > 0

    @given(g2_cases())
    @settings(max_examples=40, deadline=None)
    def test_equals_composed_evolutions_bit_for_bit(self, case):
        model, d, site, times = case
        try:
            want = composed_g2(model, d, times, site)
        except ValueError as err:  # a pair that does not fit the chain
            with pytest.raises(ValueError, match=re.escape(str(err))):
                g2(model, d, times, site)
            return
        got = g2(model, d, times, site).values
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("model", [ring(10), line(10), line(9, 2)])
    def test_one_propagation_per_call(self, monkeypatch, model):
        calls = []
        propagate = dynamics._expectations

        def counted(*args):
            calls.append(len(args[2]))  # observables read from the states
            return propagate(*args)

        monkeypatch.setattr(dynamics, "_expectations", counted)
        g2(model, 3, [0.5, 1.0, 2.0])
        assert calls == [2 if model.topology == "ring" else 3]


def recorded_eigh(monkeypatch):
    """Wrap `np.linalg.eigh` to record the eigenvalues of every call, and
    whether its matrix was complex."""
    calls = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        energies, vectors = eigh(a, *args, **kwargs)
        calls.append((energies, np.iscomplexobj(a)))
        return energies, vectors

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return calls


def bloch_block(sector, k):
    """The Bloch block of character k of a cyclic sector, built from the
    formula of `spectral_checks`, with its members."""
    src, dst, power, counts = sector.bloch_edges()
    m, sizes = sector.order, sector.sizes
    members = np.flatnonzero(k * sizes % m == 0)
    slot = {int(r): i for i, r in enumerate(members)}
    block = np.zeros((members.size,) * 2, dtype=complex)
    for r, c, l, n in zip(src.tolist(), dst.tolist(), power.tolist(), counts.tolist()):
        if r in slot and c in slot:
            phase = np.exp(2j * np.pi * (k * l % m) / m)
            block[slot[c], slot[r]] += n * math.sqrt(sizes[r] / sizes[c]) * phase
    return block, members


def level_sums(energies, weights):
    """``weights`` summed over each level of ``energies`` (ascending; levels
    closer than 1e-8 are one), which no choice of eigenbasis changes."""
    level = np.concatenate(([0], np.cumsum(np.diff(energies) > 1e-8)))
    return np.bincount(level, weights)


class TestSpectralChecks:
    @pytest.mark.parametrize("topology", [ring, line])
    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_block_spectra_are_the_full_spectrum(self, monkeypatch, topology, lam):
        # a complex block also stands for its conjugate, block m - k, and a
        # line's k = 0 block is the sector eigensystem, solved from cold
        calls = recorded_eigh(monkeypatch)
        for L in range(lam + 1 if topology is ring else 1, 15):
            model = topology(L, lam)
            full = np.linalg.eigvalsh(hamiltonian_matrix(model, build_basis(model)).to_dense())
            dynamics._sector_eigensystem.cache_clear()
            calls.clear()
            rep = spectral_checks(model)
            spectra = [e for e, complex_ in calls for _ in range(2 if complex_ else 1)]
            assert rep.dimension == full.size == sum(e.size for e in spectra)
            union = np.sort(np.concatenate(spectra))
            assert np.max(np.abs(union - full), initial=0.0) <= 1e-12, model

    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_skipped_conjugate_blocks_repeat_their_partner(self, lam):
        # block m - k, never solved, has block k's spectrum and even weights
        for L in range(lam + 1, 15):
            model = ring(L, lam)
            sector = basis._sector(model, "cyclic")
            odd = sector.ones % 2 == 1
            for k in range(1, (L + 1) // 2):
                block, members = bloch_block(sector, k)
                skipped, same = bloch_block(sector, L - k)
                assert np.array_equal(members, same)
                assert np.max(np.abs(skipped - block.conj()), initial=0.0) <= 1e-12
                (e, v), (e2, v2) = np.linalg.eigh(block), np.linalg.eigh(skipped)
                assert np.max(np.abs(e2 - e), initial=0.0) <= 1e-12, (model, k)
                even = [np.sum(np.abs(u[~odd[members]]) ** 2, axis=0) for u in (v, v2)]
                sums = [level_sums(e, w) for w in even]
                assert np.max(np.abs(sums[1] - sums[0]), initial=0.0) <= 1e-12, (model, k)
                if np.all(np.diff(e) > 1e-8):  # single levels: vector for vector
                    assert np.max(np.abs(even[1] - even[0]), initial=0.0) <= 1e-12

    def test_one_eigensolve_per_distinct_spectrum(self, monkeypatch):
        calls = recorded_eigh(monkeypatch)
        for L in range(3, 15):
            calls.clear()
            spectral_checks(ring(L))
            assert len(calls) == L // 2 + 1, L
        for L in (4, 9, 12):
            model = line(L)
            dynamics._sector_eigensystem.cache_clear()
            evolve(model, density(), [0.5])
            calls.clear()
            spectral_checks(model)  # only the k = 1 block: k = 0 is the sector's
            assert len(calls) == 1
            dynamics._sector_eigensystem.cache_clear()
            spectral_checks(model)
            calls.clear()
            evolve(model, density(), [0.5])
            assert calls == []

    def test_one_every_state_check_per_sector(self, monkeypatch):
        # `evolve` and `spectral_checks` on a line share one sector, whose
        # drive and Bloch edges both need the every-state generator check
        model = line(10)
        checked = []
        flips = basis._flips
        dimension = basis.blockade_dimension(model)

        def counting(states, masks):
            checked.append(states.size == dimension)
            return flips(states, masks)

        monkeypatch.setattr(basis, "_flips", counting)
        dynamics._sector_eigensystem.cache_clear()
        evolve(model, density(), [0.5])
        spectral_checks(model)
        spectral_checks(model)
        assert sum(checked) == 1

    @pytest.mark.parametrize("model, widest", [(ring(14), 64), (line(12), 195)])
    def test_blocks_are_small(self, monkeypatch, model, widest):
        calls = recorded_eigh(monkeypatch)
        dynamics._sector_eigensystem.cache_clear()
        spectral_checks(model)
        assert max(e.size for e, _ in calls) <= widest

    @pytest.mark.parametrize("model", [ring(8), line(9)])
    def test_drive_that_breaks_the_lattice_symmetry_refused(self, monkeypatch, model):
        # site 1 never flips: the drive stays symmetric, but it no longer
        # commutes with the rotation or the reflection the blocks stand on
        flips = basis._flips
        monkeypatch.setattr(
            basis, "_flips", lambda states, masks: [(p, a) for p, a in flips(states, masks) if p != 1]
        )
        assert hamiltonian_matrix(model, build_basis(model)).is_symmetric()

        def refuse(*args):
            raise AssertionError("eigh ran on blocks that are not the drive")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        dynamics._sector_eigensystem.cache_clear()  # a cached line sector was checked before
        with pytest.raises(ValueError, match=re.escape(f"drive of {model} is not symmetric under")):
            spectral_checks(model)

    @pytest.mark.parametrize("model", [ring(8), line(9)])
    def test_asymmetric_drive_that_keeps_the_lattice_symmetry_refused(self, monkeypatch, model):
        # a state with two or more excitations never lowers one: the flips
        # commute with every lattice symmetry, but the drive is not symmetric
        flips = basis._flips

        def crowded_never_lower(states, masks):
            crowded = sum(states >> k & 1 for k in range(len(masks))) > 1
            return [(p, a & ~(crowded & (states & p != 0))) for p, a in flips(states, masks)]

        def refuse(*args):
            raise AssertionError("eigh ran on an asymmetric drive")

        monkeypatch.setattr(basis, "_flips", crowded_never_lower)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        dynamics._sector_eigensystem.cache_clear()
        message = re.escape(f"drive of {model} is not symmetric between orbits")
        for route in (lambda: spectral_checks(model), lambda: evolve(model, density(), [0.5])):
            with pytest.raises(ValueError, match=message):
                route()

    def test_open_chain_witnesses(self):
        rep = spectral_checks(line(8))
        assert rep.spectrum_asymmetry < 1e-10
        assert rep.parity_weight_defect < 1e-8
        assert rep.evenness_defect < 1e-12
        assert rep.parity_anticommutes
        assert rep.norm_defect < 1e-12

    def test_odd_dimension_forces_zero_mode(self):
        rep = spectral_checks(ring(4))  # dimension 7
        assert rep.dimension % 2 == 1
        assert rep.zero_mode is True

    def test_even_dimension_reports_none(self):
        rep = spectral_checks(line(4))  # dimension 8
        assert rep.zero_mode is None


class TestUniversalWindow:
    def test_grows_with_size(self):
        times = np.arange(0.0, 8.0, 0.05)
        small = universal_window(ring(8), ring(10), times, 1e-3)
        large = universal_window(ring(12), ring(14), times, 1e-3)
        assert small is not None and large is not None
        assert 0 < small < large

    def test_no_crossing_returns_none(self):
        assert universal_window(ring(8), ring(10), [0.01, 0.02], 1e-3) is None

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_epsilon_refused_before_evolving(self, epsilon, monkeypatch):
        monkeypatch.setattr(dynamics, "evolve", lambda *args: pytest.fail("evolved"))
        with pytest.raises(ValueError) as err:
            universal_window(ring(8), ring(10), [0.5], epsilon)
        assert str(err.value) == f"epsilon must be positive and finite, got {epsilon}"


class TestExport:
    def test_csv_lines(self):
        res = evolve(ring(6), density(), [0.0, 0.25])
        lines = evolution_to_csv(res)
        assert lines[0] == "t,value"
        assert lines[1].startswith("0.0,")

    def test_oracle_records_schema(self):
        recs = oracle_records(taylor_oracle(ring(4), density(), 2))
        assert recs[0]["source"] == "matrix-oracle"
        assert recs[0]["order"] == 2 and recs[0]["numerator"] == 1
        assert recs[1]["order"] == 4

    def test_evolution_records(self):
        res = evolve(ring(6), density(), [0.0, 0.5])
        recs = evolution_records(res)
        assert recs[0] == {"t": 0.0, "value": 0.0}
        assert set(recs[1]) == {"t", "value"}
