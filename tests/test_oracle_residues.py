"""The integer Taylor oracle over residues against its Python-integer form.

`python_int_ad_expectations` is the oracle's earlier body: the same orbit
sector, parity classes and binomial sum, carried out in exact Python
integers.  The residue route must reproduce it exactly, and the checks
below show that the prime count and the chunked sums carry weight.
"""

import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from blockade import _residues, dynamics, series
from blockade.basis import _matrix, _matvec, _sector
from blockade.dynamics import taylor_oracle
from blockade.series import (
    correlation,
    density,
    density_coefficients,
    general_word,
    local_number,
    observable_scale,
)
from blockade.words import RAISE, Letter, infinite_chain, line, make_word, ring


def _parity_blocks(matrix, parity, shift):
    """An orbit matrix as two blocks of rows, lists of (column slot, value):
    for vectors on the orbits of parity p, the rows of parity p ^ shift."""
    slot, count = [], [0, 0]
    for p in parity:
        slot.append(count[p])
        count[p] += 1
    rows = [[[] for _ in range(n)] for n in count]
    for r, c, v in zip(*(a.tolist() for a in matrix)):
        rows[parity[r]][slot[r]].append((slot[c], v))
    return [rows[shift], rows[1 ^ shift]]


def python_int_ad_expectations(model, obs, jmax):
    """<ad^M(O)> for M = 0..2 jmax, scaled as `taylor_oracle` scales them,
    from exact Python-integer matrix-vector products on the orbit sector."""
    max_ad = 2 * jmax
    sector = _sector(model, "lattice")
    drive, matrix = sector.drive(), sector.observable(obs)
    parity = (sector.ones & 1).tolist()
    rows, cols, values = matrix
    shift = parity[rows[0]] ^ parity[cols[0]] if rows.size else 0
    symmetric = _matrix(sector, matrix).is_symmetric()
    step, observe = _parity_blocks(drive, parity, 1), _parity_blocks(matrix, parity, shift)
    transposed = observe if symmetric else _parity_blocks((cols, rows, values), parity, shift)
    totals = [0] * (max_ad + 1)
    kets, kets_t = [], []
    v = [1] + [0] * (parity.count(0) - 1)
    for k in range(max_ad + 1):
        if k <= jmax:
            kets.append(_matvec(observe[k & 1], v))
            kets_t.append(_matvec(transposed[k & 1], v) if not symmetric else kets[-1])
        for b in range((k ^ shift) & 1, min(k, max_ad - k) + 1, 2):
            term = (-1) ** b * sum(map(operator.mul, v, kets[b]))
            if b < k:
                term += term if symmetric else (-1) ** k * sum(map(operator.mul, v, kets_t[b]))
            totals[k + b] += math.comb(k + b, b) * term
        if k < max_ad:
            v = _matvec(step[k & 1], v)
    scale = observable_scale(obs, model)
    return {M: Fraction(total) * scale for M, total in enumerate(totals)}


def observables(model):
    """The density, a local number, a pair counter, a lone raising word and
    a hopping word, each placed on ``model`` if it fits."""
    L = model.size
    out = [density(), local_number(min(2, L))]
    if L >= 3:
        out.append(correlation(2, site=1))
    out.append(general_word(make_word({1: RAISE})))
    if L >= 3:
        out.append(general_word(make_word({1: RAISE, 3: Letter.LOWER})))
    return out


LATTICES = [
    model
    for lam in (1, 2, 3)
    for L in range(1, 17)
    for model in ([line(L, lam)] + ([ring(L, lam)] if L > lam else []))
]


@pytest.mark.parametrize("model", LATTICES, ids=str)
def test_residues_equal_python_integers(model):
    # every ring and line with L <= 16 and lambda <= 3, five observable kinds
    jmax = 4 if model.size <= 12 else 3
    for obs in observables(model):
        got = taylor_oracle(model, obs, jmax).ad_expectations
        assert got == python_int_ad_expectations(model, obs, jmax), obs


def test_line16_j15_needs_several_primes():
    # the integer totals reach 88 bits (84 per site): one 50-bit prime cannot carry them
    want = python_int_ad_expectations(line(16), density(), 15)
    assert max(abs(v * 16).numerator.bit_length() for v in want.values()) == 88
    assert max(abs(v).numerator.bit_length() for v in want.values()) == 84
    assert taylor_oracle(line(16), density(), 15).ad_expectations == want


def test_one_prime_is_not_enough_for_line16_j15(monkeypatch):
    # the mutant with the prime count forced to one must come out wrong
    primes_for = _residues.primes_for
    monkeypatch.setattr(_residues, "primes_for", lambda bound: primes_for(bound)[:1])
    got = taylor_oracle(line(16), density(), 15).ad_expectations
    assert got != python_int_ad_expectations(line(16), density(), 15)


def test_prime_count_follows_the_bound():
    # the largest primes below 2^50 (checked once by trial division to 2^25)
    assert (2**50 - _residues.primes_for(2**255)).tolist() == [27, 35, 51, 71, 113, 117]
    assert _residues.primes_for(0).size == 1
    assert _residues.primes_for(2**163).size == 4  # line 16 to j = 15: 2^164.3 > 2^163
    primes = _residues.primes_for(2**500).tolist()
    assert math.prod(primes) > 2 * 2**500 >= math.prod(primes[:-1])


def test_modular_products_and_reconstruction():
    rng = random.Random(5)
    primes = _residues.primes_for(2**300)
    moduli = primes.tolist()
    a, b = (
        np.array([[rng.randrange(p) for p in moduli] for _ in range(200)] + [(primes - 1).tolist()])
        for _ in "ab"
    )
    want = [[x * y % p for x, y, p in zip(r, s, moduli)] for r, s in zip(a.tolist(), b.tolist())]
    assert _residues.mulmod(a, b, primes).tolist() == want
    values = [rng.randrange(-(2**300), 2**300) for _ in range(50)] + [0, 1, -1]
    residues = np.array([[x % p for p in moduli] for x in values])
    assert _residues.signed_crt(residues, primes, np.ones_like(primes)) == values
    # a scale divides out: X scale = residue
    scale = np.array([rng.randrange(1, p) for p in moduli])
    scaled = np.array([[x * s % p for s, p in zip(scale.tolist(), moduli)] for x in values])
    assert _residues.signed_crt(scaled, primes, scale) == values


def test_csr_keeps_empty_rows_at_either_end():
    # rows 0, 2 and 4 of five have no entries; the last row must not lose
    # an entry to them, and every empty row reads zero
    primes = _residues.primes_for(1)
    kernel = _residues.csr(np.array([3, 1, 3]), np.array([0, 1, 2]), np.array([2, 5, 7]), 5)
    x = np.array([[1, 10, 100]])
    assert _residues.matvec(kernel, x, primes).tolist() == [[0, 50, 0, 702, 0]]


def test_small_chunks_still_exact(monkeypatch):
    # the chunked int64 sums and running binomial sums at a chunk size of 64
    monkeypatch.setattr(dynamics, "_CHUNK", 64)
    want = python_int_ad_expectations(ring(18), density(), 17)
    assert taylor_oracle(ring(18), density(), 17).ad_expectations == want
    deep = python_int_ad_expectations(line(3), density(), 80)
    assert taylor_oracle(line(3), density(), 80).ad_expectations == deep


@pytest.mark.parametrize(
    "lam, jmax, exact, short",
    [(1, 11, 12, 11), (2, 8, 17, 16), (3, 7, 22, 21)],
)
def test_symbolic_engine_equals_oracle_at_depth(monkeypatch, lam, jmax, exact, short):
    # the infinite-chain density past the default order budget equals the
    # oracle on the smallest ring certified size-free, and not one site less
    monkeypatch.setattr(series, "DEFAULT_ORDER_BUDGET", 2 * jmax)
    sym = density_coefficients(infinite_chain(lam), jmax).even_values()
    assert sym == taylor_oracle(ring(exact, lam), density(), jmax).coefficients
    assert sym != taylor_oracle(ring(short, lam), density(), jmax).coefficients
