"""Exact integer arithmetic on ``int64`` arrays of residues modulo primes
just below 2^50.

An integer too wide for a machine word is carried by its residues modulo
the largest primes below 2^50, the fewest whose product exceeds twice a
proven bound on its absolute value; one signed Chinese-remainder
reconstruction then gives it back exactly (von zur Gathen and Gerhard,
*Modern Computer Algebra*, 3rd ed., ch. 5).  The primes are found on first
use by a deterministic Miller-Rabin test and cached.  A product of two
residues needs up to 100 bits, so products are taken from 25-bit halves
(each below 2^50, summed at most 2^13 at a time below 2^63) or with a
float64 quotient (`mulmod`).
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

_SHIFTS = np.array([[25], [0]])


@lru_cache(maxsize=None)
def prime_below(n: int) -> int:
    """The largest prime below an odd n > 29, by Miller-Rabin with the first
    nine prime bases, which is deterministic below 3.8e18 (Jaeschke 1993)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    while True:
        n -= 2
        if math.gcd(n, math.prod(bases)) > 1:
            continue
        s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
        for a in bases:  # a^d = 1, or a^(d 2^i) = -1 for some i < s
            x = pow(a, (n - 1) >> s, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                break  # a witnesses that n is composite
        else:
            return n


def primes_for(bound: int) -> np.ndarray:
    """The fewest of the largest primes below 2^50, descending, whose
    product exceeds 2 ``bound`` (at least one)."""
    primes = [prime_below((1 << 50) + 1)]
    while math.prod(primes) <= 2 * bound:
        primes.append(prime_below(primes[-1]))
    return np.array(primes)


def csr(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, size: int) -> tuple:
    """The entries of a matrix with ``size`` rows as CSR for `matvec`: the
    columns and values in row order and each row's first entry.  A row
    without entries gets one zero entry, so that no row is skipped."""
    counts = np.bincount(rows, minlength=size)
    empty = np.flatnonzero(counts == 0)
    order = np.argsort(np.concatenate((rows, empty)), kind="stable")
    counts[empty] = 1
    entries = (np.concatenate((a, 0 * empty))[order] for a in (cols, values))
    return (*entries, np.cumsum(counts) - counts)


def matvec(kernel: tuple, x: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """A `csr` matrix times residues x (primes x columns) mod each prime,
    exact in int64 when the values of each row add up to less than 2^13."""
    cols, values, starts = kernel
    return np.add.reduceat(x.take(cols, axis=1) * values, starts, axis=1) % primes[:, None]


def halves(x: np.ndarray) -> np.ndarray:
    """Residues below 2^50 as their high and low 25-bit halves, on a new
    axis before the last."""
    return x[..., None, :] >> _SHIFTS & (1 << 25) - 1


def mulmod(a: np.ndarray, b: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """a b mod p for residues below p < 2^50.  The float64 quotient of
    a b / p < 2^50 is off by less than 1/2, so its integer part q leaves
    a b - q p in (-p, 2p), exact in wrapping uint64 arithmetic."""
    q = (a * (b / primes)).astype(np.int64)
    u = np.uint64
    return (a.view(u) * b.view(u) - q.view(u) * primes.view(u)).view(np.int64) % primes


def cumprod(x: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Running products mod p of residues along the first axis, in
    log2(len(x)) rounds that each double the span of every product."""
    x, span = x.copy(), 1
    while span < len(x):
        x[span:] = mulmod(x[span:], x[:-span], primes)
        span *= 2
    return x


def place(hh, hl, lh, ll, primes: np.ndarray) -> np.ndarray:
    """hh 2^50 + (hl + lh) 2^25 + ll mod p, from the residues of sums of
    products of the high and low halves of two factors."""
    lift = np.array(1 << 25)
    return (mulmod((mulmod(hh, lift, primes) + hl + lh) % primes, lift, primes) + ll) % primes


def signed_crt(residues: np.ndarray, primes: np.ndarray, scale: np.ndarray) -> list[int]:
    """Each integer X of absolute value below half the product of ``primes``
    with X scale = residue mod every prime, one row of residues each."""
    product = math.prod(primes.tolist())
    cofactors = [(product // p, p, s) for p, s in zip(primes.tolist(), scale.tolist())]
    basis = [m * pow(m * s, -1, p) for m, p, s in cofactors]
    totals = [sum(map(operator.mul, row, basis)) % product for row in residues.tolist()]
    return [x - product if 2 * x > product else x for x in totals]
