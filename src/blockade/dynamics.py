"""Exact time evolution in the blockade subspace and an integer Taylor oracle.

Evolution starts from the all-ground state.  The vacuum and every state it
evolves into are invariant under the lattice symmetries (reflection, and
rotation on a ring), so the evolution runs on the orbit sums of
`basis.orbit_sector`: 49 states instead of 843 on a 14-site ring, 209
instead of 5,778 on 18 sites.  On the normalised orbit sums the drive is
the real symmetric matrix A(r', r) sqrt(n_r' / n_r), with n_r the orbit
size, and one dense eigendecomposition of it per lattice (cached) serves
every observable and time.  The eigenvectors are real, so the states of a
whole block of time points come from one real matrix product against the
cosines and sines of the phases, every observable of a call is read from
those states (one propagation), and the evolved expectation of a
self-adjoint observable is real to machine precision.  The dimension budget
counts the full blockade dimension; requests beyond it or the oracle's work
budget are refused from the closed-form dimension, before any basis is
built.  The spectral diagnostics need the whole spectrum, not only the
vacuum's sector.  They split the blockade space into Bloch blocks, one per
character of the rotation by one site on a ring (L blocks) or of the
reflection on a line (two blocks), and diagonalise one block per distinct
spectrum: a complex block and its conjugate share one solve, so a 14-site
ring takes 8 solves, none wider than 64 states against 843 in the whole
space, and a line's symmetric block is the cached sector eigensystem.

The Taylor oracle is the package's independent route to the series
coefficients: powers of the drive matrix applied to the initial vector are
exact integer vectors, carried as `int64` residues modulo a few primes below
2^50 and rebuilt once by a signed Chinese remainder, and the nested-commutator
expectation unfolds into the binomial sum

    <ad^M(O)> = sum_m (-1)^m C(M, m) (H^(M-m) e0) . O (H^m e0),

rational division entering only at the final factorial.  Every H^m e0 is
invariant under the lattice symmetries too, so the oracle keeps its integer
coefficients over the same orbit sums, unnormalised, and on the orbits of
excitation parity m mod 2, and sums even orders only for a symmetric
observable.  Its results must match the symbolic engine digit for digit,
which is the strongest self-test in the package.

Spectral diagnostics exploit the excitation-parity anticommutation of the
drive: the spectrum is symmetric about zero, every eigenvector away from zero
energy splits its weight equally between even and odd excitation numbers, and
expectation values starting from the vacuum are even in time.
Every route reads the density's 1/L from `series.observable_scale` and an
orbit's excitation number from `basis._OrbitSector.ones`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _residues
from .basis import _sector, _symmetries, blockade_dimension
from .series import (
    ObservableSpec,
    _observable_word,
    correlation,
    correlation_base_site,
    density,
    local_number,
    observable_scale,
)
from .words import ModelSpec, fold_word

__all__ = [
    "DimensionBudgetError",
    "EvolutionResult",
    "TaylorOracleResult",
    "SpectralReport",
    "evolve",
    "taylor_oracle",
    "g2",
    "spectral_checks",
    "universal_window",
    "evolution_records",
    "evolution_to_csv",
    "oracle_records",
    "DENSE_DIMENSION_BUDGET",
    "ORACLE_WORK_BUDGET",
]

DENSE_DIMENSION_BUDGET = 8000
ORACLE_WORK_BUDGET = 2_000_000  # (ad order) x (dimension)

_IMAG_TOL = 1e-10
_NORM_TOL = 1e-12
_BLOCK_POINTS = 128  # time points per product: memory stays O(dimension x block)
_SAMPLE_TIMES = (0.3, 1.1, 2.7)  # where `spectral_checks` reads the norm and the evenness


class DimensionBudgetError(ValueError):
    """Raised instead of attempting an over-budget dense computation.
    ``dimension`` is the size that went over ``budget``: the blockade
    dimension, or the oracle's work when ``measure`` names it."""

    def __init__(self, dimension: int, budget: int, what: str, measure: str = "dimension"):
        self.dimension = dimension
        self.budget = budget
        super().__init__(
            f"{what} needs {measure} {dimension}, over the budget of {budget}"
        )


@dataclass
class EvolutionResult:
    """Expectation values of one observable on a time grid."""

    model: ModelSpec
    observable: ObservableSpec
    times: list[float]
    values: list[float]


@dataclass
class TaylorOracleResult:
    """Exact nested-commutator expectations and the derived coefficients.

    ``ad_expectations[M]`` is the exact <ad^M(O)> for M = 0..2*jmax, scaled
    by `series.observable_scale` (per site for the density).
    ``coefficients[j]`` is the exact coefficient of t^(2j), j = 1..jmax.
    """

    model: ModelSpec
    observable: ObservableSpec
    ad_expectations: dict = field(default_factory=dict)
    coefficients: list = field(default_factory=list)


def _check_dense_budget(model: ModelSpec) -> None:
    """Refuse a lattice whose full blockade dimension is over the dense
    budget, from the closed form, before anything is built."""
    dimension = blockade_dimension(model)
    if dimension > DENSE_DIMENSION_BUDGET:
        raise DimensionBudgetError(
            dimension, DENSE_DIMENSION_BUDGET, "dense eigendecomposition"
        )


def _diagonalise(drive, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense symmetric eigendecomposition of an orbit drive (its rows,
    columns and values) on the normalised orbit sums |r> / sqrt(n_r), where
    it is A(r', r) sqrt(n_r' / n_r) = n_r' A(r', r) / sqrt(n_r' n_r).  The
    drive builder has checked that the integer edge count n_r' A(r', r) is
    symmetric, so the float matrix is exactly symmetric as well, as
    `np.linalg.eigh` (which reads one triangle) needs."""
    rows, cols, values = drive
    dense = np.zeros((sizes.size, sizes.size))
    dense[rows, cols] = sizes[rows] * values / np.sqrt(sizes[rows] * sizes[cols])
    return np.linalg.eigh(dense)


@lru_cache(maxsize=4)
def _sector_eigensystem(model: ModelSpec):
    """Orbit sector and the eigendecomposition of its normalised drive,
    cached per model; refused from the closed-form full dimension before
    the basis is built."""
    _check_dense_budget(model)
    sector = _sector(model, "lattice")
    return sector, *_diagonalise(sector.drive(), sector.sizes)


def _coordinates(matrix, sizes: np.ndarray):
    """The rows and columns of an orbit observable (its rows, columns and
    values) with float values, each orbit-summed entry O(r', r) divided by
    sqrt(n_r' n_r), which makes it act on normalised orbit amplitudes."""
    rows, cols, values = matrix
    return rows, cols, values / np.sqrt(sizes[rows] * sizes[cols])


def _expectations(energies, vectors, observables, times):
    """Squared norms and the real and imaginary parts of <psi(t)|O|psi(t)>,
    psi(t) = exp(-iHt)|vacuum>, for every t in ``times`` and every O in
    ``observables`` (one row of each part per observable).

    With real eigenvectors V and vacuum overlaps w (the vacuum is the first
    coordinate), psi(t) = R - iI where R = V (cos(Et) w) and
    I = V (sin(Et) w); one product of V with the stacked cosine and sine
    columns gives both for a block of time points, and every observable is
    read from those states.  O acts through its coordinate entries
    ``(rows, cols, vals)``, so the expectation is a weighted sum of
    amplitude products gathered at (row, column) pairs.
    """
    weights = vectors[0, :][:, None]
    times = np.asarray(times, dtype=float)
    n2 = np.empty(times.size)
    re, im = (np.empty((len(observables), times.size)) for _ in range(2))
    for start in range(0, times.size, _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        phases = np.outer(energies, times[block])
        states = vectors @ np.hstack((np.cos(phases) * weights, np.sin(phases) * weights))
        real, imag = np.hsplit(states, 2)
        n2[block] = np.einsum("ij,ij->j", real, real) + np.einsum("ij,ij->j", imag, imag)
        for o, (rows, cols, vals) in enumerate(observables):
            re[o, block] = vals @ (real[rows] * real[cols] + imag[rows] * imag[cols])
            im[o, block] = vals @ (imag[rows] * real[cols] - real[rows] * imag[cols])
    return n2, re, im


def _finite_times(times) -> list[float]:
    """The time grid as floats; a NaN or infinite time is refused."""
    times = [float(t) for t in times]
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"times must be finite, got {t}")
    return times


def _evolved(model: ModelSpec, observables: list[ObservableSpec], times):
    """The time grid as floats and the exact expectation of each of
    ``observables`` along it, vacuum initial state, from one propagation.

    Runs in the orbit sector: one eigendecomposition of the normalised
    sector drive per model (cached), and each observable summed over pairs
    of orbits and weighted by 1 / sqrt(n_r' n_r), so the norm and every
    expectation are the full-space ones.  The states of all non-zero time
    points come from one real matrix product per block of ``_BLOCK_POINTS``
    points and serve every observable; t = 0 is the exact vacuum element
    (the vacuum is orbit 0, alone).  The norm is checked to 1e-12 at every
    point and each imaginary residue to 1e-10; both are guaranteed by
    symmetry, so a violation (NaN included) raises instead of being hidden.
    Non-finite times and an observable that does not fit the lattice are
    refused before the eigensystem is built.
    """
    times = _finite_times(times)
    for obs in observables:
        fold_word(_observable_word(obs, model), model)
    sector, energies, vectors = _sector_eigensystem(model)
    matrices = [sector.observable(obs) for obs in observables]
    norms = [float(observable_scale(obs, model)) for obs in observables]
    vacuum = [int(v[(r == 0) & (c == 0)].sum()) for r, c, v in matrices]  # orbit 0, alone
    values = [[e * n] * len(times) for e, n in zip(vacuum, norms)]
    later = [i for i, t in enumerate(times) if t != 0.0]
    coordinates = [_coordinates(matrix, sector.sizes) for matrix in matrices]
    n2, re, im = _expectations(energies, vectors, coordinates, [times[i] for i in later])
    bad = ~(np.abs(n2 - 1.0) <= _NORM_TOL * 10) | ~np.all(np.abs(im) <= _IMAG_TOL, axis=0)
    for j in np.flatnonzero(bad)[:1]:  # the first failing point: its norm, then each residue
        if not abs(n2[j] - 1.0) <= _NORM_TOL * 10:
            raise ArithmeticError(f"evolved-state norm defect {abs(n2[j] - 1.0):.2e}")
        imag = im[~(np.abs(im[:, j]) <= _IMAG_TOL), j][0]
        raise ArithmeticError(f"imaginary residue {imag:.2e} at t={times[later[j]]}")
    for out, row, norm in zip(values, re.tolist(), norms):
        for i, real in zip(later, row):
            out[i] = real * norm
    return times, values


def evolve(model: ModelSpec, obs: ObservableSpec, times) -> EvolutionResult:
    """Exact expectation of ``obs`` along ``times``, vacuum initial state:
    the one-observable case of `_evolved`, refusals included."""
    times, (values,) = _evolved(model, [obs], times)
    return EvolutionResult(model=model, observable=obs, times=times, values=values)


# ---------------------------------------------------------------------------
# integer Taylor oracle
# ---------------------------------------------------------------------------


_CHUNK = 1 << 13  # int64 sums of at most 2^13 products of 25-bit halves stay below 2^63


def _kernels(matrix, odd: np.ndarray, shift: int) -> list[tuple]:
    """An orbit matrix (rows, columns, values) as one `_residues.csr` kernel
    per parity class p of the vector, onto class p ^ ``shift``, the orbits
    numbered within their class."""
    rows, cols, values = matrix
    slot = np.where(odd, np.cumsum(odd), np.cumsum(1 - odd)) - 1
    at = [odd[cols] == p for p in (0, 1)]
    size = [np.sum(odd == p ^ shift) for p in (0, 1)]
    return [_residues.csr(slot[rows[a]], slot[cols[a]], values[a], m) for a, m in zip(at, size)]


def taylor_oracle(model: ModelSpec, obs: ObservableSpec, jmax: int) -> TaylorOracleResult:
    """Exact Taylor data from integer matrix powers, independent of the
    symbolic engine.  Computes v_m = H^m |vacuum> for m up to 2*jmax by
    sparse integer matrix-vector products on the orbit-sum coefficients of
    `basis.orbit_sector`, and assembles every nested-commutator expectation
    through the binomial expansion, dividing by the factorial at the very
    end.  The bra <e0| H^(M-m) is the vector H^(M-m) e0, which is correct
    because `orbit_sector` refuses a drive that is not symmetric or does not
    commute with the lattice symmetries.  The drive flips the excitation
    parity (an edge that keeps it is refused), so v_m is kept on the orbits
    of parity m mod 2, and a term is summed only where v_(M-m) and O v_m
    meet on one class.  A symmetric orbit observable matrix (the density,
    local numbers, pair counters) keeps the parity, so its odd orders are
    exact zeros and the equal terms m and M - m are summed once, from O v_m
    for m <= jmax and the current v alone.  Any other word, such as a lone
    raising operator with non-zero odd orders, takes the full sum over every
    order, from O v_m and O^T v_m.

    The integers are residues (`_residues`) modulo the fewest primes below
    2^50 whose product exceeds twice |total_M| <= 2^M n ||O|| ||A||^M, fixed
    before any vector is built: v_m is at most ||A||^m (the drive's largest
    row sum), O v_m and O^T v_m ||O|| ||A||^m (the observable's largest row
    or column sum), a dot has n orbits and C(M, .) adds up to 2^M.  With
    w_m = (N! / m!) v_m, N = 2 jmax, order M sums w_(M-m) . O w_m unweighted,
    scaled by M! / (N!)^2 in one exact signed Chinese-remainder step.  A
    ``jmax`` below 1, the work budget (which counts the full blockade
    dimension) and the placement of the observable are checked first.
    """
    if jmax < 1:
        raise ValueError(f"jmax must be at least 1, not {jmax}")
    max_ad = 2 * jmax
    dimension = blockade_dimension(model)
    work = max_ad * dimension
    if work > ORACLE_WORK_BUDGET:
        what = f"integer Taylor oracle (ad order {max_ad} x dimension {dimension})"
        raise DimensionBudgetError(work, ORACLE_WORK_BUDGET, what, "work")
    fold_word(_observable_word(obs, model), model)
    sector = _sector(model, "lattice")
    drive, matrix = sector.drive(), sector.observable(obs)
    odd = sector.ones & 1
    kept = np.flatnonzero(odd[drive[0]] == odd[drive[1]])
    if kept.size:
        what = f"drive of {model} keeps the excitation parity"
        raise ValueError(f"{what} between orbits {drive[0][kept[0]]} and {drive[1][kept[0]]}")
    rows, cols, values = matrix
    n, sizes = odd.size, np.bincount(odd, minlength=2)
    # a word changes the excitation number by a fixed amount: 0 if it is symmetric
    shift = int(odd[rows[0]] ^ odd[cols[0]]) if rows.size else 0
    keys = [np.stack(e)[:, np.argsort(e[0] * n + e[1])] for e in (matrix, (cols, rows, values))]
    symmetric = np.array_equal(*keys)  # O^T = O, compared as sorted (row, column, value)
    # row sums below 2^13, as `_residues.matvec` needs: at most L <= 26, and L^2 (the density)
    norm_a = int(np.bincount(drive[0], drive[2]).max())
    norm_o = int(max(np.bincount(i, values).max(initial=0) for i in (rows, cols)))
    primes = _residues.primes_for(2**max_ad * n * norm_o * norm_a**max_ad)
    p, pp = primes[:, None], primes[:, None, None]
    step, observe = _kernels(drive, odd, 1), _kernels(matrix, odd, shift)
    sides = [observe] if symmetric else [observe, _kernels((cols, rows, values), odd, shift)]
    # O w_b (and O^T w_b) in halves, on the orbits of parity b ^ shift, at slot b // 2
    kets = [np.empty((primes.size, s, jmax // 2 + 1, len(sides), 2), np.int64) for s in sizes]
    factors = np.outer(np.maximum(np.arange(max_ad + 1), 1), np.ones_like(primes))  # 1, 1, .., N
    factorials = _residues.cumprod(factors, primes)  # k!
    falling = _residues.cumprod(np.roll(factors, -1, axis=0)[::-1], primes)[::-1]  # N!/k!
    sums = np.zeros((max_ad + 1, primes.size, 2, 2), dtype=np.int64)  # halves by halves
    v = np.repeat(np.eye(1, sizes[0], dtype=np.int64), primes.size, axis=0)  # the vacuum: orbit 0
    for k in range(max_ad + 1):
        c = k & 1
        if k:  # v_k = A v_(k-1), on the orbits of parity k mod 2
            v = _residues.matvec(step[1 - c], v, primes)
        if k % 32 == 0:  # a sum gains one term below 2^57 a step
            sums %= pp
        w = _residues.mulmod(v, falling[k][:, None], p)
        for side, kernels in enumerate(sides if k <= jmax else []):
            ket = _residues.halves(_residues.matvec(kernels[c], w, primes))
            kets[c ^ shift][:, :, k // 2, side] = np.swapaxes(ket, -1, -2)
        first = (k ^ shift) & 1  # the pairs (k, b) that meet: b = first, first + 2, ..., last
        last = min(k, max_ad - k) - ((min(k, max_ad - k) ^ first) & 1)
        if first > last:
            continue
        # w_k . O w_b and w_k . O^T w_b from halves, in chunks of 2^13 orbits; a class
        # has fewer than 2^19 orbits (26 sites at most), so the dots stay below 2^56
        x, count = _residues.halves(w), (last - first) // 2 + 1
        y = kets[c][:, :, :count].reshape(primes.size, -1, count * len(sides) * 2)
        pieces = (x[..., s : s + _CHUNK] @ y[:, s : s + _CHUNK] for s in range(0, n, _CHUNK))
        dots = sum(piece % pp for piece in pieces)
        dots = dots.reshape(primes.size, 2, count, len(sides), 2).transpose(2, 0, 1, 3, 4)
        # m = b: (-1)^b w_k . O w_b; m = k > b: (-1)^k w_b . O w_k = (-1)^k w_k . O^T w_b,
        # which for a symmetric O is the same term (b and k then have one parity)
        term = (1 - 2 * first) * dots[..., 0, :] + (-1) ** k * dots[..., -1, :]
        if last == k:
            term[-1] = (1 - 2 * first) * dots[-1, ..., 0, :]
        sums[k + first : k + last + 1 : 2] += term
    sums = _residues.place(*(sums[..., i, j] % p.T for i in (0, 1) for j in (0, 1)), primes)
    sums = _residues.mulmod(sums, factorials, primes)  # (N!)^2 total_M
    totals = _residues.signed_crt(sums, primes, _residues.mulmod(falling[0], falling[0], primes))

    scale = observable_scale(obs, model)
    ad_expectations = {M: Fraction(total) * scale for M, total in enumerate(totals)}
    coefficients = [
        Fraction((-1) ** j) * ad_expectations[2 * j] / math.factorial(2 * j)
        for j in range(1, jmax + 1)
    ]
    return TaylorOracleResult(
        model=model,
        observable=obs,
        ad_expectations=ad_expectations,
        coefficients=coefficients,
    )


# ---------------------------------------------------------------------------
# correlations and diagnostics
# ---------------------------------------------------------------------------


def g2(model: ModelSpec, d: int, times, site: int | None = None) -> EvolutionResult:
    """Normalised pair correlation: <n_k n_{k+d}> / (<n_k> <n_{k+d}>).

    Strictly positive, finite times only (both vanish at t = 0).  The pair
    and the counters come from one propagation, the pair placed first, so
    a distance below 1, a pair that does not fit and a ring pair a multiple
    of L apart (one site twice) are refused before the eigensystem is
    built.  A pair inside the blockade range has a zero correlation; on a
    ring n_{k+d} is read as n_k.  Points whose denominator is below 1e-14
    are reported as NaN.
    """
    times = _finite_times(times)
    if any(t <= 0 for t in times):
        raise ValueError("pair correlations need strictly positive times")
    pair = correlation(d, site=site)
    k = correlation_base_site(pair, model)
    far = [] if model.topology == "ring" else [local_number(k + d)]
    _, (numerator, *counts) = _evolved(model, [pair, local_number(k), *far], times)
    values = []
    for num, a, b in zip(numerator, counts[0], counts[-1]):
        den = a * b
        values.append(float("nan") if abs(den) < 1e-14 else num / den)
    return EvolutionResult(model=model, observable=pair, times=times, values=values)


@dataclass
class SpectralReport:
    """Numerical witnesses of the parity structure of one lattice."""

    model: ModelSpec
    dimension: int
    spectrum_asymmetry: float        # max |E_i + E_{dim+1-i}| after sorting
    parity_weight_defect: float      # max | ||even part||^2 - 1/2 |, |E| > 1e-8
    evenness_defect: float           # max |rho(t) - rho(-t)|, 0 by construction (cos/sin split)
    parity_anticommutes: bool        # P H + H P == 0, exact integers
    norm_defect: float               # max | ||psi(t)||^2 - 1 | on the sample grid
    zero_mode: bool | None           # smallest |E| < 1e-8 (None if dim is even)


def spectral_checks(model: ModelSpec) -> SpectralReport:
    """Collect the parity/spectral witnesses for one lattice.

    They need the whole spectrum, which falls into Bloch blocks.  The site
    permutation g of the cyclic `basis._sector` (the rotation by one site on
    a ring, order m = L; the reflection on a line, m = 2) commutes with the
    drive and with the parity, so the normalised Bloch sums
    |r, k> = n_r^(-1/2) sum_l e^(-2 pi i k l / m) g^l |first state of r>,
    nonzero for the orbits with k n_r = 0 (mod m), span the blockade space,
    one block per character k = 0..m-1.  The drive's block is

        H_k(r', r) = sum e^(2 pi i k l / m) sqrt(n_r / n_r'),

    summed over the flips of orbit r's first state that land on
    g^l(first state of r'); it is real when 2k = 0 (mod m).  Block m - k
    has the members of block k and is its complex conjugate, with the same
    real spectrum and conjugate eigenvectors, so only k = 0..m/2 are solved
    and a complex block's spectrum counts twice.  On a line g generates the
    whole lattice group, so its k = 0 block is the sector drive of `evolve`,
    read from the cached `_sector_eigensystem` (solved there if need be),
    and one `eigh` is left for k = 1.  The spectrum is the sorted union of
    the block spectra, and the block dimensions must add up to the blockade
    dimension.  The parity is constant on an orbit, so an eigenvector's
    even weight is its weight on the even orbits of its block, and parity
    anticommutes with the drive when every orbit flip edge joins opposite
    parities.  The norm and the evenness are read from the real k = 0
    block, where the vacuum is alone in orbit 0, at ``_SAMPLE_TIMES`` and
    their negatives.  Over-budget lattices are refused before the basis is
    built, a drive that does not commute with g before any `eigh`, and a
    block that is not Hermitian before its own `eigh` (a line's k = 0
    block is the orbit drive, which `drive` checks symmetric).
    """
    whole = len(_symmetries(model)) == 1  # a line: the cyclic group is the lattice group
    if whole:  # its k = 0 block is the sector drive of `evolve`, checked before its eigh
        sector, *lattice = _sector_eigensystem(model)
    else:
        _check_dense_budget(model)
        sector = _sector(model, "cyclic")
    src, dst, power, counts = sector.bloch_edges()  # g and the symmetry checked in integers
    m, sizes = sector.order, sector.sizes
    odd = sector.ones % 2 == 1
    # P H + H P = 0 when every flip edge joins opposite parities, in integers
    anti = bool(np.all(odd[src] != odd[dst]))
    hops = counts * np.sqrt(sizes[src] / sizes[dst])

    spectra, weight_defect = [], 0.0
    for k in range(m // 2 + 1):  # block m - k is the conjugate of block k
        members = np.flatnonzero(k * sizes % m == 0)
        real = 2 * k % m == 0
        if k == 0 and whole:
            energies, vectors = lattice
        else:
            slot = np.full(sizes.size, -1)
            slot[members] = np.arange(members.size)
            edge = (slot[src] >= 0) & (slot[dst] >= 0)
            values = hops[edge] * np.exp(2j * np.pi * (k * power[edge] % m) / m)
            block = np.zeros((members.size,) * 2, dtype=complex)
            np.add.at(block, (slot[dst[edge]], slot[src[edge]]), values)
            energies, vectors = np.linalg.eigh(block.real if real else block)
        spectra += [energies] * (1 if real else 2)
        even_weight = np.sum(np.abs(vectors[~odd[members]]) ** 2, axis=0)
        nonzero = np.abs(energies) > 1e-8
        if nonzero.any():
            weight_defect = max(weight_defect, float(np.max(np.abs(even_weight[nonzero] - 0.5))))
        if k == 0:  # every orbit, in orbit order: the vacuum first
            signed = [sign * t for t in _SAMPLE_TIMES for sign in (1.0, -1.0)]
            coordinates = _coordinates(sector.observable(density()), sector.sizes)
            n2, (re,), _ = _expectations(energies, vectors, [coordinates], signed)
    dim = sector.states.size
    energies = np.sort(np.concatenate(spectra))
    if energies.size != dim:
        raise ArithmeticError(f"Bloch blocks of {model} hold {energies.size} states, not {dim}")
    asym = float(np.max(np.abs(energies + energies[::-1])))
    norm_defect = float(np.max(np.abs(n2 - 1.0), initial=0.0))
    rho = re / float(1 / observable_scale(density(), model))  # / L, not * a rounded 1/L
    evenness = float(np.max(np.abs(rho[0::2] - rho[1::2]), initial=0.0))

    zero_mode = bool(np.min(np.abs(energies)) < 1e-8) if dim % 2 else None
    return SpectralReport(
        model=model,
        dimension=dim,
        spectrum_asymmetry=asym,
        parity_weight_defect=weight_defect,
        evenness_defect=evenness,
        parity_anticommutes=anti,
        norm_defect=norm_defect,
        zero_mode=zero_mode,
    )


def universal_window(
    model_a: ModelSpec, model_b: ModelSpec, times, epsilon: float = 1e-3
) -> float | None:
    """First time on the grid where the two lattices' densities differ by more
    than ``epsilon`` (None if they never do).  The crossing time is a
    grid-resolution statement, not a sharp threshold.  A non-finite or
    non-positive ``epsilon`` is refused before anything is evolved."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    va = evolve(model_a, density(), times).values
    vb = evolve(model_b, density(), times).values
    for t, a, b in zip(times, va, vb):
        if abs(a - b) > epsilon:
            return float(t)
    return None


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def evolution_records(result: EvolutionResult) -> list[dict]:
    return [
        {"t": t, "value": v}
        for t, v in zip(result.times, result.values)
    ]


def evolution_to_csv(result: EvolutionResult) -> list[str]:
    lines = ["t,value"]
    lines.extend(f"{t!r},{v!r}" for t, v in zip(result.times, result.values))
    return lines


def oracle_records(result: TaylorOracleResult) -> list[dict]:
    """JSON records in the same schema as the symbolic coefficient export,
    tagged with their origin."""
    model = result.model
    out = []
    for j, c in enumerate(result.coefficients, start=1):
        out.append(
            {
                "observable": str(result.observable),
                "topology": model.topology,
                "L": model.size,
                "lambda_b": model.blockade_range,
                "order": 2 * j,
                "numerator": c.numerator,
                "denominator": c.denominator,
                "universal": False,
                "source": "matrix-oracle",
            }
        )
    return out
