"""Rigorous coefficient bounds and certified error envelopes.

The Taylor coefficients produced elsewhere in this package admit explicit
a-priori bounds obtained by over-counting the operator words a nested
commutator can generate.  The building block is

    kappa(a) = max_{t >= 0} t^(a - t),

whose maximiser tau solves ``a/tau - 1 - ln(tau) = 0`` and whose companion
``omega(a) = a / tau(a)`` solves ``omega + ln(omega) = 1 + ln(a)``, that is
``omega e^omega = e a``: omega(a) = W(e a), the principal branch of the
Lambert W function (Corless, Gonnet, Hare, Jeffrey & Knuth, Adv. Comput.
Math. 5, 329 (1996)), which grows like ``ln a``.  Two bound families are used:

- density class:  |c_j| <= 2 (6 lam)^(2j-1) kappa_{2j + 1/lam - 1} / (2j)!
- word class:     |c_n| <= (12 lam)^n  kappa_{n + ell/(2 lam) - 1} / n!

where lam is the blockade range and ell the observable's length.  Because the
certified-universal orders of a chain of L sites cancel exactly against the
size-free series, summing the bound over the *uncertified* tail (past
`series.certified_order`) yields a certified envelope on the finite-size
error; the envelope shrinks with L at a logarithmic rate governed by the
omega products.

Everything is evaluated in natural-log space (the bounds overflow any linear
float representation by order j ~ 50) with factorials via lgamma, over whole
index ranges at once: W is solved for an array of arguments with every
element residual-checked, and a tail is summed in chunks by a running
log-sum-exp (``np.logaddexp.accumulate``) until its geometric closure is
negligible.

A tail term and its ratio majorant depend on t only through powers of t,
and on L not at all (L sets where the tail starts), so the t-free part of
each tail order is solved once per process and tabled in ``_TABLES``, keyed
by ``(lambda_b, ell, observable_class)`` (``ell`` is 1 for the density,
which does not read it).  A table holds two float64 columns, 16 bytes per
order, in pieces of consecutive orders: the log omega product to 2j and
omega_(2j+1) omega_(2j+2) for the nearest-neighbour density, the log
coefficient bound and the tau of the ratio majorant for the kappa forms.  An
envelope call reads the orders it sums from the table and solves only the
pieces it reads that no earlier call solved, and for the omega product,
a running sum, every piece before them too.  The tables live as long as the
process.  Every solve is elementwise and the omega product one sequential
sum, so a tabled value never depends on when its table grew.

All functions are pure in what they return: equal arguments give equal bits,
whatever was tabled before.  They are thread-safe: one lock serialises the
growth of the tables, and a grown table is installed by one store of a tuple
of complete pieces, none of which is written again.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .series import certified_order

__all__ = [
    "KappaValue",
    "kappa",
    "log_kappa",
    "omega",
    "coefficient_bound",
    "error_envelope",
    "log_error_envelope",
    "convergence_ratio",
    "EnvelopeOverflowError",
    "EnvelopeDepthError",
    "RESIDUAL_TOL",
    "TAIL_RELATIVE_CUTOFF",
    "TAIL_TERM_CAP",
]

RESIDUAL_TOL = 1e-13
TAIL_RELATIVE_CUTOFF = 1e-18
TAIL_TERM_CAP = 10**6

_OVERFLOW_LOG = math.log(1e306)
_HALLEY_STEPS = 2  # from the seed below, converged to rounding for a in (1e-300, 1e300)
_CHUNK_FIRST = 256  # tail chunks double from here up to the cap, which bounds
_CHUNK_CAP = 2048  # memory and keeps the arrays of a chunk in cache; tail tables
# grow in pieces of _CHUNK_CAP orders for the same reason
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


@dataclass(frozen=True)
class KappaValue:
    """Solved maximisation data for one argument a > 0."""

    a: float
    tau: float
    omega: float
    log_kappa: float


def _solve(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tau, omega and log_kappa at every element of an array of a > 0.

    omega = W(e a) comes from Halley steps on f(w) = w - 1 + ln(w / a), which
    is w + ln w - 1 - ln a written so that small a keeps its digits, seeded
    by Winitzki's approximation of W.  The step count is fixed, so each
    element's value does not depend on the array around it.  Both defining
    residuals are checked on every element.
    """
    a = np.asarray(a, dtype=float)
    w = np.log1p(math.e * a)
    w -= w * np.log1p(w) / (2.0 + w)
    for _ in range(_HALLEY_STEPS):
        f = w - 1.0 + np.log(w / a)
        w1 = w + 1.0
        w -= w * f * w1 / (w1 * w1 + 0.5 * f)
    w[a == 1.0] = 1.0
    tau = a / w
    log_tau = np.log(tau)
    res_tau = np.abs(a / tau - 1.0 - log_tau)
    res_om = np.abs(w + np.log(w) - 1.0 - np.log(a))
    ok = (res_tau <= RESIDUAL_TOL) & (res_om <= 10 * RESIDUAL_TOL)  # False at NaN
    if not ok.all():
        i = np.flatnonzero(~ok)[0]
        raise ArithmeticError(
            f"kappa residuals too large at a={a.flat[i]}: "
            f"{res_tau.flat[i]:.2e}, {res_om.flat[i]:.2e}"
        )
    return tau, w, (a - tau) * log_tau


def _check_range(lambda_b: int) -> None:
    if lambda_b < 1:
        raise ValueError(f"blockade range must be at least 1, not {lambda_b}")


def kappa(a: float) -> KappaValue:
    """Maximum of t^(a-t) over t >= 0, returned in log form with tau and omega.

    Raises for a <= 0.  Both defining residuals are verified to RESIDUAL_TOL
    before returning, so a successful call is itself a certificate.
    """
    if a <= 0:
        raise ValueError(f"kappa needs a > 0, got {a}")
    tau, om, lk = (float(v[0]) for v in _solve([a]))
    return KappaValue(a=float(a), tau=tau, omega=om, log_kappa=lk)


def log_kappa(a: float) -> float:
    return kappa(a).log_kappa


def omega(k: int) -> float:
    """omega_k for integer k >= 1."""
    if k < 1:
        raise ValueError("omega is tabulated for integer k >= 1")
    return float(_solve([k])[1][0])


def _log_omega_product(n: int) -> float:
    """ln(omega_1 * ... * omega_n)."""
    return float(np.log(_solve(np.arange(1, n + 1))[1]).sum())


def _lgamma(z: np.ndarray) -> np.ndarray:
    """ln Gamma(z) elementwise for z > 0: Stirling's series from z = 16, whose
    first omitted term is below 2e-18 there, and `math.lgamma` below 16."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z < 16.0
    out[small] = [math.lgamma(v) for v in z[small]]
    big = z[~small]
    r2 = 1.0 / (big * big)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * r2 + c
    out[~small] = (big - 0.5) * np.log(big) - big + 0.5 * math.log(2.0 * math.pi) + series / big
    return out


# ---------------------------------------------------------------------------
# coefficient bounds
# ---------------------------------------------------------------------------


def _log_bounds(j: np.ndarray, lambda_b: int, ell: int, observable_class: str) -> np.ndarray:
    """`coefficient_bound` at every order of an increasing array j."""
    if j[0] < 1:
        raise ValueError("coefficient bounds start at order 1")
    if observable_class == "density":
        arg = 2 * j + 1.0 / lambda_b - 1.0
        log_power = math.log(2.0) + (2 * j - 1) * math.log(6.0 * lambda_b)
        return log_power + _solve(arg)[2] - _lgamma(2 * j + 1)
    if observable_class == "word":
        arg = j + ell / (2.0 * lambda_b) - 1.0
        if arg[0] <= 0:
            raise ValueError(f"kappa argument {arg[0]} not positive at order {j[0]}")
        return j * math.log(12.0 * lambda_b) + _solve(arg)[2] - _lgamma(j + 1)
    raise ValueError(f"unknown observable class {observable_class!r}")


def coefficient_bound(
    j: int,
    lambda_b: int = 1,
    ell: int = 1,
    observable_class: str = "density",
) -> float:
    """Natural log of the class bound on the j-th coefficient.

    ``observable_class="density"`` bounds the coefficient of t^(2j) in the
    density series; ``"word"`` bounds the coefficient of t^j of a word of
    length ``ell``.  Only j >= 1 is meaningful (the order-0 word coefficient
    is an expectation value, not a commutator count).
    """
    _check_range(lambda_b)
    return float(_log_bounds(np.array([j]), lambda_b, ell, observable_class)[0])


# ---------------------------------------------------------------------------
# tail tables
# ---------------------------------------------------------------------------

_TABLES: dict = {}  # (lambda_b, ell, observable_class) -> (piece size, pieces)
_GROWING = threading.Lock()


def _majorant_argument(j: np.ndarray, lambda_b: int, ell: int, observable_class: str):
    """The a of tau(a) in the kappa forms' term-ratio majorant at orders j.

    Density: kappa_{a+2}/kappa_a <= tau(a+2)^2 <= tau(2j+2)^2.  Word:
    kappa_{n+s}/kappa_{n+s-1} <= tau(n+s) <= tau(n+c), s = ell/(2 lam), with
    integer c >= s.  Either majorant is then monotone decreasing (tau(a)/a =
    1/omega(a) decreases).
    """
    if observable_class == "density":
        return 2.0 * j + 2
    return j + float(max(1, math.ceil(ell / (2.0 * lambda_b))))


def _table_columns(key: tuple, j: np.ndarray, log_product: float):
    """The two t-free columns of table ``key`` at consecutive orders j;
    ``log_product`` is ln(omega_1 ... omega_(2 j[0] - 2))."""
    lambda_b, ell, observable_class = key
    if observable_class == "density" and lambda_b == 1:
        om = _solve(np.arange(2 * j[0] - 1, 2 * j[-1] + 3))[1]  # omega_{2j0-1..2jn+2}
        prefix = np.cumsum(np.concatenate(([log_product], np.log(om[:-2]))))
        return prefix[2::2], om[2::2] * om[3::2]
    return (
        _log_bounds(j, lambda_b, ell, observable_class),
        _solve(_majorant_argument(j, *key))[0],
    )


def _grow(key: tuple, first: int, last: int) -> tuple:
    """Table ``key`` with pieces ``first``..``last`` solved, installed in
    _TABLES.

    A table is its piece size and a tuple of pieces, piece i a 2 x size
    array of the two columns at orders i size + 1 .. (i + 1) size, or None
    while no call has read it.  The kappa forms are elementwise, so only the
    pieces asked for are solved; the omega product is a running sum, so the
    nearest-neighbour density solves every piece from the first.  Growth
    installs a new tuple; no piece is copied or written again.
    """
    with _GROWING:
        size, pieces = _TABLES.get(key, (_CHUNK_CAP, ()))
        grown = list(pieces) + [None] * (last + 1 - len(pieces))
        running = key[0] == 1 and key[2] == "density"
        for i in range(0 if running else first, last + 1):
            if grown[i] is None:
                j = np.arange(i * size + 1, (i + 1) * size + 1)
                log_product = grown[i - 1][0, -1] if running and i else 0.0
                grown[i] = np.array(_table_columns(key, j, log_product))
        table = _TABLES[key] = size, tuple(grown)
        return table


def _tail_rows(key: tuple, lo: int, hi: int) -> np.ndarray:
    """Both columns of table ``key`` at orders lo..hi-1 (lo >= 1), as rows."""
    size, pieces = _TABLES.get(key, (_CHUNK_CAP, ()))
    first, last = (lo - 1) // size, (hi - 2) // size
    if len(pieces) <= last or any(p is None for p in pieces[first : last + 1]):
        size, pieces = _grow(key, first, last)
    rows = pieces[first] if first == last else np.concatenate(pieces[first : last + 1], axis=1)
    offset = lo - 1 - first * size
    return rows[:, offset : offset + hi - lo]


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


class EnvelopeOverflowError(ValueError):
    """The certified bound exceeds the linear float range (use the log form)."""


class EnvelopeDepthError(ValueError):
    """Tail truncation could not be certified within the configured depth."""


def _certified_tail_log(chunk, ratio, start: int, max_terms: int, t: float) -> float:
    """Log of a certified upper bound on sum_{i >= start} exp(log_term(i)).

    ``chunk(lo, hi)`` gives the log terms and the ratio majorants at indices
    lo..hi-1 as arrays; it is called on consecutive ranges from ``start``,
    which double in length up to a cap.  The majorant at i must dominate
    every term ratio term_{i+1}/term_i from index i onwards (monotone
    decreasing); ``ratio`` evaluates it alone at an index array.  Terms are
    summed until the geometric closure term_i * rho/(1-rho) drops below the
    relative cutoff; the closure is then *added*, so truncation can only
    loosen the bound, never undercut it.

    A closure needs rho < 1, and the majorant only decreases, so if it is
    still >= 1 at the last index the sum cannot be certified and is refused
    before any term is summed.
    """
    last = start + max_terms - 1
    if max_terms < 1 or min(ratio(np.array([start, last]))) >= 1.0:
        raise EnvelopeDepthError(
            f"envelope tail not certified within {max_terms} terms at t={t}"
        )
    log_cut = math.log(TAIL_RELATIVE_CUTOFF)
    partial = -math.inf  # log of the sum of the terms before lo
    lo, size = start, _CHUNK_FIRST
    while lo <= last:
        hi = min(lo + size, last + 1)
        x, rho = chunk(lo, hi)
        sums = np.logaddexp.accumulate(np.concatenate(([partial], x)))[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_rem = x + np.log(rho) - np.log1p(-rho)
        closed = np.flatnonzero((rho < 1.0) & (log_rem <= sums + log_cut))
        if closed.size:
            i = closed[0]
            return float(np.logaddexp(sums[i], log_rem[i]))
        partial = sums[-1]
        lo, size = hi, min(2 * size, _CHUNK_CAP)
    raise EnvelopeDepthError(
        f"envelope tail not certified within {max_terms} terms at t={t}"
    )


def log_error_envelope(
    L: int,
    lambda_b: int = 1,
    ell: int = 1,
    t: float = 1.0,
    observable_class: str = "density",
    max_terms: int = TAIL_TERM_CAP,
) -> float:
    """Natural log of the certified finite-size error envelope at time t.

    The envelope sums the class bound over every order *not* certified
    universal on a chain of L >= 1 sites: the tail starts one order after
    `series.certified_order`, at j0 = L for the nearest-neighbour density;
    a word must fit on the chain, 1 <= ell <= L.  The nearest-neighbour
    density envelope uses the sharper omega-product form, which also obeys
    the clean consecutive-size ratio bound 36 t^2 / (omega_{2L-1} omega_{2L}).
    The t-free part of each summed order comes from the tail tables.

    Returns -inf at t = 0.  This is a one-sided certificate: it bounds the
    true deviation from above, usually by a wide margin.
    """
    _check_range(lambda_b)
    if L < 1:
        raise ValueError(f"an envelope needs at least one site, not L={L}")
    if observable_class == "word" and not 1 <= ell <= L:
        raise ValueError(f"a word needs 1 <= ell <= L, not ell={ell} on L={L} sites")
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    if t == 0.0:
        return float("-inf")
    abst = abs(t)
    start = certified_order(L, lambda_b, ell, observable_class) + 1
    key = (lambda_b, ell if observable_class == "word" else 1, observable_class)
    if observable_class == "density" and lambda_b == 1:
        # omega-product form; the term ratio is exactly 36 t^2 / (w w'),
        # decreasing because omega increases.
        log23 = math.log(2.0 / 3.0)
        log6t = math.log(6.0 * abst)
        t2 = 36.0 * t * t

        def chunk_nn(lo, hi):
            log_product, om2 = _tail_rows(key, lo, hi)
            return log23 + 2 * np.arange(lo, hi) * log6t - log_product, t2 / om2

        def ratio_nn(j):
            om = _solve(2 * j[:, None] + np.array([1, 2]))[1]
            return t2 / (om[:, 0] * om[:, 1])

        return _certified_tail_log(chunk_nn, ratio_nn, start, max_terms, t)

    if observable_class == "density":
        # kappa form for longer blockade ranges: 2 b_j t^(2j)
        log_t_power = 2.0 * math.log(abst)

        def majorant(j, tau):
            return (6.0 * lambda_b * abst * tau) ** 2 / ((2 * j + 1) * (2 * j + 2))

    else:  # word
        log_t_power = math.log(abst)

        def majorant(n, tau):
            return 12.0 * lambda_b * abst * tau / (n + 1)

    log2 = math.log(2.0)

    def chunk(lo, hi):
        log_bound, tau = _tail_rows(key, lo, hi)
        j = np.arange(lo, hi)
        return log2 + log_bound + j * log_t_power, majorant(j, tau)

    def ratio(j):
        return majorant(j, _solve(_majorant_argument(j, *key))[0])

    return _certified_tail_log(chunk, ratio, start, max_terms, t)


def error_envelope(
    L: int,
    lambda_b: int = 1,
    ell: int = 1,
    t: float = 1.0,
    observable_class: str = "density",
    max_terms: int = TAIL_TERM_CAP,
) -> float:
    """Linear-scale certified envelope; see `log_error_envelope`.

    Raises `EnvelopeOverflowError` when the (finite, convergent) bound exceeds
    the float range; the log form stays available in that regime.
    """
    log_e = log_error_envelope(L, lambda_b, ell, t, observable_class, max_terms)
    if log_e == float("-inf"):
        return 0.0
    if log_e > _OVERFLOW_LOG:
        raise EnvelopeOverflowError(
            f"bound exceeds overflow guard at t={t} (log value {log_e:.3g}); "
            "use log_error_envelope"
        )
    return math.exp(log_e)


def convergence_ratio(L: int, lambda_b: int = 1, ell: int = 1, t: float = 1.0) -> float:
    """Asymptotic bound on the envelope ratio between chains of L + 2*lambda_b
    and L sites: 12 lambda_b |t| / ln(L / (2 lambda_b)).

    Decreasing in L, which is the logarithmic-convergence statement in
    quantitative form.  Needs L - ell + 2*lambda_b > 0 and L > 2*lambda_b.
    """
    _check_range(lambda_b)
    if L - ell + 2 * lambda_b <= 0:
        raise ValueError("chain too short for the requested observable length")
    if L <= 2 * lambda_b:
        raise ValueError("ratio bound needs L > 2*lambda_b")
    return 12.0 * lambda_b * abs(t) / math.log(L / (2.0 * lambda_b))
