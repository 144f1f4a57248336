"""Rigorous coefficient bounds and certified error envelopes.

The Taylor coefficients produced elsewhere in this package admit explicit
a-priori bounds obtained by over-counting the operator words a nested
commutator can generate.  The building block is

    kappa(a) = max_{t >= 0} t^(a - t),

whose maximiser tau solves ``a/tau - 1 - ln(tau) = 0`` and whose companion
``omega(a) = a / tau(a)`` solves ``omega + ln(omega) = 1 + ln(a)`` and grows
like ``ln a``.  Two bound families are used:

- density class:  |c_j| <= 2 (6 lam)^(2j-1) kappa_{2j + 1/lam - 1} / (2j)!
- word class:     |c_n| <= (12 lam)^n  kappa_{n + ell/(2 lam) - 1} / n!

where lam is the blockade range and ell the observable's length.  Because the
certified-universal orders of a chain of L sites cancel exactly against the
size-free series, summing the bound over the *uncertified* tail yields a
certified envelope on the finite-size error; the envelope shrinks with L at a
logarithmic rate governed by the omega products.

Everything is evaluated in natural-log space (the bounds overflow any linear
float representation by order j ~ 50) with factorials via lgamma.  All
functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


@dataclass(frozen=True)
class KappaValue:
    """Solved maximisation data for one argument a > 0."""

    a: float
    tau: float
    omega: float
    log_kappa: float


def _solve_tau_uncached(a: float) -> float:
    """Unique root of g(t) = a/t - 1 - ln t, Newton with bisection fallback.

    g is strictly decreasing on (0, inf) and changes sign between min(1, a)
    and max(1, a), so the bracket never fails.
    """
    if a == 1.0:
        return 1.0
    lo, hi = min(1.0, a), max(1.0, a)
    t = 0.5 * (lo + hi)
    for _ in range(200):
        g = a / t - 1.0 - math.log(t)
        if abs(g) < RESIDUAL_TOL:
            return t
        dg = -a / (t * t) - 1.0 / t
        step = t - g / dg
        if not (lo < step < hi):
            # keep the bracket: g > 0 means the root lies above t
            if g > 0.0:
                lo = t
            else:
                hi = t
            step = 0.5 * (lo + hi)
        else:
            if g > 0.0:
                lo = t
            else:
                hi = t
        t = step
    raise ArithmeticError(f"tau solve did not converge for a={a}")


_solve_tau = lru_cache(maxsize=1 << 20)(_solve_tau_uncached)


def kappa(a: float) -> KappaValue:
    """Maximum of t^(a-t) over t >= 0, returned in log form with tau and omega.

    Raises for a <= 0.  Both defining residuals are verified to RESIDUAL_TOL
    before returning, so a successful call is itself a certificate.
    """
    if a <= 0:
        raise ValueError(f"kappa needs a > 0, got {a}")
    tau = _solve_tau(float(a))
    om = a / tau
    res_tau = abs(a / tau - 1.0 - math.log(tau))
    res_om = abs(om + math.log(om) - 1.0 - math.log(a))
    if res_tau > RESIDUAL_TOL or res_om > 10 * RESIDUAL_TOL:
        raise ArithmeticError(
            f"kappa residuals too large at a={a}: {res_tau:.2e}, {res_om:.2e}"
        )
    return KappaValue(a=float(a), tau=tau, omega=om, log_kappa=(a - tau) * math.log(tau))


def log_kappa(a: float) -> float:
    return kappa(a).log_kappa


# omega at integer arguments appears in long products; cache values and the
# prefix sums of their logs.
_OMEGA: list[float] = [float("nan")]  # 1-based
_LOG_OMEGA_PREFIX: list[float] = [0.0]


def omega(k: int) -> float:
    """omega_k for integer k >= 1 (cached)."""
    if k < 1:
        raise ValueError("omega is tabulated for integer k >= 1")
    while len(_OMEGA) <= k:
        i = len(_OMEGA)
        _OMEGA.append(kappa(float(i)).omega)
        _LOG_OMEGA_PREFIX.append(_LOG_OMEGA_PREFIX[-1] + math.log(_OMEGA[-1]))
    return _OMEGA[k]


def _log_omega_product(n: int) -> float:
    """ln(omega_1 * ... * omega_n)."""
    omega(max(n, 1))
    return _LOG_OMEGA_PREFIX[n]


# ---------------------------------------------------------------------------
# coefficient bounds
# ---------------------------------------------------------------------------


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
    if j < 1:
        raise ValueError("coefficient bounds start at order 1")
    if observable_class == "density":
        arg = 2 * j + 1.0 / lambda_b - 1.0
        return (
            math.log(2.0)
            + (2 * j - 1) * math.log(6.0 * lambda_b)
            + log_kappa(arg)
            - math.lgamma(2 * j + 1)
        )
    if observable_class == "word":
        arg = j + ell / (2.0 * lambda_b) - 1.0
        if arg <= 0:
            raise ValueError(f"kappa argument {arg} not positive at order {j}")
        return (
            j * math.log(12.0 * lambda_b)
            + log_kappa(arg)
            - math.lgamma(j + 1)
        )
    raise ValueError(f"unknown observable class {observable_class!r}")


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


class EnvelopeOverflowError(ValueError):
    """The certified bound exceeds the linear float range (use the log form)."""


class EnvelopeDepthError(ValueError):
    """Tail truncation could not be certified within the configured depth."""


def _certified_tail_log(
    log_term, ratio_majorant, start: int, max_terms: int, t: float, far_ratio=None
) -> float:
    """Log of a certified upper bound on sum_{i >= start} exp(log_term(i)).

    ``ratio_majorant(i)`` must dominate every term ratio from index i onwards
    (a monotone-decreasing majorant of term_{i+1}/term_i).  Terms are summed
    until the geometric closure term_i * rho/(1-rho) drops below the relative
    cutoff; the closure is then *added*, so truncation can only loosen the
    bound, never undercut it.

    A closure needs rho < 1, and the majorant only decreases, so if it is
    still >= 1 at the last index the sum cannot be certified and is refused
    before any term is summed.  ``far_ratio`` evaluates that one majorant
    (default ``ratio_majorant``) without tabulating everything below it; it
    is consulted only when the majorant at ``start`` is >= 1 too.
    """
    last = start + max_terms - 1
    if max_terms < 1 or (
        ratio_majorant(start) >= 1.0 and (far_ratio or ratio_majorant)(last) >= 1.0
    ):
        raise EnvelopeDepthError(
            f"envelope tail not certified within {max_terms} terms at t={t}"
        )
    log_cut = math.log(TAIL_RELATIVE_CUTOFF)
    m = float("-inf")  # running max of the log terms
    acc = 0.0          # sum(exp(x - m)) over terms seen so far
    for count in range(max_terms):
        i = start + count
        x = log_term(i)
        if x <= m:
            acc += math.exp(x - m)
        else:
            acc = acc * math.exp(m - x) + 1.0 if m != float("-inf") else 1.0
            m = x
        rho = ratio_majorant(i)
        if rho < 1.0:
            log_rem = x + math.log(rho) - math.log1p(-rho) if rho > 0.0 else float("-inf")
            partial = m + math.log(acc)
            if log_rem <= partial + log_cut:
                if log_rem > float("-inf"):
                    acc += math.exp(log_rem - m)
                return m + math.log(acc)
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
    universal on a chain of L sites: density tails start at
    j0 = (L-1)//lambda_b + 1 (so j0 = L for nearest-neighbour blockade), word
    tails at n0 = (L-ell)//(2 lambda_b) + 1.  The nearest-neighbour density
    envelope uses the sharper omega-product form, which also obeys the clean
    consecutive-size ratio bound 36 t^2 / (omega_{2L-1} omega_{2L}).

    Returns -inf at t = 0.  This is a one-sided certificate: it bounds the
    true deviation from above, usually by a wide margin.
    """
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    if t == 0.0:
        return float("-inf")
    abst = abs(t)
    if observable_class == "density":
        j0 = (L - 1) // lambda_b + 1
        if lambda_b == 1:
            # omega-product form; the term ratio is exactly 36 t^2 / (w w'),
            # decreasing because omega increases.
            log23 = math.log(2.0 / 3.0)
            log6t = math.log(6.0 * abst)

            def log_term(j):
                return log23 + 2 * j * log6t - _log_omega_product(2 * j)

            def ratio(j):
                return 36.0 * t * t / (omega(2 * j + 1) * omega(2 * j + 2))

            def far_ratio(j):
                # the same value, solved directly: omega(k) tabulates all k' < k
                w = kappa(float(2 * j + 1)).omega * kappa(float(2 * j + 2)).omega
                return 36.0 * t * t / w

            return _certified_tail_log(log_term, ratio, j0, max_terms, t, far_ratio)

        # kappa form for longer blockade ranges: 2 b_j t^(2j).  The ratio
        # majorant uses kappa_{a+2}/kappa_a <= tau(a+2)^2 <= tau(2j+2)^2 and
        # is monotone decreasing (tau(a)/a = 1/omega(a) decreases).
        log2 = math.log(2.0)
        logt2 = 2.0 * math.log(abst)

        def log_term_d(j):
            return log2 + coefficient_bound(j, lambda_b, 1, "density") + j * logt2

        def ratio_d(j):
            tau = kappa(float(2 * j + 2)).tau
            return (6.0 * lambda_b * abst * tau) ** 2 / ((2 * j + 1) * (2 * j + 2))

        return _certified_tail_log(log_term_d, ratio_d, j0, max_terms, t)

    if observable_class == "word":
        n0 = (L - ell) // (2 * lambda_b) + 1
        s = ell / (2.0 * lambda_b)
        c = max(1, math.ceil(s))
        log2 = math.log(2.0)
        logt = math.log(abst)

        def log_term_w(n):
            return log2 + coefficient_bound(n, lambda_b, ell, "word") + n * logt

        def ratio_w(n):
            # kappa_{n+s}/kappa_{n+s-1} <= tau(n+s) <= tau(n+c); with integer
            # c >= s the majorant tau(n+c)/(n+1) is monotone decreasing.
            tau = kappa(float(n + c)).tau
            return 12.0 * lambda_b * abst * tau / (n + 1)

        return _certified_tail_log(log_term_w, ratio_w, n0, max_terms, t)
    raise ValueError(f"unknown observable class {observable_class!r}")


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
    if L - ell + 2 * lambda_b <= 0:
        raise ValueError("chain too short for the requested observable length")
    if L <= 2 * lambda_b:
        raise ValueError("ratio bound needs L > 2*lambda_b")
    return 12.0 * lambda_b * abs(t) / math.log(L / (2.0 * lambda_b))
