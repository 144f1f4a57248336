"""Exact Taylor coefficients of observable expectation values.

Starting from the fully polarised (all-ground) state, the expectation value of
any observable built from operator words is an entire function of time whose
Taylor coefficients are exact rationals: the n-th coefficient is
``i^n <ad^n(A)> / n!`` with ``ad`` the nested commutator against the drive
Hamiltonian.  This module computes those coefficients on rings, open chains
and the infinite chain, together with two pieces of metadata:

- the largest order certified *universal* (independent of the lattice size)
  on a ring, and
- the per-order boundary deficits of an open chain, where the j-th density
  coefficient takes the form ``c_j * (1 - deficit_j / L)``.

Parity pins half the series to zero: a word with an even number of single
letters has an even expectation in t, so odd orders vanish identically.  Zero
orders are stored explicitly, which keeps those parity statements directly
assertable.

The stored coefficient at order n is the real rational obtained by folding the
``i^n`` phase into a sign, ``(-1)^(n//2)``.  For self-adjoint observables the
odd orders vanish and the stored values are literally the Taylor coefficients
of the (real) expectation value; for words with an odd number of single
letters the odd-order contributions carry one leftover factor of i, recorded
by the ``odd_orders_imaginary`` flag.

The per-site density is one series on every lattice: on a finite lattice
that of the total counter ``sum_k n_k`` scaled by `observable_scale` (1/L),
the one home of that rule for every route, and on the infinite chain that
of n_0.  `certified_order` is the one home of the last certified order, read
by the ``universal`` column and by the envelope tails of `blockade.bounds`.

Everything here is stateless and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .words import (
    NUM,
    DEFAULT_ORDER_BUDGET,
    AdOrderBudgetError,
    ModelSpec,
    OperatorSum,
    Word,
    canonicalize,
    class_commutator_expectation,
    commutator_classes,
    infinite_chain,
    line,
    make_word,
    single_count,
    translation_classes,
    vacuum_expectation,
    word_length,
)

__all__ = [
    "ObservableSpec",
    "density",
    "local_number",
    "correlation",
    "general_word",
    "SeriesCoefficients",
    "density_coefficients",
    "correlation_coefficients",
    "word_coefficients",
    "certified_order",
    "universality_threshold",
    "observable_scale",
    "boundary_deficits",
    "eval_series",
    "eval_even_series",
    "coefficient_records",
    "records_to_csv",
]


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObservableSpec:
    """What to measure: the per-site excitation density, a single local
    counter n_k, a pair counter n_k n_{k+d}, or an arbitrary word."""

    kind: str  # "density" | "local_number" | "correlation" | "word"
    site: int | None = None
    distance: int | None = None
    word: Word | None = None

    def __str__(self) -> str:
        if self.kind == "density":
            return "density"
        if self.kind == "local_number":
            return f"number[{self.site}]"
        if self.kind == "correlation":
            return f"correlation[d={self.distance}]"
        from .words import _SYMBOL  # avoid a public re-export just for printing

        body = " ".join(f"{s}:{_SYMBOL[a]}" for s, a in self.word)
        return f"word[{body or '1'}]"


def density() -> ObservableSpec:
    """Mean number of excitations per site."""
    return ObservableSpec("density")


def local_number(site: int) -> ObservableSpec:
    """The excitation counter of one site."""
    return ObservableSpec("local_number", site=site)


def correlation(distance: int, site: int | None = None) -> ObservableSpec:
    """The pair counter n_k n_{k+d}; the base site defaults per topology."""
    return ObservableSpec("correlation", site=site, distance=distance)


def general_word(word: Word) -> ObservableSpec:
    return ObservableSpec("word", word=word)


def correlation_base_site(obs: ObservableSpec, model: ModelSpec) -> int:
    """Base site of a pair counter.  Translation invariance makes the choice
    irrelevant on rings and the infinite chain; on an open chain the pair is
    centred unless a site was given explicitly."""
    if obs.site is not None:
        return obs.site
    if model.topology == "line":
        return max(1, (model.size - obs.distance) // 2 + 1)
    return 1


def pair_blockaded(model: ModelSpec, d: int) -> bool:
    """Whether two sites ``d`` apart lie within the blockade range (counted
    cyclically on a ring), so that their pair counter is identically zero."""
    if model.topology == "ring":
        d = min(d % model.size, model.size - d % model.size)
    return d <= model.blockade_range


def _observable_word(obs: ObservableSpec, model: ModelSpec) -> Word:
    """The unfolded word measured by ``obs``: n at one representative site
    for the per-site density, n_k for a local counter, n_k n_{k+d} for a pair
    counter (refused for a distance below 1, on an open chain it does not
    fit, or on a ring where its two sites coincide, d a multiple of L), or
    the word itself.  The series and the basis both place observables
    through this helper, so every route refuses a pair with one message."""
    if obs.kind == "density":
        return ((0 if model.topology == "infinite" else 1, NUM),)
    if obs.kind == "local_number":
        return ((obs.site, NUM),)
    if obs.kind == "correlation":
        d = obs.distance
        if d is None or d < 1:
            raise ValueError("correlation distance must be a positive integer")
        k = correlation_base_site(obs, model)
        if model.topology == "line" and (k < 1 or k + d > model.size):
            raise ValueError(f"pair ({k}, {k + d}) does not fit on {model.size} sites")
        if model.topology == "ring" and d % model.size == 0:
            raise ValueError(
                f"pair ({k}, {k + d}) names one site twice on a ring of {model.size} sites"
            )
        return make_word({k: NUM, k + d: NUM})
    if obs.kind == "word":
        return obs.word
    raise ValueError(f"unknown observable kind {obs.kind!r}")


def observable_operator(obs: ObservableSpec, model: ModelSpec) -> OperatorSum:
    """The word operator that seeds the series of ``obs``.  The per-site
    density is seeded on a finite lattice with the total counter
    ``sum_k n_k`` (L one-letter words, integer coefficients), and on the
    infinite chain with n_0."""
    if obs.kind == "density" and model.size is not None:
        terms = {((k, NUM),): 1 for k in range(1, model.size + 1)}
    else:
        terms = {_observable_word(obs, model): 1}
        if obs.kind == "correlation" and pair_blockaded(model, obs.distance):
            where = f" on a ring of {model.size} sites" if model.topology == "ring" else ""
            raise ValueError(
                f"pair distance {obs.distance} lies within the blockade range "
                f"{model.blockade_range}{where}; the pair counter is identically zero"
            )
    return canonicalize(OperatorSum(terms), model)


def observable_scale(obs: ObservableSpec, model: ModelSpec) -> Fraction:
    """1/L for the per-site density on a finite lattice, whose operator is
    the total counter ``sum_k n_k``, and 1 for any other observable."""
    return Fraction(1, model.size if obs.kind == "density" and model.size is not None else 1)


# ---------------------------------------------------------------------------
# coefficient containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesCoefficients:
    """Exact Taylor data of one observable on one lattice.

    ``values[n]`` is the stored rational for order n = 0..max_order (the i^n
    phase folded in as described in the module docstring), zeros included.
    ``universal_up_to`` is the largest order certified independent of the
    lattice size; ``None`` means every computed order (infinite chain).
    """

    observable: ObservableSpec
    model: ModelSpec
    values: tuple
    universal_up_to: int | None = None
    odd_orders_imaginary: bool = False

    @property
    def max_order(self) -> int:
        return len(self.values) - 1

    def coefficient(self, order: int):
        return self.values[order]

    def even_values(self) -> list:
        """Coefficients of t^2, t^4, ... — the natural layout for even series
        such as the density and pair counters."""
        return [self.values[n] for n in range(2, self.max_order + 1, 2)]

    def is_universal(self, order: int) -> bool:
        if self.universal_up_to is None:
            return True
        return order <= self.universal_up_to


def _phase_sign(order: int) -> int:
    return -1 if (order // 2) % 2 else 1


def _expectation_series(A: OperatorSum, model: ModelSpec, max_order: int) -> list[Fraction]:
    """Stored coefficients of <A(t)> through t^max_order for one seed operator.

    Each order's vacuum expectation is read from the previous operator by the
    single-letter contraction, so ad^max_order(A) is never built.  Rings and
    the infinite chain keep the operator by translation class
    (`commutator_classes`): the vacuum and the drive are translation invariant.

    Only words that can still reach the vacuum are built.  The weight
    ``|O| + |I|`` of a packed word counts 1 for r and rd, 2 for n, 0 for m.
    Each product `_commute` keeps sets or clears one bit of O or I, so one
    commutator moves the weight by exactly one; m letters, ring folding and
    class merging leave it unchanged; `class_commutator_expectation` reads
    only weight 1.  So a word of ad^k(A) heavier than ``max_order - k`` can
    reach no returned coefficient, and order k is built with that reach.  The
    pruning is exact: the commutator is linear, the sums exact integers.
    """
    vals = [Fraction(vacuum_expectation(A))]
    cur = translation_classes(A, model)
    for order in range(1, max_order + 1):
        exp = class_commutator_expectation(cur)
        vals.append(Fraction(_phase_sign(order) * exp, factorial(order)))
        if order < max_order:
            cur = commutator_classes(cur, model, max_order - order)
    return vals


# ---------------------------------------------------------------------------
# coefficient computations
# ---------------------------------------------------------------------------


def _coefficients(model: ModelSpec, obs: ObservableSpec, max_order: int) -> SeriesCoefficients:
    """The steps every coefficient entry point shares: refuse an order below
    1 or past the symbolic budget before any operator is built (the top
    order needs only ``max_order - 1`` commutators, see
    `_expectation_series`), expand the observable's seed operator order by
    order, scale the values by `observable_scale` and attach the
    universality metadata."""
    if max_order < 1:
        raise ValueError(f"the series needs at least order 1, not {max_order}")
    if max_order - 1 > DEFAULT_ORDER_BUDGET:
        raise AdOrderBudgetError(max_order - 1, DEFAULT_ORDER_BUDGET)
    vals = _expectation_series(observable_operator(obs, model), model, max_order)
    scale = observable_scale(obs, model)
    return SeriesCoefficients(
        observable=obs,
        model=model,
        values=tuple(v * scale for v in vals),
        universal_up_to=_universal_order_limit(model, obs),
        odd_orders_imaginary=obs.kind == "word" and bool(single_count(obs.word) % 2),
    )


def density_coefficients(model: ModelSpec, jmax: int) -> SeriesCoefficients:
    """Exact density coefficients through t^(2*jmax): those of the total
    counter scaled by `observable_scale` on a finite lattice, of n_0 on the
    infinite chain.  A ring folds the L counters into one translation class;
    an open chain expands them as one operator, in which words shared by
    neighbouring sites are one term, so its cost grows linearly with L."""
    return _coefficients(model, density(), 2 * jmax)


def correlation_coefficients(model: ModelSpec, distance: int, jmax: int) -> SeriesCoefficients:
    """Exact pair-counter coefficients <n_k(t) n_{k+d}(t)> through t^(2*jmax).

    Distances inside the blockade range are rejected: the pair counter is
    identically zero there."""
    return _coefficients(model, correlation(distance), 2 * jmax)


def word_coefficients(model: ModelSpec, A: Word, jmax: int) -> SeriesCoefficients:
    """Exact coefficients of <A(t)> through t^jmax for an arbitrary word.

    Only orders with the parity of the word's single-letter count survive;
    the rest are exact zeros.  When that count is odd the odd orders carry a
    leftover factor of i on top of the stored rational."""
    return _coefficients(model, general_word(A), jmax)


# ---------------------------------------------------------------------------
# universality certificates
# ---------------------------------------------------------------------------


def certified_order(L: int, lambda_b: int, ell: int, observable_class: str) -> int:
    """Last order certified size-independent on L sites by commutator reach:
    j = (L-1)//lambda_b for the density's t^(2j) (``ell`` unread), and
    n = (L-ell)//(2 lambda_b) for t^n of a word of length ``ell``."""
    if observable_class == "density":
        return (L - 1) // lambda_b
    if observable_class == "word":
        return (L - ell) // (2 * lambda_b)
    raise ValueError(f"unknown observable class {observable_class!r}")


def universality_threshold(model: ModelSpec, observable: ObservableSpec) -> int:
    """Largest certified-universal index of an observable's series on a ring.

    The density and a local counter take the density class of
    `certified_order`, a word of length ell its word class, and a pair
    counter at distance d the sharper j <= L-d (nearest-neighbour blockade).
    Density and pair counters are indexed by j (the power of t^2), general
    words by the power of t.  Open chains return 0.
    """
    if model.topology == "infinite":
        raise ValueError("every order is universal on the infinite chain")
    if model.topology == "line":
        return 0
    L = model.size
    lam = model.blockade_range
    if observable.kind in ("density", "local_number"):
        return certified_order(L, lam, 1, "density")
    if observable.kind == "correlation":
        d = observable.distance
        if lam == 1:
            return L - d
        # fall back to the general-word certificate, re-indexed to t^(2j)
        return certified_order(L, lam, d + 1, "word") // 2
    return certified_order(L, lam, max(word_length(observable.word), 1), "word")


def _universal_order_limit(model: ModelSpec, observable: ObservableSpec) -> int | None:
    """Certified-universal cutoff as a power of t (None = all orders)."""
    if model.topology == "infinite":
        return None
    if model.topology == "line":
        return 0
    thr = universality_threshold(model, observable)
    if observable.kind == "word":
        return thr
    # even series: powers 2..2*thr certified, odd powers below are exact zeros
    return 2 * thr + 1


# ---------------------------------------------------------------------------
# open-chain boundary deficits
# ---------------------------------------------------------------------------


def _deficit(c_finite: Fraction, c_universal: Fraction, L: int) -> Fraction | None:
    if c_universal == 0:
        return None
    return L * (1 - c_finite / c_universal)


def boundary_deficits(jmax: int, L_probe: int = 12, blockade_range: int = 1) -> list[Fraction | None]:
    """Size-scaled boundary deficits of the open-chain density coefficients.

    On an open chain the j-th density coefficient takes the form
    ``c_j * (1 - deficit_j / L)`` with a deficit that stops depending on L
    once the chain comfortably exceeds the commutator reach.  The deficit is
    extracted at two probe sizes (``L_probe`` and ``L_probe + 2``) and the two
    values must agree exactly; a mismatch means the probe is too small and
    raises.  The first deficit is 0 (the t^2 coefficient is geometry-free);
    an order with vanishing universal coefficient has no well-defined deficit
    and reports ``None``.
    """
    uni = density_coefficients(infinite_chain(blockade_range), jmax)
    out: list[Fraction | None] = []
    probes = (L_probe, L_probe + 2)
    per_probe = [density_coefficients(line(L, blockade_range), jmax) for L in probes]
    for j in range(1, jmax + 1):
        c_uni = uni.coefficient(2 * j)
        qs = [
            _deficit(per_probe[i].coefficient(2 * j), c_uni, probes[i])
            for i in range(2)
        ]
        if qs[0] != qs[1]:
            raise ValueError(
                f"boundary deficit at order {j} still depends on the probe size "
                f"({probes[0]} vs {probes[1]}); increase L_probe"
            )
        out.append(qs[0])
    return out


# ---------------------------------------------------------------------------
# evaluation and export
# ---------------------------------------------------------------------------


def _horner(values, t: float) -> float:
    acc = 0.0
    for c in reversed(values):
        acc = acc * t + float(c)
    return acc


def eval_series(
    coeffs: SeriesCoefficients, t: float, truncation: int | None = None
) -> float:
    """Evaluate the stored series at time ``t`` by Horner's rule.

    ``truncation`` is the highest power of t included (default: everything
    computed).  Each rational is converted to float at full precision before
    it enters the recurrence.  For observables whose odd orders carry an i
    phase this evaluates the stored real series.
    """
    n_max = coeffs.max_order if truncation is None else truncation
    if n_max > coeffs.max_order:
        raise ValueError(
            f"truncation {n_max} exceeds the {coeffs.max_order} available orders"
        )
    return _horner(coeffs.values[: n_max + 1], t)


def eval_even_series(coefficients, t: float) -> float:
    """Evaluate sum_j c_j t^(2j) for ``coefficients`` c_1, c_2, ... (the
    layout of `SeriesCoefficients.even_values` and of the oracle's
    coefficients) by the same Horner rule as `eval_series`."""
    return _horner([0] + [x for c in coefficients for x in (0, c)], t)


def coefficient_records(coeffs: SeriesCoefficients) -> list[dict]:
    """One JSON-ready record per stored order."""
    model = coeffs.model
    out = []
    for n in range(coeffs.max_order + 1):
        v = Fraction(coeffs.values[n])
        out.append(
            {
                "observable": str(coeffs.observable),
                "topology": model.topology,
                "L": model.size,
                "lambda_b": model.blockade_range,
                "order": n,
                "numerator": v.numerator,
                "denominator": v.denominator,
                "universal": coeffs.is_universal(n),
            }
        )
    return out


def records_to_csv(records: list[dict], decimal: bool = False) -> list[str]:
    """CSV lines mirroring `coefficient_records` (no header comment)."""
    cols = ["observable", "topology", "L", "lambda_b", "order", "value", "universal"]
    lines = [",".join(cols)]
    for r in records:
        if decimal:
            value = repr(r["numerator"] / r["denominator"])
        else:
            value = f"{r['numerator']}/{r['denominator']}"
        lines.append(
            ",".join(
                [
                    r["observable"],
                    r["topology"],
                    "" if r["L"] is None else str(r["L"]),
                    str(r["lambda_b"]),
                    str(r["order"]),
                    value,
                    str(r["universal"]).lower(),
                ]
            )
        )
    return lines
