"""The four benchmark workloads: fixed ops, their outputs, and their checks.

An op is one call (or one small table of calls) into the package.  Its
output is rendered either as exact text (coefficient CSV through
``records_to_csv``, compared byte for byte with the reference file) or as
floats (compared within the op's stated absolute tolerance).  A refusal op
succeeds only when it raises `DimensionBudgetError`.  Cross-checks that need
no reference (golden coefficients, symbolic against oracle, ring sizes
against each other, bound inequalities) run after the timed section, on the
results of all ops.

The ops of a workload are independent of each other; the seed only permutes
their order, which changes which `lru_cache` entries a later op finds and
which large cached objects are alive while the next op allocates.  Calls
whose cost depends on their relative order through a shared cache are one
op, and refusal ops always run first (see `worker.run`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from blockade import bounds
from blockade.dynamics import (
    DimensionBudgetError,
    evolve,
    g2,
    oracle_records,
    spectral_checks,
    taylor_oracle,
    universal_window,
)
from blockade.series import (
    boundary_deficits,
    coefficient_records,
    correlation,
    correlation_coefficients,
    density,
    density_coefficients,
    local_number,
    records_to_csv,
)
from blockade.words import infinite_chain, line, ring

WORKLOADS = ("symbolic", "oracle", "dense", "certify")

# Golden exact values, independent of any reference file.
DENSITY_NN = [Fraction(x) for x in ("1", "-1", "3/5", "-81/280", "3023/25200")]
DENSITY_RANGE2 = [Fraction(x) for x in ("1", "-5/3", "77/45", "-713/504")]
DENSITY_RANGE3 = [Fraction(x) for x in ("1", "-7/3", "152/45")]
PAIR_D2 = [Fraction(x) for x in ("0", "1", "-3/2", "283/240", "-739/1120")]
PAIR_D3 = [Fraction(x) for x in ("0", "1", "-2", "61/30", "-2393/1680")]
DEFICITS = [Fraction(x) for x in ("0", "2/3", "38/27", "518/243", "76016/27207")]

TIMES = [round(0.05 * i, 10) for i in range(161)]  # 0 .. 8, as the CLI examples
T_ENVELOPE_CHEAP = [round(0.05 * i, 10) for i in range(21)]  # 0 .. 1
T_ENVELOPE = [round(0.1 * i, 10) for i in range(9)]  # 0 .. 0.8


@dataclass
class Op:
    """One timed call.  ``render`` gives ``str`` (exact) or ``list[float]``."""

    name: str
    run: Callable[[], Any]
    render: Callable[[Any], Any] = list
    tol: float | None = None  # absolute tolerance for float outputs
    refuses: bool = False
    check: Callable[[Any, dict], list[str]] | None = None

    def output(self, result):
        """Rendered output: the refusal's class name for a refusal op."""
        if self.refuses:
            return type(result).__name__
        return self.render(result)

    def compare(self, out, ref) -> list[str]:
        """Mismatches of a rendered output against its reference."""
        if isinstance(out, str) or self.tol is None:
            return [] if out == ref else [f"{self.name}: output differs from the reference"]
        if len(out) != len(ref):
            return [f"{self.name}: {len(out)} values, reference has {len(ref)}"]
        bad = [
            i
            for i, (a, b) in enumerate(zip(out, ref))
            if not (a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= self.tol)
        ]
        if bad:
            i = bad[0]
            return [
                f"{self.name}: {len(bad)} values off the reference by more than "
                f"{self.tol:g}, first at {i}: {out[i]!r} vs {ref[i]!r}"
            ]
        return []


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def series_csv(result) -> str:
    return "\n".join(records_to_csv(coefficient_records(result)))


def oracle_csv(result) -> str:
    return "\n".join(records_to_csv(oracle_records(result)))


def deficits_text(qs) -> str:
    return "\n".join(f"{j},{'none' if q is None else q}" for j, q in enumerate(qs, 1))


def values(result) -> list[float]:
    return list(result.values)


def _mismatch(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got}, want {want}"]


# ---------------------------------------------------------------------------
# symbolic: words.commutator_H does nearly all the work
# ---------------------------------------------------------------------------


def _oracle_agrees(L: int, jmax: int):
    def check(result, results):
        want = taylor_oracle(ring(L), density(), jmax).coefficients
        return _mismatch(f"symbolic vs oracle on ring {L}", result.even_values(), want)

    return check


def symbolic_ops() -> list[Op]:
    ops = [
        Op(
            "infinite_l1_j6",
            lambda: density_coefficients(infinite_chain(1), 6),
            series_csv,
            check=lambda r, _: _mismatch("golden density", r.even_values()[:5], DENSITY_NN),
        ),
        Op(
            "infinite_l2_j4",
            lambda: density_coefficients(infinite_chain(2), 4),
            series_csv,
            check=lambda r, _: _mismatch("golden range-2", r.even_values(), DENSITY_RANGE2),
        ),
        Op(
            "pair_d2_j5",
            lambda: correlation_coefficients(infinite_chain(1), 2, 5),
            series_csv,
            check=lambda r, _: _mismatch("golden pair d=2", r.even_values(), PAIR_D2),
        ),
        Op(
            "deficits_j4",
            lambda: boundary_deficits(4),
            deficits_text,
            check=lambda r, _: _mismatch("golden deficits", r, DEFICITS[:4]),
        ),
        Op("line20_l2_j3", lambda: density_coefficients(line(20, 2), 3), series_csv),
    ]
    for L in (10, 12):
        ops.append(
            Op(
                f"ring{L}_j5",
                lambda L=L: density_coefficients(ring(L), 5),
                series_csv,
                check=_oracle_agrees(L, 5),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# oracle: big-integer matvecs and basis construction, no symbolic work
# ---------------------------------------------------------------------------


def _rings_agree(other: str, through: int):
    def check(result, results):
        a = result.coefficients[:through]
        b = results[other].coefficients[:through]
        return _mismatch(f"agreement with {other} through j={through}", a, b)

    return check


def oracle_ops() -> list[Op]:
    return [
        Op(
            "ring16_j15",
            lambda: taylor_oracle(ring(16), density(), 15),
            oracle_csv,
            check=lambda r, _: _mismatch("golden density", r.coefficients[:5], DENSITY_NN),
        ),
        Op(
            "ring18_j17",
            lambda: taylor_oracle(ring(18), density(), 17),
            oracle_csv,
            check=_rings_agree("ring16_j15", 15),
        ),
        Op("line16_j15", lambda: taylor_oracle(line(16), density(), 15), oracle_csv),
        Op(
            "ring24_l2_j11",
            lambda: taylor_oracle(ring(24, 2), density(), 11),
            oracle_csv,
            check=lambda r, _: _mismatch("golden range-2", r.coefficients[:4], DENSITY_RANGE2),
        ),
        Op(
            "refuse_ring23",
            lambda: taylor_oracle(ring(23), density(), 22),
            refuses=True,
        ),
    ]


# ---------------------------------------------------------------------------
# dense: one eigensolve per lattice, then the per-time-point loop
# ---------------------------------------------------------------------------


def _matches_golden_series(result, _results) -> list[str]:
    """Ring density at t <= 0.3 against the five golden coefficients; the
    first omitted term is below 0.05 * 0.3^12 < 1e-7."""
    bad = []
    for t, v in zip(result.times, result.values):
        if t <= 0.3:
            series = sum(float(c) * t ** (2 * j) for j, c in enumerate(DENSITY_NN, 1))
            if abs(v - series) > 1e-6:
                bad.append(f"t={t}: {v} vs series {series}")
    return bad


def _spectral_text(report) -> str:
    return (
        f"dimension={report.dimension}\n"
        f"parity_anticommutes={report.parity_anticommutes}\n"
        f"zero_mode={report.zero_mode}"
    )


def _spectral_defects(report, _results) -> list[str]:
    defects = {
        "spectrum_asymmetry": report.spectrum_asymmetry,
        "parity_weight_defect": report.parity_weight_defect,
        "evenness_defect": report.evenness_defect,
        "norm_defect": report.norm_defect,
    }
    return [f"{k}={v:.3g} above 1e-9" for k, v in defects.items() if not v <= 1e-9]


def dense_ops() -> list[Op]:
    ops = []
    for model, site in ((ring(14), 1), (line(12), 6)):
        tag = f"{model.topology}{model.size}"
        ops += [
            Op(
                f"{tag}_density",
                lambda m=model: evolve(m, density(), TIMES),
                values,
                tol=1e-9,
                check=_matches_golden_series if model.topology == "ring" else None,
            ),
            Op(
                f"{tag}_number",
                lambda m=model, k=site: evolve(m, local_number(k), TIMES),
                values,
                tol=1e-9,
            ),
            Op(
                f"{tag}_pair",
                lambda m=model: evolve(m, correlation(2), TIMES),
                values,
                tol=1e-9,
            ),
            Op(f"{tag}_g2", lambda m=model: g2(m, 2, TIMES[1:]), values, tol=1e-8),
            Op(
                f"{tag}_spectral",
                lambda m=model: spectral_checks(m),
                _spectral_text,
                check=_spectral_defects,
            ),
        ]
    ops += [
        Op(
            "window_ring12_ring14",
            lambda: universal_window(ring(12), ring(14), TIMES),
            repr,
        ),
        Op("refuse_line21", lambda: evolve(line(21), density(), TIMES), refuses=True),
    ]
    return ops


# ---------------------------------------------------------------------------
# certify: bounds, measured nowhere else
# ---------------------------------------------------------------------------


def _envelopes(L: int, lam: int, ell: int, cls: str, times) -> list[float]:
    return [bounds.log_error_envelope(L, lam, ell, t, cls) for t in times]


def _kappa_table() -> list[float]:
    out = []
    for a in range(1, 101):
        kv = bounds.kappa(float(a))
        out += [kv.tau, kv.omega, kv.log_kappa]
    return out


def _kappa_checks(table, _results) -> list[str]:
    bad = []
    if table[:3] != [1.0, 1.0, 0.0]:
        bad.append(f"kappa(1) is not exactly tau = omega = 1: {table[:3]}")
    log_omega_product = 0.0
    for n in range(1, 101):
        log_omega_product += math.log(bounds.omega(n))
        if n > 1 and not table[3 * n - 1] < math.lgamma(n + 1) - log_omega_product:
            bad.append(f"kappa_{n} not below n!/(omega product)")
    return bad


def _ratio_table() -> list[float]:
    out = []
    for L in range(10, 41):
        out.append(bounds.convergence_ratio(L, 1, 1, 1.0))
        out.append(
            bounds.log_error_envelope(L, 1, 1, 1.0) - bounds.log_error_envelope(L - 1, 1, 1, 1.0)
        )
    return out


def _ratio_checks(table, _results) -> list[str]:
    bad = []
    for i, L in enumerate(range(10, 41)):
        cap = 36.0 / (bounds.omega(2 * L - 1) * bounds.omega(2 * L))
        if not math.exp(table[2 * i + 1]) < cap:
            bad.append(f"envelope ratio at L={L} not below 36/(omega omega')")
    return bad


def golden_coefficients(ring18: list[Fraction]) -> list[tuple[str, int, int, int, Fraction]]:
    """(class, order, lambda_b, ell, value) for every golden exact coefficient;
    word-class bounds index powers of t, so pair counters use order 2j."""
    out = []
    for lam, coeffs in ((1, DENSITY_NN), (2, DENSITY_RANGE2), (3, DENSITY_RANGE3)):
        out += [("density", j, lam, 1, c) for j, c in enumerate(coeffs, 1)]
    for d, coeffs in ((2, PAIR_D2), (3, PAIR_D3)):
        out += [("word", 2 * j, 1, d + 1, c) for j, c in enumerate(coeffs, 1)]
    out += [("density", j, 1, 1, c) for j, c in enumerate(ring18, 1)]
    return [g for g in out if g[4] != 0]


def ring18_coefficients(oracle_reference: dict) -> list[Fraction]:
    """The ring-18 oracle coefficients, read from the oracle reference CSV."""
    rows = oracle_reference["ring18_j17"].splitlines()[1:]
    return [Fraction(row.split(",")[5]) for row in rows]


def certify_ops(ring18: list[Fraction]) -> list[Op]:
    golden = golden_coefficients(ring18)

    def bound_checks(logs, _results):
        return [
            f"|{float(c):.3g}| above its {cls} bound at order {j}, lambda {lam}"
            for (cls, j, lam, _ell, c), b in zip(golden, logs)
            if not math.log(abs(c)) <= b
        ]

    return [
        # One op: the three envelopes share the cached tau solves, so their
        # cost depends on which runs first.
        Op(
            "envelopes_L18",
            lambda: _envelopes(18, 1, 1, "density", T_ENVELOPE_CHEAP)
            + _envelopes(18, 2, 1, "density", T_ENVELOPE)
            + _envelopes(18, 1, 2, "word", T_ENVELOPE),
            tol=1e-9,
        ),
        Op("kappa_table", _kappa_table, tol=1e-12, check=_kappa_checks),
        Op("ratio_table", _ratio_table, tol=1e-9, check=_ratio_checks),
        Op(
            "coefficient_bounds",
            lambda: [bounds.coefficient_bound(j, lam, ell, cls) for cls, j, lam, ell, _ in golden],
            tol=1e-12,
            check=bound_checks,
        ),
    ]


def ops_for(workload: str, references: dict) -> list[Op]:
    """The ops of one workload; ``references`` maps workload -> {op: output}."""
    if workload == "symbolic":
        return symbolic_ops()
    if workload == "oracle":
        return oracle_ops()
    if workload == "dense":
        return dense_ops()
    if workload == "certify":
        return certify_ops(ring18_coefficients(references["oracle"]))
    raise ValueError(f"unknown workload {workload!r}")
