"""The package's acceptance checks, shared by pytest and the CLI.

Each criterion below returns a list of check results so that the command line
(``blockade verify``) and the test suite print and assert exactly the same
facts.  Reference values are exact rationals that the package reproduces by
two fully independent routes (the symbolic word engine and the integer matrix
oracle); each check states which route(s) it exercises.

One check is *expected to fail* and is marked as such rather than weakened:
the 17-order size-free density series and the exact 18-site ring evolution
agree to 1e-3 only up to t ~ 1.49, not through t = 2 as the check demands.
The companion check pins the measured truth, and the analysis lives in the
check's detail text.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import bounds
from .basis import (
    blockade_dimension,
    build_basis,
    drive_matrix_recursive,
    hamiltonian_matrix,
    observable_matrix,
    total_number_matrix_recursive,
)
from .dynamics import evolve, spectral_checks, taylor_oracle, universal_window
from .series import (
    boundary_deficits,
    correlation,
    correlation_coefficients,
    density,
    density_coefficients,
    eval_even_series,
)
from .words import (
    LOWER,
    NUM,
    PROJ,
    RAISE,
    OperatorSum,
    commutator_H,
    infinite_chain,
    line,
    make_word,
    number_operator,
    ring,
    vacuum_expectation,
)

__all__ = ["CheckResult", "criterion_checks", "run_all", "CRITERIA"]


@dataclass
class CheckResult:
    criterion: str
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)
    expected_failure: bool = False  # documented impossibility, kept red on purpose
    skipped: bool = False

    def status(self) -> str:
        if self.skipped:
            return "SKIP"
        if self.passed:
            return "PASS" if not self.expected_failure else "UNEXPECTED-PASS"
        return "XFAIL" if self.expected_failure else "FAIL"


def _frac(s: str) -> Fraction:
    return Fraction(s)


# Universal density/pair-counter coefficients and open-chain deficits.  These
# rationals are reproduced exactly by both computation routes in this package
# (symbolic nested commutators and the integer matrix oracle).
DENSITY_NN = [_frac(x) for x in ("1", "-1", "3/5", "-81/280", "3023/25200")]
DENSITY_RANGE2 = [_frac(x) for x in ("1", "-5/3", "77/45", "-713/504")]
DENSITY_RANGE3 = [_frac(x) for x in ("1", "-7/3", "152/45")]
PAIR_D2 = [_frac(x) for x in ("0", "1", "-3/2", "283/240", "-739/1120")]
PAIR_D3 = [_frac(x) for x in ("0", "1", "-2", "61/30", "-2393/1680")]
DEFICITS = [_frac(x) for x in ("0", "2/3", "38/27", "518/243", "76016/27207")]

ORACLE_JMAX = {1: 5, 2: 4}  # symbolic-vs-oracle comparison depth per blockade range
RING18_TIMES = [round(0.02 * i, 10) for i in range(101)]  # 0 .. 2, criteria 5 and 7


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def _criterion_1(quick: bool) -> list[CheckResult]:
    t0 = time.time()
    out = []

    def check(name, got, want):
        out.append(
            CheckResult(
                "C1",
                name,
                got == want,
                [f"got {[str(x) for x in got]}"] if got != want else [],
            )
        )

    check(
        "universal density, nearest-neighbour blockade, 5 orders",
        density_coefficients(infinite_chain(1), 5).even_values(),
        DENSITY_NN,
    )
    check(
        "universal density, blockade range 2, 4 orders",
        density_coefficients(infinite_chain(2), 4).even_values(),
        DENSITY_RANGE2,
    )
    check(
        "universal density, blockade range 3, 3 orders",
        density_coefficients(infinite_chain(3), 3).even_values(),
        DENSITY_RANGE3,
    )
    check(
        "universal pair counter, distance 2",
        correlation_coefficients(infinite_chain(1), 2, 5).even_values(),
        PAIR_D2,
    )
    check(
        "universal pair counter, distance 3",
        correlation_coefficients(infinite_chain(1), 3, 5).even_values(),
        PAIR_D3,
    )
    check(
        "open-chain boundary deficits (probes 12 and 14)",
        boundary_deficits(5, L_probe=12),
        DEFICITS,
    )
    out.append(
        CheckResult(
            "C1",
            "runtime under 5 minutes",
            (time.time() - t0) < 300,
            [f"{time.time() - t0:.1f}s"],
        )
    )
    return out


def _c2_dense_commutator_reference():
    """Fourth nested commutator of n_1 on the 2-site ring, computed in the
    full 4-dimensional Hilbert space with dense numpy matrices.  Completely
    independent of the word engine; used to pin the corrected coefficient 8
    on the off-diagonal pair (the widely quoted expression prints 4, which is
    inconsistent with the algebra; the all-projector part and hence the
    series coefficient -2/3 are unaffected)."""
    r = np.array([[0.0, 1.0], [0.0, 0.0]])
    rd = r.T
    nn = rd @ r
    mm = np.eye(2) - nn
    ident = np.eye(2)

    def site1(op):
        return np.kron(op, ident)

    def site2(op):
        return np.kron(ident, op)

    H = (site1(r) + site1(rd)) @ site2(mm) + site1(mm) @ (site2(r) + site2(rd))
    ad = site1(nn)
    for _ in range(4):
        ad = H @ ad - ad @ H
    return ad, site1, site2, r, rd, nn, mm


def _criterion_2(quick: bool) -> list[CheckResult]:
    out = []
    chain = infinite_chain(1)
    n0 = number_operator(0)
    ads = [n0]
    for _ in range(4):
        ads.append(commutator_H(ads[-1], chain))

    out.append(
        CheckResult(
            "C2",
            "second nested commutator has vacuum expectation -2",
            vacuum_expectation(ads[2]) == -2,
        )
    )
    out.append(
        CheckResult(
            "C2",
            "fourth nested commutator has vacuum expectation -24",
            vacuum_expectation(ads[4]) == -24,
        )
    )

    def W(letters):
        return make_word(letters)

    ad1_expected = OperatorSum(
        {W({-1: PROJ, 0: LOWER, 1: PROJ}): 1, W({-1: PROJ, 0: RAISE, 1: PROJ}): -1}
    )
    ad2_expected = OperatorSum(
        {
            W({-1: PROJ, 0: NUM, 1: PROJ}): 2,
            W({-1: PROJ, 0: PROJ, 1: PROJ}): -2,
            W({-2: PROJ, -1: LOWER, 0: RAISE, 1: PROJ}): 1,
            W({-2: PROJ, -1: RAISE, 0: LOWER, 1: PROJ}): 1,
            W({-1: PROJ, 0: LOWER, 1: RAISE, 2: PROJ}): 1,
            W({-1: PROJ, 0: RAISE, 1: LOWER, 2: PROJ}): 1,
        }
    )
    # 4 b1(k) + b2(k) + 3 b2(k+1) + 3 b3(k) + b3(k+1) + b4(k) + 2 b4(k+1) + b4(k+2)
    ad3_expected = OperatorSum({})
    for shift, coeff in ((0, 4),):
        ad3_expected = ad3_expected + OperatorSum(
            {
                W({-1 + shift: PROJ, 0 + shift: LOWER, 1 + shift: PROJ}): coeff,
                W({-1 + shift: PROJ, 0 + shift: RAISE, 1 + shift: PROJ}): -coeff,
            }
        )
    for shift, coeff in ((0, 1), (1, 3)):
        ad3_expected = ad3_expected + OperatorSum(
            {
                W({-2 + shift: PROJ, -1 + shift: PROJ, 0 + shift: LOWER, 1 + shift: PROJ}): coeff,
                W({-2 + shift: PROJ, -1 + shift: PROJ, 0 + shift: RAISE, 1 + shift: PROJ}): -coeff,
            }
        )
    for shift, coeff in ((0, 3), (1, 1)):
        ad3_expected = ad3_expected + OperatorSum(
            {
                W({-2 + shift: PROJ, -1 + shift: LOWER, 0 + shift: PROJ, 1 + shift: PROJ}): coeff,
                W({-2 + shift: PROJ, -1 + shift: RAISE, 0 + shift: PROJ, 1 + shift: PROJ}): -coeff,
            }
        )
    for shift, coeff in ((0, 1), (1, 2), (2, 1)):
        ad3_expected = ad3_expected + OperatorSum(
            {
                W(
                    {
                        -3 + shift: PROJ,
                        -2 + shift: RAISE,
                        -1 + shift: LOWER,
                        0 + shift: RAISE,
                        1 + shift: PROJ,
                    }
                ): coeff,
                W(
                    {
                        -3 + shift: PROJ,
                        -2 + shift: LOWER,
                        -1 + shift: RAISE,
                        0 + shift: LOWER,
                        1 + shift: PROJ,
                    }
                ): -coeff,
            }
        )
    out.append(
        CheckResult("C2", "first nested commutator operator fixture", ads[1] == ad1_expected)
    )
    out.append(
        CheckResult("C2", "second nested commutator operator fixture", ads[2] == ad2_expected)
    )
    out.append(
        CheckResult("C2", "third nested commutator operator fixture", ads[3] == ad3_expected)
    )

    two = ring(2)
    sc = density_coefficients(two, 2)
    out.append(
        CheckResult(
            "C2",
            "2-site ring series coefficients 1 and -2/3",
            sc.even_values() == [Fraction(1), Fraction(-2, 3)],
            [f"got {[str(x) for x in sc.even_values()]}"],
        )
    )

    n1 = number_operator(1)
    r_ads = [n1]
    for _ in range(4):
        r_ads.append(commutator_H(r_ads[-1], two))

    ring2_ad2 = OperatorSum(
        {
            W({1: NUM, 2: PROJ}): 2,
            W({1: PROJ, 2: PROJ}): -2,
            W({1: LOWER, 2: RAISE}): 1,
            W({1: RAISE, 2: LOWER}): 1,
        }
    )
    ring2_ad3 = OperatorSum(
        {
            W({1: LOWER, 2: PROJ}): 5,
            W({1: RAISE, 2: PROJ}): -5,
            W({1: PROJ, 2: LOWER}): 3,
            W({1: PROJ, 2: RAISE}): -3,
        }
    )
    ring2_ad4 = OperatorSum(
        {
            W({1: NUM, 2: PROJ}): 10,
            W({1: PROJ, 2: PROJ}): -16,
            W({1: PROJ, 2: NUM}): 6,
            W({1: LOWER, 2: RAISE}): 8,
            W({1: RAISE, 2: LOWER}): 8,
        }
    )
    out.append(CheckResult("C2", "2-site ring second commutator, term for term", r_ads[2] == ring2_ad2))
    out.append(CheckResult("C2", "2-site ring third commutator, term for term", r_ads[3] == ring2_ad3))

    # The off-diagonal coefficient is pinned by an independent dense-matrix
    # computation in the full Hilbert space (it is 8; a coefficient of 4 also
    # circulates but contradicts the algebra).
    ad_dense, site1, site2, r, rd, nn, mm = _c2_dense_commutator_reference()
    expr_dense = (
        10.0 * (site1(nn) - site1(mm)) @ site2(mm)
        + 6.0 * site1(mm) @ (site2(nn) - site2(mm))
        + 8.0 * (site1(r) @ site2(rd) + site1(rd) @ site2(r))
    )
    dense_ok = bool(np.array_equal(ad_dense, expr_dense))
    out.append(
        CheckResult(
            "C2",
            "2-site ring fourth commutator matches the dense-matrix reference",
            dense_ok and r_ads[4] == ring2_ad4,
            ["off-diagonal coefficient independently confirmed as 8"],
        )
    )
    out.append(
        CheckResult(
            "C2",
            "2-site ring fourth commutator: all-projector part gives -16",
            vacuum_expectation(r_ads[4]) == -16,
        )
    )
    return out


def _criterion_3(quick: bool) -> list[CheckResult]:
    t0 = time.time()
    out = []
    mismatches = []
    for lam, jmax in ORACLE_JMAX.items():
        for L in range(3, 11):
            model = ring(L, lam)
            sym = density_coefficients(model, jmax).even_values()
            orc = taylor_oracle(model, density(), jmax).coefficients
            if sym != orc:
                mismatches.append((L, lam, sym, orc))
    out.append(
        CheckResult(
            "C3",
            "symbolic density series == integer oracle, rings 3..10, ranges 1..2",
            not mismatches,
            [str(m) for m in mismatches] or [f"{time.time() - t0:.1f}s"],
        )
    )
    pair_mism = []
    for L in (6, 8):
        model = ring(L, 1)
        sym = correlation_coefficients(model, 2, 4).even_values()
        orc = taylor_oracle(model, correlation(2), 4).coefficients
        if sym != orc:
            pair_mism.append((L, sym, orc))
    out.append(
        CheckResult(
            "C3",
            "symbolic pair-counter series == integer oracle, rings 6 and 8",
            not pair_mism,
            [str(m) for m in pair_mism],
        )
    )
    out.append(
        CheckResult(
            "C3",
            "runtime under 10 minutes",
            (time.time() - t0) < 600,
            [f"{time.time() - t0:.1f}s"],
        )
    )
    return out


def _criterion_4(quick: bool) -> list[CheckResult]:
    out = []
    ref_nn = taylor_oracle(ring(12), density(), 11).coefficients
    out.append(
        CheckResult(
            "C4",
            "size-free reference (12-site ring) reproduces the 5 known rationals",
            ref_nn[:5] == DENSITY_NN,
        )
    )
    bad = []
    for L in range(3, 10):
        finite = taylor_oracle(ring(L), density(), 8).coefficients
        thr = L - 1
        for j in range(1, min(8, thr) + 1):
            if finite[j - 1] != ref_nn[j - 1]:
                bad.append((L, j))
    out.append(
        CheckResult(
            "C4",
            "ring density coefficients equal size-free values up to order L-1",
            not bad,
            [str(bad)] if bad else [],
        )
    )

    ref_r2 = taylor_oracle(ring(11, 2), density(), 5).coefficients
    out.append(
        CheckResult(
            "C4",
            "range-2 reference (11-site ring) reproduces the 4 known rationals",
            ref_r2[:4] == DENSITY_RANGE2,
        )
    )
    bad = []
    for L in range(5, 10):
        finite = taylor_oracle(ring(L, 2), density(), 4).coefficients
        thr = (L - 1) // 2
        for j in range(1, min(4, thr) + 1):
            if finite[j - 1] != ref_r2[j - 1]:
                bad.append((L, j))
    out.append(
        CheckResult(
            "C4",
            "range-2 ring coefficients equal size-free values up to order (L-1)/2",
            not bad,
            [str(bad)] if bad else [],
        )
    )

    bad = []
    for L, d, ref in ((7, 2, PAIR_D2), (8, 3, PAIR_D3)):
        finite = taylor_oracle(ring(L), correlation(d), 5).coefficients
        thr = L - d
        for j in range(1, min(5, thr) + 1):
            if finite[j - 1] != ref[j - 1]:
                bad.append((L, d, j))
    out.append(
        CheckResult(
            "C4",
            "ring pair-counter coefficients equal size-free values up to order L-d",
            not bad,
            [str(bad)] if bad else [],
        )
    )
    return out


def _criterion_5(quick: bool) -> list[CheckResult]:
    out = []
    t0 = time.time()
    orc = taylor_oracle(ring(18), density(), 17)
    out.append(
        CheckResult(
            "C5",
            "18-site ring oracle yields 17 exact coefficients, first five known",
            len(orc.coefficients) == 17 and orc.coefficients[:5] == DENSITY_NN,
            [f"oracle time {time.time() - t0:.1f}s"],
        )
    )
    if quick:
        out.append(
            CheckResult(
                "C5",
                "series-vs-evolution agreement window (needs the dense evolution)",
                True,
                ["skipped in quick mode"],
                skipped=True,
            )
        )
        return out

    curve = evolve(ring(18), density(), RING18_TIMES)
    devs = [
        abs(eval_even_series(orc.coefficients, t) - v)
        for t, v in zip(curve.times, curve.values)
    ]
    max_dev = max(devs)
    max_dev_14 = max(d for t, d in zip(curve.times, devs) if t <= 1.4 + 1e-12)
    out.append(
        CheckResult(
            "C5",
            "17-order series tracks the exact evolution to 1e-3 through t = 2",
            max_dev < 1e-3,
            [
                f"max |difference| on [0, 2] is {max_dev:.3g}; the series' last kept "
                "terms grow like t^34, so the difference crosses 1e-3 near t = 1.49 "
                "and this check cannot pass as stated",
                "coefficients confirmed by the symbolic route (order 6) and by a "
                "20-site oracle; the evolution confirmed by an independent Krylov "
                "propagator to 10 digits",
            ],
            expected_failure=True,
        )
    )
    out.append(
        CheckResult(
            "C5",
            "measured agreement: below 1e-3 through t = 1.4, above by t = 2",
            max_dev_14 < 1e-3 and max_dev > 1e-3,
            [f"max over t <= 1.4: {max_dev_14:.3g}; max over t <= 2: {max_dev:.3g}"],
        )
    )

    times = [round(0.05 * i, 10) for i in range(161)]  # 0 .. 8
    w_small = universal_window(ring(10), ring(12), times, 1e-3)
    w_large = universal_window(ring(16), ring(18), times, 1e-3)
    out.append(
        CheckResult(
            "C5",
            "universal window grows with the lattice size (epsilon 1e-3)",
            w_small is not None and w_large is not None and 0 < w_small < w_large,
            [f"window(10 vs 12) = {w_small}, window(16 vs 18) = {w_large}"],
        )
    )
    out.append(
        CheckResult(
            "C5",
            "runtime under 30 minutes",
            (time.time() - t0) < 1800,
            [f"{time.time() - t0:.1f}s"],
        )
    )
    return out


def _criterion_6(quick: bool) -> list[CheckResult]:
    out = []
    worst = {"asym": 0.0, "weight": 0.0, "norm": 0.0}
    anti_ok = True
    zero_ok = True
    asymmetric = []
    for topo in (ring, line):
        for L in range(4, 13):
            for lam in (1, 2):
                model = topo(L, lam)
                # a real symmetric drive makes rho(-t) the complex conjugate
                # of the real rho(t); eigh and the oracle both rely on it, and
                # the drive builder refuses an asymmetric one in integers
                try:
                    rep = spectral_checks(model)
                except ValueError as err:
                    if "is not symmetric" not in str(err):
                        raise
                    asymmetric.append(f"{model.topology}({L}, {lam})")
                    continue
                worst["asym"] = max(worst["asym"], rep.spectrum_asymmetry)
                worst["weight"] = max(worst["weight"], rep.parity_weight_defect)
                worst["norm"] = max(worst["norm"], rep.norm_defect)
                anti_ok = anti_ok and rep.parity_anticommutes
                if rep.zero_mode is False:
                    zero_ok = False
    out.append(
        CheckResult(
            "C6",
            "spectra symmetric about zero to 1e-10",
            worst["asym"] < 1e-10,
            [f"worst {worst['asym']:.2e}"],
        )
    )
    out.append(
        CheckResult("C6", "parity anticommutes with the drive, exact integers", anti_ok)
    )
    out.append(
        CheckResult(
            "C6",
            "nonzero-energy eigenvectors split parity weight 1/2 to 1e-8",
            worst["weight"] < 1e-8,
            [f"worst {worst['weight']:.2e}"],
        )
    )
    out.append(
        CheckResult(
            "C6",
            "density even in time: the drive is symmetric, exact integers",
            not asymmetric,
            asymmetric,
        )
    )
    out.append(
        CheckResult(
            "C6",
            "evolved norm stays 1 to 1e-12",
            worst["norm"] < 1e-12,
            [f"worst {worst['norm']:.2e}"],
        )
    )
    out.append(
        CheckResult(
            "C6", "odd-dimensional spectra contain a zero mode", zero_ok
        )
    )
    return out


def _collect_exact_coefficients() -> list[tuple[str, int, int, int, Fraction]]:
    """(class, j, lambda_b, ell, value) for every exact coefficient asserted in
    criteria 1-5, for the bound sweep of criterion 7."""
    sets: list[tuple[str, int, int, int, Fraction]] = []
    for lam, coeffs in ((1, DENSITY_NN), (2, DENSITY_RANGE2), (3, DENSITY_RANGE3)):
        sets.extend(("density", j, lam, 1, c) for j, c in enumerate(coeffs, 1))
    for d, coeffs in ((2, PAIR_D2), (3, PAIR_D3)):
        sets.extend(("word", j, 1, d + 1, c) for j, c in enumerate(coeffs, 1))
    sets.extend(
        ("density", j, 1, 1, c)
        for j, c in enumerate(taylor_oracle(ring(18), density(), 17).coefficients, 1)
    )
    for lam, jmax in ORACLE_JMAX.items():
        for L in (3, 6, 10):
            coeffs = taylor_oracle(ring(L, lam), density(), jmax).coefficients
            sets.extend(("density", j, lam, 1, c) for j, c in enumerate(coeffs, 1))
    for L in (12, 14):
        coeffs = density_coefficients(line(L), 5).even_values()
        sets.extend(("density", j, 1, 1, c) for j, c in enumerate(coeffs, 1))
    return sets


def _criterion_7(quick: bool) -> list[CheckResult]:
    out = []
    kv = bounds.kappa(1.0)
    out.append(
        CheckResult(
            "C7",
            "kappa(1) solves exactly: tau = kappa = omega = 1",
            kv.tau == 1.0 and kv.omega == 1.0 and kv.log_kappa == 0.0,
        )
    )
    strict_ok = all(
        bounds.log_kappa(float(n)) < math.lgamma(n + 1) - bounds._log_omega_product(n)
        for n in range(2, 101)
    )
    eq1 = abs(bounds.log_kappa(1.0) - (math.lgamma(2) - bounds._log_omega_product(1))) < 1e-12
    out.append(
        CheckResult(
            "C7",
            "kappa_n below n!/(omega product), n = 2..100 (equality at n = 1)",
            strict_ok and eq1,
        )
    )

    violations = []
    for cls, j, lam, ell, value in _collect_exact_coefficients():
        if value == 0:
            continue
        order = 2 * j if cls == "word" else j  # word-class bounds index powers of t
        log_c = math.log(abs(value))
        log_b = bounds.coefficient_bound(order, lam, ell, cls)
        if not log_c <= log_b:
            violations.append((cls, j, lam, ell, float(value), log_c, log_b))
    out.append(
        CheckResult(
            "C7",
            "every exact coefficient obeys its class bound",
            not violations,
            [str(v) for v in violations],
        )
    )

    ratio_ok = True
    worst = 0.0
    for L in range(5, 21):
        r = math.exp(
            bounds.log_error_envelope(L, 1, 1, 1.0)
            - bounds.log_error_envelope(L - 1, 1, 1, 1.0)
        )
        cap = 36.0 / (bounds.omega(2 * L - 1) * bounds.omega(2 * L))
        worst = max(worst, r / cap)
        ratio_ok = ratio_ok and r < cap
    out.append(
        CheckResult(
            "C7",
            "envelope ratio below 36 t^2/(omega omega'), L = 5..20 at t = 1",
            ratio_ok,
            [f"worst ratio/cap {worst:.3f}"],
        )
    )

    if quick:
        out.append(
            CheckResult(
                "C7",
                "measured 18-site deviation below the envelope where it is < 1",
                True,
                ["skipped in quick mode"],
                skipped=True,
            )
        )
        return out

    # The envelope bounds the *exact* deviation; the measured one adds the
    # eigensolver's float noise (~1e-12 at this dimension), so where the
    # certificate is tighter than that floor the assertion is that the
    # measurement sits at the floor.
    noise_floor = 1e-10
    orc = taylor_oracle(ring(18), density(), 17)
    curve = evolve(ring(18), density(), RING18_TIMES)
    certified = at_floor = 0
    ok = True
    for t, v in zip(curve.times, curve.values):
        if t == 0.0:
            continue
        log_env = bounds.log_error_envelope(18, 1, 1, t)
        if log_env >= 0.0:
            continue
        dev = abs(eval_even_series(orc.coefficients, t) - v)
        env = math.exp(log_env)
        if env > 1e-9:
            certified += 1
            ok = ok and dev <= env
        else:
            at_floor += 1
            ok = ok and dev <= noise_floor
    out.append(
        CheckResult(
            "C7",
            "measured 18-site deviation below the envelope where it is < 1",
            ok and certified > 0,
            [
                f"{certified} grid points below the envelope; {at_floor} points where "
                "the envelope undercuts the eigensolver noise floor, deviation at "
                "the floor (< 1e-10)"
            ],
        )
    )
    return out


def _criterion_8(quick: bool) -> list[CheckResult]:
    out = []
    dims_ok = True
    expected = {1: 2, 2: 3}
    for L in range(3, 21):
        expected[L] = expected[L - 1] + expected[L - 2]
    for L in range(1, 21):
        b = build_basis(line(L))
        if not (b.dimension == expected[L] == blockade_dimension(line(L))):
            dims_ok = False
    out.append(
        CheckResult(
            "C8",
            "open-chain dimensions follow the two-term recursion, L = 1..20",
            dims_ok,
        )
    )

    # explicit enumeration, independent of both the recursion and the builder
    enum_ok = True
    for L in range(1, 19):
        count = sum(1 for s in range(1 << L) if (s & (s >> 1)) == 0)
        if count != expected[L]:
            enum_ok = False
    out.append(
        CheckResult(
            "C8",
            "brute-force enumeration agrees with the recursion, L = 1..18",
            enum_ok,
        )
    )

    closed_ok = True
    golden = (1 + math.sqrt(5)) / 2
    d = {0: 1, 1: 2}
    for L in range(2, 31):
        d[L] = d[L - 1] + d[L - 2]
    for L in range(1, 31):
        closed = (golden ** (L + 2) - (-1 / golden) ** (L + 2)) / math.sqrt(5)
        if round(closed) != d[L]:
            closed_ok = False
    out.append(
        CheckResult(
            "C8",
            "closed-form dimension matches the recursion, L = 1..30",
            closed_ok,
        )
    )

    # the matrix builders do not re-check themselves, so this reaches past
    # every open chain the dense dimension budget admits
    rec_ok = True
    for L in range(1, 21):
        b = build_basis(line(L))
        if hamiltonian_matrix(line(L), b) != drive_matrix_recursive(L):
            rec_ok = False
        if observable_matrix(line(L), b, density()) != total_number_matrix_recursive(L):
            rec_ok = False
    out.append(
        CheckResult(
            "C8",
            "block recursion equals the bit-flip construction, L = 1..20",
            rec_ok,
        )
    )

    h1 = hamiltonian_matrix(line(1), build_basis(line(1))).to_dense(int).tolist()
    h2 = hamiltonian_matrix(line(2), build_basis(line(2))).to_dense(int).tolist()
    n2 = observable_matrix(line(2), build_basis(line(2)), density()).to_dense(int).tolist()
    out.append(
        CheckResult(
            "C8",
            "printed 1- and 2-site matrices reproduced",
            h1 == [[0, 1], [1, 0]]
            and h2 == [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
            and n2 == [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
        )
    )
    return out


CRITERIA = {
    1: _criterion_1,
    2: _criterion_2,
    3: _criterion_3,
    4: _criterion_4,
    5: _criterion_5,
    6: _criterion_6,
    7: _criterion_7,
    8: _criterion_8,
}


def criterion_checks(number: int, quick: bool = False) -> list[CheckResult]:
    """Run one acceptance criterion and return its check results."""
    return CRITERIA[number](quick)


def run_all(quick: bool = False) -> list[CheckResult]:
    """Run the whole acceptance suite (criteria 1..8, in order)."""
    out = []
    for n in sorted(CRITERIA):
        out.extend(criterion_checks(n, quick))
    return out
