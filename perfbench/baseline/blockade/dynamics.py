"""Exact time evolution in the blockade subspace and an integer Taylor oracle.

Evolution starts from the all-ground state (always the first basis vector)
and proceeds by one dense symmetric eigendecomposition per lattice: every
later time point costs one matrix-vector product, and the evolved expectation
of a self-adjoint observable is real to machine precision.  Desk-scale
dimensions (a few thousand) make this both exact-in-time and cheap; requests
beyond the dimension budget are refused explicitly rather than attempted.

The Taylor oracle is the package's independent route to the series
coefficients: powers of the drive matrix applied to the initial vector are
exact integer vectors, and the nested-commutator expectation unfolds into the
binomial sum

    <ad^M(O)> = sum_m (-1)^m C(M, m) (H^(M-m) e0) . O (H^m e0),

rational division entering only at the final factorial.  Its results must
match the symbolic engine digit for digit, which is the strongest self-test
in the package.

Spectral diagnostics exploit the excitation-parity anticommutation of the
drive: the spectrum is symmetric about zero, every eigenvector away from zero
energy splits its weight equally between even and odd excitation numbers, and
expectation values starting from the vacuum are even in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.linalg

from .basis import (
    build_basis,
    hamiltonian_matrix,
    observable_matrix,
    parity_matrix,
)
from .series import (
    ObservableSpec,
    correlation,
    correlation_base_site,
    density,
    local_number,
)
from .words import ModelSpec

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


class DimensionBudgetError(ValueError):
    """Raised instead of attempting an over-budget dense computation."""

    def __init__(self, dimension: int, budget: int, what: str):
        self.dimension = dimension
        self.budget = budget
        super().__init__(
            f"{what} needs dimension {dimension}, over the budget of {budget}"
        )


@dataclass
class EvolutionResult:
    """Expectation values of one observable on a time grid."""

    model: ModelSpec
    observable: ObservableSpec
    times: list[float]
    values: list[float]
    method: str = "eigendecomposition"


@dataclass
class TaylorOracleResult:
    """Exact nested-commutator expectations and the derived coefficients.

    ``ad_expectations[M]`` is the exact <ad^M(O)> for M = 0..2*jmax (for the
    per-site density O is the total counter and the values are per site, i.e.
    divided by L).  ``coefficients[j]`` is the exact coefficient of t^(2j),
    j = 1..jmax.
    """

    model: ModelSpec
    observable: ObservableSpec
    ad_expectations: dict = field(default_factory=dict)
    coefficients: list = field(default_factory=list)

    def coefficient_values(self) -> list[Fraction]:
        return list(self.coefficients)


@lru_cache(maxsize=8)
def _basis_and_matrices(model: ModelSpec):
    basis = build_basis(model)
    drive = hamiltonian_matrix(model, basis)
    return basis, drive


@lru_cache(maxsize=4)
def _eigensystem(model: ModelSpec, solver: str = "numpy"):
    """Dense symmetric eigendecomposition of the drive, cached per model."""
    basis, drive = _basis_and_matrices(model)
    if basis.dimension > DENSE_DIMENSION_BUDGET:
        raise DimensionBudgetError(
            basis.dimension, DENSE_DIMENSION_BUDGET, "dense eigendecomposition"
        )
    dense = drive.to_dense(float)
    if solver == "numpy":
        energies, vectors = np.linalg.eigh(dense)
    elif solver == "scipy":
        energies, vectors = scipy.linalg.eigh(dense)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return basis, energies, vectors


def _observable_dense_action(model, basis, obs: ObservableSpec):
    """Return a function applying the observable to a complex vector, plus the
    normalisation (1/L for the per-site density)."""
    matrix = observable_matrix(model, basis, obs)
    norm = 1.0 / model.size if obs.kind == "density" else 1.0
    diag = matrix.diagonal()
    if all(
        r == c for (r, c) in matrix.entries
    ):  # diagonal observables: cheap elementwise product
        d = np.array(diag, dtype=float)

        def apply(vec):
            return d * vec

        return apply, norm
    rows = np.array([r for (r, c) in matrix.entries], dtype=np.intp)
    cols = np.array([c for (r, c) in matrix.entries], dtype=np.intp)
    vals = np.array([matrix.entries[(r, c)] for (r, c) in zip(rows, cols)], dtype=float)

    def apply(vec):
        out = np.zeros_like(vec)
        np.add.at(out, rows, vals * vec[cols])
        return out

    return apply, norm


def evolve(
    model: ModelSpec,
    obs: ObservableSpec,
    times,
    solver: str = "numpy",
) -> EvolutionResult:
    """Exact expectation of ``obs`` along ``times``, vacuum initial state.

    One eigendecomposition per model (cached); each time point then costs a
    single dense matrix-vector product.  The evolved state's norm is checked
    to 1e-12 and the expectation's imaginary residue to 1e-10; both are
    guaranteed by symmetry, so a violation raises instead of being hidden.
    """
    basis, energies, vectors = _eigensystem(model, solver)
    apply_obs, norm = _observable_dense_action(model, basis, obs)
    matrix_00 = observable_matrix(model, basis, obs).entries.get((0, 0), 0)
    weights = vectors[0, :].copy()  # overlap of the vacuum with each eigenvector
    values = []
    for t in times:
        if float(t) == 0.0:
            values.append(matrix_00 * norm)  # vacuum element, exact
            continue
        phases = np.exp(-1j * energies * float(t))
        state = vectors @ (phases * weights)
        n2 = float(np.vdot(state, state).real)
        if abs(n2 - 1.0) > _NORM_TOL * 10:
            raise ArithmeticError(f"evolved-state norm defect {abs(n2 - 1.0):.2e}")
        val = complex(np.vdot(state, apply_obs(state)))
        if abs(val.imag) > _IMAG_TOL:
            raise ArithmeticError(f"imaginary residue {val.imag:.2e} at t={t}")
        values.append(val.real * norm)
    return EvolutionResult(
        model=model, observable=obs, times=[float(t) for t in times], values=values
    )


# ---------------------------------------------------------------------------
# integer Taylor oracle
# ---------------------------------------------------------------------------


def taylor_oracle(model: ModelSpec, obs: ObservableSpec, jmax: int) -> TaylorOracleResult:
    """Exact Taylor data from integer matrix powers (independent of the
    symbolic engine).

    Computes v_m = H^m |vacuum> for m up to 2*jmax by exact sparse integer
    matrix-vector products, then assembles every nested-commutator
    expectation through the binomial expansion and divides by the factorial
    at the very end.  Odd orders vanish by parity and are reported exactly
    as zero.
    """
    basis, drive = _basis_and_matrices(model)
    max_ad = 2 * jmax
    if max_ad * basis.dimension > ORACLE_WORK_BUDGET:
        raise DimensionBudgetError(
            max_ad * basis.dimension, ORACLE_WORK_BUDGET, "integer Taylor oracle"
        )
    matrix = observable_matrix(model, basis, obs)
    vs = [[0] * basis.dimension]
    vs[0][0] = 1
    for _ in range(max_ad):
        vs.append(drive.matvec_int(vs[-1]))
    ovs = [matrix.matvec_int(v) for v in vs]

    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    norm = Fraction(1, model.size) if obs.kind == "density" else Fraction(1)
    ad_expectations = {}
    for M in range(max_ad + 1):
        total = 0
        for m in range(M + 1):
            total += (-1) ** m * math.comb(M, m) * dot(vs[M - m], ovs[m])
        ad_expectations[M] = Fraction(total) * norm
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


def g2(
    model: ModelSpec,
    d: int,
    times,
    site: int | None = None,
    solver: str = "numpy",
) -> EvolutionResult:
    """Normalised pair correlation: <n_k n_{k+d}> / (<n_k> <n_{k+d}>).

    Strictly positive times only (numerator and denominator both vanish at
    t = 0).  Distances inside the blockade range give an identically zero
    numerator, hence a zero correlation.  Points whose denominator falls
    below 1e-14 are undefined and reported as NaN.
    """
    times = [float(t) for t in times]
    if any(t <= 0 for t in times):
        raise ValueError("pair correlations need strictly positive times")
    pair = correlation(d, site=site) if site is not None else correlation(d)
    k = correlation_base_site(pair, model)
    lam = model.blockade_range
    blocked = d <= lam or (
        model.topology == "ring" and min(d % model.size, model.size - d % model.size) <= lam
    )
    if blocked:
        numerator = [0.0] * len(times)
    else:
        numerator = evolve(model, pair, times, solver).values
    na = evolve(model, local_number(k), times, solver).values
    if model.topology == "ring":
        nb = na
    else:
        nb = evolve(model, local_number(k + d), times, solver).values
    values = []
    for num, a, b in zip(numerator, na, nb):
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
    evenness_defect: float           # max |rho(t) - rho(-t)| on the sample grid
    parity_anticommutes: bool        # P H + H P == 0, exact integers
    norm_defect: float               # max | ||psi(t)|| - 1 | on the sample grid
    zero_mode: bool | None           # smallest |E| < 1e-8 (None if dim is even)


def spectral_checks(
    model: ModelSpec, sample_times=(0.3, 1.1, 2.7), solver: str = "numpy"
) -> SpectralReport:
    """Collect the parity/spectral witnesses for one lattice."""
    basis, energies, vectors = _eigensystem(model, solver)
    dim = basis.dimension
    asym = float(np.max(np.abs(energies + energies[::-1])))

    parity = parity_matrix(basis)
    pdiag = np.array(parity.diagonal(), dtype=float)
    even_mask = pdiag > 0
    nonzero = np.abs(energies) > 1e-8
    even_weight = np.sum(vectors[even_mask, :] ** 2, axis=0)
    weight_defect = (
        float(np.max(np.abs(even_weight[nonzero] - 0.5))) if nonzero.any() else 0.0
    )

    drive = _basis_and_matrices(model)[1]
    anti = all(
        pdiag[r] * v + v * pdiag[c] == 0 for (r, c), v in drive.entries.items()
    )

    evenness = 0.0
    norm_defect = 0.0
    weights = vectors[0, :]
    nmat = None
    for t in sample_times:
        vals = []
        for sign in (1.0, -1.0):
            phases = np.exp(-1j * energies * sign * t)
            state = vectors @ (phases * weights)
            norm_defect = max(norm_defect, abs(float(np.vdot(state, state).real) - 1.0))
            if nmat is None:
                nmat = np.array(
                    observable_matrix(model, basis, density()).diagonal(), dtype=float
                )
            vals.append(float(np.vdot(state, nmat * state).real) / model.size)
        evenness = max(evenness, abs(vals[0] - vals[1]))

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
    grid-resolution statement, not a sharp threshold."""
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
