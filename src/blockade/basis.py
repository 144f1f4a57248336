"""Blockade-constrained occupation basis and exact integer matrices.

With a hard blockade of range lam, the drive never leaves the subspace of
occupation states in which no two excited sites sit within lam lattice
spacings of each other (cyclically on a ring).  On an open chain with
nearest-neighbour blockade that subspace is Fibonacci-dimensional and carries
a natural recursive ordering: the basis of L sites is the basis of L-1 sites
with a ground site appended, followed by the basis of L-2 sites with a
ground-excited pair appended.  The drive and the total-excitation counter
then inherit block recursions, which this module implements alongside a
generic bit-flip construction; the two are cross-checked entry for entry.

States are stored as occupation bitsets (bit k-1 set means site k excited,
so the printed string for the integer 5 on four sites is 1010).  All matrices
are exact integer sparse matrices; densify only when a consumer needs floats.
Bases and matrices are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .series import ObservableSpec, correlation_base_site
from .words import LOWER, NUM, PROJ, RAISE, ModelSpec, Word, fold_word

__all__ = [
    "SparseIntMatrix",
    "BlockadeBasis",
    "blockade_dimension",
    "build_basis",
    "hamiltonian_matrix",
    "observable_matrix",
    "parity_matrix",
    "drive_matrix_recursive",
    "total_number_matrix_recursive",
    "cyclic_shift_permutation",
    "dumps_matrix",
]

_ENUMERATION_LIMIT = 26  # 2^26 bitset sweep; larger lattices use the recursion


# ---------------------------------------------------------------------------
# sparse integer matrices
# ---------------------------------------------------------------------------


class SparseIntMatrix:
    """Immutable sparse matrix with exact integer entries (COO dict)."""

    def __init__(self, dimension: int, entries: dict):
        self.dimension = dimension
        self.entries = {rc: int(v) for rc, v in entries.items() if v != 0}

    def __eq__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return self.dimension == other.dimension and self.entries == other.entries

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        return [(r, c, self.entries[(r, c)]) for r, c in sorted(self.entries)]

    def is_symmetric(self) -> bool:
        return all(self.entries.get((c, r)) == v for (r, c), v in self.entries.items())

    def diagonal(self) -> list[int]:
        return [self.entries.get((i, i), 0) for i in range(self.dimension)]

    @cached_property
    def _rows(self) -> list[list[tuple[int, int]]]:
        rows: list[list[tuple[int, int]]] = [[] for _ in range(self.dimension)]
        for (r, c), v in self.entries.items():
            rows[r].append((c, v))
        return rows

    def matvec_int(self, vec: list[int]) -> list[int]:
        """Exact matrix-vector product over Python integers."""
        out = [0] * self.dimension
        for r, cols in enumerate(self._rows):
            s = 0
            for c, v in cols:
                s += v * vec[c] if v != 1 else vec[c]
            out[r] = s
        return out

    def to_dense(self, dtype=float) -> np.ndarray:
        m = np.zeros((self.dimension, self.dimension), dtype=dtype)
        for (r, c), v in self.entries.items():
            m[r, c] = v
        return m


def dumps_matrix(matrix: SparseIntMatrix) -> str:
    """Coordinate text export: one ``row col value`` line, 1-based, sorted."""
    return "\n".join(f"{r + 1} {c + 1} {v}" for r, c, v in matrix.sorted_entries())


# ---------------------------------------------------------------------------
# dimensions and bases
# ---------------------------------------------------------------------------


def _finite_size(model: ModelSpec) -> int:
    """Number of sites of a lattice that has a blockade basis.

    The infinite chain has none, and rings whose blockade range covers the
    whole ring are rejected rather than silently reduced.
    """
    if model.topology == "infinite":
        raise ValueError("infinite chain has no finite basis")
    L, lam = model.size, model.blockade_range
    if model.topology == "ring" and lam >= L:
        raise ValueError(
            f"blockade range {lam} covers the whole ring of {L} sites; "
            "only the all-ground and single-excitation states survive"
        )
    return L


def blockade_dimension(model: ModelSpec) -> int:
    """Dimension of the blockade subspace, by exact integer recursion.

    Open chains satisfy d(L) = d(L-1) + d(L-(lam+1)) (a ground site, or an
    excited site forcing lam ground sites before it).  Rings are counted by
    the trace of the transfer matrix over the lam-site sliding window, whose
    states are 'window empty' or 'single excitation, aged p steps'.
    """
    L = _finite_size(model)
    lam = model.blockade_range
    if model.topology == "line":
        d = {i: 1 for i in range(-lam, 1)}
        for i in range(1, L + 1):
            d[i] = d[i - 1] + d[i - lam - 1]
        return d[L]
    dim_t = lam + 1
    T = [[0] * dim_t for _ in range(dim_t)]
    # state 0: window empty; state p in 1..lam: one excitation seen p-1 steps ago
    T[0][0] = 1
    T[1][0] = 1
    for p in range(1, lam):
        T[p + 1][p] = 1
    T[0][lam] = 1

    def matmul(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(dim_t)) for j in range(dim_t)]
            for i in range(dim_t)
        ]

    P = [[int(i == j) for j in range(dim_t)] for i in range(dim_t)]
    Q = T
    n = L
    while n:
        if n & 1:
            P = matmul(P, Q)
        Q = matmul(Q, Q)
        n >>= 1
    return sum(P[i][i] for i in range(dim_t))


@dataclass
class BlockadeBasis:
    """Ordered basis of the blockade subspace with its inverse lookup."""

    model: ModelSpec
    states: tuple
    index: dict

    @property
    def dimension(self) -> int:
        return len(self.states)

    def state_string(self, occupation: int) -> str:
        L = self.model.size
        return "".join("1" if occupation >> k & 1 else "0" for k in range(L))


def _recursion_states_line_nn(L: int) -> list[int]:
    """Open-chain nearest-neighbour basis in the recursive order: the L-site
    list is the (L-1)-site list (site L ground) followed by the (L-2)-site
    list with sites L-1, L in the ground-excited pair."""
    if L == 1:
        return [0, 1]
    prev, cur = [0, 1], [0, 1, 2]  # L = 1, 2
    if L == 2:
        return cur
    for n in range(3, L + 1):
        nxt = list(cur) + [s | (1 << (n - 1)) for s in prev]
        prev, cur = cur, nxt
    return cur


def _admissible_mask(L: int, lam: int, cyclic: bool) -> np.ndarray:
    """Boolean mask over all 2^L occupations satisfying the blockade."""
    x = np.arange(1 << L, dtype=np.int64)
    ok = np.ones(x.shape, dtype=bool)
    for d in range(1, lam + 1):
        if d >= L:
            break
        shifted = x >> d
        if cyclic:
            shifted = shifted | ((x << (L - d)) & ((1 << L) - 1))
        ok &= (x & shifted) == 0
    return ok


def build_basis(model: ModelSpec) -> BlockadeBasis:
    """Construct the blockade basis for a finite lattice.

    Open chains with nearest-neighbour blockade use the recursive ordering
    (all-ground state first, dimension Fibonacci); every other case
    enumerates admissible bitsets in ascending order, which also puts the
    all-ground state first.  The lattice domain is checked by `_finite_size`.
    """
    L = _finite_size(model)
    lam = model.blockade_range
    if model.topology == "line" and lam == 1:
        states = tuple(_recursion_states_line_nn(L))
    else:
        if L > _ENUMERATION_LIMIT:
            raise ValueError(
                f"bitset enumeration capped at {_ENUMERATION_LIMIT} sites (asked {L})"
            )
        mask = _admissible_mask(L, lam, cyclic=model.topology == "ring")
        states = tuple(int(s) for s in np.nonzero(mask)[0])
    index = {s: i for i, s in enumerate(states)}
    return BlockadeBasis(model=model, states=states, index=index)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def _neighborhood_masks(model: ModelSpec) -> list[int]:
    """Bit mask of the blockade neighbourhood of each site k = 1..L."""
    return [
        sum(1 << (j - 1) for j in model.neighborhood(k))
        for k in range(1, model.size + 1)
    ]


def _check_basis(model: ModelSpec, basis: BlockadeBasis) -> None:
    if basis.model != model:
        raise ValueError(f"basis built for {basis.model}, asked about {model}")


def hamiltonian_matrix(model: ModelSpec, basis: BlockadeBasis) -> SparseIntMatrix:
    """Matrix of the blockaded drive in the given basis.

    The element between two states is 1 exactly when they differ by a single
    flip whose blockade neighbourhood is unexcited; the matrix is symmetric
    with 0/1 entries.  For open nearest-neighbour chains the result is also
    rebuilt through the block recursion and the two constructions must agree
    entry for entry.
    """
    _check_basis(model, basis)
    masks = _neighborhood_masks(model)
    entries: dict = {}
    for i, s in enumerate(basis.states):
        for k in range(model.size):
            if s >> k & 1:
                continue  # count each edge once, from the less-excited state
            if s & masks[k]:
                continue
            t = s | (1 << k)
            j = basis.index.get(t)
            if j is None:
                continue
            entries[(i, j)] = 1
            entries[(j, i)] = 1
    out = SparseIntMatrix(basis.dimension, entries)
    if model.topology == "line" and model.blockade_range == 1:
        if out != drive_matrix_recursive(model.size):
            raise AssertionError(
                "bit-flip and recursive drive constructions disagree "
                f"for an open chain of {model.size} sites"
            )
    return out


def drive_matrix_recursive(L: int) -> SparseIntMatrix:
    """Drive matrix of the open nearest-neighbour chain via the block
    recursion: the L-site matrix couples the (L-1)-site block to the
    (L-2)-site block by an identity pinned to the states whose last site was
    already ground."""
    dims = {0: 1, 1: 2, 2: 3}
    for n in range(3, L + 1):
        dims[n] = dims[n - 1] + dims[n - 2]
    h1 = {(0, 1): 1, (1, 0): 1}
    h2 = {(0, 1): 1, (1, 0): 1, (0, 2): 1, (2, 0): 1}
    if L == 1:
        return SparseIntMatrix(2, h1)
    cur, prev = h2, h1
    if L == 2:
        return SparseIntMatrix(3, h2)
    for n in range(3, L + 1):
        top = dims[n - 1]
        nxt = dict(cur)
        for (r, c), v in prev.items():
            nxt[(top + r, top + c)] = v
        for i in range(dims[n - 2]):
            nxt[(i, top + i)] = 1
            nxt[(top + i, i)] = 1
        prev, cur = cur, nxt
    return SparseIntMatrix(dims[L], cur)


def total_number_matrix_recursive(L: int) -> SparseIntMatrix:
    """Total excitation counter of the open nearest-neighbour chain via the
    block recursion (the appended pair of the second block adds one)."""
    dims = {0: 1, 1: 2, 2: 3}
    for n in range(3, L + 1):
        dims[n] = dims[n - 1] + dims[n - 2]
    n1 = {(1, 1): 1}
    n2 = {(1, 1): 1, (2, 2): 1}
    if L == 1:
        return SparseIntMatrix(2, n1)
    cur, prev = n2, n1
    if L == 2:
        return SparseIntMatrix(3, n2)
    for n in range(3, L + 1):
        top = dims[n - 1]
        nxt = dict(cur)
        for i in range(dims[n - 2]):
            nxt[(top + i, top + i)] = prev.get((i, i), 0) + 1
        prev, cur = cur, nxt
    return SparseIntMatrix(dims[L], cur)


def _apply_word(word: Word, occupation: int) -> int | None:
    """Image occupation of a basis state under a word, or None if annihilated.

    Letters act site by site: n needs an excitation, m needs ground, the
    lowering letter clears an excitation, the raising letter creates one."""
    s = occupation
    for site, letter in word:
        bit = 1 << (site - 1)
        occupied = s & bit
        if letter is NUM:
            if not occupied:
                return None
        elif letter is PROJ:
            if occupied:
                return None
        elif letter is LOWER:
            if not occupied:
                return None
            s ^= bit
        elif letter is RAISE:
            if occupied:
                return None
            s |= bit
    return s


def observable_matrix(
    model: ModelSpec, basis: BlockadeBasis, obs: ObservableSpec
) -> SparseIntMatrix:
    """Matrix of an observable restricted to the blockade subspace.

    The per-site density observable is represented by the *total* counter
    (consumers divide by L); local and pair counters are diagonal indicators;
    a general word maps basis states to basis states or annihilates them, and
    images that leave the subspace are projected to zero rather than flagged.
    For open nearest-neighbour chains the total counter is cross-checked
    against its block recursion.
    """
    _check_basis(model, basis)
    dim = basis.dimension
    if obs.kind == "density":
        out = SparseIntMatrix(
            dim, {(i, i): bin(s).count("1") for i, s in enumerate(basis.states)}
        )
        if model.topology == "line" and model.blockade_range == 1:
            if out != total_number_matrix_recursive(model.size):
                raise AssertionError(
                    "bit-count and recursive total-counter constructions disagree "
                    f"for an open chain of {model.size} sites"
                )
        return out
    if obs.kind == "local_number":
        k = model.canonical_site(obs.site)
        if not model.contains_site(k):
            raise ValueError(f"site {k} outside the lattice")
        bit = 1 << (k - 1)
        return SparseIntMatrix(
            dim, {(i, i): 1 for i, s in enumerate(basis.states) if s & bit}
        )
    if obs.kind == "correlation":
        k = correlation_base_site(obs, model)
        a = model.canonical_site(k)
        b = model.canonical_site(k + obs.distance)
        bits = (1 << (a - 1)) | (1 << (b - 1))
        return SparseIntMatrix(
            dim,
            {(i, i): 1 for i, s in enumerate(basis.states) if (s & bits) == bits},
        )
    if obs.kind == "word":
        w = fold_word(obs.word, model)
        entries: dict = {}
        if w is not None:
            for i, s in enumerate(basis.states):
                img = _apply_word(w, s)
                if img is None:
                    continue
                j = basis.index.get(img)
                if j is None:
                    continue  # image outside the subspace: projected away
                entries[(j, i)] = entries.get((j, i), 0) + 1
        return SparseIntMatrix(dim, entries)
    raise ValueError(f"unknown observable kind {obs.kind!r}")


def parity_matrix(basis: BlockadeBasis) -> SparseIntMatrix:
    """Diagonal excitation-number parity, (-1)^(number of excited sites)."""
    return SparseIntMatrix(
        basis.dimension,
        {
            (i, i): -1 if bin(s).count("1") % 2 else 1
            for i, s in enumerate(basis.states)
        },
    )


def cyclic_shift_permutation(basis: BlockadeBasis) -> list[int]:
    """Index permutation induced by shifting every site of a ring by one."""
    model = basis.model
    if model.topology != "ring":
        raise ValueError("cyclic shifts need a ring")
    L = model.size
    mask = (1 << L) - 1
    out = []
    for s in basis.states:
        shifted = ((s << 1) | (s >> (L - 1))) & mask
        out.append(basis.index[shifted])
    return out
