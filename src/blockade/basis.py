"""Blockade-constrained occupation basis and exact integer matrices.

With a hard blockade of range lam, the drive never leaves the subspace of
occupation states in which no two excited sites sit within lam lattice
spacings of each other (cyclically on a ring).  The enumeration and the
drive see the lattice only through its table of neighbourhood masks
(`ModelSpec.neighborhood_masks`).  Admissible bitsets are grown site by
site: the new site n is ground, or excited when its neighbours already
placed (the bits below n of ``masks[n]``) are ground.  On a ring the
neighbours across the seam are among those placed when the last sites
arrive.  Building a basis costs memory in proportion to its dimension.  On
an open chain with nearest-neighbour blockade the subspace is
Fibonacci-dimensional and carries a natural recursive ordering: the basis
of L sites is the basis of L-1 sites with a ground site appended, followed
by the basis of L-2 sites with a ground-excited pair appended.  Ascending
order is that recursive order (every state of the second block sets the
top bit), so one enumerator serves every lattice.  The drive and the
total-excitation counter then inherit block recursions, which this module
implements alongside a generic bit-flip construction.

The vacuum is invariant under the lattice symmetries (site reflection on a
line, reflections and rotations on a ring), and so is every power of the
drive applied to it.  `orbit_sector` groups the basis states into orbits
under that group and writes the drive and an observable in the basis of
unnormalised orbit sums, where both stay exact integer matrices; the
integer Taylor oracle and the exact evolution of `blockade.dynamics` run
there.  One builder, `_OrbitSector`, writes both matrices for any grouping:
the full space is the sector of the trivial group, in which every state is
its own orbit, so `hamiltonian_matrix` and `observable_matrix` are its
singleton case and share its drive loop, its observable pass and its
integer symmetry check.  A second walk, `_cyclic_walk`, groups the states
under the cyclic group of one site permutation (the rotation by one site
on a ring, the reflection on a line) and records where in its orbit each
state sits; `dynamics.spectral_checks` builds its Bloch blocks from it.

States are stored as occupation bitsets (bit k-1 set means site k excited,
so the printed string for the integer 5 on four sites is 1010).  Operator
words use the packed form of `blockade.words` in the same bit convention:
``(S, O, I)``, the support and the out- and in-occupations of its letters,
takes a state ``s`` with ``s & S == I`` to ``s & ~S | O``.  All matrices
are exact integer sparse matrices; densify only when a consumer needs floats.
Bases and matrices are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .series import ObservableSpec, _observable_word
from .words import ModelSpec, fold_word

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
    "orbit_sector",
    "dumps_matrix",
]

_ENUMERATION_LIMIT = 26  # cap on the enumerated lattices


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
    """Number of sites of a lattice that has a blockade basis (the infinite
    chain has none; `ModelSpec` has already refused a covered ring)."""
    if model.topology == "infinite":
        raise ValueError("infinite chain has no finite basis")
    return model.size


def blockade_dimension(model: ModelSpec) -> int:
    """Dimension of the blockade subspace, by one power of a transfer matrix.

    Sites are read one at a time through a lam-site sliding window whose
    states are 'window empty' or 'single excitation, aged p steps'; an
    excitation may only enter an empty window.  A ring counts the closed
    walks of L steps (the trace), a line the walks of L steps that start from
    the empty window (that column's sum).
    """
    L = _finite_size(model)
    lam = model.blockade_range
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
    if model.topology == "ring":
        return sum(P[i][i] for i in range(dim_t))
    return sum(row[0] for row in P)


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


def _admissible_states(masks: tuple[int, ...]) -> list[int]:
    """Ascending list of the bitsets over ``len(masks)`` sites in which no
    excited site has an excited neighbour, ``masks[n]`` being the
    neighbourhood of bit n.

    Sites are added one at a time: the states of n+1 sites are those of n
    sites with the new site ground, followed by those with the new site
    excited whose neighbours already placed are ground.  A state of n sites
    sets no bit from n up, so ``s & masks[n]`` reads exactly those
    neighbours.  Every pair of neighbours is checked once, when the later of
    the two is placed, so on a ring the pairs across the seam are checked as
    the last sites arrive.  Both halves keep ascending order, so memory
    stays proportional to the dimension."""
    states = [0]
    for n, m in enumerate(masks):
        states += [s | 1 << n for s in states if not s & m]
    return states


def build_basis(model: ModelSpec) -> BlockadeBasis:
    """Construct the blockade basis for a finite lattice.

    Admissible bitsets are enumerated in ascending order, which puts the
    all-ground state first and, on open nearest-neighbour chains, is the
    recursive ordering.  The infinite chain and lattices past the
    enumeration cap are refused before anything is built.
    """
    L = _finite_size(model)
    if L > _ENUMERATION_LIMIT:
        raise ValueError(f"bitset enumeration capped at {_ENUMERATION_LIMIT} sites (asked {L})")
    states = tuple(_admissible_states(model.neighborhood_masks))
    index = {s: i for i, s in enumerate(states)}
    return BlockadeBasis(model=model, states=states, index=index)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def _flip_neighbours(s: int, masks: list[int]) -> list[int]:
    """States one drive flip away from ``s``: any excitation lowered, or any
    ground site raised whose blockade neighbourhood is unexcited."""
    return [s ^ 1 << k for k, m in enumerate(masks) if s >> k & 1 or not s & m]


@dataclass(frozen=True)
class _OrbitSector:
    """The basis states of one lattice grouped into orbits, and the integer
    drive and observables on the unnormalised orbit sums (see
    `orbit_sector`).  The full space is the sector of the trivial group:
    every state is its own orbit, numbered by `BlockadeBasis.index`."""

    basis: BlockadeBasis
    orbit_of: dict  # state -> orbit number
    firsts: tuple  # the first state of each orbit, in basis order
    sizes: list  # n_r, the number of states in orbit r
    # cyclic groups only (`_cyclic_walk`): the group order m, and for each
    # state the power l with state = g^l(first state of its orbit)
    order: int | None = None
    power: dict | None = None

    def drive(self) -> SparseIntMatrix:
        """A(r', r), the drive neighbours that the first state of orbit r'
        has in orbit r, checked in integers for n_r' A(r', r) = n_r A(r, r')."""
        masks, orbit_of, sizes = self.basis.model.neighborhood_masks, self.orbit_of, self.sizes
        drive: dict = {}
        for r, s in enumerate(self.firsts):
            for t in _flip_neighbours(s, masks):
                key = (r, orbit_of[t])
                drive[key] = drive.get(key, 0) + 1
        for (r, c), v in drive.items():
            if sizes[r] * v != sizes[c] * drive.get((c, r), 0):
                raise ValueError(
                    f"drive of {self.basis.model} is not symmetric between orbits {r} and {c}"
                )
        return SparseIntMatrix(len(sizes), drive)

    def bloch_edges(self) -> dict:
        """(r, r', l) -> how many drive flips of the first state of orbit r
        land on g^l(first state of r'), in a sector of `_cyclic_walk`.

        Blocks built from these edges stand for the drive only if it
        commutes with g and is symmetric.  The orbit counts of `drive` do
        not see a drive that breaks g, so both are checked here, in
        integers, on every basis state: each state of orbit r, its flips
        read from its own power, has the flips of the first state of r; and
        each edge (r, r', l) comes back from r' as (r', r, -l mod n_r) as
        many times as it goes out.
        """
        model, orbit_of, power, sizes = self.basis.model, self.orbit_of, self.power, self.sizes
        masks = model.neighborhood_masks
        edges: list = []  # per orbit, the sorted (r', l) of its first state's flips
        for s in self.basis.states:  # the first state of an orbit comes first
            l = power[s]
            seen = sorted(
                (orbit_of[t], (power[t] - l) % sizes[orbit_of[t]])
                for t in _flip_neighbours(s, masks)
            )
            if not l:
                edges.append(seen)
            elif seen != edges[orbit_of[s]]:
                raise ValueError(
                    f"drive of {model} is not symmetric under its lattice permutation "
                    f"at state {self.basis.state_string(s)}"
                )
        counts: dict = {}
        for r, seen in enumerate(edges):
            for c, l in seen:
                counts[r, c, l] = counts.get((r, c, l), 0) + 1
        for (r, c, l), v in counts.items():
            if counts.get((c, r, -l % sizes[r])) != v:
                raise ValueError(f"drive of {model} is not symmetric between orbits {r} and {c}")
        return counts

    def observable(self, obs: ObservableSpec) -> SparseIntMatrix:
        """O(r', r), the full-space entries of ``obs`` summed over each pair
        of orbits, in one pass over the basis states.

        The density is the total counter, diagonal.  Every other observable
        is placed as a word by the same rule as the series and packed by
        `words.fold_word` into ``(S, O, I)``: it takes a basis state ``s``
        with ``s & S == I`` to ``s & ~S | O`` and annihilates the rest, and
        images that leave the subspace are projected to zero rather than
        flagged.
        """
        model, orbit_of = self.basis.model, self.orbit_of
        sums: dict = {}
        if obs.kind == "density":
            for s in self.basis.states:
                key = (orbit_of[s],) * 2
                sums[key] = sums.get(key, 0) + bin(s).count("1")
            return SparseIntMatrix(len(self.sizes), sums)
        packed = fold_word(_observable_word(obs, model), model)
        if packed is not None:
            S, O, I = packed
            for s in self.basis.states:
                if s & S == I:
                    r = orbit_of.get(s & ~S | O)
                    if r is not None:  # None: image outside the subspace, projected away
                        key = (r, orbit_of[s])
                        sums[key] = sums.get(key, 0) + 1
        return SparseIntMatrix(len(self.sizes), sums)


def _singletons(model: ModelSpec, basis: BlockadeBasis) -> _OrbitSector:
    """The full space of ``model`` as the orbit sector of the trivial group."""
    if basis.model != model:
        raise ValueError(f"basis built for {basis.model}, asked about {model}")
    return _OrbitSector(basis, basis.index, basis.states, [1] * basis.dimension)


def hamiltonian_matrix(model: ModelSpec, basis: BlockadeBasis) -> SparseIntMatrix:
    """Matrix of the blockaded drive in the given basis.

    The element between two states is 1 exactly when they differ by a single
    flip whose blockade neighbourhood is unexcited; the matrix is symmetric
    with 0/1 entries.  It is the drive of `_OrbitSector` on singleton
    orbits, so the same integer symmetry check runs.  For open
    nearest-neighbour chains acceptance check C8 compares it entry for entry
    with the block recursion.
    """
    return _singletons(model, basis).drive()


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


def observable_matrix(
    model: ModelSpec, basis: BlockadeBasis, obs: ObservableSpec
) -> SparseIntMatrix:
    """Matrix of an observable restricted to the blockade subspace: the
    observable of `_OrbitSector` on singleton orbits.

    The per-site density observable is represented by the *total* counter
    (consumers divide by L).  For open nearest-neighbour chains acceptance
    check C8 compares it with its block recursion.
    """
    return _singletons(model, basis).observable(obs)


def parity_matrix(basis: BlockadeBasis) -> SparseIntMatrix:
    """Diagonal excitation-number parity, (-1)^(number of excited sites)."""
    return SparseIntMatrix(
        basis.dimension,
        {
            (i, i): -1 if bin(s).count("1") % 2 else 1
            for i, s in enumerate(basis.states)
        },
    )


# ---------------------------------------------------------------------------
# lattice-symmetry orbit sums
# ---------------------------------------------------------------------------


def _orbit(occupation: int, model: ModelSpec) -> set[int]:
    """Images of a state under the lattice symmetries: site reflection on a
    line, reflections and rotations on a ring."""
    L = model.size
    images = {occupation, int(f"{occupation:0{L}b}"[::-1], 2)}
    if model.topology == "ring":
        mask = (1 << L) - 1
        images = {(s << d | s >> (L - d)) & mask for s in images for d in range(L)}
    return images


def _orbit_walk(model: ModelSpec) -> _OrbitSector:
    """The orbits of `orbit_sector`.  Orbit r is numbered by its first state
    in basis order, so the vacuum is orbit 0 and alone in it."""
    basis = build_basis(model)
    orbit_of: dict = {}
    firsts, sizes = [], []
    for s in basis.states:
        if s not in orbit_of:
            members = _orbit(s, model)
            for t in members:
                orbit_of[t] = len(firsts)
            firsts.append(s)
            sizes.append(len(members))
    return _OrbitSector(basis, orbit_of, tuple(firsts), sizes)


def _generator(model: ModelSpec) -> tuple[tuple[int, ...], int]:
    """The site permutation g (bit k goes to bit g[k]) that generates the
    cyclic symmetry group of `_cyclic_walk`, and its order m: the rotation
    by one site on a ring (m = L), the site reflection on a line (m = 2)."""
    L = model.size
    if model.topology == "ring":
        return tuple((k + 1) % L for k in range(L)), L
    return tuple(L - 1 - k for k in range(L)), 2


def _cyclic_walk(model: ModelSpec) -> _OrbitSector:
    """The basis states grouped into orbits of the cyclic group generated by
    one site permutation g (`_generator`), in one walk of the basis.  Each
    orbit is numbered by its first state in basis order, so the vacuum is
    orbit 0 and alone in it, and each state records the power l with
    state = g^l(first state of its orbit), 0 <= l < n_r.  The orbits of
    each character of g give `dynamics.spectral_checks` its Bloch blocks."""
    basis = build_basis(model)
    perm, order = _generator(model)
    orbit_of: dict = {}
    power: dict = {}
    firsts, sizes = [], []
    for s in basis.states:
        if s in orbit_of:
            continue
        t, l = s, 0
        while t not in orbit_of:  # until g^l(s) is s again
            orbit_of[t], power[t] = len(firsts), l
            t, l = sum(1 << g for k, g in enumerate(perm) if t >> k & 1), l + 1
        firsts.append(s)
        sizes.append(l)
    return _OrbitSector(basis, orbit_of, tuple(firsts), sizes, order, power)


def orbit_sector(
    model: ModelSpec, obs: ObservableSpec
) -> tuple[SparseIntMatrix, SparseIntMatrix]:
    """Drive and observable in the basis of unnormalised orbit sums.

    The basis states split into orbits of the lattice-symmetry group; orbit
    r, numbered by its first state in basis order (the vacuum is orbit 0),
    carries the sum |r> of its n_r members.  A group-invariant vector, such
    as any power of the drive applied to the vacuum, is sum_r c_r |r> with
    c_r its amplitude on each member of r.  The drive acts on the integer
    coefficients c through the matrix A whose entry (r', r) counts the drive
    neighbours that the first state of orbit r' has in orbit r.  Any
    observable O, symmetric or not, enters invariant vectors u and v as
    <u|O|v> = sum c_u(r') O(r', r) c_v(r), where O(r', r) sums the full-space
    entries of `observable_matrix` over the pair of orbits.  Both matrices
    are exact integer matrices.

    A symmetric drive joins orbits r' and r by as many edges seen from
    either side, n_r' A(r', r) = n_r A(r, r').  The oracle's bra H^m e0
    relies on that symmetry, and so does `np.linalg.eigh`, which
    `dynamics.evolve` runs on the normalised sector drive
    A(r', r) sqrt(n_r' / n_r) (amplitudes c_r sqrt(n_r)), so the drive
    builder checks it in integers and raises a `ValueError` when it fails.
    Nothing is cached: the basis of a large oracle lattice is freed on
    return.
    """
    sector = _orbit_walk(model)
    return sector.drive(), sector.observable(obs)
