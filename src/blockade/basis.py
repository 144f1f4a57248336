"""Blockade-constrained occupation basis and exact integer matrices.

With a hard blockade of range lam, the drive never leaves the subspace of
occupation states in which no two excited sites sit within lam lattice
spacings of each other (cyclically on a ring).  The enumeration and the
drive see the lattice only through its table of neighbourhood masks
(`ModelSpec.neighborhood_masks`).  Admissible bitsets are grown site by
site, as one sorted ``int64`` array: the new site n is ground, or excited
when its neighbours already placed (the bits below n of ``masks[n]``) are
ground.  On a ring the neighbours across the seam are among those placed
when the last sites arrive.  Building a basis costs memory in proportion to
its dimension.  On an open chain with nearest-neighbour blockade the
subspace is Fibonacci-dimensional and carries a natural recursive ordering:
the basis of L sites is the basis of L-1 sites with a ground site appended,
followed by the basis of L-2 sites with a ground-excited pair appended.
Ascending order is that recursive order (every state of the second block
sets the top bit), so one enumerator serves every lattice.  The drive and
the total-excitation counter then inherit block recursions, which this
module implements alongside a generic bit-flip construction.

The vacuum is invariant under the lattice symmetries (site reflection on a
line, reflections and rotations on a ring), and so is every power of the
drive applied to it.  `orbit_sector` groups the basis states into orbits
under that group and writes the drive and an observable in the basis of
unnormalised orbit sums, where both stay exact integer matrices; the
integer Taylor oracle and the exact evolution of `blockade.dynamics` run
there.  One array builder, `_sector`, serves three groups: the trivial
group (the full space, so `hamiltonian_matrix` and `observable_matrix` are
its singleton case), the cyclic group of one site permutation g (the Bloch
blocks of `dynamics.spectral_checks`) and the whole lattice group.  Each
state's least image, taken by array shifts and bit reversals, is the first
state of its orbit.  Every builder reads the drive's flips from one array
rule, `_flips`, and checks in integers on every state that they commute
with the group, and that the orbit drive is symmetric.  Every reader of an
orbit's excitation number takes it from `_OrbitSector.ones`.

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
        return _matvec(self._rows, vec)

    def to_dense(self, dtype=float) -> np.ndarray:
        m = np.zeros((self.dimension, self.dimension), dtype=dtype)
        for (r, c), v in self.entries.items():
            m[r, c] = v
        return m


def _matvec(rows: list, vec: list[int]) -> list[int]:
    """Exact product of ``vec`` with the rows, lists of (column, value)."""
    out = []
    for cols in rows:
        s = 0
        for c, v in cols:
            s += v * vec[c] if v != 1 else vec[c]
        out.append(s)
    return out


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
    T = np.zeros((lam + 1, lam + 1), dtype=object)  # exact Python integers
    # state 0: window empty; state p in 1..lam: one excitation seen p-1 steps ago
    T[0, 0] = T[1, 0] = T[0, lam] = 1
    for p in range(1, lam):
        T[p + 1, p] = 1
    P = np.linalg.matrix_power(T, L)
    return int(np.trace(P) if model.topology == "ring" else P[:, 0].sum())


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


def _admissible_states(model: ModelSpec) -> np.ndarray:
    """Ascending ``int64`` array of the bitsets over the sites of a finite
    lattice in which no excited site has an excited neighbour, ``masks[n]``
    (`ModelSpec.neighborhood_masks`) being the neighbourhood of bit n.  The
    infinite chain and lattices past the enumeration cap are refused before
    anything is built.

    Sites are added one at a time: the states of n+1 sites are those of n
    sites with the new site ground, followed by those with the new site
    excited whose neighbours already placed are ground.  A state of n sites
    sets no bit from n up, so ``s & masks[n]`` reads exactly those
    neighbours.  Every pair of neighbours is checked once, when the later of
    the two is placed, so on a ring the pairs across the seam are checked as
    the last sites arrive.  Both halves keep ascending order, so memory
    stays proportional to the dimension."""
    L = _finite_size(model)
    if L > _ENUMERATION_LIMIT:
        raise ValueError(f"bitset enumeration capped at {_ENUMERATION_LIMIT} sites (asked {L})")
    states = np.zeros(1, dtype=np.int64)
    for n, m in enumerate(model.neighborhood_masks):
        states = np.concatenate((states, states[states & m == 0] | 1 << n))
    return states


def build_basis(model: ModelSpec) -> BlockadeBasis:
    """Construct the blockade basis for a finite lattice: the admissible
    bitsets in ascending order, which puts the all-ground state first and,
    on open nearest-neighbour chains, is the recursive ordering."""
    states = tuple(_admissible_states(model).tolist())
    index = {s: i for i, s in enumerate(states)}
    return BlockadeBasis(model=model, states=states, index=index)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def _flips(states: np.ndarray, masks):
    """The drive's flips out of ``states``, read by every builder: for each
    site k the pattern p = 2^k and the mask of the states that flip site k
    (an excitation is lowered; a ground site is raised when its blockade
    neighbourhood is unexcited), whose targets are those states ^ p."""
    for k, m in enumerate(masks):
        yield 1 << k, (states >> k & 1 == 1) | (states & m == 0)


def _count(distinct: np.ndarray, counts: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """How often each of ``wanted`` appears among keys counted into
    ``distinct`` (ascending, from `np.unique`) and ``counts``; 0 if never."""
    at = np.minimum(np.searchsorted(distinct, wanted), distinct.size - 1)
    return np.where(distinct[at] == wanted, counts[at], 0)


@dataclass(frozen=True)
class _OrbitSector:
    """The admissible states of one lattice in the orbits of a symmetry
    group (`_sector`), and the integer drive and observables on their
    unnormalised sums (see `orbit_sector`) as rows, columns and values."""

    model: ModelSpec
    states: np.ndarray  # the admissible states, ascending
    orbit: np.ndarray  # the orbit number of each state
    firsts: np.ndarray  # the first state of each orbit
    sizes: np.ndarray  # n_r, the number of states in orbit r
    generators: tuple  # maps of state arrays that generate the group
    order: int  # m, the order of the first generator g (1: the trivial group)
    power: np.ndarray  # cyclic groups: l with state = g^l(first state of its orbit)

    @cached_property
    def ones(self) -> np.ndarray:
        """The number of excited sites of each orbit, read from its first state."""
        return sum(self.firsts >> k & 1 for k in range(self.model.size))

    @cached_property
    def _generators_checked(self) -> bool:
        """Refuse flips that do not commute with each generator g, in
        integers on every state: s flips by p exactly when g(s) flips by
        g(p).  A state's patterns are packed into one integer, a bit each.
        Read once per sector, however many drives are built from it."""
        states, model = self.states, self.model
        slots: dict = {}  # pattern -> its bit
        flipped = np.zeros_like(states)
        for pattern, allowed in _flips(states, model.neighborhood_masks):
            flipped |= allowed.astype(np.int64) << slots.setdefault(pattern, len(slots))
        patterns = np.array(list(slots), dtype=np.int64)
        for g in self.generators:
            moved = np.zeros_like(flipped)  # g(p) for each p; a p nobody flips by: a new bit
            for slot, image in enumerate(g(patterns).tolist()):
                moved |= (flipped >> slot & 1) << slots.setdefault(image, len(slots))
            preimage = np.argsort(g(states))  # g(states[preimage[j]]) = states[j]
            bad = np.flatnonzero(moved[preimage] != flipped)
            if bad.size:
                s = f"{int(states[preimage[bad[0]]]):0{model.size}b}"[::-1]
                raise ValueError(
                    f"drive of {model} is not symmetric under its lattice permutation at state {s}"
                )
        return True

    def _edges(self, m: int) -> np.ndarray:
        """The flips out of the first state of each orbit r, in order, as keys
        (r n + r') m + l: r' the target's orbit, l mod m its power."""
        self._generators_checked  # the every-state check, once per sector
        rows, targets = [], []
        for pattern, allowed in _flips(self.firsts, self.model.neighborhood_masks):
            rows.append(np.flatnonzero(allowed))
            targets.append(self.firsts[allowed] ^ pattern)
        rows, targets = np.concatenate(rows), np.concatenate(targets)
        order = np.argsort(rows, kind="stable")
        rows, targets = rows[order], np.searchsorted(self.states, targets[order])
        return (rows * self.sizes.size + self.orbit[targets]) * m + self.power[targets] % m

    def _refuse(self, r: np.ndarray, c: np.ndarray, bad: np.ndarray) -> None:
        """Refuse the drive at the first of the ``bad`` edges from r to c."""
        if bad.size:
            raise ValueError(
                f"drive of {self.model} is not symmetric between orbits {r[bad[0]]} and {c[bad[0]]}"
            )

    def drive(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A(r', r), the drive neighbours that the first state of orbit r'
        has in orbit r, in order of first appearance.  Checked in integers:
        the flips commute with the group, and n_r' A(r', r) = n_r A(r, r')."""
        n, sizes = self.sizes.size, self.sizes
        keys, first, counts = np.unique(self._edges(1), return_index=True, return_counts=True)
        (r, c), order = np.divmod(keys, n), np.argsort(first)
        mirrored = sizes[c] * _count(keys, counts, c * n + r)
        self._refuse(r, c, order[(sizes[r] * counts != mirrored)[order]])
        return r[order], c[order], counts[order]

    def bloch_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(r, r', l, count), ascending: how many flips of the first state of
        orbit r land on g^l(first state of r'), in the cyclic group of g.
        Their Bloch blocks stand for the drive only if it commutes with g
        and each edge (r, r', l) comes back as (r', r, -l mod n_r) as often."""
        n, m = self.sizes.size, self.order
        keys, counts = np.unique(self._edges(m), return_counts=True)
        (r, c), l = np.divmod(keys // m, n), keys % m
        back = _count(keys, counts, (c * n + r) * m + -l % self.sizes[r])
        self._refuse(r, c, np.flatnonzero(counts != back))
        return r, c, l, counts

    def observable(self, obs: ObservableSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """O(r', r), the full-space entries of ``obs`` summed over each pair
        of orbits, the non-zero ones in order of first appearance.  The
        density is the total counter, n_r times its value on the first state
        of orbit r.  Any other observable is placed as a word by the rule of
        the series and packed by `words.fold_word` into ``(S, O, I)``; images
        that leave the subspace are projected to zero rather than flagged."""
        n, states = self.sizes.size, self.states
        if obs.kind == "density":
            r = np.flatnonzero(self.ones)
            return r, r, self.sizes[r] * self.ones[r]
        packed = fold_word(_observable_word(obs, self.model), self.model)
        if packed is None:
            return (np.zeros(0, dtype=np.int64),) * 3
        S, O, I = packed
        sources = np.flatnonzero(states & S == I)
        images = states[sources] & ~S | O
        at = np.minimum(np.searchsorted(states, images), states.size - 1)
        inside = states[at] == images  # the rest leave the subspace: projected away
        keys = self.orbit[at[inside]] * n + self.orbit[sources[inside]]
        keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
        order = np.argsort(first)
        return *np.divmod(keys[order], n), counts[order]


def _matrix(sector: _OrbitSector, entries: tuple) -> SparseIntMatrix:
    """The matrix on the orbits of ``sector`` with these rows, columns, values."""
    rows, cols, values = (a.tolist() for a in entries)
    return SparseIntMatrix(sector.sizes.size, dict(zip(zip(rows, cols), values)))


def hamiltonian_matrix(model: ModelSpec, basis: BlockadeBasis) -> SparseIntMatrix:
    """Matrix of the blockaded drive in the given basis.

    The element between two states is 1 exactly when they differ by a single
    flip whose blockade neighbourhood is unexcited; the matrix is symmetric
    with 0/1 entries.  It is the drive of `_OrbitSector` on singleton
    orbits, so the same integer symmetry check runs.  For open
    nearest-neighbour chains acceptance check C8 compares it entry for entry
    with the block recursion.
    """
    sector = _sector(model, "trivial", basis)
    return _matrix(sector, sector.drive())


def drive_matrix_recursive(L: int) -> SparseIntMatrix:
    """Drive matrix of the open nearest-neighbour chain via the block
    recursion from the 0- and 1-site chains: the n-site matrix couples the
    (n-1)-site block to the (n-2)-site block by an identity pinned to the
    states whose last site was already ground."""
    if L < 0:
        raise ValueError(f"a chain has at least 0 sites, not {L}")
    chains = [(1, {}), (2, {(0, 1): 1, (1, 0): 1})]  # (dimension, entries)
    for _ in range(L - 1):
        (low, prev), (top, cur) = chains
        nxt = dict(cur)
        for (r, c), v in prev.items():
            nxt[(top + r, top + c)] = v
        for i in range(low):
            nxt[(i, top + i)] = 1
            nxt[(top + i, i)] = 1
        chains = [(top, cur), (top + low, nxt)]
    return SparseIntMatrix(*chains[min(L, 1)])


def total_number_matrix_recursive(L: int) -> SparseIntMatrix:
    """Total excitation counter of the open nearest-neighbour chain via the
    block recursion from the 0- and 1-site chains (the appended pair of the
    second block adds one)."""
    if L < 0:
        raise ValueError(f"a chain has at least 0 sites, not {L}")
    chains = [(1, {}), (2, {(1, 1): 1})]  # (dimension, entries)
    for _ in range(L - 1):
        (low, prev), (top, cur) = chains
        nxt = dict(cur)
        for i in range(low):
            nxt[(top + i, top + i)] = prev.get((i, i), 0) + 1
        chains = [(top, cur), (top + low, nxt)]
    return SparseIntMatrix(*chains[min(L, 1)])


def observable_matrix(
    model: ModelSpec, basis: BlockadeBasis, obs: ObservableSpec
) -> SparseIntMatrix:
    """Matrix of an observable restricted to the blockade subspace: the
    observable of `_OrbitSector` on singleton orbits.

    The per-site density observable is represented by the *total* counter
    (consumers scale it by `series.observable_scale`).  For open
    nearest-neighbour chains acceptance check C8 compares it with its block
    recursion.
    """
    sector = _sector(model, "trivial", basis)
    return _matrix(sector, sector.observable(obs))


def parity_matrix(basis: BlockadeBasis) -> SparseIntMatrix:
    """Diagonal excitation-number parity, (-1)^(number of excited sites)."""
    sector = _sector(basis.model, "trivial", basis)
    i = np.arange(sector.sizes.size)
    return _matrix(sector, (i, i, 1 - 2 * (sector.ones & 1)))


# ---------------------------------------------------------------------------
# lattice-symmetry orbit sums
# ---------------------------------------------------------------------------


def _symmetries(model: ModelSpec) -> list[tuple]:
    """The site permutations that generate the lattice symmetry group, as
    maps of state arrays with their orders: the rotation by one site (order
    L) and the reflection on a ring, the reflection (order 2) on a line."""
    L = model.size

    def rotate(states):  # bit k to bit k + 1 (mod L)
        return (states << 1 | states >> (L - 1)) & ((1 << L) - 1)

    def reflect(states):  # bit k to bit L - 1 - k, one bit at a time
        out = np.zeros_like(states)
        for k in range(L):
            out |= (states >> k & 1) << (L - 1 - k)
        return out

    return [(rotate, L), (reflect, 2)] if model.topology == "ring" else [(reflect, 2)]


def _sector(model: ModelSpec, group: str, basis: BlockadeBasis | None = None) -> _OrbitSector:
    """The admissible states of ``model`` (those of ``basis`` if given) in
    the orbits of the ``"trivial"`` group (the full space), the ``"cyclic"``
    group of g, the first of `_symmetries`, or the whole ``"lattice"`` group.
    Every element is g^d h^e, h the reflection of a ring, so array shifts of
    each state and of its bit reversal reach its least image, the first state
    of its orbit, by which `np.unique` numbers the orbits.  In a cyclic group
    the first d that reaches it gives l = -d mod n_r.  Memory is O(dimension)."""
    if basis is not None and basis.model != model:
        raise ValueError(f"basis built for {basis.model}, asked about {model}")
    states = _admissible_states(model) if basis is None else np.array(basis.states, dtype=np.int64)
    generators = _symmetries(model)[: ("trivial", "cyclic", "lattice").index(group)]
    g, order = generators[0] if generators else (None, 1)
    least, first_power = states, np.zeros_like(states)
    for image in [states] + [h(states) for h, _ in generators[1:]]:
        for d in range(order):
            if d:
                image = g(image)
            smaller = image < least
            least = np.where(smaller, image, least)
            first_power[smaller] = d
    firsts, orbit, sizes = np.unique(least, return_inverse=True, return_counts=True)
    power, maps = -first_power % sizes[orbit], tuple(g for g, _ in generators)
    return _OrbitSector(model, states, orbit, firsts, sizes, maps, order, power)


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
    observable O enters invariant vectors u and v as
    <u|O|v> = sum c_u(r') O(r', r) c_v(r), where O(r', r) sums the full-space
    entries of `observable_matrix` over the pair of orbits.

    A is the drive on invariant vectors if the drive's flips commute with
    the group, and a symmetric drive has n_r' A(r', r) = n_r A(r, r').  The
    oracle's bra H^m e0 and the `np.linalg.eigh` of `dynamics.evolve` rely
    on both, so the builder checks both in integers and raises a
    `ValueError` when one fails.  Nothing is cached.
    """
    sector = _sector(model, "lattice")
    return _matrix(sector, sector.drive()), _matrix(sector, sector.observable(obs))
