"""Exact symbolic algebra of site-local operators for perfectly blockaded chains.

Every operator handled here is a rational linear combination of *words*: products
of single-site letters taken from the four-element set

    r   lowering operator  |g><r|        (annihilates an excitation)
    rd  raising operator   |r><g|
    n   excitation counter rd*r = |r><r|
    m   ground projector   1 - n = |g><g|

Each letter is a matrix unit E_{out,in} on the site's (g, r) = (0, 1) basis:
r = (0, 1), rd = (1, 0), n = (1, 1), m = (0, 0).  Letters at different sites
commute and E_{a,b} E_{c,d} = delta_{bc} E_{a,d}, which gives the full table

           r    rd   n    m
    r      0    m    r    0
    rd     n    0    0    rd
    n      0    rd   n    0
    m      r    0    0    m

so a product of two words is again a single word (or zero), never a sum.
The identity is the empty word; it is represented by the *absence* of a
letter at a site and is never stored explicitly.

Internally a word is packed into three integer bitmasks ``(S, O, I)`` over
the sites: the support, and the out- and in-bits of the letters on it.  The
product of two packed words is zero iff ``(I_x ^ O_y) & S_x & S_y`` is not,
and otherwise ``(S_x | S_y, O_x | O_y & ~S_x, I_y | I_x & ~S_y)``; a word is
made of ground projectors only iff ``O == I == 0``, and its single letters
(r, rd) are the bits of ``O ^ I``.  The public functions take and return
words as tuples of ``(site, Letter)`` pairs; each packs its input once, runs
the packed kernel and unpacks the result once.  On a finite lattice
`fold_word` packs with bit k-1 standing for site k, the convention of the
occupation bitsets in `blockade.basis`, so the basis shares this form: a
packed word takes a state ``s`` with ``s & S == I`` to ``s & ~S | O`` and
annihilates every other state.

The drive Hamiltonian with blockade range ``lam`` is ``H = sum_k H_k`` with
``H_k = (r_k + rd_k)`` flanked by ground projectors on every site within
distance ``lam`` of ``k`` (neighbours wrap around on a ring and are truncated
at the ends of an open chain).  A ring must be longer than ``lam``:
`ModelSpec` refuses one that the blockade covers, so no function here meets
such a ring.  Nested commutators ``ad^j(A) = [H, [H, ...]]`` are evaluated
exactly with integer/rational coefficients, which is what makes the
short-time Taylor data downstream exact.

On rings and the infinite chain H commutes with translations T, so
``[H, sum_k T^k w] = sum_k T^k [H, w]``.  `translation_classes` and
`commutator_classes` keep an operator ``sum_w c_w sum_k T^k w`` as the map
from one representative word per class to ``c_w``: the word shifted so its
lowest site is bit 0 (infinite chain) or its least rotation (ring).  The
per-site vacuum expectation of such an operator is the plain sum of its
coefficients over representatives, periodic words included, because every
translate has the same expectation.  On an open chain each word is its own
class.

All values are immutable; every function is pure and safe to call from
multiple threads, and results are independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import cached_property, lru_cache

__all__ = [
    "Letter",
    "LOWER",
    "RAISE",
    "NUM",
    "PROJ",
    "letter_mul",
    "make_word",
    "word_mul",
    "word_adjoint",
    "word_length",
    "single_count",
    "ModelSpec",
    "ring",
    "line",
    "infinite_chain",
    "OperatorSum",
    "single_site",
    "number_operator",
    "adjoint",
    "hamiltonian_terms",
    "commutator_H",
    "ad_power",
    "vacuum_expectation",
    "translation_classes",
    "commutator_classes",
    "class_commutator_expectation",
    "AdOrderBudgetError",
    "DEFAULT_ORDER_BUDGET",
    "dumps_operator",
]


class Letter(IntEnum):
    """The four single-site operator letters."""

    LOWER = 0  # r
    RAISE = 1  # rd
    NUM = 2    # n
    PROJ = 3   # m


LOWER = Letter.LOWER
RAISE = Letter.RAISE
NUM = Letter.NUM
PROJ = Letter.PROJ

_SYMBOL = {LOWER: "r", RAISE: "rd", NUM: "n", PROJ: "m"}

# Packed code 2*out + in of each letter (indexed by Letter), and its inverse.
_CODE = (1, 2, 3, 0)
_LETTER_OF = (PROJ, LOWER, RAISE, NUM)

_ADJOINT = {LOWER: RAISE, RAISE: LOWER, NUM: NUM, PROJ: PROJ}

_SINGLE = frozenset((LOWER, RAISE))


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------
#
# A word is a tuple of (site, Letter) pairs with strictly increasing sites;
# the empty tuple is the identity operator.  Packed, it is the triple of
# bitmasks (S, O, I) with bit b standing for site ``base + b``.

Word = tuple


def _mul(x: tuple, y: tuple) -> tuple | None:
    """Product of two packed words; ``None`` means zero."""
    Sx, Ox, Ix = x
    Sy, Oy, Iy = y
    if (Ix ^ Oy) & Sx & Sy:
        return None
    return (Sx | Sy, Ox | (Oy & ~Sx), Iy | (Ix & ~Sy))


def _pack(w: Word, base: int) -> tuple:
    """Packed form of a tuple word with distinct sites, bit 0 at site ``base``."""
    S = O = I = 0
    for s, a in w:
        bit = 1 << (s - base)
        code = _CODE[a]
        S |= bit
        if code & 2:
            O |= bit
        if code & 1:
            I |= bit
    return (S, O, I)


def _unpack(p: tuple, base: int) -> Word:
    """Tuple word of a packed word, bit 0 at site ``base``."""
    S, O, I = p
    out = []
    while S:
        low = S & -S
        b = low.bit_length() - 1
        out.append((base + b, _LETTER_OF[((O >> b) & 1) * 2 + ((I >> b) & 1)]))
        S ^= low
    return tuple(out)


def _base(*ops: "OperatorSum") -> int:
    """Lowest site carried by any word of the operators (0 if none)."""
    return min((w[0][0] for op in ops for w in op.terms if w), default=0)


def _pack_terms(op: "OperatorSum", base: int) -> dict:
    return {_pack(w, base): c for w, c in op.terms.items()}


def _unpack_terms(terms: dict, base: int) -> "OperatorSum":
    return OperatorSum({_unpack(p, base): c for p, c in terms.items()})


def letter_mul(a: Letter, b: Letter) -> Letter | None:
    """Product of two letters on the same site; ``None`` means zero."""
    p = _mul(_pack(((0, a),), 0), _pack(((0, b),), 0))
    return None if p is None else _unpack(p, 0)[0][1]


def make_word(letters: dict[int, Letter]) -> Word:
    """Build a canonical word from a site -> letter mapping."""
    return tuple(sorted(letters.items()))


def word_mul(x: Word, y: Word) -> Word | None:
    """Site-wise product of two canonical words.

    Letters at distinct sites commute, so the product is the merge of the two
    site maps with the letter product applied wherever the sites coincide.
    Returns ``None`` when any single-site product vanishes.
    """
    if not x:
        return y
    if not y:
        return x
    base = min(x[0][0], y[0][0])
    p = _mul(_pack(x, base), _pack(y, base))
    return None if p is None else _unpack(p, base)


def word_adjoint(x: Word) -> Word:
    """Hermitian adjoint: r <-> rd site by site (n and m are self-adjoint)."""
    return tuple((s, _ADJOINT[a]) for s, a in x)


def word_length(x: Word) -> int:
    """Length l(x) = last site - first site + 1; the empty word has length 0."""
    if not x:
        return 0
    return x[-1][0] - x[0][0] + 1


def single_count(x: Word) -> int:
    """Number s(x) of single letters (r or rd) in the word."""
    return sum(1 for _, a in x if a in _SINGLE)


# ---------------------------------------------------------------------------
# lattice models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Lattice topology plus blockade range.

    ``topology`` is one of ``"ring"`` (periodic, sites 1..L as residues mod L),
    ``"line"`` (open chain, sites 1..L) or ``"infinite"`` (open-ended chain,
    sites are arbitrary integers).  ``blockade_range`` is the number of lattice
    spacings covered by the blockade radius.  The Rabi frequency is fixed to 1
    throughout; rescale times by it to restore units.

    The domain is checked here and nowhere else: a ring whose blockade range
    covers it (``blockade_range >= size``) keeps only the all-ground and
    single-excitation states and is refused at construction rather than
    silently reduced, so every route built on a model, symbolic or matrix,
    sees only lattices it can treat.

    A finite lattice is described to the exact routes by `neighborhood_masks`:
    one bitmask per site, bit k-1 standing for site k.  The basis, its drive
    and orbit sums, and the symbolic drive terms all read this one table.
    """

    topology: str
    size: int | None
    blockade_range: int = 1

    def __post_init__(self):
        if self.topology not in ("ring", "line", "infinite"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if not isinstance(self.blockade_range, int) or self.blockade_range < 1:
            raise ValueError("blockade_range must be an integer >= 1")
        if self.topology == "infinite":
            if self.size is not None:
                raise ValueError("infinite chain takes no size")
        else:
            if not isinstance(self.size, int):
                raise ValueError("finite lattice needs an integer size")
            if self.topology == "ring" and self.size < 2:
                raise ValueError(f"ring needs at least 2 sites, got {self.size}")
            if self.topology == "ring" and self.blockade_range >= self.size:
                raise ValueError(
                    f"blockade range {self.blockade_range} covers the whole ring of "
                    f"{self.size} sites; only the all-ground and single-excitation "
                    "states survive"
                )
            if self.topology == "line" and self.size < 1:
                raise ValueError(f"line needs at least 1 site, got {self.size}")

    def canonical_site(self, k: int) -> int:
        """Map a site index to its canonical representative (residue 1..L on a ring)."""
        if self.topology == "ring":
            return (k - 1) % self.size + 1
        return k

    def neighborhood(self, k: int) -> tuple[int, ...]:
        """Blockade neighbourhood of site ``k``: the set of distinct sites within
        ``blockade_range`` of ``k``, excluding ``k`` itself."""
        lam = self.blockade_range
        raw = list(range(k - lam, k)) + list(range(k + 1, k + lam + 1))
        if self.topology == "ring":
            sites = {self.canonical_site(j) for j in raw}
            sites.discard(self.canonical_site(k))
            return tuple(sorted(sites))
        if self.topology == "line":
            return tuple(j for j in raw if 1 <= j <= self.size)
        return tuple(raw)

    def contains_site(self, k: int) -> bool:
        if self.topology == "line":
            return 1 <= k <= self.size
        return True

    @cached_property
    def neighborhood_masks(self) -> tuple[int, ...]:
        """Bitmask of the blockade neighbourhood of each site k = 1..L (bit
        j-1 set for every site j of `neighborhood(k)`), built once per model."""
        if self.size is None:
            raise ValueError("infinite chain has no finite neighbourhood table")
        return tuple(
            sum(1 << (j - 1) for j in self.neighborhood(k)) for k in range(1, self.size + 1)
        )


def ring(size: int, blockade_range: int = 1) -> ModelSpec:
    """Periodic chain of ``size`` sites."""
    return ModelSpec("ring", size, blockade_range)


def line(size: int, blockade_range: int = 1) -> ModelSpec:
    """Open chain of ``size`` sites."""
    return ModelSpec("line", size, blockade_range)


def infinite_chain(blockade_range: int = 1) -> ModelSpec:
    """Open-ended chain; every site sees the full neighbourhood."""
    return ModelSpec("infinite", None, blockade_range)


# ---------------------------------------------------------------------------
# operator sums
# ---------------------------------------------------------------------------


class OperatorSum:
    """A finite rational linear combination of words.

    ``terms`` maps canonical words to exact coefficients (Python ints or
    `Fraction`); zero coefficients are never stored.  Instances support +, -,
    scalar multiplication, operator multiplication and Hermitian adjoint, and
    compare equal exactly (term for term).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {w: c for w, c in terms.items() if c != 0}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, OperatorSum):
            return self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def __neg__(self) -> "OperatorSum":
        return OperatorSum({w: -c for w, c in self.terms.items()})

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        if not isinstance(other, OperatorSum):
            return NotImplemented
        acc = dict(self.terms)
        for w, c in other.terms.items():
            s = acc.get(w, 0) + c
            if s == 0:
                acc.pop(w, None)
            else:
                acc[w] = s
        return OperatorSum(acc)

    def __sub__(self, other: "OperatorSum") -> "OperatorSum":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, OperatorSum):
            base = _base(self, other)
            ys = _pack_terms(other, base).items()
            acc: dict = {}
            for px, cx in _pack_terms(self, base).items():
                for py, cy in ys:
                    p = _mul(px, py)
                    if p is not None:
                        acc[p] = acc.get(p, 0) + cx * cy
            return _unpack_terms(acc, base)
        return OperatorSum({w: c * other for w, c in self.terms.items()})

    def __rmul__(self, scalar) -> "OperatorSum":
        return OperatorSum({w: scalar * c for w, c in self.terms.items()})

    def adjoint(self) -> "OperatorSum":
        """Hermitian adjoint; rational coefficients are their own conjugates."""
        return OperatorSum({word_adjoint(w): c for w, c in self.terms.items()})

    def support(self) -> tuple[int, ...]:
        """Sorted sites carrying at least one letter in at least one term."""
        sites = set()
        for w in self.terms:
            sites.update(s for s, _ in w)
        return tuple(sorted(sites))

    def __repr__(self) -> str:
        if not self.terms:
            return "OperatorSum(0)"
        bits = []
        for w in sorted(self.terms):
            c = self.terms[w]
            body = " ".join(f"{s}:{_SYMBOL[a]}" for s, a in w) or "1"
            bits.append(f"{c}*{body}")
        return "OperatorSum(" + " + ".join(bits) + ")"


def single_site(letter: Letter, site: int, coefficient=1) -> OperatorSum:
    """One letter at one site, e.g. ``single_site(NUM, k)`` for n_k."""
    return OperatorSum({((site, letter),): coefficient})


def number_operator(site: int) -> OperatorSum:
    return single_site(NUM, site)


def adjoint(op: OperatorSum) -> OperatorSum:
    """Hermitian adjoint of an operator sum."""
    return op.adjoint()


def fold_word(x: Word, model: ModelSpec) -> tuple | None:
    """Packed form of a word on a finite model, bit k-1 standing for site k
    as in the occupation bitsets of `blockade.basis`.

    Ring sites are reduced to residues 1..L and colliding letters are
    multiplied out (``None`` if a collision annihilates the word); a line
    word must fit inside 1..L.
    """
    if model.size is None:
        raise ValueError("infinite chain has no finite basis")
    p = (0, 0, 0)
    for s, a in x:
        if not model.contains_site(s):
            raise ValueError(f"site {s} outside line of {model.size} sites")
        p = _mul(p, _pack(((model.canonical_site(s), a),), 1))
        if p is None:
            return None
    return p


def canonicalize(op: OperatorSum, model: ModelSpec) -> OperatorSum:
    """Fold every term of ``op`` onto the model's canonical sites."""
    terms, base = _pack_operator(op, model)
    return _unpack_terms(terms, base)


def _pack_operator(op: OperatorSum, model: ModelSpec) -> tuple[dict, int]:
    """Packed, folded terms of ``op`` on ``model`` and the site of bit 0."""
    if model.topology == "infinite":
        base = _base(op)
        return _pack_terms(op, base), base
    acc: dict = {}
    for w, c in op.terms.items():
        p = fold_word(w, model)
        if p is not None:
            acc[p] = acc.get(p, 0) + c
    return {p: c for p, c in acc.items() if c}, 1


# ---------------------------------------------------------------------------
# the drive Hamiltonian and its nested commutators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _drive_masks(model: ModelSpec) -> tuple[tuple[int, int], ...]:
    """``(D, b)`` for the drive term at each bit k of a finite model:
    ``b = 1 << k`` marks the flipped site k + 1, ``D`` the flip plus its
    neighbourhood mask.  The infinite chain is laid out as ``line(width)``,
    whose drive terms are those of the infinite chain wherever the whole
    neighbourhood fits."""
    return tuple((m | 1 << k, 1 << k) for k, m in enumerate(model.neighborhood_masks))


def hamiltonian_terms(model: ModelSpec) -> list[OperatorSum]:
    """The local terms H_k, k = 1..L, of the blockaded drive Hamiltonian.

    Each H_k is the sum of two words: the flip operators at site k dressed
    with ground projectors over the blockade neighbourhood.  Only finite
    lattices can be enumerated; on the infinite chain the terms are generated
    on demand by `commutator_H`.
    """
    if model.topology == "infinite":
        raise ValueError("infinite chain has no finite term list; use commutator_H")
    return [
        OperatorSum({_unpack((D, 0, b), 1): 1, _unpack((D, b, 0), 1): 1})
        for D, b in _drive_masks(model)
    ]


def _frame_shift(model: ModelSpec) -> int:
    """Bits by which `_commute` moves words of the infinite chain up, so that
    the drive terms reaching below a word's lowest site stay at bits >= 0."""
    return 2 * model.blockade_range if model.topology == "infinite" else 0


def _commute(terms: dict, model: ModelSpec, reach: int | None = None) -> dict:
    """Packed [H, op]; on the infinite chain bit b of the result is bit
    b - `_frame_shift` of the input.

    Only drive terms whose support D meets the word's support S act.  With
    X = D & S, the flip at bit b multiplies from the left iff the out-bits of
    the word on X equal those of the flip's in-side, and from the right iff
    its in-bits on X equal the flip's out-side; every surviving product sets
    or clears bit b of O or I and extends the support to D | S.  A flip
    outside S whose overlap carries only ground projectors commutes with the
    word, and its four products cancel in pairs, so it is skipped.  Given
    ``reach``, only words of weight ``|O| + |I|`` up to ``reach`` are built:
    a word heavier than ``reach + 1`` is skipped, and one of weight ``reach``
    or more keeps only its products that clear a bit.
    """
    lam = model.blockade_range
    shift = _frame_shift(model)
    if model.topology == "infinite":
        width = max((S.bit_length() for S, _, _ in terms), default=0) + 2 * shift + 1
        drive = _drive_masks(line(width, lam))
    else:
        drive = _drive_masks(model)
    cyclic = model.topology == "ring"
    acc: dict = {}
    get = acc.get
    for (S, O, I), c in terms.items():
        if not S:
            continue  # the identity commutes with everything
        over = -1 if reach is None else O.bit_count() + I.bit_count() - reach
        if over > 1:
            continue  # every product is heavier than reach
        rise = over < 0
        if shift:
            S <<= shift
            O <<= shift
            I <<= shift
        if cyclic:
            sites = drive
        else:
            pad = lam if rise else 0
            lo = (S & -S).bit_length() - 1 - pad
            sites = drive[max(lo, 0): S.bit_length() + pad]
        for D, b in sites:
            X = D & S
            if not X:
                continue
            U = D | S
            ox = O & X
            ix = I & X
            if b & S:
                if ox == b:  # r_k (x) m's times a word with rd or n at k
                    key = (U, O ^ b, I)
                    acc[key] = get(key, 0) + c
                elif not ox and rise:  # rd_k (x) m's times a word with r or m at k
                    key = (U, O | b, I)
                    acc[key] = get(key, 0) + c
                if ix == b:  # word with r or n at k times rd_k (x) m's
                    key = (U, O, I ^ b)
                    acc[key] = get(key, 0) - c
                elif not ix and rise:  # word with rd or m at k times r_k (x) m's
                    key = (U, O, I | b)
                    acc[key] = get(key, 0) - c
            elif rise and (not ox) != (not ix):
                cc = -c if ox else c
                key = (U, O, I | b)
                acc[key] = get(key, 0) + cc
                key = (U, O | b, I)
                acc[key] = get(key, 0) + cc
    return {p: c for p, c in acc.items() if c}


def commutator_H(op: OperatorSum, model: ModelSpec) -> OperatorSum:
    """Exact commutator [H, op] with the model's drive Hamiltonian.

    The sum over local terms is restricted to the sites whose dressed flip can
    touch the support of each word; everything else commutes.  Identity terms
    drop out immediately.  Ring words are first folded onto residues 1..L.
    """
    terms, base = _pack_operator(op, model)
    return _unpack_terms(_commute(terms, model), base - _frame_shift(model))


def _ring_class(p: tuple, L: int) -> tuple:
    """Least rotation of a packed ring word, over the rotations that move the
    start of a run of its support to bit 0 (every rotation if the support is
    the whole ring)."""
    S, O, I = p
    full = (1 << L) - 1
    starts = S & ~(((S << 1) | (S >> (L - 1))) & full)
    if not starts:
        if not S:
            return p
        starts = full
    best = None
    while starts:
        low = starts & -starts
        starts ^= low
        r = low.bit_length() - 1
        q = (
            ((S >> r) | (S << (L - r))) & full,
            ((O >> r) | (O << (L - r))) & full,
            ((I >> r) | (I << (L - r))) & full,
        )
        if best is None or q < best:
            best = q
    return best


def _shift_class(p: tuple) -> tuple:
    """A packed infinite-chain word shifted so that its lowest site is bit 0."""
    S, O, I = p
    if not S:
        return p
    z = (S & -S).bit_length() - 1
    return (S >> z, O >> z, I >> z)


def _merge_classes(terms: dict, model: ModelSpec) -> dict:
    """Sum the coefficients of packed words over their translation classes."""
    if model.topology == "line":
        return terms
    L = model.size
    rep = _shift_class if L is None else lambda p: _ring_class(p, L)
    acc: dict = {}
    for p, c in terms.items():
        q = rep(p)
        acc[q] = acc.get(q, 0) + c
    return {q: c for q, c in acc.items() if c}


def translation_classes(op: OperatorSum, model: ModelSpec) -> dict:
    """``op`` as a packed operator by translation class.

    On a ring or the infinite chain the result maps class representatives
    (least rotation; lowest site at bit 0) to coefficients and stands for
    ``sum_k T^k op`` over all translations T^k.  On an open chain it maps
    the packed words of ``op`` (bit 0 at site 1) to their coefficients.
    """
    terms, _ = _pack_operator(op, model)
    return _merge_classes(terms, model)


def commutator_classes(classes: dict, model: ModelSpec, reach: int | None = None) -> dict:
    """One nested-commutator order on a packed operator by translation class:
    ``[H, sum_k T^k A] = sum_k T^k [H, A]``, so the commutator of each
    representative is taken and its words are mapped back to their classes.
    On an open chain this is the packed commutator itself; ``reach`` prunes
    it as in `_commute`."""
    return _merge_classes(_commute(classes, model, reach), model)


def class_commutator_expectation(classes: dict) -> Fraction:
    """Per-site vacuum expectation of [H, A] for a packed operator A.

    Only a word with one single letter and ground projectors elsewhere meets
    a dressed flip at that site to give an all-projector product: rd_k gives
    +1 (from r_k rd_k = m_k), r_k gives -1, every other word nothing.  The
    blockade range does not enter, and on translation classes every
    translate contributes the same, so the per-site value is this sum over
    representatives.
    """
    total = 0
    for (_, O, I), c in classes.items():
        if I:
            if not O and not I & (I - 1):
                total -= c
        elif O and not O & (O - 1):
            total += c
    return Fraction(total)


DEFAULT_ORDER_BUDGET = 12


class AdOrderBudgetError(RuntimeError):
    """Raised, before any operator is built, when a nested-commutator request
    exceeds the symbolic budget `DEFAULT_ORDER_BUDGET`."""

    def __init__(self, requested: int, budget: int):
        self.requested = requested
        self.budget = budget
        super().__init__(f"nested commutator order {requested} exceeds budget {budget}")


def ad_power(operator: OperatorSum, model: ModelSpec, order: int) -> OperatorSum:
    """j-fold nested commutator of the drive Hamiltonian with ``operator``.

    Order 0 returns the (canonicalised) operator itself.  Word counts grow
    superexponentially with the order, so requests beyond
    `DEFAULT_ORDER_BUDGET` are refused up front.  Larger orders belong to the
    integer matrix route in `blockade.dynamics`.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > DEFAULT_ORDER_BUDGET:
        raise AdOrderBudgetError(order, DEFAULT_ORDER_BUDGET)
    terms, base = _pack_operator(operator, model)
    for _ in range(order):
        terms = _commute(terms, model)
        base -= _frame_shift(model)
    return _unpack_terms(terms, base)


def vacuum_expectation(op: OperatorSum) -> Fraction:
    """Expectation value in the all-ground product state.

    Only words made purely of ground projectors survive (each m gives 1);
    any r, rd or n letter annihilates the expectation.  The empty word
    contributes its coefficient.
    """
    terms = _pack_terms(op, _base(op))
    return Fraction(sum(c for (_, O, I), c in terms.items() if not O and not I))


# ---------------------------------------------------------------------------
# line-oriented text format
# ---------------------------------------------------------------------------


def dumps_operator(op: OperatorSum) -> str:
    """Serialise an operator sum, one term per line.

    Each line is ``<num>/<den> <site>:<letter> ...`` with letters spelled
    r, rd, n, m; terms are ordered by word key so equal operators serialise
    byte-identically.  The identity term has no letter fields.
    """
    lines = []
    for w in sorted(op.terms):
        c = Fraction(op.terms[w])
        fields = [f"{c.numerator}/{c.denominator}"]
        fields.extend(f"{s}:{_SYMBOL[a]}" for s, a in w)
        lines.append(" ".join(fields))
    return "\n".join(lines)
