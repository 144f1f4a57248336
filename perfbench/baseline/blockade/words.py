"""Exact symbolic algebra of site-local operators for perfectly blockaded chains.

Every operator handled here is a rational linear combination of *words*: products
of single-site letters taken from the four-element set

    r   lowering operator  |g><r|        (annihilates an excitation)
    rd  raising operator   |r><g|
    n   excitation counter rd*r = |r><r|
    m   ground projector   1 - n = |g><g|

Letters at different sites commute; at a single site they close under
multiplication.  The full product table follows from ``r*r = 0``,
``{r, rd} = 1``, ``n = rd*r`` and ``m = 1 - n``:

           r    rd   n    m
    r      0    m    r    0
    rd     n    0    0    rd
    n      0    rd   n    0
    m      r    0    0    m

so a product of two words is again a single word (or zero), never a sum.
The identity is the empty word; it is represented by the *absence* of a
letter at a site and is never stored explicitly.

The drive Hamiltonian with blockade range ``lam`` is ``H = sum_k H_k`` with
``H_k = (r_k + rd_k)`` flanked by ground projectors on every site within
distance ``lam`` of ``k`` (neighbours wrap around on a ring and are truncated
at the ends of an open chain).  Nested commutators ``ad^j(A) = [H, [H, ...]]``
are evaluated exactly with integer/rational coefficients, which is what makes
the short-time Taylor data downstream exact.

All values are immutable; every function is pure and safe to call from
multiple threads, and results are independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

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
    "zero_operator",
    "identity_operator",
    "single_site",
    "number_operator",
    "adjoint",
    "hamiltonian_terms",
    "commutator_H",
    "ad_power",
    "vacuum_expectation",
    "commutator_vacuum_expectation",
    "AdOrderBudgetError",
    "DEFAULT_ORDER_BUDGET",
    "dumps_operator",
    "loads_operator",
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
_FROM_SYMBOL = {v: k for k, v in _SYMBOL.items()}

# Complete single-site product table, rows = left factor, columns = right
# factor in the order (r, rd, n, m); None encodes the zero operator.
_MUL = (
    (None, PROJ, LOWER, None),    # r  * .
    (NUM, None, None, RAISE),     # rd * .
    (None, RAISE, NUM, None),     # n  * .
    (LOWER, None, None, PROJ),    # m  * .
)

_ADJOINT = {LOWER: RAISE, RAISE: LOWER, NUM: NUM, PROJ: PROJ}

_SINGLE = frozenset((LOWER, RAISE))


def letter_mul(a: Letter, b: Letter) -> Letter | None:
    """Product of two letters on the same site; ``None`` means zero."""
    return _MUL[a][b]


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------
#
# A word is a tuple of (site, Letter) pairs with strictly increasing sites.
# The empty tuple is the identity operator.

Word = tuple


def make_word(letters: dict[int, Letter]) -> Word:
    """Build a canonical word from a site -> letter mapping."""
    return tuple(sorted(letters.items()))


def word_mul(x: Word, y: Word) -> Word | None:
    """Site-wise product of two canonical words.

    Letters at distinct sites commute, so the product is the merge of the two
    site maps with `letter_mul` applied wherever the sites coincide.  Returns
    ``None`` when any single-site product vanishes.
    """
    if not x:
        return y
    if not y:
        return x
    out = []
    i = j = 0
    nx = len(x)
    ny = len(y)
    while i < nx and j < ny:
        sx, ax = x[i]
        sy, ay = y[j]
        if sx < sy:
            out.append(x[i])
            i += 1
        elif sx > sy:
            out.append(y[j])
            j += 1
        else:
            p = _MUL[ax][ay]
            if p is None:
                return None
            out.append((sx, p))
            i += 1
            j += 1
    out.extend(x[i:])
    out.extend(y[j:])
    return tuple(out)


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
            if self.topology == "line" and self.size < 1:
                raise ValueError(f"line needs at least 1 site, got {self.size}")

    @property
    def L(self) -> int | None:
        return self.size

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
            acc = {}
            for wx, cx in self.terms.items():
                for wy, cy in other.terms.items():
                    p = word_mul(wx, wy)
                    if p is None:
                        continue
                    s = acc.get(p, 0) + cx * cy
                    if s == 0:
                        acc.pop(p, None)
                    else:
                        acc[p] = s
            return OperatorSum(acc)
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


def zero_operator() -> OperatorSum:
    return OperatorSum()


def identity_operator(coefficient=1) -> OperatorSum:
    return OperatorSum({(): coefficient})


def single_site(letter: Letter, site: int, coefficient=1) -> OperatorSum:
    """One letter at one site, e.g. ``single_site(NUM, k)`` for n_k."""
    return OperatorSum({((site, letter),): coefficient})


def number_operator(site: int) -> OperatorSum:
    return single_site(NUM, site)


def adjoint(op: OperatorSum) -> OperatorSum:
    """Hermitian adjoint of an operator sum."""
    return op.adjoint()


def fold_word(x: Word, model: ModelSpec) -> Word | None:
    """Canonicalise a word against a model.

    On a ring, sites are reduced to residues 1..L and colliding letters are
    multiplied out; the result is ``None`` if a collision annihilates the
    word.  On a line the word must fit inside 1..L.
    """
    if model.topology == "line":
        for s, _ in x:
            if not model.contains_site(s):
                raise ValueError(f"site {s} outside line of {model.size} sites")
        return x
    if model.topology == "infinite":
        return x
    acc: dict[int, Letter] = {}
    for s, a in x:
        s = model.canonical_site(s)
        if s in acc:
            p = _MUL[acc[s]][a]
            if p is None:
                return None
            acc[s] = p
        else:
            acc[s] = a
    return tuple(sorted(acc.items()))


def canonicalize(op: OperatorSum, model: ModelSpec) -> OperatorSum:
    """Fold every term of ``op`` onto the model's canonical sites."""
    acc: dict = {}
    for w, c in op.terms.items():
        f = fold_word(w, model)
        if f is None:
            continue
        s = acc.get(f, 0) + c
        if s == 0:
            acc.pop(f, None)
        else:
            acc[f] = s
    return OperatorSum(acc)


# ---------------------------------------------------------------------------
# the drive Hamiltonian and its nested commutators
# ---------------------------------------------------------------------------


def _drive_words(model: ModelSpec, k: int) -> tuple[Word, Word]:
    """The two words of the local drive term at site ``k``:
    r_k and rd_k, each flanked by ground projectors on the neighbourhood."""
    k = model.canonical_site(k)
    flank = [(j, PROJ) for j in model.neighborhood(k)]
    low = tuple(sorted(flank + [(k, LOWER)]))
    high = tuple(sorted(flank + [(k, RAISE)]))
    return low, high


def hamiltonian_terms(model: ModelSpec) -> list[OperatorSum]:
    """The local terms H_k, k = 1..L, of the blockaded drive Hamiltonian.

    Each H_k is the sum of two words: the flip operators at site k dressed
    with ground projectors over the blockade neighbourhood.  Only finite
    lattices can be enumerated; on the infinite chain the terms are generated
    on demand by `commutator_H`.
    """
    if model.topology == "infinite":
        raise ValueError("infinite chain has no finite term list; use commutator_H")
    out = []
    for k in range(1, model.size + 1):
        low, high = _drive_words(model, k)
        out.append(OperatorSum({low: 1, high: 1}))
    return out


def _relevant_drive_sites(w: Word, model: ModelSpec) -> list[int]:
    """Sites k whose drive term can fail to commute with the word ``w``:
    those whose dressed support touches a letter of ``w``."""
    lam = model.blockade_range
    sites: set[int] = set()
    for s, _ in w:
        sites.update(range(s - lam, s + lam + 1))
    if model.topology == "ring":
        return sorted({model.canonical_site(k) for k in sites})
    if model.topology == "line":
        return [k for k in sorted(sites) if 1 <= k <= model.size]
    return sorted(sites)


def commutator_H(op: OperatorSum, model: ModelSpec) -> OperatorSum:
    """Exact commutator [H, op] with the model's drive Hamiltonian.

    The sum over local terms is restricted to the sites whose dressed flip can
    touch the support of each word; everything else commutes.  Identity terms
    drop out immediately.
    """
    acc: dict = {}
    for w, c in op.terms.items():
        if not w:
            continue
        for k in _relevant_drive_sites(w, model):
            for h in _drive_words(model, k):
                p = word_mul(h, w)
                if p is not None:
                    s = acc.get(p, 0) + c
                    if s == 0:
                        acc.pop(p, None)
                    else:
                        acc[p] = s
                q = word_mul(w, h)
                if q is not None:
                    s = acc.get(q, 0) - c
                    if s == 0:
                        acc.pop(q, None)
                    else:
                        acc[q] = s
    return OperatorSum(acc)


DEFAULT_ORDER_BUDGET = 12


class AdOrderBudgetError(RuntimeError):
    """Raised when a nested-commutator request exceeds the symbolic budget.

    ``order_reached`` reports how many commutators were actually applied
    before the computation was refused or abandoned.
    """

    def __init__(self, requested: int, budget: int, order_reached: int):
        self.requested = requested
        self.budget = budget
        self.order_reached = order_reached
        super().__init__(
            f"nested commutator order {requested} exceeds budget {budget} "
            f"(stopped after {order_reached})"
        )


def ad_power(
    operator: OperatorSum,
    model: ModelSpec,
    order: int,
    order_budget: int = DEFAULT_ORDER_BUDGET,
    max_terms: int | None = None,
) -> OperatorSum:
    """j-fold nested commutator of the drive Hamiltonian with ``operator``.

    Order 0 returns the (canonicalised) operator itself.  Word counts grow
    superexponentially with the order, so requests beyond ``order_budget``
    are refused up front and an optional ``max_terms`` guard aborts a run
    that blows up mid-way; both report the order actually reached.  Larger
    orders belong to the integer matrix route in `blockade.dynamics`.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > order_budget:
        raise AdOrderBudgetError(order, order_budget, 0)
    out = canonicalize(operator, model)
    for g in range(order):
        out = commutator_H(out, model)
        if max_terms is not None and len(out.terms) > max_terms:
            raise AdOrderBudgetError(order, order_budget, g + 1)
    return out


def vacuum_expectation(op: OperatorSum) -> Fraction:
    """Expectation value in the all-ground product state.

    Only words made purely of ground projectors survive (each m gives 1);
    any r, rd or n letter annihilates the expectation.  The empty word
    contributes its coefficient.
    """
    total = 0
    for w, c in op.terms.items():
        if all(a is PROJ for _, a in w):
            total += c
    return Fraction(total)


def commutator_vacuum_expectation(op: OperatorSum, model: ModelSpec) -> Fraction:
    """Vacuum expectation of [H, op] without materialising the commutator.

    An all-projector product can only arise when a dressed flip meets a word
    carrying exactly one single letter, at that same site; every other word
    of ``op`` contributes nothing.  Equivalent to
    ``vacuum_expectation(commutator_H(op, model))`` but far cheaper at the
    top order of a coefficient computation.
    """
    total = 0
    for w, c in op.terms.items():
        singles = [s for s, a in w if a in _SINGLE]
        if len(singles) != 1:
            continue
        k = singles[0]
        if model.topology == "line" and not model.contains_site(k):
            continue
        for h in _drive_words(model, k):
            p = word_mul(h, w)
            if p is not None and all(a is PROJ for _, a in p):
                total += c
            q = word_mul(w, h)
            if q is not None and all(a is PROJ for _, a in q):
                total -= c
    return Fraction(total)


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


def loads_operator(text: str) -> OperatorSum:
    """Parse the format written by `dumps_operator`."""
    terms: dict = {}
    for raw in text.splitlines():
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        fields = raw.split()
        num, den = fields[0].split("/")
        coeff = Fraction(int(num), int(den))
        if coeff.denominator == 1:
            coeff = coeff.numerator
        letters = {}
        for f in fields[1:]:
            site, sym = f.split(":")
            letters[int(site)] = _FROM_SYMBOL[sym]
        w = make_word(letters)
        terms[w] = terms.get(w, 0) + coeff
    return OperatorSum(terms)
