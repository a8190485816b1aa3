"""Hurwitz factorizations: brute-force enumeration and closed-form counts.

A ramification type (d; C_1, ..., C_r) prescribes conjugacy classes of S_d at
r ordered branch points.  Its Hurwitz number is the number of tuples
(g_1, ..., g_r) with g_i in C_i, left-to-right product the identity and
transitive generated group, counted up to uniform conjugacy by S_d.

One enumerator serves every r >= 3.  It searches the classes in a cheaper
order (solved, vectorized, looped..., anchor): the largest class last, anchored
at its canonical representative, the next largest first, solved from the
product identity, the largest of the rest second, vectorized over its class as
one array of one element per row (perm.class_array), and the others looped in
type order (on a tie in size the anchor is the latest such class, the solved
and the vectorized one the earliest).  The first looped class runs only over
the least element of each orbit of the anchor's centralizer Z acting by
conjugation.  That loses no class: conjugation by Z keeps the anchor, the
product, the classes and transitivity, so the raw tuples are closed under Z,
and the conjugate of a raw tuple that moves its first looped entry to that
entry's orbit representative is a raw tuple the loop reaches.  Small classes
leave numpy too little work per call, so each batch stacks the rows for as
many choices of the looped entries as fit in _SEARCH_ROWS: g_2 ... g_r is V R,
V the vectorized rows and R the product of a choice and the anchor, one gather
per choice.  Each numpy batch is filtered three times.  The first two compare
the solved entry with its class: first by the number of fixed points alone,
then by the integer key of the fixed-point counts of its powers that the group
census counts by (group.cycle_type_keys), which fixes the cycle type.  The
third tests transitivity by min-label propagation.  Only the rows that pass
all three are kept, each as g_2 ... g_r and one array of its entries, the
looped ones and then v, so that the first looped entry x comes first.

hurwitz_number_brute counts the classes from these rows and stores none.  By
Burnside's lemma over Z, h |Z| is the sum of |Stab_Z(t)| over the raw tuples
t.  The search meets only the raw tuples whose first looped entry x is the
least of its Z-orbit, and conjugation carries them onto those with any other x
of the orbit, so each row found counts [Z : Z_x] times, Z_x the z that fix x
(with no looped class the search meets every raw tuple and Z_x is Z).
Stab_Z(t) lies in Z_x, so only the rows with a nontrivial Z_x are tested, all
z at once in numpy.  The sum must be a multiple of |Z|, and memory stays at one
batch: the tests of Z run in chunks of _SEARCH_ROWS // |Z| rows.

enumerate_factorizations, behind ``hurwitz --list`` and the braid walk, stores
one tuple per class.  By the same argument a class meets the search in one
Z_x-orbit of rows: two of its rows differ by some z in Z, which fixes x since x
and z x z^-1 are both the least of their Z-orbit.  So each class keeps one row,
the one that no z in Z_x conjugates to a lexicographically smaller row (tested
per chunk in numpy; a trivial Z_x passes untested), and puts it in canonical
form once.  Each centralizer is built once per enumeration as pairs of z and
the gather of z^-1 (perm.gather), and each entry g of a tuple as one gather, so
z g z^-1 is two C-level gathers, compose(compose(z, g), z^-1), with no Python
loop over points.  A canonical form conjugates the first entry by all of Z and
the rest only by the z that give its least conjugate, since the first entry
decides the order.  Numpy does not pay here: |Z| is about 12 and the braid walk
conjugates one tuple at a time, and one (|Z|, r, d) gather with a lexicographic
minimum was slower.  If the order moved, each kept row is carried back to the
type's class order by the Hurwitz moves (a, b) -> (a b a^-1, a), which keep the
product and the generated group and commute with uniform conjugation, and is
then put in canonical form over the centralizer of the type's last class,
Z itself when the anchor is of that class and otherwise built once per type,
and handed on to the braid walk.  Every returned representative is in that
canonical form, and the list is sorted, so output is deterministic.  The search
has proved the product, the classes and transitivity of every row, so the
representatives are built without the checks of HurwitzFactorization, which its
public constructor keeps.

Closed formulas are provided for genus-0 pure-cycle types with three or four
branch points (rigidity and the min e_i(d+1-e_i) count) and for types with a
single two-cycle class, together with the known monodromy classification of
such covers.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .arith import is_prime
from .errors import BoundExceededError, InvalidTypeError
from .group import GroupReport, cycle_type_keys, is_transitive
from .perm import (
    CycleType,
    Perm,
    all_of_type,
    centralizer_elements,
    centralizer_order,
    class_array,
    compose_all,
    conjugate,
    cycles,
    from_cycles,
    gather,
    identity,
    inverse,
    parse_ints,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_DEGREE = 9
PURE_CYCLE_MAX_DEGREE = 11

# Bound on _search_rows, checked before the search.  Every type that the tests,
# verify and the benchmark workloads enumerate is at most 6.9e6 (11:5,5,5,9 in
# 0.15 s, and 11:6,6,6,6 at 4.3e6 in 0.8 s).  The five genus-0 types that ran
# out of memory under the degree rule alone are at least 4.9e7 (8:3^7, 6:2^10,
# 9:3^8, 7:2^12, 11:3^10).  Types timed between 5e6 and 1e7 took 1.1-14 s, and
# 10:4,4,5,5,5 at 1.6e7 took 12 s (2 cores, Python 3.11, numpy 2.4).  The rows
# bound time, not memory.  hurwitz_number_brute counts in one batch: 7:2^6,4,4
# at 3.6e6 rows takes 4.3 s at 32 MB.  enumerate_factorizations stores one tuple
# per class: it lists that type's 83,360 classes in about 16 s at 134 MB.
MAX_SEARCH_ROWS = 10**7


@dataclass(frozen=True)
class RamificationType:
    """Degree plus an ordered list of at least three branch classes."""

    degree: int
    classes: tuple[CycleType, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if len(self.classes) < 3:
            raise InvalidTypeError("a ramification type needs at least 3 branch points")
        for cl in self.classes:
            if cl.degree != self.degree:
                raise InvalidTypeError("class degree differs from type degree")

    @classmethod
    def pure(cls, degree: int, exponents: Sequence[int]) -> "RamificationType":
        return cls(degree, tuple(CycleType(degree, (e,)) for e in exponents))

    @classmethod
    def two_cycle(cls, degree: int, e1: int, e2: int, e3: int, e4: int) -> "RamificationType":
        """The type (degree; e1-e2, e3, e4)."""
        return cls(degree, tuple(CycleType(degree, c) for c in ((e1, e2), (e3,), (e4,))))

    @classmethod
    def parse(cls, text: str) -> "RamificationType":
        """Parse the compact grammar ``d:e1,...,er`` (r >= 3) / ``d:e1-e2,e3,e4``."""
        head, sep, rest = text.partition(":")
        if not sep:
            raise InvalidTypeError(f"expected 'd:classes', got {text!r}")
        (degree,) = parse_ints(head, ":", text)  # head holds no ':', so one item
        tokens = [parse_ints(tok, "-", text) for tok in rest.split(",")]
        if any(len(tok) > 2 for tok in tokens):
            raise InvalidTypeError("classes with more than two cycles are not supported")
        if sum(len(tok) == 2 for tok in tokens) > 1:
            raise InvalidTypeError("at most one two-cycle class is supported")
        return cls(degree, tuple(CycleType(degree, tok) for tok in tokens))

    def __str__(self) -> str:
        return f"{self.degree}:" + ",".join(str(cl) for cl in self.classes)

    @property
    def is_pure_cycle(self) -> bool:
        return all(len(cl.lengths) == 1 for cl in self.classes)

    @property
    def exponents(self) -> tuple[int, ...]:
        if not self.is_pure_cycle:
            raise InvalidTypeError("exponents are defined for pure-cycle types only")
        return tuple(cl.lengths[0] for cl in self.classes)

    def genus(self) -> int:
        """Cover genus by Riemann-Hurwitz; rejects non-integral or negative."""
        branch = sum(l - 1 for cl in self.classes for l in cl.lengths)
        twice = 2 - 2 * self.degree + branch
        if twice % 2:
            raise InvalidTypeError(f"type {self} has half-integral genus")
        if twice < 0:
            raise InvalidTypeError(f"type {self} has negative genus")
        return twice // 2

    def require_genus0(self) -> "RamificationType":
        """The type itself if its genus is 0.  Every class already fits in
        S_degree, so this is the whole check that a closed formula needs."""
        g = self.genus()
        if g:
            raise InvalidTypeError(f"{self} is not a genus-0 type (genus {g})")
        return self

    def two_cycle_exponents(self) -> tuple[int, int, int, int] | None:
        """(e1, e2, e3, e4) with e1 <= e2 and e3 <= e4 for the shape
        (d; e1-e2, e3, e4), in any class order; None for every other shape."""
        pairs = [cl.lengths for cl in self.classes if len(cl.lengths) == 2]
        singles = sorted(cl.lengths[0] for cl in self.classes if len(cl.lengths) == 1)
        if len(self.classes) != 3 or len(pairs) != 1 or len(singles) != 2:
            return None
        e1, e2 = sorted(pairs[0])
        return e1, e2, singles[0], singles[1]


@dataclass(frozen=True)
class HurwitzFactorization:
    """Tuple of permutations with product identity and transitive image."""

    degree: int
    perms: tuple[Perm, ...]

    def __post_init__(self):
        object.__setattr__(self, "perms", tuple(tuple(g) for g in self.perms))
        if any(len(g) != self.degree for g in self.perms):
            raise InvalidTypeError("permutation degree differs from factorization degree")
        if compose_all(self.perms, self.degree) != identity(self.degree):
            raise InvalidTypeError("left-to-right product is not the identity")
        if not is_transitive(self.perms, self.degree):
            raise InvalidTypeError("generated group is not transitive")

    @classmethod
    def _trusted(cls, degree: int, perms: tuple[Perm, ...]) -> "HurwitzFactorization":
        """A factorization that the search or the braid walk has proved: perms
        is a tuple of tuples, so none of the checks runs again."""
        f = object.__new__(cls)
        object.__setattr__(f, "degree", degree)
        object.__setattr__(f, "perms", perms)
        return f

    def __lt__(self, other: "HurwitzFactorization") -> bool:
        return self.perms < other.perms


def galois_factor(monodromy: GroupReport) -> int:
    """Galois covers per mere cover: 2 for alternating monodromy, 1 for symmetric."""
    if monodromy.classification == "alternating":
        return 2
    if monodromy.classification == "symmetric":
        return 1
    raise InvalidTypeError(f"no Galois factor for monodromy {monodromy}")


# -- closed formulas ---------------------------------------------------------


def hurwitz_formula_pure4(d: int, exponents: Sequence[int]) -> int:
    """min_i e_i(d+1-e_i) for a genus-0 pure-cycle type (d; e1, e2, e3, e4)."""
    es = tuple(exponents)
    if len(es) != 4:
        raise InvalidTypeError("exactly four exponents required")
    RamificationType.pure(d, es).require_genus0()
    return min(e * (d + 1 - e) for e in es)


def hurwitz_formula_badtype(d: int, e1: int, e2: int, e3: int, e4: int) -> int:
    """Count for type (d; e1-e2, e3, e4) with e1+e2 <= d and sum 2d+2.

    (d+1-e1-e2) * min(e1, e2, d+1-e3, d+1-e4) when e1 != e2, and the rounded-up
    half of (d+1-e1-e2) * min(d+1-e3, d+1-e4) when e1 = e2; the ceiling absorbs
    the single self-paired factorization that appears when d, e3, e4 are all
    even.  Always positive.
    """
    RamificationType.two_cycle(d, e1, e2, e3, e4).require_genus0()
    if e1 != e2:
        value = (d + 1 - e1 - e2) * min(e1, e2, d + 1 - e3, d + 1 - e4)
    else:
        value = -((d + 1 - e1 - e2) * min(d + 1 - e3, d + 1 - e4) // -2)
    assert value > 0
    return value


# Each exceptional monodromy group is the only transitive group of its degree
# and order, so the report names it.
_EXCEPTIONAL_PURE = (6, (4, 4, 5))  # S_5 acting on 6 points, order 120
_EXCEPTIONAL_PAIR = (5, (2, 2), (4, 4))  # the affine group F_5 : F_5^*, order 20


def monodromy_classify(t: RamificationType) -> GroupReport:
    """The GroupReport that group_analyze computes for the monodromy group of
    every genus-0 pure-cycle cover of type t, or of every prime-degree cover
    with a single two-cycle class.

    Pure-cycle: A_d iff every exponent is odd, S_d otherwise, except (6; 4,4,5)
    whose monodromy is S_5 acting on 6 points.  Two-cycle shape
    (p; e1-e2, e3, e4): A_p iff e3, e4 are odd (genus 0 then makes e1+e2 even),
    S_p otherwise, except (5; 2-2, 4,4) with affine monodromy F_5 : F_5^*.
    """
    d = t.require_genus0().degree
    if t.is_pure_cycle:
        es = t.exponents
        if (d, tuple(sorted(es))) == _EXCEPTIONAL_PURE:
            return GroupReport(6, 120, True)
        alternating = all(e % 2 for e in es)
    else:
        exponents = t.two_cycle_exponents()
        if exponents is None:
            raise InvalidTypeError(f"type {t} is outside the classified shapes")
        if not is_prime(d):
            raise InvalidTypeError("two-cycle classifier needs prime degree")
        e1, e2, e3, e4 = exponents
        if (d, (e1, e2), (e3, e4)) == _EXCEPTIONAL_PAIR:
            return GroupReport(5, 20, True)
        alternating = e3 % 2 and e4 % 2
    return GroupReport(d, math.factorial(d) // (2 if alternating else 1), True)


# -- enumeration -------------------------------------------------------------


# an element z of a centralizer with the gather s -> compose(s, z^-1)
Conjugator = tuple[Perm, Callable[[Perm], Perm]]


def _centralizer(g: Perm) -> list[Conjugator]:
    """The centralizer of g, each z paired with the gather of z^-1, so that
    z h z^-1 is two gathers: compose(compose(z, h), z^-1)."""
    return [(z, gather(inverse(z))) for z in centralizer_elements(g)]


def _conjugates(
    perms: tuple[Perm, ...], centralizer: Sequence[Conjugator]
) -> Iterator[tuple[Perm, ...]]:
    """z perms z^-1 for each z of centralizer, given as _centralizer pairs;
    each entry's gather is built once for all z."""
    gathers = [gather(g) for g in perms]
    return (tuple(z_inv(g(z)) for g in gathers) for z, z_inv in centralizer)


def _anchor_last(perms: tuple[Perm, ...]) -> tuple[Perm, ...]:
    """A conjugate of perms whose last entry is the canonical representative
    of its class."""
    ordered = sorted(cycles(perms[-1]), key=lambda cyc: (-len(cyc), cyc[0]))
    points = [p for cyc in ordered for p in cyc]
    points += sorted(set(range(len(perms[-1]))) - set(points))  # the fixed points
    s = inverse(tuple(points))  # takes points[k] to k
    return tuple(conjugate(s, g) for g in perms)


def _canonical_anchored(
    perms: tuple[Perm, ...], centralizer: Sequence[Conjugator]
) -> tuple[Perm, ...]:
    """Lex-least conjugate among those fixing the anchored last entry, over
    the _centralizer pairs of that entry's centralizer.  The first entry
    decides: only the z that give its least conjugate conjugate the rest."""
    first = gather(perms[0])
    images = [z_inv(first(z)) for z, z_inv in centralizer]
    least = min(images)
    ties = [pair for pair, image in zip(centralizer, images) if image == least]
    return min(_conjugates(perms, ties))


def canonical_form(f: HurwitzFactorization) -> HurwitzFactorization:
    """Canonical representative of f's uniform-conjugacy class.

    The last entry is moved to the canonical representative of its class; the
    remaining freedom is that representative's centralizer, over which the
    lexicographic minimum of the image tuples is taken.
    """
    anchored = _anchor_last(f.perms)
    centralizer = _centralizer(anchored[-1])
    return HurwitzFactorization(f.degree, _canonical_anchored(anchored, centralizer))


def _search_order(classes: tuple[CycleType, ...]) -> tuple[int, ...]:
    """Type positions in search order (solved, vectorized, looped..., anchor):
    the largest class last (the latest on a tie), then by size the solved and
    the vectorized class (each the earliest on a tie), and the rest looped in
    type order.  The search then loops over the smallest classes."""
    sizes = [cl.class_size() for cl in classes]
    anchor = max(reversed(range(len(sizes))), key=sizes.__getitem__)
    rest = [i for i in range(len(sizes)) if i != anchor]
    solved, vectorized = sorted(rest, key=lambda i: -sizes[i])[:2]
    return (solved, vectorized, *(i for i in rest if i not in (solved, vectorized)), anchor)


def _to_type_order(perms: tuple[Perm, ...], order: Sequence[int]) -> tuple[Perm, ...]:
    """Carry a tuple whose entry j lies in the type's class order[j] back to
    type order, bubbling adjacent entries past each other by the Hurwitz move
    (a, b) -> (a b a^-1, a)."""
    perms, order = list(perms), list(order)
    for end in range(len(order) - 1, 0, -1):
        for j in range(end):
            if order[j] > order[j + 1]:
                perms[j], perms[j + 1] = conjugate(perms[j], perms[j + 1]), perms[j]
                order[j], order[j + 1] = order[j + 1], order[j]
    return tuple(perms)


def _transitive_mask(entries: np.ndarray, anchor: Perm) -> np.ndarray:
    """Mask of the rows of entries, shape (rows, k, d), whose k permutations
    generate with anchor a transitive group.

    Min-label propagation: each point carries the least point known to lie in
    its orbit, lowered along every generator and through its label's own label
    until nothing moves.  The labels then are the orbit minima, so the group is
    transitive exactly when every label is the row's point 0.

    group.is_transitive answers the same question for one tuple, and both stay
    because each is the faster one for its caller.  On a whole batch this mask
    wins: testing each surviving row with is_transitive made enumerating the
    136 pure 3- and 4-point types of degree 4 to 10 take 3.0-4.0 s instead of
    2.5-2.7 s, with the same output.  On a single tuple is_transitive wins by
    more than ten times (about 3 us against 40 us at d = 9), so
    HurwitzFactorization validation keeps it.  Both figures are from 2 cores
    with Python 3.11 and numpy 2.4.
    """
    import numpy as np
    n, _, d = entries.shape
    # each generator as one permutation of n*d positions, row i's point x at
    # position i*d + x, so that following labels needs only 1-D indexing
    starts = np.arange(0, n * d, d)[:, None]
    gens = [(g + starts).ravel() for g in (*entries.transpose(1, 0, 2), np.asarray(anchor))]
    labels = np.arange(n * d)
    while True:
        new = labels.copy()
        for g in gens:
            np.minimum(new, new[g], out=new)
        new = new[new]
        if (new == labels).all():
            return (labels.reshape(n, d) == starts).all(axis=1)
        labels = new


def _search_rows(classes: tuple[CycleType, ...]) -> int:
    """About how many candidate rows _search_generic tests for classes in
    search order, from class sizes alone: the product of the middle classes'
    sizes, over |Z| when a class is looped, Z the anchor's centralizer, since
    the first looped class runs over about |C| / |Z| orbit minima."""
    middle = classes[1:-1]
    rows = math.prod(cl.class_size() for cl in middle)
    return rows if len(middle) == 1 else rows // centralizer_order(classes[-1])


# Rows per numpy batch of the search.  On the hurwitz_sweep op set, batches of
# 2^11 to 2^16 rows ran alike, and one choice of the looped entries per batch
# took 0.227 s against 0.192 s (2 cores, Python 3.11, numpy 2.4).
_SEARCH_ROWS = 2**12


def _search_batches(
    d: int, classes: tuple[CycleType, ...], anchor: Perm, centralizer: Sequence[Conjugator]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The raw tuples (g_1, ..., g_r) with g_r = anchor, for any r >= 3, of
    classes in search order (solved, vectorized, looped..., anchor), as numpy
    batches: g_2 ... g_r is V R, with V the rows of the vectorized class and R
    the product of the looped entries and the anchor.

    The first looped class runs only over the least element of each orbit of
    centralizer, the anchor's centralizer as _centralizer pairs, so the tuples
    found are a subset of the raw set whose closure under conjugation by
    centralizer is all of it.  Each batch takes V with as many choices of the
    looped entries as keep it within _SEARCH_ROWS rows, and at least one.
    For each batch with a surviving row it yields (w, entries), per surviving
    row w = g_2 ... g_r and entries = (g_3, ..., g_{r-1}, g_2), the looped
    entries then v, as one (rows, r - 2, d) array: x, the first looped entry,
    is entries[:, 0]."""
    import numpy as np
    key = cycle_type_keys(np.array([classes[0].canonical_representative()], dtype=np.int16))
    fixed = d - classes[0].moved
    idx = np.arange(d, dtype=np.int16)
    ones = np.ones(d, dtype=np.uint8)
    rows = class_array(classes[1])
    looped = [list(all_of_type(cl)) for cl in classes[2:-1]]
    if looped:
        looped[0] = _conjugacy_minima(looped[0], centralizer)
    # one flat product, so that no choice is built before its batch
    combos = itertools.product(*looped)
    n = len(rows)
    while batch := list(itertools.islice(combos, max(1, _SEARCH_ROWS // n))):
        # row i * size + k of prod is V_i R_k = g_2 ... g_r, R_k the product
        # of the k-th choice of looped entries in the batch and the anchor
        size = len(batch)
        prod = rows[:, [compose_all(c + (anchor,), d) for c in batch]].reshape(-1, d)
        hits = np.nonzero((prod == idx).view(np.uint8) @ ones == fixed)[0]
        if hits.size:
            hits = hits[cycle_type_keys(prod[hits]) == key]
        if not hits.size:
            continue
        at_rows, slots = np.divmod(hits, size)
        chosen = np.array(batch, dtype=np.int16).reshape(size, -1, d)[slots]
        entries = np.concatenate([chosen, rows[at_rows, None]], axis=1)
        # g_1 is the inverse of the others' product, so it adds nothing
        keep = _transitive_mask(entries, anchor)
        if keep.any():
            yield prod[hits[keep]], entries[keep]


def _raw_tuples(anchor: Perm, w: np.ndarray, entries: np.ndarray) -> list[tuple[Perm, ...]]:
    """One raw tuple (g_1, ..., g_r) per row of a _search_batches batch: g_1
    is the inverse of w = g_2 ... g_r (a permutation's argsort is its
    inverse), g_2 the last of entries and g_3 ... g_{r-1} the others."""
    import numpy as np
    firsts = np.argsort(w, axis=1).tolist()
    rest = np.roll(entries, 1, axis=1).tolist()
    return [(tuple(g1), *map(tuple, gs), anchor) for g1, gs in zip(firsts, rest)]


def _search_generic(
    d: int, classes: tuple[CycleType, ...], anchor: Perm, centralizer: Sequence[Conjugator]
) -> Iterator[tuple[Perm, ...]]:
    """The raw tuples of _search_batches, one (g_1, ..., g_r) per surviving row."""
    for w, entries in _search_batches(d, classes, anchor, centralizer):
        yield from _raw_tuples(anchor, w, entries)


# kept only because perfbench/tracer.py still resolves these two names
_search_r3 = _search_r4 = _search_generic


def _conjugacy_minima(elements: Iterable[Perm], centralizer: Sequence[Conjugator]) -> list[Perm]:
    """The least element of each orbit of centralizer, as _centralizer pairs,
    acting by conjugation on elements, sorted.  An element not seen marks its
    orbit seen, built from x's gather and one z x z^-1 per z."""
    seen: set[Perm] = set()
    minima = []
    for x in elements:
        if x not in seen:
            x_gather = gather(x)
            orbit = {z_inv(x_gather(z)) for z, z_inv in centralizer}
            seen |= orbit
            minima.append(min(orbit))
    return sorted(minima)


def _search_plan(
    t: RamificationType,
) -> tuple[tuple[int, ...], Perm, list[Conjugator], np.ndarray, Iterator] | None:
    """The search of t: the search order of its classes, the anchor, its
    centralizer Z as _centralizer pairs and as the columns of zt, and the
    _search_batches batches in chunks of _SEARCH_ROWS // |Z| rows, which bound
    the (rows, |Z|, ...) arrays of the Z tests; or None when no product of t's
    classes is even, let alone the identity.  A type over the degree bound or
    over MAX_SEARCH_ROWS raises BoundExceededError, before any class is built."""
    max_degree = PURE_CYCLE_MAX_DEGREE if t.is_pure_cycle else DEFAULT_MAX_DEGREE
    if t.degree > max_degree:
        raise BoundExceededError(
            f"degree {t.degree} exceeds enumeration bound {max_degree}"
        )
    if sum(cl.parity < 0 for cl in t.classes) % 2:
        return None
    order = _search_order(t.classes)
    classes = tuple(t.classes[i] for i in order)
    rows = _search_rows(classes)
    if rows > MAX_SEARCH_ROWS:
        raise BoundExceededError(
            f"about {rows:.1e} search rows exceed enumeration row bound {MAX_SEARCH_ROWS:.0e}"
        )
    import numpy as np
    anchor = classes[-1].canonical_representative()
    centralizer = _centralizer(anchor)
    zt = np.array([z for z, _ in centralizer], dtype=np.int16).T
    step = max(1, _SEARCH_ROWS // len(centralizer))
    chunks = (
        (w[lo:lo + step], entries[lo:lo + step])
        for w, entries in _search_batches(t.degree, classes, anchor, centralizer)
        for lo in range(0, len(w), step)
    )
    return order, anchor, centralizer, zt, chunks


def _enumerate(t: RamificationType) -> tuple[list[tuple[Perm, ...]], list[Conjugator]]:
    """The sorted canonical representatives of enumerate_factorizations as
    tuples, and the _centralizer pairs of the canonical representative of t's
    last class, over which they are canonical.

    A class meets the search in one Z_x-orbit, so it keeps one row, the least
    (_least_in_orbit); a row whose Z_x is trivial is kept untested."""
    plan = _search_plan(t)
    if plan is None:
        return [], []
    order, anchor, centralizer, zt, chunks = plan
    moved = order != tuple(sorted(order))
    last = centralizer
    if t.classes[-1] != t.classes[order[-1]]:
        last = _centralizer(t.classes[-1].canonical_representative())

    def canonical(tup: tuple[Perm, ...]) -> tuple[Perm, ...]:
        """tup in canonical form, in type order."""
        return _canonical_anchored(
            _anchor_last(_to_type_order(tup, order)) if moved else tup, last)

    reps = []
    for w, entries in chunks:
        tested = _x_fixers(entries, zt) > 1
        keep = ~tested
        keep[tested] = _least_in_orbit(entries[tested], zt)
        reps += map(canonical, _raw_tuples(anchor, w[keep], entries[keep]))
    return sorted(reps), last


def enumerate_factorizations(t: RamificationType) -> list[HurwitzFactorization]:
    """All Hurwitz factorizations of type t, one canonical representative per
    uniform-conjugacy class, sorted.  A type over the degree bound or over
    MAX_SEARCH_ROWS is refused before the search.  The search has proved each
    representative, so none is checked again.
    """
    reps, _ = _enumerate(t)
    return [HurwitzFactorization._trusted(t.degree, tup) for tup in reps]


def _fixers(perms: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """Mask of shape (..., |Z|) of the z in Z that commute with each
    permutation of perms, shape (..., d), given Z as the columns of zt:
    zt[g] holds z g and g[..., zt] holds g z."""
    return (zt[perms] == perms[..., zt]).all(axis=-2)


def _x_fixers(entries: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """|Z_x| for each row of a _search_batches batch, given Z as the columns
    of zt: the number of z that fix x = entries[:, 0], or |Z| when no class is
    looped and entries holds v alone."""
    import numpy as np
    if entries.shape[1] > 1:
        return _fixers(entries[:, 0], zt).sum(axis=1)
    return np.full(len(entries), zt.shape[1])


def _least_in_orbit(entries: np.ndarray, zt: np.ndarray) -> np.ndarray:
    """Mask of the rows of a _search_batches batch that no z in Z, the
    columns of zt, conjugates to a lexicographically smaller row: the Z_x-least
    rows, since x = entries[:, 0] comes first and a z outside Z_x moves x up
    its Z-orbit."""
    import numpy as np
    n, k, d = entries.shape
    size = zt.shape[1]
    z_inv = np.argsort(zt, axis=0).astype(np.int16).ravel()  # z_c^-1(p) at p * size + c
    cols = np.arange(size, dtype=np.int32)[:, None]
    # z_c^-1 g z_c for each row g and column c, as (rows, |Z|, entries)
    conj = z_inv[entries[:, :, zt.T].astype(np.int32) * size + cols].transpose(0, 2, 1, 3)
    conj = conj.reshape(n, size, k * d)
    own = entries.reshape(n, 1, k * d)
    first = (conj != own).argmax(axis=2)[..., None]  # 0 when equal
    return ~np.take_along_axis(conj < own, first, axis=2).any(axis=(1, 2))


def hurwitz_number_brute(t: RamificationType) -> int:
    """The number of uniform-conjugacy classes of Hurwitz factorizations of
    type t, by Burnside's lemma over the raw tuples of the search, without
    storing a class (see the module docstring).  Refused as
    enumerate_factorizations refuses."""
    plan = _search_plan(t)
    if plan is None:
        return 0
    import numpy as np
    *_, zt, chunks = plan
    size = zt.shape[1]
    total = 0
    for _, entries in chunks:
        fixing = _x_fixers(entries, zt)
        stab = np.ones(len(entries), dtype=np.int64)
        tested = fixing > 1
        # every entry but g_1, which the product of the others fixes
        stab[tested] = _fixers(entries[tested], zt).all(axis=1).sum(axis=1)
        total += int((size // fixing) @ stab)
    h, rest = divmod(total, size)
    if rest:  # a bug, never rounded, so raised also under python -O
        raise AssertionError(f"{t}: {total} is not a multiple of |Z| = {size}")
    return h


# -- JSON lines export -------------------------------------------------------


def factorization_to_json(f: HurwitzFactorization) -> dict:
    """``{"d": d, "tuple": [[cycle, ...], ...]}`` with 1-based cycles."""
    return {
        "d": f.degree,
        "tuple": [
            [[p + 1 for p in cyc] for cyc in cycles(g)] for g in f.perms
        ],
    }


def factorization_from_json(obj: dict) -> HurwitzFactorization:
    degree = obj["d"]
    perms = tuple(
        from_cycles(degree, [[p - 1 for p in cyc] for cyc in cycle_list])
        for cycle_list in obj["tuple"]
    )
    return HurwitzFactorization(degree, perms)


def factorizations_to_jsonl(fs: Iterable[HurwitzFactorization]) -> str:
    return "\n".join(json.dumps(factorization_to_json(f)) for f in fs)
