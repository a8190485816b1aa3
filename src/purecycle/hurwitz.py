"""Hurwitz factorizations: brute-force enumeration and closed-form counts.

A ramification type (d; C_1, ..., C_r) prescribes conjugacy classes of S_d at
r ordered branch points.  Its Hurwitz number is the number of tuples
(g_1, ..., g_r) with g_i in C_i, left-to-right product the identity and
transitive generated group, counted up to uniform conjugacy by S_d.

One enumerator serves every r >= 3.  It anchors g_r at the canonical class
representative, vectorizes over the first-largest middle class, loops over the
other middle classes, solves g_1 from the product identity, and deduplicates by
the lexicographically least tuple over the anchor's centralizer.  Every
returned representative is in that canonical form, and the list is sorted, so
output is deterministic.

Closed formulas are provided for genus-0 pure-cycle types with three or four
branch points (rigidity and the min e_i(d+1-e_i) count) and for types with a
single two-cycle class, together with the known monodromy classification of
such covers.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .arith import is_prime
from .errors import BoundExceededError, InvalidTypeError
from .group import is_transitive
from .perm import (
    CycleType,
    Perm,
    all_of_type,
    centralizer_elements,
    compose_all,
    conjugate,
    cycle_lengths,
    cycles,
    from_cycles,
    identity,
    inverse,
)

DEFAULT_MAX_DEGREE = 9
PURE_CYCLE_MAX_DEGREE = 11


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
    def parse(cls, text: str) -> "RamificationType":
        """Parse the compact grammar ``d:e1,...,er`` (r >= 3) / ``d:e1-e2,e3,e4``."""
        head, sep, rest = text.partition(":")
        if not sep:
            raise InvalidTypeError(f"expected 'd:classes', got {text!r}")
        try:
            degree = int(head)
            tokens = [
                tuple(int(part) for part in tok.split("-"))
                for tok in rest.split(",")
            ]
        except ValueError as exc:
            raise InvalidTypeError(f"cannot parse type {text!r}: {exc}") from None
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

    def two_cycle_exponents(self) -> tuple[int, int, int, int] | None:
        """(e1, e2, e3, e4) with e1 <= e2 and e3 <= e4 for the shape
        (d; e1-e2, e3, e4), in any class order; None for every other shape."""
        pairs = [cl.lengths for cl in self.classes if len(cl.lengths) == 2]
        singles = sorted(cl.lengths[0] for cl in self.classes if len(cl.lengths) == 1)
        if len(self.classes) != 3 or len(pairs) != 1 or len(singles) != 2:
            return None
        e1, e2 = sorted(pairs[0])
        return e1, e2, singles[0], singles[1]


genus_of_type = RamificationType.genus


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

    def ramification_type(self) -> RamificationType:
        return RamificationType(
            self.degree, tuple(CycleType.of(g) for g in self.perms)
        )

    def __lt__(self, other: "HurwitzFactorization") -> bool:
        return self.perms < other.perms


@dataclass(frozen=True)
class MonodromyClass:
    """Galois group of the Galois closure, as a closed label set."""

    kind: str  # "symmetric" | "alternating" | "affine" | "psl_family" | "exceptional"
    degree: int | None = None
    label: str | None = None

    _KINDS = ("symmetric", "alternating", "affine", "psl_family", "exceptional")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise InvalidTypeError(f"unknown monodromy kind {self.kind!r}")
        if self.kind in ("symmetric", "alternating") and self.degree is None:
            raise InvalidTypeError(f"{self.kind} monodromy needs a degree")
        if self.kind == "exceptional" and not self.label:
            raise InvalidTypeError("exceptional monodromy needs a label")

    def __str__(self) -> str:
        if self.kind == "symmetric":
            return f"S{self.degree}"
        if self.kind == "alternating":
            return f"A{self.degree}"
        if self.kind == "affine":
            return "F_p:F_p^*"
        if self.kind == "psl_family":
            return "PSL2-family"
        return self.label or "exceptional"


def symmetric(degree: int) -> MonodromyClass:
    return MonodromyClass("symmetric", degree=degree)


def alternating(degree: int) -> MonodromyClass:
    return MonodromyClass("alternating", degree=degree)


AFFINE_FP = MonodromyClass("affine")


def galois_factor(c: MonodromyClass) -> int:
    """Galois covers per mere cover: 2 for alternating monodromy, 1 for symmetric."""
    if c.kind == "alternating":
        return 2
    if c.kind == "symmetric":
        return 1
    raise InvalidTypeError(f"no Galois factor for monodromy {c}")


# -- closed formulas ---------------------------------------------------------


def hurwitz_formula_pure4(d: int, exponents: Sequence[int]) -> int:
    """min_i e_i(d+1-e_i) for a genus-0 pure-cycle type (d; e1, e2, e3, e4)."""
    es = tuple(exponents)
    if len(es) != 4:
        raise InvalidTypeError("exactly four exponents required")
    if any(not 2 <= e <= d for e in es):
        raise InvalidTypeError(f"exponents {es} out of range for degree {d}")
    if sum(es) != 2 * d + 2:
        raise InvalidTypeError(
            f"genus-0 condition violated: sum {sum(es)} != {2 * d + 2}"
        )
    return min(e * (d + 1 - e) for e in es)


def hurwitz_formula_badtype(d: int, e1: int, e2: int, e3: int, e4: int) -> int:
    """Count for type (d; e1-e2, e3, e4) with e1+e2 <= d and sum 2d+2.

    (d+1-e1-e2) * min(e1, e2, d+1-e3, d+1-e4) when e1 != e2, and the rounded-up
    half of (d+1-e1-e2) * min(d+1-e3, d+1-e4) when e1 = e2; the ceiling absorbs
    the single self-paired factorization that appears when d, e3, e4 are all
    even.  Always positive.
    """
    if e1 + e2 + e3 + e4 != 2 * d + 2:
        raise InvalidTypeError(
            f"genus-0 condition violated: sum {e1 + e2 + e3 + e4} != {2 * d + 2}"
        )
    if e1 + e2 > d:
        raise InvalidTypeError(f"two-cycle class {e1}-{e2} does not fit in degree {d}")
    if any(e < 2 for e in (e1, e2, e3, e4)) or max(e3, e4) > d:
        raise InvalidTypeError("cycle lengths must lie in [2, d]")
    if e1 != e2:
        value = (d + 1 - e1 - e2) * min(e1, e2, d + 1 - e3, d + 1 - e4)
    else:
        value = -((d + 1 - e1 - e2) * min(d + 1 - e3, d + 1 - e4) // -2)
    assert value > 0
    return value


_EXCEPTIONAL_PURE = (6, (4, 4, 5))
_EXCEPTIONAL_PAIR = (5, (2, 2), (4, 4))


def monodromy_classify(t: RamificationType) -> MonodromyClass:
    """Monodromy group of a genus-0 pure-cycle cover, or of a prime-degree
    cover with a single two-cycle class.

    Pure-cycle: alternating iff every exponent is odd, symmetric otherwise,
    except (6; 4,4,5) whose monodromy is S_5 acting on 6 letters.  Two-cycle
    shape (p; e1-e2, e3, e4): alternating iff e3, e4 are odd and e1+e2 even,
    except (5; 2-2, 4,4) with affine monodromy F_5 : F_5^*.
    """
    d = t.degree
    if t.is_pure_cycle:
        if t.genus() != 0:
            raise InvalidTypeError("pure-cycle classifier needs a genus-0 type")
        es = t.exponents
        if (d, tuple(sorted(es))) == _EXCEPTIONAL_PURE:
            return MonodromyClass("exceptional", label="S5 on 6 letters")
        if all(e % 2 for e in es):
            return alternating(d)
        return symmetric(d)

    exponents = t.two_cycle_exponents()
    if exponents is None:
        raise InvalidTypeError(f"type {t} is outside the classified shapes")
    if not is_prime(d):
        raise InvalidTypeError("two-cycle classifier needs prime degree")
    e1, e2, e3, e4 = exponents
    if e1 + e2 > d:
        raise InvalidTypeError("two-cycle classifier needs e1+e2 <= p")
    if t.genus() != 0:
        raise InvalidTypeError("two-cycle classifier needs a genus-0 type")
    if (d, (e1, e2), (e3, e4)) == _EXCEPTIONAL_PAIR:
        return AFFINE_FP
    if e3 % 2 and e4 % 2 and (e1 + e2) % 2 == 0:
        return alternating(d)
    return symmetric(d)


# -- enumeration -------------------------------------------------------------


def _conjugate_tuple(s: Perm, perms: tuple[Perm, ...]) -> tuple[Perm, ...]:
    return tuple(conjugate(s, g) for g in perms)


def _transporter_to_canonical(g: Perm) -> Perm:
    """Some s with s g s^{-1} the canonical representative of g's class."""
    degree = len(g)
    ordered = sorted(cycles(g), key=lambda cyc: (-len(cyc), cyc[0]))
    images = [-1] * degree
    nxt = 0
    for cyc in ordered:
        for p in cyc:
            images[p] = nxt
            nxt += 1
    for p in range(degree):
        if images[p] < 0:
            images[p] = nxt
            nxt += 1
    return tuple(images)


def _canonical_anchored(
    perms: tuple[Perm, ...], centralizer: Sequence[Perm]
) -> tuple[Perm, ...]:
    """Lex-least conjugate among those fixing the anchored last entry."""
    return min(_conjugate_tuple(z, perms) for z in centralizer)


def canonical_form(f: HurwitzFactorization) -> HurwitzFactorization:
    """Canonical representative of f's uniform-conjugacy class.

    The last entry is moved to the canonical representative of its class; the
    remaining freedom is that representative's centralizer, over which the
    lexicographic minimum of the image tuples is taken.
    """
    mover = _transporter_to_canonical(f.perms[-1])
    anchored = _conjugate_tuple(mover, f.perms)
    centralizer = centralizer_elements(anchored[-1])
    return HurwitzFactorization(f.degree, _canonical_anchored(anchored, centralizer))


def _search_generic(
    d: int, classes: tuple[CycleType, ...], anchor: Perm
) -> Iterator[tuple[Perm, ...]]:
    """Raw tuples (g_1, ..., g_r) with g_r = anchor, for any r >= 3: g_2 ... g_r
    is L V R, with V the rows of the vectorized class, L the product of the
    looped entries left of it and R of those right of it, anchor included."""
    target = classes[0].lengths
    moved = classes[0].moved
    idx = np.arange(d, dtype=np.int16)
    middle = classes[1:-1]
    at = max(range(len(middle)), key=lambda i: middle[i].class_size())
    rows = np.array(list(all_of_type(middle[at])), dtype=np.int16)
    lefts = [list(all_of_type(cl)) for cl in middle[:at]]
    rights = [list(all_of_type(cl)) for cl in middle[at + 1:]]
    for right in itertools.product(*rights):
        after = rows[:, compose_all(right + (anchor,), d)]  # row k is V o R
        for left in itertools.product(*lefts):
            prod = after  # row k is L o V o R = g_2 ... g_r
            if left:
                prod = np.asarray(compose_all(left, d), dtype=np.int16)[after]
            counts = d - (prod == idx).sum(axis=1)
            for k in np.nonzero(counts == moved)[0]:
                w = tuple(int(x) for x in prod[k])
                if cycle_lengths(w) != target:
                    continue
                tup = left + (tuple(int(x) for x in rows[k]),) + right + (anchor,)
                if not is_transitive(tup, d):
                    continue
                yield (inverse(w),) + tup


# kept only because perfbench/tracer.py still resolves these two names
_search_r3 = _search_r4 = _search_generic


def enumerate_factorizations(
    t: RamificationType, max_degree: int | None = None
) -> list[HurwitzFactorization]:
    """All Hurwitz factorizations of type t, one canonical representative per
    uniform-conjugacy class, sorted.
    """
    if max_degree is None:
        max_degree = PURE_CYCLE_MAX_DEGREE if t.is_pure_cycle else DEFAULT_MAX_DEGREE
    if t.degree > max_degree:
        raise BoundExceededError(
            f"degree {t.degree} exceeds enumeration bound {max_degree}"
        )
    d = t.degree
    if sum(cl.parity < 0 for cl in t.classes) % 2:
        return []  # no product of these classes is even, let alone the identity

    anchor = t.classes[-1].canonical_representative()
    centralizer = centralizer_elements(anchor)
    raw = _search_generic(d, t.classes, anchor)
    seen = {_canonical_anchored(tup, centralizer) for tup in raw}
    return [HurwitzFactorization(d, tup) for tup in sorted(seen)]


def hurwitz_number_brute(
    t: RamificationType, max_degree: int | None = None
) -> int:
    """Cardinality of the factorization set, by exhaustive enumeration."""
    return len(enumerate_factorizations(t, max_degree=max_degree))


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
