"""Permutations of {0..d-1} in word form, and cycle-type bookkeeping.

A permutation of degree d is a tuple ``g`` of length d with ``g[x]`` the image
of ``x``.  The composition convention is fixed once for the whole package:

    compose(a, b) applies b first, i.e. compose(a, b)[x] == a[b[x]].

Tuples of permutations are always written in left-to-right product order, so
the product identity for a factorization (g1, ..., gr) reads

    compose(g1, compose(g2, ... compose(g_{r-1}, gr))) == identity.

Cycle notation in data files and JSON uses 1-based points, e.g. ``(1,2,3)(4,5)``;
everything in memory is 0-based.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import BoundExceededError, InvalidTypeError

Perm = tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(a: Perm, b: Perm) -> Perm:
    """Product ab under the apply-b-first convention: (ab)(x) = a(b(x))."""
    if len(a) != len(b):
        raise InvalidTypeError(f"degree mismatch: {len(a)} vs {len(b)}")
    if len(b) < 2:  # itemgetter needs an index and returns a bare item for one
        return tuple(a[x] for x in b)
    return itemgetter(*b)(a)


def compose_all(perms: Iterable[Perm], degree: int) -> Perm:
    """Left-to-right product g1 g2 ... gr (gr applied first)."""
    result = identity(degree)
    for g in perms:
        result = compose(result, g)
    return result


def inverse(g: Perm) -> Perm:
    inv = [0] * len(g)
    for x, y in enumerate(g):
        inv[y] = x
    return tuple(inv)


def conjugate(s: Perm, g: Perm) -> Perm:
    """s g s^{-1}; relabels g along s, preserving cycle type."""
    if len(s) != len(g):
        raise InvalidTypeError(f"degree mismatch: {len(s)} vs {len(g)}")
    out = [0] * len(g)
    for x, y in enumerate(g):
        out[s[x]] = s[y]
    return tuple(out)


def cycles(g: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles of g, each starting at its least point, ordered by that point."""
    out = []
    seen = [False] * len(g)
    for start in range(len(g)):
        if seen[start] or g[start] == start:
            continue
        cyc = [start]
        seen[start] = True
        x = g[start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = g[x]
        out.append(tuple(cyc))
    return out


def cycle_lengths(g: Perm) -> tuple[int, ...]:
    """Lengths >= 2 of the cycles of g, sorted decreasing (fixed points dropped)."""
    return tuple(sorted(map(len, cycles(g)), reverse=True))


def from_cycles(degree: int, cycle_list: Iterable[Sequence[int]]) -> Perm:
    """Permutation from disjoint cycles on 0-based points."""
    images = list(range(degree))
    touched = set()
    for cyc in cycle_list:
        for pt in cyc:
            if not 0 <= pt < degree:
                raise InvalidTypeError(f"point {pt} out of range for degree {degree}")
            if pt in touched:
                raise InvalidTypeError(f"cycles are not disjoint at point {pt}")
            touched.add(pt)
        for i, pt in enumerate(cyc):
            images[pt] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(degree: int, text: str) -> Perm:
    """Parse 1-based disjoint-cycle notation, e.g. ``(1,2,3)(4,5)`` or ``()``."""
    stripped = text.replace(" ", "")
    if stripped in ("", "()"):
        return identity(degree)
    if not re.fullmatch(r"(\([^()]*\))+", stripped):
        raise InvalidTypeError(f"malformed cycle notation: {text!r}")
    cycle_list = []
    for body in _CYCLE_RE.findall(stripped):
        if not body:
            continue
        pts = [int(tok) for tok in body.split(",")]
        if any(p < 1 for p in pts):
            raise InvalidTypeError(f"points are 1-based in {text!r}")
        cycle_list.append([p - 1 for p in pts])
    return from_cycles(degree, cycle_list)


def format_cycles(g: Perm) -> str:
    """1-based disjoint-cycle notation; the identity prints as ``()``."""
    cycs = cycles(g)
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(p + 1) for p in cyc) + ")" for cyc in cycs)


@dataclass(frozen=True)
class CycleType:
    """Conjugacy class of S_degree: multiset of cycle lengths >= 2, fixed points implicit."""

    degree: int
    lengths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(sorted(self.lengths, reverse=True)))
        if self.degree < 1:
            raise InvalidTypeError(f"degree must be positive, got {self.degree}")
        if any(l < 2 for l in self.lengths):
            raise InvalidTypeError(f"cycle lengths must be >= 2, got {self.lengths}")
        if sum(self.lengths) > self.degree:
            raise InvalidTypeError(
                f"cycle lengths {self.lengths} do not fit in degree {self.degree}"
            )

    @classmethod
    def of(cls, g: Perm) -> "CycleType":
        return cls(len(g), cycle_lengths(g))

    @property
    def moved(self) -> int:
        return sum(self.lengths)

    @property
    def parity(self) -> int:
        """+1 for even permutations, -1 for odd."""
        return -1 if sum(l - 1 for l in self.lengths) % 2 else 1

    def canonical_representative(self) -> Perm:
        """Cycles in decreasing length laid out on consecutive points from 0."""
        images = list(range(self.degree))
        start = 0
        for l in self.lengths:
            for i in range(l):
                images[start + i] = start + (i + 1) % l
            start += l
        return tuple(images)

    def class_size(self) -> int:
        return math.factorial(self.degree) // centralizer_order(self)

    def __str__(self) -> str:
        if not self.lengths:
            return "1"
        return "-".join(str(l) for l in sorted(self.lengths))


def centralizer_order(t: CycleType) -> int:
    """Order of the centralizer in S_d of a permutation of type t.

    Product over distinct lengths l (fixed points counting as length 1) with
    multiplicity k of l^k * k!.
    """
    fixed = t.degree - t.moved
    order = math.factorial(fixed)
    for l in set(t.lengths):
        k = t.lengths.count(l)
        order *= l**k * math.factorial(k)
    return order


CENTRALIZER_LIMIT = 10**6


def centralizer_elements(g: Perm) -> list[Perm]:
    """All permutations commuting with g, built directly from its cycle structure.

    An element of the centralizer maps cycles of g to equal-length cycles of g
    preserving cyclic order, and permutes the fixed points freely.
    """
    degree = len(g)
    total = centralizer_order(CycleType.of(g))
    if total > CENTRALIZER_LIMIT:
        raise BoundExceededError(
            f"centralizer order {total} exceeds limit {CENTRALIZER_LIMIT}"
        )

    by_length: dict[int, list[tuple[int, ...]]] = {}
    for cyc in cycles(g):
        by_length.setdefault(len(cyc), []).append(cyc)
    fixed = [x for x in range(degree) if g[x] == x]

    # Per length group: a permutation of the cycles plus a rotation per cycle.
    group_choices = []
    for l, cycs in sorted(by_length.items()):
        k = len(cycs)
        choices = []
        for target in itertools.permutations(range(k)):
            for offsets in itertools.product(range(l), repeat=k):
                mapping = []
                for i in range(k):
                    src, dst = cycs[i], cycs[target[i]]
                    mapping.extend(
                        (src[j], dst[(j + offsets[i]) % l]) for j in range(l)
                    )
                choices.append(mapping)
        group_choices.append(choices)
    fixed_choices = [
        list(zip(fixed, image)) for image in itertools.permutations(fixed)
    ]
    group_choices.append(fixed_choices)

    out = []
    for combo in itertools.product(*group_choices):
        images = list(range(degree))
        for mapping in combo:
            for src, dst in mapping:
                images[src] = dst
        out.append(tuple(images))
    out.sort()
    return out


def all_of_type(t: CycleType) -> Iterator[Perm]:
    """All elements of the conjugacy class t, each exactly once.

    For every length group the support set is chosen first; within a group,
    cycles are peeled off with increasing leaders (each leader the least point
    of the group's remaining support), which kills the k! overcount among
    equal-length cycles.
    """
    degree = t.degree
    groups = [
        (l, t.lengths.count(l)) for l in sorted(set(t.lengths), reverse=True)
    ]

    def next_group(avail: tuple[int, ...], gi: int, images: list[int]) -> Iterator[Perm]:
        if gi == len(groups):
            yield tuple(images)
            return
        l, k = groups[gi]
        for support in itertools.combinations(avail, l * k):
            in_support = set(support)
            leftover = tuple(x for x in avail if x not in in_support)
            yield from peel_cycles(support, leftover, l, k, gi, images)

    def peel_cycles(support, leftover, l, k, gi, images) -> Iterator[Perm]:
        if k == 0:
            yield from next_group(leftover, gi + 1, images)
            return
        lead = support[0]
        rest = support[1:]
        for others in itertools.combinations(rest, l - 1):
            chosen = set(others)
            remaining = tuple(x for x in rest if x not in chosen)
            for arrangement in itertools.permutations(others):
                cyc = (lead,) + arrangement
                for i in range(l):
                    images[cyc[i]] = cyc[(i + 1) % l]
                yield from peel_cycles(remaining, leftover, l, k - 1, gi, images)
                for p in cyc:
                    images[p] = p

    yield from next_group(tuple(range(degree)), 0, list(range(degree)))
