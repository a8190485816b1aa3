"""Permutations of {0..d-1} in word form, and cycle-type bookkeeping.

A permutation of degree d is a tuple ``g`` of length d with ``g[x]`` the image
of ``x``.  The composition convention is fixed once for the whole package:

    compose(a, b) applies b first, i.e. compose(a, b)[x] == a[b[x]].

Tuples of permutations are always written in left-to-right product order, so
the product identity for a factorization (g1, ..., gr) reads

    compose(g1, compose(g2, ... compose(g_{r-1}, gr))) == identity.

Cycle notation in data files and JSON uses 1-based points, e.g. ``(1,2,3)(4,5)``;
everything in memory is 0-based.

The Hurwitz search takes each conjugacy class as one int16 array, one element
per row (``class_array``); ``all_of_type`` yields the same elements as tuples.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .errors import BoundExceededError, InvalidTypeError

if TYPE_CHECKING:
    import numpy as np

Perm = tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def gather(b: Perm) -> Callable[[Perm], Perm]:
    """a -> compose(a, b) as one C-level gather, built once for many a of the
    degree of b; it does not check that degree."""
    if len(b) < 2:  # itemgetter needs an index and returns a bare item for one
        return lambda a: tuple(a[x] for x in b)
    return itemgetter(*b)


def compose(a: Perm, b: Perm) -> Perm:
    """Product ab under the apply-b-first convention: (ab)(x) = a(b(x))."""
    if len(a) != len(b):
        raise InvalidTypeError(f"degree mismatch: {len(a)} vs {len(b)}")
    return gather(b)(a)


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


def parse_ints(text: str, sep: str, whole: str | None = None) -> tuple[int, ...]:
    """The integers of text split at sep; an item that int() rejects, an empty
    one included, raises InvalidTypeError naming it and whole (default text)."""
    out = []
    for item in text.split(sep):
        try:
            out.append(int(item))
        except ValueError:
            raise InvalidTypeError(f"not an integer: {item!r} in {whole or text!r}") from None
    return tuple(out)


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
        pts = parse_ints(body, ",", text)
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


@functools.lru_cache(maxsize=256)
def _choices(d: int, start: int, m: int, l: int) -> np.ndarray:
    """One row per l-subset of the m positions from start: 0..d-1 with that
    subset leading those m positions, itself and the rest of them increasing."""
    import numpy as np
    window = set(range(start, start + m))
    rows = [[*range(start), *sub, *sorted(window - set(sub)), *range(start + m, d)]
            for sub in itertools.combinations(sorted(window), l)]
    return np.array(rows, dtype=np.int16)


def class_array(t: CycleType) -> np.ndarray:
    """All elements of the class t, each once, one per row of an int16 array.

    Row k is w g0 w^-1, with g0 the canonical representative and w a canonical
    word: the cycles longest first, each led by its least point, equal lengths
    by increasing leader, then the fixed points.  Gathers build the words: each
    cycle's points from those left (after an equal-length cycle, only leaders of
    at least the last leader's rank among them), then, one point at a time,
    every order of each cycle's points after its leader.
    """
    import numpy as np
    d = t.degree
    words = np.arange(d, dtype=np.int16)[None]
    start = prev = 0
    for l in t.lengths:
        table = _choices(d, start, d - start, l)
        rank = table[:, start] - start  # the leader's rank among the points left
        if l != prev:
            floor = np.zeros((len(words), 1), dtype=np.int16)
        ok = rank >= floor
        words = words[:, table][ok]
        floor = np.broadcast_to(rank, ok.shape)[ok][:, None]
        start, prev = start + l, l
    start = 0
    for l in t.lengths:
        for q in range(start + 1, start + l - 1):
            words = words[:, _choices(d, q, start + l - q, 1)].reshape(-1, d)
        start += l
    out = np.empty_like(words)
    flat, starts = out.reshape(-1), np.arange(0, words.size, d)
    for x, y in enumerate(t.canonical_representative()):  # out[w[x]] = w[g0[x]]
        flat[starts + words[:, x]] = words[:, y]
    return out


def all_of_type(t: CycleType) -> Iterator[Perm]:
    """All elements of the conjugacy class t, each exactly once, as tuples."""
    yield from map(tuple, class_array(t).tolist())
