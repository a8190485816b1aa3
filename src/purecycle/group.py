"""Finite permutation group analysis: order, transitivity, cycle-type census.

The workhorse is a deterministic Schreier-Sims stabilizer chain (base points
chosen smallest-first, BFS orbits, generators processed in list order), so
repeated runs produce identical data.  The tests check it against an
exhaustive closure, an independent oracle for small groups kept in
``tests/conftest.py``.

Generator data files are plain text: a ``degree: n`` header, then one
permutation per line in 1-based disjoint-cycle notation.  Lines starting with
``#`` are comments.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import BoundExceededError, InvalidTypeError
from .perm import (
    CycleType,
    Perm,
    compose,
    cycle_lengths,
    identity,
    inverse,
    parse_cycles,
)

_CENSUS_CHUNK = 5 * 10**5


@dataclass(frozen=True)
class GroupReport:
    """A permutation group of the given degree, described by its order and
    whether it is transitive."""

    degree: int
    order: int
    is_transitive: bool

    @property
    def classification(self) -> str:
        """"symmetric" at order d!, "alternating" at d!/2 (A_d is the only
        subgroup of index 2 in S_d), "other" otherwise."""
        full = math.factorial(self.degree)
        if self.order == full:
            return "symmetric"
        if 2 * self.order == full:
            return "alternating"
        return "other"


class StabilizerChain:
    """Deterministic base-and-strong-generators chain for <gens> in S_degree."""

    def __init__(self, generators: Sequence[Perm], degree: int):
        if not generators:
            raise InvalidTypeError("at least one generator required")
        if any(len(g) != degree for g in generators):
            raise InvalidTypeError("generators must share the chain degree")
        self.degree = degree
        self.base: list[int] = []
        self._level_gens: list[list[Perm]] = []
        self.transversals: list[dict[int, Perm]] = []
        # _inverses[i][pt] is transversals[i][pt]^-1, so sifting never inverts
        self._inverses: list[dict[int, Perm]] = []
        self._build([g for g in generators if g != identity(degree)])

    # -- construction ------------------------------------------------------

    def _first_moved(self, g: Perm) -> int:
        return next(x for x in range(self.degree) if g[x] != x)

    def _append_base_point(self, g: Perm) -> None:
        self.base.append(self._first_moved(g))
        self._level_gens.append([])
        self.transversals.append({})
        self._inverses.append({})

    def _rebuild_transversal(self, i: int) -> None:
        b = self.base[i]
        trans = {b: identity(self.degree)}
        inv = {b: identity(self.degree)}
        gens = [(s, inverse(s)) for s in self._level_gens[i]]
        queue = [b]
        for a in queue:
            ua = trans[a]
            for s, s_inv in gens:
                c = s[a]
                if c not in trans:
                    trans[c] = compose(s, ua)
                    inv[c] = compose(inv[a], s_inv)
                    queue.append(c)
        self.transversals[i] = trans
        self._inverses[i] = inv

    def _strip(self, g: Perm, start: int) -> tuple[Perm, int]:
        """Sift g through levels >= start; returns (residue, level reached)."""
        for j in range(start, len(self.base)):
            u_inv = self._inverses[j].get(g[self.base[j]])
            if u_inv is None:
                return g, j
            g = compose(u_inv, g)
        return g, len(self.base)

    def _build(self, gens: list[Perm]) -> None:
        ident = identity(self.degree)
        if not gens:
            self.base = []
            return
        for g in gens:
            if all(g[b] == b for b in self.base):
                self._append_base_point(g)
        for i in range(len(self.base)):
            prefix = self.base[:i]
            self._level_gens[i] = [
                g for g in gens if all(g[b] == b for b in prefix)
            ]
            self._rebuild_transversal(i)

        i = len(self.base) - 1
        while i >= 0:
            violation = False
            trans = self.transversals[i]
            inv = self._inverses[i]
            orbit = list(trans)
            for b in orbit:
                ub = trans[b]
                for s in self._level_gens[i]:
                    schreier = compose(inv[s[b]], compose(s, ub))
                    if schreier == ident:
                        continue
                    residue, j = self._strip(schreier, i + 1)
                    if residue == ident:
                        continue
                    if j == len(self.base):
                        self._append_base_point(residue)
                    for level in range(i + 1, j + 1):
                        self._level_gens[level].append(residue)
                        self._rebuild_transversal(level)
                    i = j
                    violation = True
                    break
                if violation:
                    break
            if not violation:
                i -= 1

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        n = 1
        for trans in self.transversals:
            n *= len(trans)
        return n

    def elements(self, levels: int | None = None) -> Iterator[Perm]:
        """Each product u_0 u_1 ... u_(k-1) of one transversal element per level
        over the first k = levels levels, exactly once.  Over all levels (the
        default) these are the group's elements."""
        if levels is None:
            levels = len(self.base)

        def rec(level: int, prefix: Perm) -> Iterator[Perm]:
            if level == levels:
                yield prefix
                return
            trans = self.transversals[level]
            for pt in sorted(trans):
                yield from rec(level + 1, compose(prefix, trans[pt]))

        yield from rec(0, identity(self.degree))


def is_transitive(generators: Sequence[Perm], degree: int) -> bool:
    orbit = {0}
    queue = [0]
    for a in queue:
        for g in generators:
            b = g[a]
            if b not in orbit:
                orbit.add(b)
                queue.append(b)
    return len(orbit) == degree


def group_analyze(generators: Sequence[Perm]) -> GroupReport:
    """Exact order and transitivity of the group the generators generate."""
    if not generators:
        raise InvalidTypeError("at least one generator required")
    degree = len(generators[0])
    order = StabilizerChain(generators, degree).order()
    return GroupReport(degree, order, is_transitive(generators, degree))


def cycle_type_census(
    generators: Sequence[Perm], cap: int
) -> Counter[CycleType]:
    """Exact census of cycle types over all group elements.

    Requires the group order to be at most cap (full enumeration).
    """
    if not generators:
        raise InvalidTypeError("at least one generator required")
    degree = len(generators[0])
    chain = StabilizerChain(generators, degree)
    order = chain.order()
    if order > cap:
        raise BoundExceededError(f"group order {order} exceeds census cap {cap}")
    return Counter(
        {CycleType(degree, lengths): n for lengths, n in _census_batched(chain).items()}
    )


def fixed_point_rows(words: np.ndarray, top: int) -> np.ndarray:
    """Row i holds fix(words[i]^k) for k = 1, ..., top.

    words holds one permutation of degree d per row, in word form.  At
    top = max(d // 2, 1) the row determines the cycle type, so two
    permutations are conjugate exactly when their rows are equal.  With c_l
    the number of l-cycles, fix(g^k) = sum of l * c_l over the divisors l of
    k, and every divisor of k <= top is itself <= top, so Moebius inversion
    recovers c_1, ..., c_top.  The points outside those cycles lie in cycles
    longer than d / 2, of which there is at most one.
    """
    n, degree = words.shape
    idx = np.arange(degree, dtype=words.dtype)
    out = np.empty((n, top), dtype=np.min_scalar_type(degree))
    rows = np.arange(n)[:, None]
    power = words
    out[:, 0] = (words == idx).sum(axis=1)
    for k in range(1, top):
        power = words[rows, power]  # w^(k+1) = w o w^k
        out[:, k] = (power == idx).sum(axis=1)
    return out


def _census_batched(chain: StabilizerChain) -> Counter[tuple[int, ...]]:
    """Census via numpy batches; same result as direct element iteration.

    Elements are built as outer-prefix x inner-suffix transversal products,
    grouped by their fixed_point_rows at top = max(degree // 2, 1), which
    determine the cycle type; one representative of each group is decomposed
    into cycles.
    """
    degree = chain.degree
    sizes = [len(t) for t in chain.transversals]
    split = len(sizes)
    suffix = 1
    while split > 0 and suffix * sizes[split - 1] <= _CENSUS_CHUNK:
        suffix *= sizes[split - 1]
        split -= 1

    # materialize all suffix products u_split ... u_last, bottom-up
    inner = np.arange(degree, dtype=np.int16)[None, :]
    for level in range(len(sizes) - 1, split - 1, -1):
        trans = chain.transversals[level]
        images = np.array([trans[pt] for pt in sorted(trans)], dtype=np.int16)
        inner = images[:, inner].reshape(-1, degree)

    counts: Counter[tuple[int, ...]] = Counter()
    half = max(degree // 2, 1)
    for prefix in chain.elements(split):
        batch = np.asarray(prefix, dtype=np.int16)[inner]
        fixed = fixed_point_rows(batch, half)
        # Each row is keyed by its raw bytes as one fixed-width record: exact
        # at any degree, and a 1-D sort, which is several times faster than
        # sorting rows with np.unique(axis=0).
        keys = fixed.view(np.dtype((np.void, half * fixed.itemsize))).ravel()
        _, first, cnt = np.unique(keys, return_index=True, return_counts=True)
        for i, n in zip(first.tolist(), cnt.tolist()):
            counts[cycle_lengths(batch[i].tolist())] += n
    return counts


def load_generators(path: str | Path) -> tuple[int, list[Perm]]:
    """Read a generator data file (``degree: n`` header, 1-based cycles)."""
    degree = None
    gens: list[Perm] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().startswith("degree:"):
            if degree is not None:
                raise InvalidTypeError("duplicate degree header")
            degree = int(line.split(":", 1)[1])
            continue
        if degree is None:
            raise InvalidTypeError("degree header must precede generators")
        gens.append(parse_cycles(degree, line))
    if degree is None or not gens:
        raise InvalidTypeError(f"no generators found in {path}")
    return degree, gens
