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
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import BoundExceededError, InvalidTypeError
from .perm import (
    CycleType,
    Perm,
    compose,
    identity,
    inverse,
    parse_cycles,
)

# Entries (rows x degree) per census batch.  On the benchmark's groups
# (two-generator subgroups of S_6 to S_9, M_11, PGammaL(2,16)), 2^16 and 2^17
# ran fastest of 2^15 to 2^18 and 2^18 a third slower; 2^16 needs half the
# memory of 2^17, about 2 MB a batch.
_CENSUS_CHUNK = 2**16

# Schreier-Sims cost grows fast with the degree.  At 40 points, (1,2) with a
# 40-cycle builds its chain in 1.9-2.2 s, the 39 transpositions (1,i) in 2.6 s
# and all 780 transpositions in 5.2-5.6 s; (1,2) with a 48-cycle takes 6.1 s
# and with a 60-cycle 43 s (2 cores, Python 3.11).
MAX_GROUP_DEGREE = 40
# With many generators the cost also grows with their number, fastest for
# transpositions: at 40 points random transpositions cost 7-8 ms each, and 370
# of them build in 2.8-3.0 s, as long as the 39 transpositions (1,i) timed
# alongside (2.7-2.9 s), so the bound sits there.  Other shapes cost less:
# 370 random 3-cycles 2.1 s, 370 random permutations 0.6 s.
MAX_GROUP_GENERATORS = 370


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
    """Deterministic base-and-strong-generators chain for <gens> in S_degree.

    At most MAX_GROUP_DEGREE points and MAX_GROUP_GENERATORS generators, both
    checked before any work; the slowest accepted inputs timed, the 39
    transpositions (1,i) of S_40 and 370 random transpositions of S_40, build
    in about 3 s."""

    def __init__(self, generators: Sequence[Perm], degree: int):
        if degree > MAX_GROUP_DEGREE:
            raise BoundExceededError(
                f"degree {degree} exceeds group degree bound {MAX_GROUP_DEGREE}"
            )
        if len(generators) > MAX_GROUP_GENERATORS:
            raise BoundExceededError(
                f"{len(generators)} generators exceed group generator bound "
                f"{MAX_GROUP_GENERATORS}"
            )
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


@lru_cache(maxsize=1)
def _chain(generators: tuple[Perm, ...]) -> StabilizerChain:
    """The chain of the generator list.  The cache keeps the last list's
    chain, so group_analyze followed by cycle_type_census on the same list,
    as in ``purecycle group --census``, builds it once."""
    return StabilizerChain(generators, len(generators[0]))


def group_analyze(generators: Sequence[Perm]) -> GroupReport:
    """Exact order and transitivity of the group the generators generate."""
    if not generators:
        raise InvalidTypeError("at least one generator required")
    degree = len(generators[0])
    order = _chain(tuple(map(tuple, generators))).order()
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
    chain = _chain(tuple(map(tuple, generators)))
    order = chain.order()
    if order > cap:
        raise BoundExceededError(f"group order {order} exceeds census cap {cap}")
    return Counter(
        {CycleType(degree, lengths): n for lengths, n in _census_batched(chain).items()}
    )


def cycle_type_keys(words: np.ndarray) -> np.ndarray:
    """One key per row of words, equal for two rows exactly when their
    permutations have the same cycle type.

    words holds one permutation of degree d per row, in word form.  The key
    packs fix(w^k) for k = 1, ..., top = max(d // 2, 1) into uint64 words,
    width = d.bit_length() bits per count and 64 // width counts per word,
    lowest k first.  Up to d = 25 one word holds the key and the result is a
    1-D uint64 array; above, each row's words are viewed as one void record.
    _key_lengths reads a key back.
    """
    n, degree = words.shape
    top = max(degree // 2, 1)
    width = degree.bit_length()
    per_word = 64 // width
    pos = np.arange(n * degree)
    # row i's point x sits at position i * d + x, so a power is a 1-D gather
    base = words.astype(np.intp)
    base += pos[::degree, None]
    base = base.ravel()
    ones = np.ones(degree, dtype=np.min_scalar_type(degree))
    keys = np.zeros((n, -(-top // per_word)), dtype=np.uint64)
    power = base
    for k in range(top):
        if k:
            power = base.take(power)  # w^(k+1) = w o w^k
        fixed = (power == pos).view(np.uint8).reshape(n, degree) @ ones
        word, slot = divmod(k, per_word)
        keys[:, word] |= fixed.astype(np.uint64) << np.uint64(width * slot)
    if keys.shape[1] == 1:
        return keys.ravel()
    return keys.view(np.dtype((np.void, keys.shape[1] * 8))).ravel()


def _key_lengths(key: int | bytes, degree: int) -> tuple[int, ...]:
    """The cycle lengths >= 2, decreasing, of the rows whose cycle_type_keys
    entry is key (an int, or a void record's bytes above degree 25).

    With c_l the number of l-cycles, fix(g^k) = sum of l * c_l over the
    divisors l of k, and every divisor of k <= top is itself <= top, so
    c_1, ..., c_top follow in turn.  The points outside those cycles lie in
    cycles longer than d / 2, of which there is at most one.
    """
    top = max(degree // 2, 1)
    width = degree.bit_length()
    per_word = 64 // width
    words = np.frombuffer(key, dtype=np.uint64).tolist() if isinstance(key, bytes) else [key]
    counts: list[int] = []  # counts[l - 1] is c_l
    for l in range(1, top + 1):
        word, slot = divmod(l - 1, per_word)
        fixed = words[word] >> (width * slot) & ((1 << width) - 1)
        shorter = sum(m * counts[m - 1] for m in range(1, l) if l % m == 0)
        counts.append((fixed - shorter) // l)
    lengths = [l for l in range(top, 1, -1) for _ in range(counts[l - 1])]
    rest = degree - sum(l * c for l, c in enumerate(counts, 1))
    return tuple([rest] + lengths if rest else lengths)


def _census_batched(chain: StabilizerChain) -> Counter[tuple[int, ...]]:
    """Census via numpy batches; same result as direct element iteration.

    Elements are built as outer-prefix x inner-suffix transversal products,
    at most _CENSUS_CHUNK entries (rows x degree) a batch, and counted by
    their cycle_type_keys across all batches; each distinct key is then read
    back as cycle lengths once.
    """
    degree = chain.degree
    sizes = [len(t) for t in chain.transversals]
    split = len(sizes)
    suffix = 1
    while split > 0 and suffix * sizes[split - 1] * degree <= _CENSUS_CHUNK:
        suffix *= sizes[split - 1]
        split -= 1

    # materialize all suffix products u_split ... u_last, bottom-up
    inner = np.arange(degree, dtype=np.int16)[None, :]
    for level in range(len(sizes) - 1, split - 1, -1):
        trans = chain.transversals[level]
        images = np.array([trans[pt] for pt in sorted(trans)], dtype=np.int16)
        inner = images[:, inner].reshape(-1, degree)

    ident = identity(degree)
    counts: Counter[int | bytes] = Counter()
    for prefix in chain.elements(split):
        # prefix o v is conjugate to v o prefix, so a column permutation keeps
        # every row's cycle type
        batch = inner if prefix == ident else inner.take(prefix, axis=1)
        keys, cnt = np.unique(cycle_type_keys(batch), return_counts=True)
        counts.update(dict(zip(keys.tolist(), cnt.tolist())))
    return Counter({_key_lengths(key, degree): n for key, n in counts.items()})


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
