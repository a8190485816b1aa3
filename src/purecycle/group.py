"""Finite permutation group analysis: order, transitivity, cycle-type census.

The workhorse is an incremental Schreier-Sims stabilizer chain: generators
join in list order, each new base point is the first point its sifted residue
moves, and orbits grow by BFS, so repeated runs produce identical data.  The
tests check it against an exhaustive closure, an independent oracle for small
groups kept in ``tests/conftest.py``.

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
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import BoundExceededError, InvalidTypeError
from .perm import (
    CycleType,
    Perm,
    compose,
    identity,
    inverse,
    parse_cycles,
    parse_ints,
)

if TYPE_CHECKING:
    import numpy as np

# Entries (rows x degree) per census batch.  On the benchmark's groups
# (two-generator subgroups of S_6 to S_9, M_11, PGammaL(2,16)), 2^16 and 2^17
# ran fastest of 2^15 to 2^18 and 2^18 a third slower; 2^16 needs half the
# memory of 2^17, about 2 MB a batch.
_CENSUS_CHUNK = 2**16

# Bounds on a group's degree and generator count, checked before any work.
# The slowest inputs found at 40 points build their chain in 0.15 s or less:
# the 38 3-cycles (1,2,i) 0.14 s; 370 random transpositions, the 39
# transpositions (1,i) and all 780 transpositions 0.06 s; (1,2) with a 40-cycle
# 0.05 s.  The same transposition shapes take 0.09-0.12 s at 48 points and
# 0.21-0.27 s at 60 (2 cores, Python 3.11).  Cost follows the group and the
# generators' shape far more than their number.  Both values date from a
# two-phase builder that took 2-3 s on these inputs; they are kept as chosen
# caps, not as the point where the time becomes too long.
MAX_GROUP_DEGREE = 40
MAX_GROUP_GENERATORS = 370


def _check_group_bounds(degree: int, n_generators: int) -> None:
    if degree > MAX_GROUP_DEGREE:
        raise BoundExceededError(
            f"degree {degree} exceeds group degree bound {MAX_GROUP_DEGREE}"
        )
    if n_generators > MAX_GROUP_GENERATORS:
        raise BoundExceededError(
            f"{n_generators} generators exceed group generator bound "
            f"{MAX_GROUP_GENERATORS}"
        )


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
    """Deterministic base-and-strong-generators chain for <gens> in S_degree,
    built by adding the generators one at a time (_add).

    At most MAX_GROUP_DEGREE points and MAX_GROUP_GENERATORS generators, both
    checked before any work; the slowest accepted inputs timed build in 0.15 s
    or less (see MAX_GROUP_DEGREE)."""

    def __init__(self, generators: Sequence[Perm], degree: int):
        _check_group_bounds(degree, len(generators))
        if not generators:
            raise InvalidTypeError("at least one generator required")
        if any(len(g) != degree for g in generators):
            raise InvalidTypeError("generators must share the chain degree")
        self.degree = degree
        self.base: list[int] = []
        # _gens[i] holds level i's strong generators, each with its inverse
        self._gens: list[list[tuple[Perm, Perm]]] = []
        self.transversals: list[dict[int, Perm]] = []
        # _inverses[i][pt] is transversals[i][pt]^-1, so sifting never inverts
        self._inverses: list[dict[int, Perm]] = []
        for g in generators:
            self._add(g, 0)

    # -- construction ------------------------------------------------------

    def _strip(self, g: Perm, start: int) -> tuple[Perm, int]:
        """Sift g through levels >= start; returns (residue, level reached)."""
        for j in range(start, len(self.base)):
            b = self.base[j]
            if g[b] == b:
                continue
            u_inv = self._inverses[j].get(g[b])
            if u_inv is None:
                return g, j
            g = compose(u_inv, g)
        return g, len(self.base)

    def _add(self, g: Perm, level: int) -> None:
        """Add g, which fixes base[:level], to the group of the levels from
        level on, and make those levels a chain of the larger group.

        The residue h of g, stopped at level j, fixes base[level:j], so it
        joins the strong generators of levels j down to level, each orbit
        growing in place.  Transversal entries never change, so a Schreier
        generator that sifted to the identity once still does, and each is
        sifted once, when its orbit point and generator first meet.
        """
        h, j = self._strip(g, level)
        ident = identity(self.degree)
        if h == ident:
            return
        if j == len(self.base):
            b = next(x for x in range(self.degree) if h[x] != x)
            self.base.append(b)
            self._gens.append([])
            self.transversals.append({b: ident})
            self._inverses.append({b: ident})
        new = (h, inverse(h))
        for i in range(j, level - 1, -1):
            self._gens[i].append(new)
            self._grow(i, new)

    def _grow(self, i: int, new: tuple[Perm, Perm]) -> None:
        """BFS of level i's orbit after new joined its generators: old points
        meet new alone, new points every generator.  A generator s taking x to
        a point y already in the orbit gives the Schreier generator
        u_y^-1 s u_x, which goes to _add at level i + 1."""
        trans, inv, gens = self.transversals[i], self._inverses[i], self._gens[i]
        queue = list(trans)
        n_old = len(queue)
        for n, x in enumerate(queue):  # the queue grows as points are found
            ux = trans[x]
            for s, s_inv in (new,) if n < n_old else gens:
                y = s[x]
                sux = compose(s, ux)
                if y not in trans:
                    trans[y] = sux
                    inv[y] = compose(inv[x], s_inv)
                    queue.append(y)
                elif sux != trans[y]:
                    self._add(compose(inv[y], sux), i + 1)

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
    import numpy as np
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
    import numpy as np
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
    import numpy as np
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
    """Read a generator data file (``degree: n`` header, 1-based cycles).

    The degree and the number of generator lines are checked against the
    group bounds before any generator is parsed."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidTypeError(f"{path} is not UTF-8 text: {exc}") from None
    lines = [
        line
        for raw in text.splitlines()
        if (line := raw.strip()) and not line.startswith("#")
    ]
    if not lines:
        raise InvalidTypeError(f"no generators found in {path}")
    header, *rest = lines
    if not header.lower().startswith("degree:"):
        raise InvalidTypeError("degree header must precede generators")
    if any(line.lower().startswith("degree:") for line in rest):
        raise InvalidTypeError("duplicate degree header")
    (degree,) = parse_ints(header.partition(":")[2], "\n", header)  # a line has no newline
    if degree < 1:
        raise InvalidTypeError(f"degree must be positive, got {degree}")
    _check_group_bounds(degree, len(rest))
    if not rest:
        raise InvalidTypeError(f"no generators found in {path}")
    return degree, [parse_cycles(degree, line) for line in rest]
