"""Shared test helpers, including independent brute-force references for
Hurwitz counts (full class product, orbit dedup under all of S_d) and for
permutation groups (exhaustive closure)."""
from __future__ import annotations

import itertools
import math
import signal
from operator import itemgetter
from typing import Sequence

import pytest

from purecycle.errors import BoundExceededError
from purecycle.hurwitz import RamificationType
from purecycle.perm import (
    CycleType,
    Perm,
    compose,
    conjugate,
    cycle_lengths,
    cycles,
    from_cycles,
    identity,
    inverse,
)


# A test still running after this many seconds fails, so that an edit that
# makes a loop run forever fails the suite in a minute instead of hanging it.
# The slowest tests, under -m slow, take about 5 s each on 2 cores (the
# degree-11 enumeration and the M_23 census): the limit leaves ten times that
# for slower machines.
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past TEST_TIME_LIMIT_S.  Not an Exception,
    so that hypothesis passes it on instead of retrying the example."""


@pytest.fixture(autouse=True)
def time_limit():
    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def random_perm(rng, degree: int) -> Perm:
    word = list(range(degree))
    rng.shuffle(word)
    return tuple(word)


def perm_order(g: Perm) -> int:
    return math.lcm(*(len(c) for c in cycles(g))) if any(y != x for x, y in enumerate(g)) else 1


def element_closure(generators: Sequence[Perm], cap: int) -> set[Perm]:
    """Exhaustive closure under multiplication; oracle for small orders."""
    degree = len(generators[0])
    seen = {identity(degree)}
    frontier = [identity(degree)]
    for g in frontier:
        for s in generators:
            h = compose(s, g)
            if h not in seen:
                if len(seen) >= cap:
                    raise BoundExceededError(f"closure exceeded cap {cap}")
                seen.add(h)
                frontier.append(h)
    return seen


def _transitive(perms, degree) -> bool:
    reach = {0}
    queue = [0]
    for a in queue:
        for g in perms:
            b = g[a]
            if b not in reach:
                reach.add(b)
                queue.append(b)
    return len(reach) == degree


def class_by_filter(t: CycleType) -> list[Perm]:
    """The class t as the permutations of S_d with its cycle lengths, in
    lexicographic order; for small degrees only."""
    return [g for g in itertools.permutations(range(t.degree)) if cycle_lengths(g) == t.lengths]


def reference_hurwitz_count(t: RamificationType) -> int:
    """Independent oracle: iterate the full product of classes 2..r, each
    product carried down from its prefix one class at a time (solving the first
    entry), then partition survivors into conjugation orbits under S_d
    generated by a transposition and a full cycle.  No pruning, no anchoring,
    no centralizer bookkeeping, and each class found by filtering all of S_d;
    usable for small degrees only.
    """
    d = t.degree
    *inner, last = [class_by_filter(c) for c in t.classes[1:]]
    # (g_2 ... g_k, their product) pairs, extended one class at a time
    prefixes = [((), identity(d))]
    for elems in inner:
        prefixes = [(combo + (g,), compose(prod, g)) for combo, prod in prefixes for g in elems]
    times_last = [(g, itemgetter(*g)) for g in last]  # itemgetter(*g)(p) is p g
    first = set(class_by_filter(t.classes[0]))  # closed under inverses
    survivors = set()
    for combo, prefix in prefixes:
        for g, times_g in times_last:
            prod = times_g(prefix)  # g_2 ... g_r, the inverse of g_1
            if prod in first:
                tup = (inverse(prod),) + combo + (g,)
                if _transitive(tup, d):
                    survivors.add(tup)
    gens = [from_cycles(d, [[0, 1]]), tuple(list(range(1, d)) + [0])]
    count = 0
    remaining = set(survivors)
    while remaining:
        seed = remaining.pop()
        count += 1
        orbit = {seed}
        queue = [seed]
        for tup in queue:
            for s in gens:
                image = tuple(conjugate(s, g) for g in tup)
                if image not in orbit:
                    orbit.add(image)
                    queue.append(image)
        remaining -= orbit
    return count
