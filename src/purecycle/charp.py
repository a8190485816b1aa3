"""Characteristic-p invariants: tail conductors, lift counts, bad reduction.

For a degree-p cover with bad reduction, each non-p-cycle branch class C
contributes a two-point tail cover with wild ramification index p*m and
conductor h, where

    single cycle e:      h = (p-e)/gcd(p-1, e-1),    m = (p-1)/gcd(p-1, e-1)

and a pair e1-e2 has the h and m of the single cycle e = e1+e2-1.  The classes
with a tail, 2 <= e <= p-1 or 2 <= e1 <= e2 with e1+e2 <= p, are one rule,
``fppoly._tail_length``, shared with the tail polynomials.  With sigma = h/m,
these satisfy m | p-1, h < m, gcd(h, m) = 1, and the signature identity
sum(sigma_i) = r-2 over the branch classes.

The number of characteristic-0 lifts of a fixed degenerate cover is
(p-1)/n' * prod h_i/|Aut0_i|; comparing the type of interest with the
modified type (p; e1-e2, p+2-e1-e2, p), whose covers all have bad reduction,
eliminates the unknown tail data and yields the bad-reduction counts.  When
e1+e2 and e3 are both even the comparison leaves a factor delta in {1, 2};
such counts are reported as exact intervals, never collapsed to a guess.

Everything here is exact integer/rational arithmetic; no floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .arith import require_prime
from .braid import admissible_enumerate_char0
from .errors import InvalidTypeError
from .fppoly import _tail_length
from .hurwitz import RamificationType, hurwitz_formula_badtype, hurwitz_formula_pure4


@dataclass(frozen=True)
class TailInvariants:
    """Conductor h and prime-to-p inertia part m of a primitive tail cover."""

    p: int
    tail_class: tuple[int, ...]  # (e,) or (e1, e2)
    h: int
    m: int

    @property
    def sigma(self) -> Fraction:
        return Fraction(self.h, self.m)


@dataclass(frozen=True)
class AutOrders:
    """Automorphism orders of a single-cycle tail cover."""

    full: int
    fixing: int  # subgroup fixing the wild ramification point

    def __post_init__(self):
        if self.full % self.fixing:
            raise InvalidTypeError("point-fixing automorphisms must divide the full order")


@dataclass(frozen=True)
class ReductionCount:
    """Exact count, or a two-endpoint interval when a factor 2 is undetermined."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidTypeError(f"empty count interval [{self.lo}, {self.hi}]")

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> int:
        if not self.is_exact:
            raise InvalidTypeError(f"count {self} is ambiguous")
        return self.lo

    def __add__(self, other: "ReductionCount | int") -> "ReductionCount":
        if isinstance(other, int):
            other = ReductionCount(other, other)
        return ReductionCount(self.lo + other.lo, self.hi + other.hi)

    def __rsub__(self, total: int) -> "ReductionCount":
        """total - self, as the induced interval."""
        return ReductionCount(total - self.hi, total - self.lo)

    def __str__(self) -> str:
        return str(self.lo) if self.is_exact else f"{{{self.lo}|{self.hi}}}"


def _delta_undetermined(e1: int, e2: int, e3: int) -> bool:
    """The factor delta in {1, 2} stays open when e1+e2 and e3 are both even."""
    return (e1 + e2) % 2 == 0 and e3 % 2 == 0


def tail_invariants(p: int, tail_class: Sequence[int]) -> TailInvariants:
    """(h, m) for the tail of a single-cycle class e or a pair e1-e2, in
    either order.  A p-cycle class has no tail and is rejected."""
    return _tail_invariants(p, tuple(sorted(tail_class)))


@lru_cache(maxsize=256)
def _tail_invariants(p: int, lengths: tuple[int, ...]) -> TailInvariants:
    """tail_invariants for sorted lengths.  A pure function of (p, lengths),
    cached because signature sweeps ask for the same few single-cycle classes
    again and again: without the cache, ``purecycle verify --criteria 7`` took
    2.0-2.8 s instead of 0.8-1.4 s (4 alternating runs each, 2-core Xeon,
    Python 3.11).  The bound keeps a sweep over many pair classes from
    growing the cache.  Invalid input raises and is not cached."""
    e = _tail_length(p, lengths)
    g = math.gcd(p - 1, e - 1)
    return TailInvariants(p=p, tail_class=lengths, h=(p - e) // g, m=(p - 1) // g)


def tail_aut_orders(p: int, e: int) -> AutOrders:
    """Automorphism orders of the type-e tail: (p-e)/2 for odd e, p-e for even
    e; the point-fixing subgroup has order h_e in both cases.  tail_invariants
    rejects every e outside 2..p-1."""
    fixing = tail_invariants(p, (e,)).h
    full = (p - e) // 2 if e % 2 else p - e
    return AutOrders(full=full, fixing=fixing)


def signature_check(p: int, classes: Sequence[Sequence[int]]) -> bool:
    """Does sum(sigma_i) equal r-2 exactly (sigma = 0 for p-cycle classes)?

    Compared in integers: sum h_i (L/m_i) against (r-2) L, L the lcm of the m_i.
    """
    require_prime(p)
    r = len(classes)
    if r not in (3, 4):
        raise InvalidTypeError("signature identity applies to r in {3, 4}")
    tails = [tail_invariants(p, tuple(cl)) for cl in classes if tuple(cl) != (p,)]
    lcm = math.lcm(*(ti.m for ti in tails))
    return sum(ti.h * (lcm // ti.m) for ti in tails) == (r - 2) * lcm


def wewers_lift_count(
    p: int, n_prime: Fraction | int, tails: Sequence[tuple[int, int]]
) -> Fraction:
    """(p-1)/n' * prod h_i/|Aut0_i| over the tails, as an exact rational."""
    require_prime(p)
    n_prime = Fraction(n_prime)
    if n_prime <= 0:
        raise InvalidTypeError("n' must be positive")
    value = Fraction(p - 1) / n_prime
    for h, aut0 in tails:
        if h <= 0 or aut0 <= 0:
            raise InvalidTypeError("tail invariants must be positive")
        value *= Fraction(h, aut0)
    return value


def n_prime_tau_star(
    p: int, e1: int, e2: int, n_tails: int, aut0: int, gamma: int
) -> Fraction:
    """n' for the modified type (p; e1-e2, p+2-e1-e2, p), in terms of the
    unknown number N of e1-e2 tails and their point-fixing automorphism order:

        (1 + [e1 = e2]) * N * m / (gamma * |Aut0|),  m of the e1-e2 tail
    """
    m = tail_invariants(p, (e1, e2)).m
    if min(n_tails, aut0, gamma) <= 0:
        raise InvalidTypeError("parameters must be positive")
    return Fraction((1 + (e1 == e2)) * n_tails * m, gamma * aut0)


_EXCLUDED_2CYCLE = (5, 2, 2, 4, 4)


def bad_count_2cycle(p: int, e1: int, e2: int, e3: int, e4: int) -> ReductionCount:
    """Covers of type (p; e1-e2, e3, e4) with bad reduction.

    p+1-e1-e2 (halved when e1 = e2), exactly, unless e1+e2 and e3 are both
    even, in which case an undetermined factor delta in {1, 2} remains and the
    interval {n, 2n} is returned.  The exceptional type (5; 2-2, 4, 4) is not
    covered.
    """
    require_prime(p)
    if e1 > e2:
        raise InvalidTypeError("need e1 <= e2")
    RamificationType.two_cycle(p, e1, e2, e3, e4).require_genus0()
    if (p, e1, e2, *sorted((e3, e4))) == _EXCLUDED_2CYCLE:
        raise InvalidTypeError("(5; 2-2, 4, 4) is excluded from this count")
    n = p + 1 - e1 - e2
    if e1 == e2:
        assert n % 2 == 0  # p odd makes p+1-2*e1 even
        n //= 2
    return ReductionCount(n, 2 * n if _delta_undetermined(e1, e2, e3) else n)


def p_hurwitz_3pt_badtype(p: int, e1: int, e2: int, e3: int, e4: int) -> ReductionCount:
    """p-Hurwitz number of (p; e1-e2, e3, e4): classical count minus the bad
    covers, propagating any ambiguity as an interval."""
    h = hurwitz_formula_badtype(p, e1, e2, e3, e4)
    return h - bad_count_2cycle(p, e1, e2, e3, e4)


def three_point_good_reduction(d: int, a: int, b: int, c: int, p: int) -> bool:
    """A genus-0 three-point cover of type (d; a,b,c) with a,b,c < p has good
    reduction iff its degree is strictly less than p."""
    _require_below_p(p, (a, b, c))
    RamificationType.pure(d, (a, b, c)).require_genus0()
    return d < p


def _require_below_p(p: int, es: tuple[int, ...]) -> None:
    """p prime and every e_i < p."""
    require_prime(p)
    if max(es) >= p:
        raise InvalidTypeError(f"need every e_i < p = {p}, got {es}")


def _validate_sorted_pure4(p: int, es: tuple[int, int, int, int]) -> None:
    """p prime and e1 <= e2 <= e3 <= e4 < p; the caller checks genus 0."""
    _require_below_p(p, es)
    if tuple(sorted(es)) != es:
        raise InvalidTypeError(f"need e1 <= e2 <= e3 <= e4, got {es}")


def bad_single_node(p: int, e3: int, e4: int) -> int:
    """m of the one single-cycle node *m of (p; e1,e2,*,e3,e4) whose
    admissible covers reduce badly: m = 2p+1-e3-e4."""
    return 2 * p + 1 - e3 - e4


def admissible_reduction_census(
    p: int, e1: int, e2: int, e3: int, e4: int
) -> tuple[ReductionCount, ReductionCount]:
    """(good, bad) admissible covers of (p; e1,e2,*,e3,e4) in characteristic p,
    counted with multiplicity.

    Exactly one single-cycle node is bad (bad_single_node), contributing its
    multiplicity m; two-cycle nodes contribute p+1-e1-e2 bad covers whether or
    not e1 = e2 (the gluing factor 2 cancels the halving), so bad = p unless
    e1+e2 and e3 are both even, when only {p, 2p+1-e3-e4 + 2(p+1-e1-e2)} can
    be asserted.  For the exceptional type (5; 2,2,4,4) the two-cycle part is
    unknown and only bracketed by [0, number of two-cycle covers].
    """
    es = (e1, e2, e3, e4)
    _validate_sorted_pure4(p, es)
    h = hurwitz_formula_pure4(p, es)  # checks genus 0
    single_bad = bad_single_node(p, e3, e4)
    n = p + 1 - e1 - e2
    if (p, *es) == _EXCLUDED_2CYCLE:
        pair_total = next(
            r.count for r in admissible_enumerate_char0(p, *es) if r.node.kind == "pair"
        )
        pair_bad = ReductionCount(0, min(2 * n, pair_total))
    else:
        pair_bad = ReductionCount(n, 2 * n if _delta_undetermined(e1, e2, e3) else n)
    bad = pair_bad + single_bad
    assert bad.hi < 2 * p
    if bad.is_exact:
        assert bad.value == p
    good = h - bad
    assert good.lo >= h - 2 * p
    return good, bad


def single_cycle_node_bad_general(
    d: int, p: int, e1: int, e2: int, e3: int, e4: int
) -> int:
    """Single-cycle-node admissible covers of (d; e1,e2,*,e3,e4), d possibly
    different from p, with bad reduction (counted with multiplicity).

    (d-p+1)(d+p+1-e3-e4) when d+1 >= e2+e3 or d+1-e1 < p; otherwise every
    single-cycle-node admissible cover is bad and the full mass is returned.
    """
    es = (e1, e2, e3, e4)
    _validate_sorted_pure4(p, es)
    RamificationType.pure(d, es).require_genus0()
    if d < p:
        return 0  # all component degrees stay below p
    if d + 1 >= e2 + e3 or d + 1 - e1 < p:
        return (d - p + 1) * (d + p + 1 - e3 - e4)
    # here d+1 < e2+e3, so the nodes are *m with e2-e1+1 <= m <= 2d+1-e3-e4
    return sum(range(e2 - e1 + 1, 2 * d + 2 - e3 - e4, 2))


def p_hurwitz_pure4(p: int, e1: int, e2: int, e3: int, e4: int) -> int:
    """p-Hurwitz number of a genus-0 pure-cycle 4-point type of degree p:
    min_i e_i(p+1-e_i) - p."""
    es = (e1, e2, e3, e4)
    _require_below_p(p, es)
    return hurwitz_formula_pure4(p, es) - p


def good_degeneration(p: int, e1: int, e2: int, e3: int, e4: int) -> bool | None:
    """True when every cover of (p; e1..e4) with generic branch points
    degenerates to a separable admissible cover (last two points colliding);
    None when e1+e2 and e3 are both even, where the question is open."""
    es = (e1, e2, e3, e4)
    _validate_sorted_pure4(p, es)
    RamificationType.pure(p, es).require_genus0()
    return None if _delta_undetermined(e1, e2, e3) else True
