"""Braid action on 4-point factorizations and admissible-cover bookkeeping.

Degenerating the base by colliding the last two branch points splits a smooth
cover into two component covers glued over a node; the node monodromy is
rho = g3 g4.  For genus-0 pure-cycle types rho is a single cycle (possibly
trivial) or a pair of disjoint cycles, and the number of smoothings of an
admissible cover equals the length of the orbit of the braid operator

    Q3 . (g1, g2, g3, g4) = (g1 g2 g1 g2^-1 g1^-1, g1 g2 g1^-1, g3, g4)

on the corresponding factorization.  This module computes the orbits, the
degeneration data, and the closed-form taxonomy of admissible covers in
characteristic 0 (which node classes occur, with which counts/multiplicities).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidTypeError
from .hurwitz import (
    HurwitzFactorization,
    RamificationType,
    _canonical_anchored,
    _enumerate,
    hurwitz_formula_pure4,
)
from .perm import Perm, compose, conjugate, cycle_lengths, inverse


@dataclass(frozen=True)
class NodeClass:
    """Cycle structure of the node monodromy: one cycle or a disjoint pair."""

    kind: str  # "single" | "pair"
    lengths: tuple[int, ...]

    def __post_init__(self):
        if self.kind == "single":
            if len(self.lengths) != 1 or self.lengths[0] < 1:
                raise InvalidTypeError(f"bad single-cycle node {self.lengths}")
        elif self.kind == "pair":
            if len(self.lengths) != 2:
                raise InvalidTypeError(f"bad two-cycle node {self.lengths}")
            object.__setattr__(self, "lengths", tuple(sorted(self.lengths)))
        else:
            raise InvalidTypeError(f"unknown node kind {self.kind!r}")

    @property
    def m(self) -> int:
        if self.kind != "single":
            raise InvalidTypeError("m is defined for single-cycle nodes")
        return self.lengths[0]

    def __str__(self) -> str:
        if self.kind == "single":
            return f"*{self.lengths[0]}"
        return f"*{self.lengths[0]}-{self.lengths[1]}"


@dataclass(frozen=True)
class AdmissibleCoverType:
    """One taxonomy row: node class, number of covers, smoothings per cover."""

    node: NodeClass
    count: int
    multiplicity: int

    @property
    def subtotal(self) -> int:
        return self.count * self.multiplicity


@dataclass(frozen=True)
class BraidOrbit:
    representative: HurwitzFactorization
    length: int


def _q3(perms: tuple[Perm, ...]) -> tuple[Perm, ...]:
    """Q3 on a 4-tuple of permutations: g1 g2 g1^-1 is the new g2, and the new
    g1 is g1 conjugated by the product g1 g2, which Q3 keeps."""
    g1, g2, g3, g4 = perms
    return conjugate(compose(g1, g2), g1), conjugate(g1, g2), g3, g4


def braid_q3(f: HurwitzFactorization) -> HurwitzFactorization:
    """Apply Q3; the product g1 g2 and the entries g3, g4 are preserved."""
    if len(f.perms) != 4:
        raise InvalidTypeError("the braid operator acts on 4-point factorizations")
    return HurwitzFactorization(f.degree, _q3(f.perms))


def braid_orbits(t: RamificationType) -> list[BraidOrbit]:
    """Partition of the factorizations of t into Q3-orbits.

    Orbits are keyed on canonical forms, so the partition is independent of
    the representatives chosen; orbit lengths sum to the Hurwitz number.  Q3
    keeps g4, which every canonical form anchors at the canonical
    representative of its class, so the centralizer that enumeration built for
    that class canonicalizes every step.  The walk runs on permutation tuples:
    Q3 keeps the product and the generated group, so no step is checked again,
    and each orbit's representative is the first of its canonical forms in the
    sorted enumeration.
    """
    if len(t.classes) != 4:
        raise InvalidTypeError("braid orbits are defined for 4-point types")
    reps, last = _enumerate(t)
    total = len(reps)
    seen: set[tuple[Perm, ...]] = set()
    orbits = []
    for f in reps:
        if f in seen:
            continue
        length = 0
        g = f
        while True:
            length += 1
            if length > total:
                raise AssertionError("braid orbit exceeded the factorization count")
            seen.add(g)
            g = _canonical_anchored(_q3(g), last)
            if g == f:
                break
        orbits.append(BraidOrbit(HurwitzFactorization._trusted(t.degree, f), length))
    return orbits


def degenerate(
    f: HurwitzFactorization,
) -> tuple[tuple[Perm, Perm, Perm], tuple[Perm, Perm, Perm], NodeClass]:
    """Split into component covers over a node with monodromy rho = g3 g4.

    Returns (g1, g2, rho), (rho^-1, g3, g4) and the node class.  Both triples
    have product identity; they need not be transitive (component covers may
    be disconnected).  A rho that is neither a single cycle nor a pair of
    disjoint cycles violates the genus-0 pure-cycle degeneration dichotomy and
    is rejected.
    """
    if len(f.perms) != 4:
        raise InvalidTypeError("degeneration applies to 4-point factorizations")
    g1, g2, g3, g4 = f.perms
    rho = compose(g3, g4)
    lengths = cycle_lengths(rho)
    if len(lengths) > 2:
        raise InvalidTypeError(
            f"node monodromy has cycle type {lengths}; expected one cycle or two"
        )
    # no cycle at all is the unramified node *1
    node = NodeClass("pair" if len(lengths) == 2 else "single", lengths or (1,))
    return (g1, g2, rho), (inverse(rho), g3, g4), node


def admissible_enumerate_char0(
    d: int, e1: int, e2: int, e3: int, e4: int
) -> list[AdmissibleCoverType]:
    """Taxonomy of admissible covers of type (d; e1,e2,*,e3,e4), exponents
    sorted ascending.

    Single-cycle nodes *m: one cover for each m with
        e2-e1+1 <= m <= 2d+1-e3-e4   (if d+1 <= e2+e3)
        e4-e3+1 <= m <= 2d+1-e3-e4   (if d+1 >= e2+e3)
    and m = e2-e1+1 (mod 2), each of multiplicity m.  Two-cycle nodes
    *e1-e2: multiplicity 1, with
        e1(d+1-e1-e2)           covers if d+1 <= e2+e3,
        (e3+e4-d-1)(d+1-e4)     covers if d+1 >= e2+e3
    (no such node when e1+e2 > d).  Subtotals sum to the Hurwitz number.
    """
    es = (e1, e2, e3, e4)
    if tuple(sorted(es)) != es:
        raise InvalidTypeError("exponents must be sorted ascending")
    total = hurwitz_formula_pure4(d, es)  # validates the genus-0 condition

    lower_i = e2 - e1 + 1
    lower_ii = e4 - e3 + 1
    upper = 2 * d + 1 - e3 - e4
    if d + 1 == e2 + e3:
        assert lower_i == lower_ii, "boundary case must agree under both branches"
    lower = lower_i if d + 1 <= e2 + e3 else lower_ii
    assert lower <= upper and (upper - lower) % 2 == 0

    out = [
        AdmissibleCoverType(node=NodeClass("single", (m,)), count=1, multiplicity=m)
        for m in range(lower, upper + 1, 2)
    ]
    if e1 + e2 <= d:
        count = (
            e1 * (d + 1 - e1 - e2)
            if d + 1 <= e2 + e3
            else (e3 + e4 - d - 1) * (d + 1 - e4)
        )
        assert count > 0
        node = NodeClass("pair", (e1, e2))
        out.append(AdmissibleCoverType(node=node, count=count, multiplicity=1))
    assert sum(row.subtotal for row in out) == total
    return out
