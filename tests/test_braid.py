import hashlib
import itertools

import pytest

import purecycle.hurwitz as hurwitz
from purecycle.braid import (
    AdmissibleCoverType,
    NodeClass,
    admissible_enumerate_char0,
    braid_orbits,
    braid_q3,
    degenerate,
)
from purecycle.errors import InvalidTypeError
from purecycle.hurwitz import (
    HurwitzFactorization,
    RamificationType,
    enumerate_factorizations,
)
from purecycle.perm import compose, cycle_lengths, from_cycles, parse_cycles


def test_q3_requires_four_points():
    f = enumerate_factorizations(RamificationType.pure(4, (3, 4, 4)))[0]
    with pytest.raises(InvalidTypeError):
        braid_q3(f)


def test_q3_preserves_type_and_pair_product():
    t = RamificationType.pure(5, (2, 2, 4, 4))
    for f in enumerate_factorizations(t):
        g = braid_q3(f)
        assert [cycle_lengths(x) for x in g.perms] == [cycle_lengths(x) for x in f.perms]
        assert g.perms[2:] == f.perms[2:]
        assert compose(g.perms[0], g.perms[1]) == compose(f.perms[0], f.perms[1])


def test_q3_fixes_disjoint_first_pair():
    # g1 = (0 1), g2 = (2 3 4) disjoint; complete to a transitive product-1 tuple
    g1 = parse_cycles(5, "(1,2)")
    g2 = parse_cycles(5, "(3,4,5)")
    partial = compose(g1, g2)
    # choose g3 arbitrary, g4 = (g1 g2 g3)^{-1}
    g3 = parse_cycles(5, "(1,3)(2,4)")
    from purecycle.perm import inverse

    g4 = inverse(compose(partial, g3))
    f = HurwitzFactorization(5, (g1, g2, g3, g4))
    assert braid_q3(f).perms == f.perms


def test_orbit_lengths_5_2244():
    t = RamificationType.pure(5, (2, 2, 4, 4))
    orbits = braid_orbits(t)
    assert sorted(o.length for o in orbits) == [1, 1, 1, 1, 1, 3]
    assert sum(o.length for o in orbits) == 8


def test_three_cycle_node_orbit_closes_after_three_steps():
    from purecycle.hurwitz import canonical_form

    t = RamificationType.pure(5, (2, 2, 4, 4))
    starts = [
        f for f in enumerate_factorizations(t) if str(degenerate(f)[2]) == "*3"
    ]
    assert len(starts) == 3  # one orbit of length 3
    f = starts[0]
    seen = [f.perms]
    g = f
    for _ in range(3):
        g = canonical_form(braid_q3(g))
        seen.append(g.perms)
    assert seen[3] == seen[0]
    assert set(seen[:3]) == {x.perms for x in starts}


def test_orbit_lengths_sum_7_2446():
    t = RamificationType.pure(7, (2, 4, 4, 6))
    orbits = braid_orbits(t)
    assert sum(o.length for o in orbits) == 12


def test_degenerate_node_classes():
    t = RamificationType.pure(5, (2, 2, 4, 4))
    nodes = set()
    for f in enumerate_factorizations(t):
        left, right, node = degenerate(f)
        # both triples multiply to the identity
        assert compose(left[0], compose(left[1], left[2])) == tuple(range(5))
        assert compose(right[0], compose(right[1], right[2])) == tuple(range(5))
        nodes.add(str(node))
    assert nodes == {"*1", "*3", "*2-2"}

    nodes7 = set()
    for f in enumerate_factorizations(RamificationType.pure(7, (2, 4, 4, 6))):
        nodes7.add(str(degenerate(f)[2]))
    assert nodes7 == {"*3", "*5", "*2-4"}


def test_degenerate_rejects_three_cycle_node():
    # hand-built intransitive tuple: rho = g3 g4 splits into three 2-cycles
    g3 = from_cycles(6, [[0, 1], [2, 3], [4, 5]])
    ident = from_cycles(6, [])
    f = object.__new__(HurwitzFactorization)
    object.__setattr__(f, "degree", 6)
    object.__setattr__(f, "perms", (g3, ident, g3, ident))  # bypasses validation on purpose
    with pytest.raises(InvalidTypeError):
        degenerate(f)


def test_node_class_validation():
    assert NodeClass("single", (1,)).m == 1
    assert NodeClass("pair", (4, 2)).lengths == (2, 4)
    with pytest.raises(InvalidTypeError):
        NodeClass("single", (0,))
    with pytest.raises(InvalidTypeError):
        NodeClass("pair", (2, 2)).m  # m undefined for pairs


def test_admissible_taxonomy_examples():
    rows = admissible_enumerate_char0(5, 2, 2, 4, 4)
    assert rows == [
        AdmissibleCoverType(NodeClass("single", (1,)), 1, 1),
        AdmissibleCoverType(NodeClass("single", (3,)), 1, 3),
        AdmissibleCoverType(NodeClass("pair", (2, 2)), 4, 1),
    ]
    rows = admissible_enumerate_char0(7, 2, 4, 4, 6)
    assert [(str(r.node), r.count, r.multiplicity) for r in rows] == [
        ("*3", 1, 3), ("*5", 1, 5), ("*2-4", 4, 1)
    ]
    rows = admissible_enumerate_char0(7, 3, 3, 5, 5)
    assert sum(r.subtotal for r in rows) == 15
    assert [r.node.m for r in rows if r.node.kind == "single"] == [1, 3, 5]


def test_admissible_taxonomy_requires_sorted_genus0():
    with pytest.raises(InvalidTypeError):
        admissible_enumerate_char0(5, 4, 4, 2, 2)
    with pytest.raises(InvalidTypeError):
        admissible_enumerate_char0(5, 2, 2, 4, 5)


def test_no_two_cycle_row_when_pair_does_not_fit():
    # e1 + e2 = d + 1 leaves no room for disjoint cycles of lengths e1, e2
    rows = admissible_enumerate_char0(5, 3, 3, 3, 3)
    assert all(r.node.kind == "single" for r in rows)
    assert sum(r.subtotal for r in rows) == 9


def _pinned_four_point_types():
    """Every genus-0 pure 4-point type of degree 3 to 9 in sorted order and
    with its last class moved first, then three of positive genus whose rows
    include many with a nontrivial Z_x: some z of the anchor's centralizer
    fixes their first looped entry x."""
    for d in range(3, 10):
        for es in itertools.combinations_with_replacement(range(2, d + 1), 4):
            if sum(es) == 2 * d + 2:
                for order in sorted({es, es[-1:] + es[:-1]}):
                    yield RamificationType.pure(d, order)
    for text in ("4:2,4,2,4", "6:2,6,6,6", "6:4,4,6,6"):
        yield RamificationType.parse(text)


def test_braid_orbits_output_is_pinned(monkeypatch):
    """Any change of an orbit's representative, its length or the orbit order
    changes the digest, which was taken while every row of the search still
    went through the orbit sweep.  Between them the pinned types give rows of
    both kinds: a trivial Z_x, whose row is its class's only one, and not."""
    kinds = set()
    x_fixers = hurwitz._x_fixers

    def recording(entries, zt):
        fixing = x_fixers(entries, zt)
        kinds.update((fixing > 1).tolist())
        return fixing

    monkeypatch.setattr(hurwitz, "_x_fixers", recording)
    digest = hashlib.sha256()
    types = list(_pinned_four_point_types())
    for t in types:
        digest.update(f"{t}\n".encode())
        for orbit in braid_orbits(t):
            digest.update(f"{orbit.representative.perms} {orbit.length}\n".encode())
    assert len(types) == 127
    assert digest.hexdigest() == (
        "4fe8f509c3e4ba9d732a94891b1a6b7d75968c44b6bb33309e68cba82dca9f58"
    )
    assert kinds == {False, True}
