import math
import random
from itertools import permutations

import numpy as np
import pytest

from conftest import perm_order, random_perm
from purecycle.errors import BoundExceededError, InvalidTypeError
from purecycle.group import cycle_type_keys
from purecycle.perm import (
    CycleType,
    all_of_type,
    centralizer_elements,
    class_array,
    centralizer_order,
    compose,
    compose_all,
    conjugate,
    cycle_lengths,
    cycles,
    format_cycles,
    from_cycles,
    gather,
    identity,
    inverse,
    parse_cycles,
)


def test_compose_identity_is_neutral():
    g = parse_cycles(6, "(1,4,2)(3,6)")
    assert compose(identity(6), g) == g
    assert compose(g, identity(6)) == g


def test_compose_applies_right_factor_first():
    a = parse_cycles(3, "(1,2)")
    b = parse_cycles(3, "(2,3)")
    assert compose(a, b) == parse_cycles(3, "(1,2,3)")


def test_compose_degree_mismatch():
    with pytest.raises(InvalidTypeError):
        compose(identity(3), identity(4))


def test_compose_returns_tuples_at_degrees_one_and_two():
    assert compose((0,), (0,)) == (0,)
    assert compose((1, 0), (1, 0)) == (0, 1)
    assert compose((1, 0), (0, 1)) == (1, 0)
    with pytest.raises(InvalidTypeError):
        compose((0,), (1, 0))


@pytest.mark.parametrize("d", range(4))
def test_gather_is_compose_with_fixed_right_factor(d):
    elements = list(permutations(range(d)))
    for b in elements:
        right = gather(b)
        for a in elements:
            assert right(a) == compose(a, b)
            assert type(right(a)) is tuple


def test_compose_with_inverse_is_identity():
    rng = random.Random(1)
    for _ in range(50):
        g = random_perm(rng, 8)
        assert compose(g, inverse(g)) == identity(8)
        assert compose(inverse(g), g) == identity(8)


def test_compose_associative_and_inverse_two_sided_bulk():
    # 10^4 random cases across degrees up to 12
    rng = random.Random(99)
    for _ in range(10_000):
        d = rng.randint(1, 12)
        a, b, c = (random_perm(rng, d) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, inverse(a)) == identity(d)
        assert compose(inverse(a), a) == identity(d)


def test_compose_all_is_left_to_right():
    a = parse_cycles(4, "(1,2)")
    b = parse_cycles(4, "(2,3)")
    c = parse_cycles(4, "(3,4)")
    assert compose_all([a, b, c], 4) == compose(a, compose(b, c))


def test_cycle_type_examples():
    assert cycle_lengths(identity(5)) == ()
    assert CycleType.of(identity(5)) == CycleType(5, ())
    assert CycleType.of(parse_cycles(7, "(1,2,3,4)")) == CycleType(7, (4,))
    assert CycleType.of(parse_cycles(5, "(1,2)(3,4)")) == CycleType(5, (2, 2))


def test_cycle_type_conjugation_invariant():
    rng = random.Random(5)
    for _ in range(300):
        d = rng.randint(2, 10)
        g, h = random_perm(rng, d), random_perm(rng, d)
        assert cycle_lengths(conjugate(h, g)) == cycle_lengths(g)


def test_cycle_roundtrip_notation():
    rng = random.Random(17)
    for _ in range(100):
        g = random_perm(rng, 9)
        assert parse_cycles(9, format_cycles(g)) == g
    assert format_cycles(identity(4)) == "()"
    assert parse_cycles(4, "()") == identity(4)


def test_parse_cycles_rejects_garbage():
    with pytest.raises(InvalidTypeError):
        parse_cycles(5, "(1,2)(2,3)")  # not disjoint
    with pytest.raises(InvalidTypeError):
        parse_cycles(3, "(0,1)")  # 1-based points
    with pytest.raises(InvalidTypeError):
        parse_cycles(3, "1,2,3")
    with pytest.raises(InvalidTypeError, match="not an integer: 'a'"):
        parse_cycles(3, "(1,a)")
    with pytest.raises(InvalidTypeError, match="not an integer: ''"):
        parse_cycles(3, "(1,,2)")  # a doubled separator leaves an empty item


def test_cycle_type_validation():
    with pytest.raises(InvalidTypeError):
        CycleType(4, (1,))
    with pytest.raises(InvalidTypeError):
        CycleType(4, (3, 2))


def test_parity():
    assert CycleType(5, (2,)).parity == -1
    assert CycleType(5, (3,)).parity == 1
    assert CycleType(5, (2, 2)).parity == 1
    assert CycleType(9, (4, 2)).parity == 1


def test_perm_order():
    assert perm_order(identity(4)) == 1
    assert perm_order(parse_cycles(6, "(1,2,3)(4,5)")) == 6


def test_canonical_representative_layout():
    t = CycleType(7, (4, 2))
    rep = t.canonical_representative()
    assert cycles(rep) == [(0, 1, 2, 3), (4, 5)]
    assert CycleType.of(rep) == t


def test_centralizer_order_examples():
    assert centralizer_order(CycleType(4, ())) == 24  # identity in S4
    assert centralizer_order(CycleType(6, (6,))) == 6  # 6-cycle in S6
    assert centralizer_order(CycleType(5, (2, 2))) == 8  # frozen brute-force value


def test_centralizer_order_brute_force_d5():
    # every class of S5: count commuting permutations directly
    for t in ((), (2,), (3,), (4,), (5,), (2, 2), (3, 2)):
        ct = CycleType(5, t)
        g = ct.canonical_representative()
        brute = sum(
            1 for w in permutations(range(5)) if compose(w, g) == compose(g, w)
        )
        assert centralizer_order(ct) == brute


def test_centralizer_elements_commute_and_count():
    for t in (CycleType(6, (3, 2)), CycleType(5, (2, 2)), CycleType(7, (7,))):
        g = t.canonical_representative()
        elems = centralizer_elements(g)
        assert len(elems) == len(set(elems)) == centralizer_order(t)
        assert all(compose(z, g) == compose(g, z) for z in elems)


def test_centralizer_elements_guard():
    with pytest.raises(BoundExceededError):
        centralizer_elements(identity(11))


def test_class_size_matches_brute_force_d_le_7():
    # partitions into parts >= 2 fitting in degree d
    def part_types(d):
        out = []

        def rec(rest, mx, acc):
            out.append(tuple(acc))
            for l in range(min(rest, mx), 1, -1):
                rec(rest - l, l, acc + [l])

        rec(d, d, [])
        return out

    for d in range(2, 8):
        total = list(permutations(range(d)))
        for lengths in part_types(d):
            ct = CycleType(d, lengths)
            brute = sum(1 for w in total if cycle_lengths(w) == ct.lengths)
            assert ct.class_size() == brute == math.factorial(d) // centralizer_order(ct)


def test_all_of_type_enumerates_class_exactly():
    for ct in (CycleType(5, (2, 2)), CycleType(6, (3, 2)), CycleType(6, (2, 2, 2)),
               CycleType(7, (4,)), CycleType(4, ())):
        elems = list(all_of_type(ct))
        assert len(elems) == len(set(elems)) == ct.class_size()
        assert all(cycle_lengths(g) == ct.lengths for g in elems)


def test_class_array_is_the_class_for_every_type_through_degree_eight():
    for d in range(1, 9):
        by_type = {}
        for g in permutations(range(d)):
            by_type.setdefault(cycle_lengths(g), set()).add(g)
        assert () in by_type  # the identity's class is among them
        for lengths, elems in by_type.items():
            ct = CycleType(d, lengths)
            rows = class_array(ct)
            assert rows.dtype == np.int16
            found = set(map(tuple, rows.tolist()))
            assert len(rows) == len(found) == ct.class_size()
            assert found == elems, str(ct)


@pytest.mark.parametrize(
    "ct",
    [CycleType(9, (9,)), CycleType(9, (7, 2)), CycleType(9, (3, 3, 3)),
     CycleType(10, (2,) * 5), CycleType(10, (4, 3, 2)), CycleType(11, (7,)),
     CycleType(11, (3, 3, 3)), CycleType(11, (2,) * 5), CycleType(11, (4, 4, 3))],
    ids=lambda ct: f"{ct.degree}:{ct}",
)
def test_class_array_rows_are_distinct_and_of_the_type_in_degrees_nine_to_eleven(ct):
    rows = class_array(ct)
    assert rows.dtype == np.int16
    assert rows.shape == (ct.class_size(), ct.degree)
    key = cycle_type_keys(np.array([ct.canonical_representative()], dtype=np.int16))
    assert (cycle_type_keys(rows) == key).all()
    codes = rows.astype(np.int64) @ ct.degree ** np.arange(ct.degree, dtype=np.int64)
    assert len(np.unique(codes)) == len(rows)  # each row read as one base-d number


def test_from_cycles_validation():
    assert from_cycles(5, [[0, 1], [2, 3]]) == parse_cycles(5, "(1,2)(3,4)")
    with pytest.raises(InvalidTypeError):
        from_cycles(3, [[0, 5]])
