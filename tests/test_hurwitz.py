import functools
import hashlib
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_perm, reference_hurwitz_count
import purecycle.hurwitz as hurwitz
from purecycle.braid import braid_orbits, braid_q3
from purecycle.errors import BoundExceededError, InvalidTypeError
from purecycle.group import GroupReport, cycle_type_keys, group_analyze, is_transitive
from purecycle.hurwitz import (
    MAX_SEARCH_ROWS,
    HurwitzFactorization,
    RamificationType,
    canonical_form,
    enumerate_factorizations,
    factorization_from_json,
    factorization_to_json,
    factorizations_to_jsonl,
    galois_factor,
    hurwitz_formula_badtype,
    hurwitz_formula_pure4,
    hurwitz_number_brute,
    monodromy_classify,
    _canonical_anchored,
    _centralizer,
    _conjugates,
    _least_in_orbit,
    _raw_tuples,
    _search_batches,
    _search_generic,
    _search_order,
    _search_rows,
    _to_type_order,
    _transitive_mask,
)
from purecycle.perm import (
    CycleType,
    centralizer_elements,
    class_array,
    compose,
    compose_all,
    conjugate,
    cycle_lengths,
    gather,
    identity,
)


# -- ramification types -------------------------------------------------------


def test_parse_and_str_roundtrip():
    for text in ("5:2,2,4,4", "7:2-3,4,7", "9:3,4,5,6"):
        assert str(RamificationType.parse(text)) == text


@pytest.mark.parametrize(
    "text",
    ["7:2-3,5,6", "7:2-3,6,5", "7:5,2-3,6", "7:6,2-3,5", "7:5,6,2-3", "7:6,5,2-3",
     "7:3-2,5,6"],
)
def test_two_cycle_exponents_ignore_class_order(text):
    assert RamificationType.parse(text).two_cycle_exponents() == (2, 3, 5, 6)


@pytest.mark.parametrize("text", ["5:3,3,5", "5:2,2,4,4", "7:3,3,5,5", "7:2-3,5,6,7"])
def test_two_cycle_exponents_none_for_other_shapes(text):
    assert RamificationType.parse(text).two_cycle_exponents() is None


def test_parse_rejects_malformed():
    for bad in ("5", "5:2,2", "5:2-3-4,5,5", "5:2-2,3-3,4", "x:2,2,4,4"):
        with pytest.raises(InvalidTypeError):
            RamificationType.parse(bad)


def test_genus_examples():
    assert RamificationType.pure(5, (3, 3, 3, 3)).genus() == 0
    assert RamificationType.pure(7, (2, 4, 4, 6)).genus() == 0
    # Riemann-Hurwitz: 2g - 2 = -2d + sum(e_i - 1) gives genus 2 here
    assert RamificationType.pure(5, (5, 5, 5)).genus() == 2
    assert RamificationType.pure(4, (4, 4, 3)).genus() == 1


def test_genus_rejects_invalid():
    with pytest.raises(InvalidTypeError):
        RamificationType.pure(9, (2, 2, 4, 4)).genus()  # negative
    with pytest.raises(InvalidTypeError):
        RamificationType.pure(5, (2, 2, 4, 5)).genus()  # half-integral


# -- closed formulas ----------------------------------------------------------


def test_pure4_formula_values():
    assert hurwitz_formula_pure4(5, (2, 2, 4, 4)) == 8
    assert hurwitz_formula_pure4(7, (2, 4, 4, 6)) == 12
    assert hurwitz_formula_pure4(5, (3, 3, 3, 3)) == 9
    with pytest.raises(InvalidTypeError):
        hurwitz_formula_pure4(9, (2, 2, 4, 4))


def test_badtype_formula_values():
    assert hurwitz_formula_badtype(7, 2, 2, 6, 6) == 4
    assert hurwitz_formula_badtype(7, 2, 3, 4, 7) == 3
    assert hurwitz_formula_badtype(7, 3, 3, 3, 7) == 1
    assert hurwitz_formula_badtype(6, 2, 2, 4, 6) == 2
    with pytest.raises(InvalidTypeError):
        hurwitz_formula_badtype(7, 3, 5, 4, 4)  # e1+e2 > d


def test_badtype_e4_equals_d_branches():
    # e1 != e2; e1 = e2 with d even; e1 = e2 with d odd
    assert hurwitz_formula_badtype(7, 2, 3, 4, 7) == 7 + 1 - 5
    assert hurwitz_formula_badtype(8, 2, 2, 6, 8) == (8 + 2 - 4) // 2
    assert hurwitz_formula_badtype(7, 3, 3, 3, 7) == (7 + 1 - 6) // 2


# -- enumeration --------------------------------------------------------------


def test_enumeration_matches_independent_reference():
    cases = [
        RamificationType.pure(5, (2, 2, 4, 4)),
        RamificationType.pure(4, (2, 2, 3, 3)),
        RamificationType.pure(6, (2, 2, 5, 5)),
        RamificationType.pure(5, (2, 4, 5)),
        RamificationType.two_cycle(6, 2, 2, 4, 6),
        RamificationType.two_cycle(5, 2, 2, 4, 4),
        RamificationType.two_cycle(6, 2, 3, 4, 5),
    ]
    for t in cases:
        assert hurwitz_number_brute(t) == reference_hurwitz_count(t), str(t)


def test_enumeration_h_5_2244_is_8():
    assert hurwitz_number_brute(RamificationType.pure(5, (2, 2, 4, 4))) == 8


def test_enumeration_respects_class_order_and_invariants():
    t = RamificationType.pure(7, (2, 4, 4, 6))
    reps = enumerate_factorizations(t)
    assert len(reps) == 12
    for f in reps:
        assert [cycle_lengths(g) for g in f.perms] == [c.lengths for c in t.classes]
    assert reps == sorted(reps)


def test_enumeration_bound_guard():
    with pytest.raises(BoundExceededError):
        enumerate_factorizations(RamificationType.pure(12, (6, 6, 7, 7)))
    with pytest.raises(BoundExceededError):
        # the bound for types that are not pure-cycle is 9
        enumerate_factorizations(RamificationType.two_cycle(10, 2, 2, 8, 10))


def test_search_row_bound_separates_the_timed_types():
    """MAX_SEARCH_ROWS lies between the largest type enumerated anywhere in the
    tests and the smallest genus-0 type that ran out of memory."""
    def rows(text):
        t = RamificationType.parse(text)
        return _search_rows(tuple(t.classes[i] for i in _search_order(t.classes)))

    # two middle 5-cycle classes of 11!/(5 * 6!) = 11,088 elements, over |Z| = 9 * 2!
    assert rows("11:5,5,5,9") == 11_088**2 // 18 == 6_830_208
    assert rows("11:6,6,6,6") == 4_268_880
    # five middle 3-cycle classes of 112 elements, over |Z| = 3 * 5!
    assert rows("8:" + ",".join(["3"] * 7)) == 112**5 // 360 == 48_953_935
    assert rows("11:5,5,5,9") <= MAX_SEARCH_ROWS < rows("8:" + ",".join(["3"] * 7))
    # three branch points loop over no class, so nothing is divided by |Z|
    assert rows("7:3,5,7") == CycleType(7, (3,)).class_size()


def test_enumeration_parity_obstruction_gives_empty():
    # odd total parity: a single transposition class cannot multiply to 1
    t = RamificationType(4, tuple(CycleType(4, (2,)) for _ in range(3)))
    assert enumerate_factorizations(t) == []
    assert hurwitz_number_brute(t) == 0


def test_conjugation_completeness():
    rng = random.Random(42)
    for t in (RamificationType.pure(5, (2, 2, 4, 4)), RamificationType.two_cycle(6, 2, 2, 4, 6)):
        reps = enumerate_factorizations(t)
        rep_set = {f.perms for f in reps}
        for f in reps:
            for _ in range(5):
                s = random_perm(rng, t.degree)
                moved = HurwitzFactorization(
                    t.degree, tuple(conjugate(s, g) for g in f.perms)
                )
                back = canonical_form(moved)
                assert back.perms == f.perms
                assert back.perms in rep_set


def test_canonical_form_is_idempotent_on_output():
    for f in enumerate_factorizations(RamificationType.pure(5, (2, 2, 4, 4))):
        assert canonical_form(f).perms == f.perms


@pytest.mark.parametrize("d", range(1, 8))
def test_gather_conjugation_equals_conjugate(d):
    rng = random.Random(d)
    types = [
        CycleType(d, lengths)
        for lengths in sorted({cycle_lengths(g) for g in itertools.permutations(range(d))})
    ]
    elements = np.concatenate([class_array(t) for t in types]).tolist()
    assert len(elements) == len(set(map(tuple, elements))) == math.factorial(d)
    for t in types:
        conjugators = _centralizer(t.canonical_representative())
        assert [z for z, _ in conjugators] == centralizer_elements(t.canonical_representative())
        perms = tuple(tuple(rng.choice(elements)) for _ in range(3))
        got = list(_conjugates(perms, conjugators))
        assert got == [tuple(conjugate(z, g) for g in perms) for z, _ in conjugators]


def test_factorization_validation():
    with pytest.raises(InvalidTypeError):
        HurwitzFactorization(3, ((1, 0, 2), (1, 0, 2), (1, 0, 2)))  # product != 1
    with pytest.raises(InvalidTypeError):
        # product is identity but group <(0 1)> is intransitive on 3 points
        HurwitzFactorization(3, ((1, 0, 2), (1, 0, 2)))


# -- monodromy ----------------------------------------------------------------


def test_monodromy_classify_examples():
    s5_on_6_points = GroupReport(6, 120, True)
    affine_f5 = GroupReport(5, 20, True)
    assert monodromy_classify(RamificationType.pure(6, (4, 4, 5))) == s5_on_6_points
    assert monodromy_classify(RamificationType.two_cycle(5, 2, 2, 4, 4)) == affine_f5
    assert s5_on_6_points.classification == affine_f5.classification == "other"
    a7 = GroupReport(7, 2520, True)
    s7 = GroupReport(7, 5040, True)
    assert (a7.classification, s7.classification) == ("alternating", "symmetric")
    assert monodromy_classify(RamificationType.pure(7, (3, 3, 5, 5))) == a7
    assert monodromy_classify(RamificationType.pure(7, (2, 4, 4, 6))) == s7
    assert monodromy_classify(RamificationType.two_cycle(7, 2, 3, 4, 7)) == s7
    assert monodromy_classify(RamificationType.two_cycle(7, 3, 3, 5, 5)) == a7


def test_two_cycle_monodromy_is_alternating_exactly_when_every_class_is_even():
    # genus 0 makes e1 + e2 + e3 + e4 = 2p + 2, so the rule needs no parity of e1 + e2
    shapes = alternating = 0
    for p in (5, 7, 11, 13):
        for e1, e2, e3, e4 in itertools.product(range(2, p + 1), repeat=4):
            if e1 <= e2 and e3 <= e4 and e1 + e2 <= p and e1 + e2 + e3 + e4 == 2 * p + 2:
                t = RamificationType.two_cycle(p, e1, e2, e3, e4)
                even = all(cl.parity == 1 for cl in t.classes)
                assert (monodromy_classify(t).classification == "alternating") == even, str(t)
                shapes += 1
                alternating += even
    assert (shapes, alternating) == (240, 67)


def test_monodromy_classify_rejects_uncovered_shapes():
    with pytest.raises(InvalidTypeError):
        monodromy_classify(RamificationType.two_cycle(6, 2, 2, 4, 6))  # composite degree
    with pytest.raises(InvalidTypeError):
        monodromy_classify(RamificationType.pure(5, (5, 5, 5)))  # genus 2


def test_monodromy_matches_computed_groups_small():
    for t in (RamificationType.pure(6, (4, 4, 5)), RamificationType.two_cycle(5, 2, 2, 4, 4)):
        expected = monodromy_classify(t)
        for f in enumerate_factorizations(t):
            assert group_analyze(f.perms) == expected
    assert galois_factor(GroupReport(7, 2520, True)) == 2
    assert galois_factor(GroupReport(7, 5040, True)) == 1
    with pytest.raises(InvalidTypeError):
        galois_factor(GroupReport(5, 20, True))


# -- JSON export ---------------------------------------------------------------


def test_json_roundtrip():
    reps = enumerate_factorizations(RamificationType.pure(5, (2, 2, 4, 4)))
    for f in reps:
        assert factorization_from_json(factorization_to_json(f)) == f
    lines = factorizations_to_jsonl(reps).splitlines()
    assert len(lines) == 8
    parsed = [factorization_from_json(json.loads(line)) for line in lines]
    assert parsed == reps


def test_brute_count_invariant_under_class_reordering():
    # permuting the branch classes permutes factorizations bijectively
    assert hurwitz_number_brute(RamificationType.pure(5, (4, 2, 4, 2))) == 8
    assert hurwitz_number_brute(
        RamificationType.two_cycle(7, 2, 4, 6, 4)
    ) == hurwitz_number_brute(RamificationType.two_cycle(7, 2, 4, 4, 6))


def test_enumeration_with_pair_class_anchored_last():
    t = RamificationType(
        5, (CycleType(5, (4,)), CycleType(5, (4,)), CycleType(5, (2, 2)))
    )
    assert hurwitz_number_brute(t) == reference_hurwitz_count(t) == 2


def _case(text, count, order):
    return pytest.param(text, count, order, id=f"{text}-{count}")


@pytest.mark.parametrize(
    "text, count, order",
    [
        # r = 3: the only middle class is vectorized
        _case("5:2,4,5", 1, (2, 0, 1)),  # searched as 5:5,2,4
        _case("6:4,2-2,6", 2, (0, 1, 2)),
        # r = 4, searched with the 5-cycle anchored, the 4-cycle solved and
        # the 3-cycle vectorized
        _case("6:2,5,3,4", 10, (3, 2, 0, 1)),
        _case("6:2,3,5,4", 10, (3, 1, 0, 2)),
        # r = 4, ties: the later 4-cycle is anchored, the earlier one solved
        _case("6:3,4,4,3", 12, (1, 0, 3, 2)),
        # r = 5, searched with the 3-cycle solved and 2-cycles in the middle
        _case("5:2,3,2,2,4", 48, (1, 0, 2, 3, 4)),
        _case("5:2,2,3,2,4", 48, (2, 0, 1, 3, 4)),
        _case("5:2,2,2,3,4", 48, (3, 0, 1, 2, 4)),
        # r = 5 with the vectorized 3-cycle at middle type position 0, 1, 2
        _case("5:3,3,2,2,3", 55, (0, 1, 2, 3, 4)),
        _case("5:3,2,3,2,3", 55, (0, 2, 1, 3, 4)),
        _case("5:3,2,2,3,3", 55, (0, 3, 1, 2, 4)),
        _case("4:2,2,2,2,3", 27, (0, 1, 2, 3, 4)),  # middle classes all tied
        _case("4:2,2,2,2,2,2", 120, (0, 1, 2, 3, 4, 5)),  # r = 6, all tied
    ],
)
def test_enumeration_matches_reference_for_each_vectorized_class(text, count, order):
    t = RamificationType.parse(text)
    assert _search_order(t.classes) == order
    reps = enumerate_factorizations(t)
    assert len(reps) == reference_hurwitz_count(t) == count
    for f in reps:
        assert canonical_form(f) == f
        assert [cycle_lengths(g) for g in f.perms] == [c.lengths for c in t.classes]


@pytest.mark.parametrize(
    "text, count",
    [
        ("6:2,3,4,5", hurwitz_formula_pure4(6, (2, 3, 4, 5))),  # 10
        ("6:2-2,4,6", hurwitz_formula_badtype(6, 2, 2, 4, 6)),  # 2
    ],
)
def test_every_class_order_gives_the_same_count(text, count):
    d, _, classes = text.partition(":")
    for order in itertools.permutations(classes.split(",")):
        t = RamificationType.parse(f"{d}:" + ",".join(order))
        reps = enumerate_factorizations(t)
        assert len(reps) == count, str(t)
        for f in reps:
            assert canonical_form(f) == f
            assert [cycle_lengths(g) for g in f.perms] == [c.lengths for c in t.classes]


@pytest.mark.parametrize("text", ["6:2,5,3,4", "6:3,4,4,3", "8:2-6,8,2", "5:2,2,2,3,4"])
def test_to_type_order_keeps_product_transitivity_and_conjugation(text):
    t = RamificationType.parse(text)
    d = t.degree
    order = _search_order(t.classes)
    assert order != tuple(range(len(order)))
    classes = tuple(t.classes[i] for i in order)
    anchor = classes[-1].canonical_representative()
    raw = _search_generic(d, classes, anchor, _centralizer(anchor))
    rng = random.Random(5)
    for tup in itertools.islice(raw, 6):
        back = _to_type_order(tup, order)
        assert compose_all(back, d) == identity(d)
        assert is_transitive(back, d)
        assert [cycle_lengths(g) for g in back] == [c.lengths for c in t.classes]
        s = random_perm(rng, d)
        moved = tuple(conjugate(s, g) for g in tup)
        assert _to_type_order(moved, order) == tuple(conjugate(s, g) for g in back)


def test_enumeration_with_a_large_centralizer_last():
    # a 2-cycle last has a centralizer of order 1440 in S_8; the search
    # anchors the largest class instead and maps the results back
    assert hurwitz_number_brute(RamificationType.parse("8:2-6,8,2")) == (
        hurwitz_formula_badtype(8, 2, 6, 2, 8)
    )
    assert hurwitz_number_brute(RamificationType.parse("8:2,7,7,2")) == (
        hurwitz_formula_pure4(8, (2, 7, 7, 2))
    )


@pytest.mark.parametrize("text, builds", [("9:2,5,6,7", 1), ("8:2,7,7,2", 2)])
def test_enumeration_builds_the_last_centralizer_only_for_another_class(
    text, builds, monkeypatch
):
    """9:2,5,6,7 is searched in a moved order, but its anchor is its last
    class, whose centralizer serves both the search and the canonical forms.
    8:2,7,7,2 anchors a 7-cycle and ends with a 2-cycle, so it builds two."""
    calls = []

    def counting(g):
        calls.append(g)
        return _centralizer(g)

    monkeypatch.setattr(hurwitz, "_centralizer", counting)
    t = RamificationType.parse(text)
    assert _search_order(t.classes) != tuple(range(4))
    assert len(enumerate_factorizations(t)) == hurwitz_formula_pure4(t.degree, t.exponents)
    assert len(calls) == builds


# -- search filters and deduplication ------------------------------------------


@st.composite
def filter_batches(draw):
    """(shared, rows, target) of degree 3-11.  Each permutation either keeps the
    blocks {0..s-1} and {s..d-1} of a drawn split or is free, so some tuples
    are intransitive; a drawn relabelling hides the split.  Some rows are
    conjugates of the target class, a single cycle or a two-cycle class."""
    d = draw(st.integers(3, 11))
    split = draw(st.integers(1, d - 1))
    relabel = draw(st.permutations(range(d)))
    if draw(st.booleans()) or d < 4:
        target = CycleType(d, (draw(st.integers(2, d)),))
    else:
        a = draw(st.integers(2, d - 2))
        target = CycleType(d, (a, draw(st.integers(2, d - a))))

    def perm():
        kind = draw(st.sampled_from(("blocks", "free", "target")))
        if kind == "blocks":
            g = tuple(draw(st.permutations(range(split)))) + tuple(
                draw(st.permutations(range(split, d))))
        elif kind == "free":
            g = tuple(draw(st.permutations(range(d))))
        else:
            g = conjugate(draw(st.permutations(range(d))), target.canonical_representative())
        return conjugate(relabel, g)

    shared = tuple(perm() for _ in range(draw(st.integers(0, 3))))
    rows = [perm() for _ in range(draw(st.integers(1, 12)))]
    return shared, rows, target


def powers(g, top):
    """g, g^2, ..., g^top."""
    out = [g]
    while len(out) < top:
        out.append(compose(g, out[-1]))
    return out


@settings(max_examples=200, deadline=None)
@given(filter_batches())
def test_batch_filters_agree_with_per_row_checks(batch):
    shared, rows, target = batch
    d = target.degree
    top = max(d // 2, 1)
    width = d.bit_length()
    words = np.array(rows, dtype=np.int16)
    keys = cycle_type_keys(words)
    # one uint64 per row below degree 26: fix(h^k) at bit width * (k - 1)
    assert keys.tolist() == [
        sum(
            sum(x == y for x, y in enumerate(g)) << width * k
            for k, g in enumerate(powers(h, top))
        )
        for h in rows
    ]
    key = cycle_type_keys(np.array([target.canonical_representative()], dtype=np.int16))
    assert (keys == key).tolist() == [cycle_lengths(g) == target.lengths for g in rows]
    # each row holds shared and then its own permutation; the identity as
    # anchor adds nothing
    entries = np.array([[*shared, g] for g in rows], dtype=np.int16)
    assert _transitive_mask(entries, identity(d)).tolist() == [
        is_transitive(shared + (g,), d) for g in rows
    ]


def test_search_streams_the_looped_choices():
    """The first raw tuple comes before the choices of the looped entries are
    all built.  The five looped 2-cycle classes of 6:2^6,3,3 have 3 * 15^4 =
    151,875 choices (3 orbit minima for the first); building them all before
    the first batch peaked at 13 MB, one lazy product peaks at about 0.4 MB."""
    t = RamificationType.parse("6:2,2,2,2,2,2,3,3")
    classes = tuple(t.classes[i] for i in _search_order(t.classes))
    anchor = classes[-1].canonical_representative()
    raw = _search_generic(t.degree, classes, anchor, _centralizer(anchor))
    tracemalloc.start()
    try:
        next(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "text", ["5:2,2,4,4", "6:2,5,3,4", "6:2,3,2,4,4", "6:2,2,3,3,5", "4:2,2,2,2,2,2", "9:5,5,5,5"]
)
def test_search_finds_the_same_raw_tuples_in_any_batch_size(text, monkeypatch):
    # one looped class, two, three, and a vectorized class larger than a
    # batch (9:5,5,5,5).  Both counts, whose Z tests run in chunks of
    # _SEARCH_ROWS // |Z| rows, agree at every batch size.
    t = RamificationType.parse(text)
    classes = tuple(t.classes[i] for i in _search_order(t.classes))
    anchor = classes[-1].canonical_representative()
    centralizer = _centralizer(anchor)
    found = []
    for rows in (1, hurwitz._SEARCH_ROWS, 10**9):
        monkeypatch.setattr(hurwitz, "_SEARCH_ROWS", rows)
        raw = list(_search_generic(t.degree, classes, anchor, centralizer))
        assert len(set(raw)) == len(raw)
        found.append(set(raw))
        assert hurwitz_number_brute(t) == len(enumerate_factorizations(t))
    assert found[0] and found[0] == found[1] == found[2]


@pytest.mark.parametrize(
    "text",
    ["5:2,2,4,4", "6:2-2,4,6", "8:2-6,8,2", "7:2,3,3,3,4", "5:2,2,2,3,4",
     "6:2,5,3,4", "6:3,2,5,4", "6:2,3,2,4,4"],
)
def test_orbit_sweep_keeps_one_minimum_per_centralizer_orbit(text):
    # 6:2-2,4,6 has a self-paired class, whose orbit is smaller than the
    # centralizer; 7:2,3,3,3,4 has negative genus, so its raw set is empty.
    # The r = 3 types have no looped class.
    t = RamificationType.parse(text)
    d = t.degree
    classes = tuple(t.classes[i] for i in _search_order(t.classes))
    anchor = classes[-1].canonical_representative()
    centralizer = centralizer_elements(anchor)
    conjugators = _centralizer(anchor)
    full = list(_search_generic(d, classes, anchor, [(identity(d), gather(identity(d)))]))
    assert len(set(full)) == len(full)
    for z in centralizer:
        assert {tuple(conjugate(z, g) for g in tup) for tup in full} == set(full)
    expected = {_canonical_anchored(tup, conjugators) for tup in full}

    reduced = list(_search_generic(d, classes, anchor, conjugators))
    # the Z_x-least test of _enumerate, here on every row, also those with a
    # trivial Z_x, which it must keep: one row per class, none lost
    zt = np.array(centralizer, dtype=np.int16).T
    kept = []
    for w, entries in _search_batches(d, classes, anchor, conjugators):
        keep = _least_in_orbit(entries, zt)
        kept += _raw_tuples(anchor, w[keep], entries[keep])
    assert len(kept) == len(expected)
    assert {_canonical_anchored(tup, conjugators) for tup in kept} == expected

    closure = {tuple(conjugate(z, g) for g in tup) for z in centralizer for tup in reduced}
    assert closure == set(full)
    if len(classes) > 3:
        # the first looped entry, after g_1 and v, is always the least of its
        # centralizer orbit
        for tup in reduced:
            x = tup[2]
            assert _canonical_anchored((x,), conjugators) == (x,)
    else:
        assert reduced == full


def _genus0_shapes(d):
    """The classes of every genus-0 pure 3-point, pure 4-point and two-cycle
    type of degree d, each in sorted order."""
    shapes = [
        list(map(str, es))
        for r in (3, 4)
        for es in itertools.combinations_with_replacement(range(2, d + 1), r)
        if sum(es) == 2 * d + r - 2
    ]
    shapes += [
        [f"{e1}-{e2}", str(e3), str(e4)]
        for e1, e2 in itertools.combinations_with_replacement(range(2, d + 1), 2)
        for e3, e4 in itertools.combinations_with_replacement(range(2, d + 1), 2)
        if e1 + e2 <= d and e1 + e2 + e3 + e4 == 2 * d + 2
    ]
    return shapes


def _pinned_types():
    """Every genus-0 pure 3-point, pure 4-point and two-cycle type of degree
    3 to 6 in every class order, and of degree 7 in sorted order."""
    for d in range(3, 8):
        for shape in _genus0_shapes(d):
            orders = sorted(set(itertools.permutations(shape))) if d <= 6 else [shape]
            for order in orders:
                yield RamificationType.parse(f"{d}:" + ",".join(order))


def test_enumeration_output_is_pinned():
    # any change of representative or of their order changes the digest
    digest = hashlib.sha256()
    types = list(_pinned_types())
    for t in types:
        digest.update(f"{t}\n".encode())
        for f in enumerate_factorizations(t):
            digest.update(f"{f.perms}\n".encode())
    assert len(types) == 264
    assert digest.hexdigest() == (
        "75e4a701903268ad8ea29cea6265ce17489965f0bb2ad727217119b266d2b68f"
    )


def _many_point_types():
    """Every genus-0 pure 5-point type of degree at most 6 and 6-point type
    of degree at most 5, in every class order."""
    for r, top in ((5, 6), (6, 5)):
        for d in range(2, top + 1):
            for es in itertools.combinations_with_replacement(range(2, d + 1), r):
                if sum(es) == 2 * d + r - 2:
                    for order in sorted(set(itertools.permutations(es))):
                        yield RamificationType.pure(d, order)


def test_many_point_counts_and_enumeration_are_pinned():
    """Both enumerators with two or three middle classes, whose search order
    puts the vectorized class before the looped ones: any change of a count,
    a representative or their order changes the digest."""
    digest = hashlib.sha256()
    types = list(_many_point_types())
    for t in types:
        digest.update(f"{t} {hurwitz_number_brute(t)}\n".encode())
        for f in enumerate_factorizations(t):
            digest.update(f"{f.perms}\n".encode())
    assert len(types) == 183
    assert digest.hexdigest() == (
        "33e5d4cb0787ec396252a0fc138c13c4505f91ea5c537585ac36b9f7dc4a34fc"
    )


def test_trusted_results_still_validate():
    """enumerate_factorizations and braid_orbits skip the checks of
    HurwitzFactorization, since the search has proved each representative and
    Q3 keeps the product and the generated group.  Rebuilt through the public
    constructor, every representative and every orbit representative passes
    them, with its entries in the type's classes, and so does each braid_q3
    step, on every genus-0 type of degree at most 8 in type order and with the
    last class moved first."""
    for d in range(3, 9):
        for shape in _genus0_shapes(d):
            for order in {tuple(shape), tuple(shape[-1:] + shape[:-1])}:
                t = RamificationType.parse(f"{d}:" + ",".join(order))
                reps = enumerate_factorizations(t)
                rebuilt = [HurwitzFactorization(d, f.perms) for f in reps]
                assert repr(rebuilt) == repr(reps), str(t)
                lengths = [cl.lengths for cl in t.classes]
                assert all([cycle_lengths(g) for g in f.perms] == lengths for f in reps), str(t)
                if len(t.classes) == 4:
                    orbits = braid_orbits(t)
                    assert sum(o.length for o in orbits) == len(reps), str(t)
                    for f in [*reps, *(o.representative for o in orbits)]:
                        assert HurwitzFactorization(d, f.perms) == f
                        assert [cycle_lengths(g) for g in braid_q3(f).perms] == lengths


# The two-cycle types (d; e-e, e3, e4) with d, e3 and e4 even: each has one
# class whose tuples some z of the anchor's centralizer fixes, so a count that
# took every stabilizer as trivial would not be a multiple of |Z|.
SELF_PAIRED = ["4:2-2,2,4", "6:2-2,4,6", "6:3-3,2,6", "6:3-3,4,4", "8:2-2,6,8", "8:3-3,4,8",
               "8:3-3,6,6", "8:4-4,2,8", "8:4-4,4,6"]


def test_count_equals_the_number_of_stored_classes():
    """hurwitz_number_brute weights raw tuples by their stabilizers instead of
    storing classes; it counts the classes that enumerate_factorizations
    returns on every genus-0 type of the pin, every one of degree 8 in sorted
    order, and types with many points, in sorted and in moved class order.
    In this grammar a genus-0 cover with an automorphism has three points, so
    the last three types, of genus 1 and 2, are the ones with a looped class
    and a stabilizer of order 2 inside a Z_x of order 2."""
    types = [*_pinned_types(), *(RamificationType.parse("8:" + ",".join(shape))
                                  for shape in _genus0_shapes(8))]
    types += map(RamificationType.parse, [
        "5:2,2,2,2,2,2,2,2", "4:2,2,2,2,2,2", "6:2,2,3,3,3,3", "6:3,3,2,2,3,3",
        "5:2,2,2,3,4", "6:2,2,3,3,5", "6:2,3,2,4,4", "8:8,2-6,2", "4:2,4,2,4", "6:2,6,6,6",
        "6:4,4,6,6"])
    assert set(SELF_PAIRED) <= {str(t) for t in types}
    for t in types:
        assert hurwitz_number_brute(t) == len(enumerate_factorizations(t)), str(t)


@pytest.mark.parametrize("text, h", [("6:2,2,3,3,3,3", 720), ("5:2,2,2,2,2,2,2,2", 8400)])
def test_count_stores_no_classes(text, h):
    """Counting keeps one batch, not the classes: the tracemalloc peak of
    6:2,2,3,3,3,3 was 8.4 MB and of 5:2^8 76.6 MB when the count was the
    length of the stored list, and counted it is 0.7 MB and 1.2 MB."""
    t = RamificationType.parse(text)
    hurwitz_number_brute(RamificationType.parse("5:2,2,4,4"))  # numpy loaded
    tracemalloc.start()
    try:
        assert hurwitz_number_brute(t) == h
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_listing_stores_one_tuple_per_class():
    """Listing keeps the classes and one batch: the tracemalloc peak of 5:2^8
    stays within twice what the returned list still holds.  When an orbit
    sweep deduplicated the rows, its set of h |Z| seen tuples peaked at
    83.6 MB against 6.7 MB held; one row kept per class peaks at 7.3 MB."""
    t = RamificationType.parse("5:2,2,2,2,2,2,2,2")
    hurwitz_number_brute(RamificationType.parse("5:2,2,4,4"))  # numpy loaded
    tracemalloc.start()
    try:
        reps = enumerate_factorizations(t)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reps) == 8400
    assert peak < 2 * held


@functools.cache
def _enumerated(text):
    return enumerate_factorizations(RamificationType.parse(text))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonical_form_is_idempotent_and_conjugation_invariant(data):
    text = data.draw(st.sampled_from(("5:2,2,4,4", "6:2-2,4,6", "6:2,3,4,5", "7:3,3,5,5")))
    f = data.draw(st.sampled_from(_enumerated(text)))
    s = tuple(data.draw(st.permutations(range(f.degree))))
    moved = HurwitzFactorization(f.degree, tuple(conjugate(s, g) for g in f.perms))
    canon = canonical_form(moved)
    assert canon == f
    assert canonical_form(canon) == canon


def test_pure4_formula_at_degree_ten():
    types = [
        es for es in itertools.combinations_with_replacement(range(2, 11), 4)
        if sum(es) == 22
    ]
    assert len(types) == 31
    for es in types:
        t = RamificationType.pure(10, es)
        assert hurwitz_number_brute(t) == hurwitz_formula_pure4(10, es), str(t)


@pytest.mark.slow
def test_enumeration_at_degree_eleven_pure_cycle_bound():
    # degree 11 is the largest that PURE_CYCLE_MAX_DEGREE admits
    types = [
        es for es in itertools.combinations_with_replacement(range(2, 12), 4)
        if sum(es) == 24
    ]
    assert len(types) == 41
    for es in types:
        t = RamificationType.pure(11, es)
        assert hurwitz_number_brute(t) == hurwitz_formula_pure4(11, es), str(t)
    assert hurwitz_formula_pure4(11, (2, 2, 9, 11)) == 11


@pytest.mark.slow
def test_count_tests_the_centralizer_in_chunks():
    """The anchor's centralizer of 11:6,6,6,6 has 720 elements, so the Z tests
    of a batch build (rows, d, |Z|) arrays.  Unchunked they peaked at 59.7 MB
    under tracemalloc, and in chunks of _SEARCH_ROWS // |Z| rows at 35.8 MB."""
    t = RamificationType.parse("11:6,6,6,6")
    hurwitz_number_brute(RamificationType.parse("5:2,2,4,4"))  # numpy loaded
    tracemalloc.start()
    try:
        assert hurwitz_number_brute(t) == 36
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 55 * 2**20
