import json
import random

import pytest

from conftest import reference_hurwitz_count
from purecycle.errors import BoundExceededError, InvalidTypeError
from purecycle.group import group_analyze
from purecycle.hurwitz import (
    AFFINE_FP,
    HurwitzFactorization,
    RamificationType,
    alternating,
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
    symmetric,
)
from purecycle.perm import CycleType, conjugate, cycle_lengths, random_perm


def pair_type(d, e1, e2, e3, e4):
    return RamificationType(
        d, (CycleType(d, (e1, e2)), CycleType(d, (e3,)), CycleType(d, (e4,)))
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
        pair_type(6, 2, 2, 4, 6),
        pair_type(5, 2, 2, 4, 4),
        pair_type(6, 2, 3, 4, 5),
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
        enumerate_factorizations(pair_type(10, 2, 2, 8, 10))  # non-pure bound is 9


def test_enumeration_parity_obstruction_gives_empty():
    # odd total parity: a single transposition class cannot multiply to 1
    t = RamificationType(4, tuple(CycleType(4, (2,)) for _ in range(3)))
    assert enumerate_factorizations(t) == []


def test_conjugation_completeness():
    rng = random.Random(42)
    for t in (RamificationType.pure(5, (2, 2, 4, 4)), pair_type(6, 2, 2, 4, 6)):
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


def test_factorization_validation():
    with pytest.raises(InvalidTypeError):
        HurwitzFactorization(3, ((1, 0, 2), (1, 0, 2), (1, 0, 2)))  # product != 1
    with pytest.raises(InvalidTypeError):
        # product is identity but group <(0 1)> is intransitive on 3 points
        HurwitzFactorization(3, ((1, 0, 2), (1, 0, 2)))


# -- monodromy ----------------------------------------------------------------


def test_monodromy_classify_examples():
    assert monodromy_classify(RamificationType.pure(6, (4, 4, 5))).label == "S5 on 6 letters"
    assert monodromy_classify(pair_type(5, 2, 2, 4, 4)) == AFFINE_FP
    assert monodromy_classify(RamificationType.pure(7, (3, 3, 5, 5))) == alternating(7)
    assert monodromy_classify(RamificationType.pure(7, (2, 4, 4, 6))) == symmetric(7)
    assert monodromy_classify(pair_type(7, 2, 3, 4, 7)) == symmetric(7)
    assert monodromy_classify(pair_type(7, 3, 3, 5, 5)) == alternating(7)


def test_monodromy_classify_rejects_uncovered_shapes():
    with pytest.raises(InvalidTypeError):
        monodromy_classify(pair_type(6, 2, 2, 4, 6))  # composite degree
    with pytest.raises(InvalidTypeError):
        monodromy_classify(RamificationType.pure(5, (5, 5, 5)))  # genus 2


def test_monodromy_matches_computed_groups_small():
    for t in (RamificationType.pure(6, (4, 4, 5)), pair_type(5, 2, 2, 4, 4)):
        expected = monodromy_classify(t)
        for f in enumerate_factorizations(t):
            report = group_analyze(f.perms)
            if expected.kind == "exceptional":
                assert report.order == 120
            elif expected.kind == "affine":
                assert report.order == 20
    assert galois_factor(alternating(7)) == 2
    assert galois_factor(symmetric(7)) == 1
    with pytest.raises(InvalidTypeError):
        galois_factor(AFFINE_FP)


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
    assert hurwitz_number_brute(pair_type(7, 2, 4, 6, 4)) == hurwitz_number_brute(
        pair_type(7, 2, 4, 4, 6)
    )


def test_enumeration_with_pair_class_anchored_last():
    t = RamificationType(
        5, (CycleType(5, (4,)), CycleType(5, (4,)), CycleType(5, (2, 2)))
    )
    assert hurwitz_number_brute(t) == reference_hurwitz_count(t) == 2


@pytest.mark.parametrize(
    "text, count",
    [
        ("5:2,4,5", 1),  # r = 3: the only middle class is vectorized
        ("6:4,2-2,6", 2),
        ("6:2,5,3,4", 10),  # r = 4: the larger class first
        ("6:2,3,5,4", 10),  # the larger class second
        ("6:3,4,4,3", 12),  # a tie
        ("5:2,3,2,2,4", 48),  # r = 5: the largest class first, middle, last
        ("5:2,2,3,2,4", 48),
        ("5:2,2,2,3,4", 48),
        ("4:2,2,2,2,3", 27),  # all tied
        ("4:2,2,2,2,2,2", 120),  # r = 6, all tied
    ],
)
def test_enumeration_matches_reference_for_each_vectorized_class(text, count):
    t = RamificationType.parse(text)
    reps = enumerate_factorizations(t)
    assert len(reps) == reference_hurwitz_count(t) == count
    for f in reps:
        assert canonical_form(f) == f
        assert [cycle_lengths(g) for g in f.perms] == [c.lengths for c in t.classes]


@pytest.mark.slow
def test_enumeration_at_degree_eleven_pure_cycle_bound():
    t = RamificationType.pure(11, (2, 2, 9, 11))
    assert hurwitz_number_brute(t) == hurwitz_formula_pure4(11, (2, 2, 9, 11)) == 11
