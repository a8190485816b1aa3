import itertools
import math
import random
from fractions import Fraction

import pytest

from purecycle.braid import admissible_enumerate_char0
from purecycle.charp import (
    ReductionCount,
    admissible_reduction_census,
    bad_count_2cycle,
    good_degeneration,
    n_prime_tau_star,
    p_hurwitz_3pt_badtype,
    p_hurwitz_pure4,
    signature_check,
    single_cycle_node_bad_general,
    tail_aut_orders,
    tail_invariants,
    three_point_good_reduction,
    wewers_lift_count,
)
from purecycle.errors import InvalidTypeError
from purecycle.hurwitz import hurwitz_formula_badtype, hurwitz_formula_pure4
from purecycle.perm import CycleType


def test_tail_invariants_single():
    ti = tail_invariants(7, (3,))
    assert (ti.h, ti.m, ti.sigma) == (2, 3, Fraction(2, 3))
    ti = tail_invariants(7, (6,))  # totally branched case
    assert (ti.h, ti.m) == (1, 6)
    ti = tail_invariants(7, (3, 3))
    assert (ti.h, ti.m, ti.sigma) == (1, 3, Fraction(1, 3))


def test_tail_invariants_rejections():
    with pytest.raises(InvalidTypeError):
        tail_invariants(7, (7,))  # p-cycle has no tail
    with pytest.raises(InvalidTypeError):
        tail_invariants(7, (1,))
    with pytest.raises(InvalidTypeError):
        tail_invariants(7, (4, 4))  # e1 + e2 > p
    with pytest.raises(InvalidTypeError):
        tail_invariants(8, (3,))  # not prime


def test_tail_invariants_accepts_lists_and_keeps_rejecting():
    assert tail_invariants(7, [3, 2]) == tail_invariants(7, (2, 3))
    assert tail_invariants(7, [4]) == tail_invariants(7, (4,))
    for _ in range(2):  # a rejection is not cached as a result
        with pytest.raises(InvalidTypeError):
            tail_invariants(7, [4, 4])


def test_tail_invariants_bounds():
    for p in (5, 7, 11):
        assert tail_invariants(p, (p - 1,)).h == 1  # e = p - 1 is the last single cycle
        with pytest.raises(InvalidTypeError):
            tail_invariants(p, (p + 1,))
        assert tail_invariants(p, (2, p - 2)).h == 1  # e1 + e2 = p fits
        with pytest.raises(InvalidTypeError):
            tail_invariants(p, (3, p - 2))  # e1 + e2 = p + 1, each part in range


def test_signature_check_agrees_with_fraction_sum():
    rng = random.Random(7)
    for p in (5, 7, 11, 13, 31):
        classes = [(e,) for e in range(2, p + 1)]
        classes += [(a, b) for a in range(2, p) for b in range(a, p + 1 - a)]
        for _ in range(300):
            chosen = [rng.choice(classes) for _ in range(rng.choice((3, 4)))]
            total = sum(tail_invariants(p, c).sigma for c in chosen if c != (p,))
            assert signature_check(p, chosen) == (total == len(chosen) - 2), (p, chosen)


def test_tail_invariant_triple_small_sweep():
    for p in (5, 7, 11, 13):
        for e in range(2, p):
            ti = tail_invariants(p, (e,))
            assert (p - 1) % ti.m == 0
            assert math.gcd(ti.h, ti.m) == 1
            assert ti.h < ti.m or (ti.h, ti.m) == (1, 1)
            assert 0 < ti.sigma < 1


def test_aut_orders():
    assert tail_aut_orders(7, 3) == type(tail_aut_orders(7, 3))(2, 2)
    assert (tail_aut_orders(7, 4).full, tail_aut_orders(7, 4).fixing) == (3, 1)
    assert (tail_aut_orders(7, 6).full, tail_aut_orders(7, 6).fixing) == (1, 1)


def test_aut_orders_bounds():
    for p in (5, 7, 11):
        assert tail_aut_orders(p, 2).full == p - 2
        assert tail_aut_orders(p, p - 1).full == 1
        for e in (0, 1, p, p + 1):
            with pytest.raises(InvalidTypeError):
                tail_aut_orders(p, e)
    with pytest.raises(InvalidTypeError, match="no tail"):
        tail_aut_orders(7, 7)
    with pytest.raises(InvalidTypeError):
        tail_aut_orders(8, 3)  # not a prime


def test_signature_identity_examples():
    assert signature_check(7, [(3, 3), (3,), (7,)])
    assert signature_check(7, [(2,), (4,), (4,), (6,)])
    assert signature_check(5, [(2,), (2,), (4,), (4,)])
    assert not signature_check(7, [(2,), (2,), (4,), (6,)])  # genus != 0


def test_wewers_lift_count():
    assert wewers_lift_count(7, 6, [(2, 2)]) == 1
    assert wewers_lift_count(7, 3, [(1, 1), (2, 2)]) == 2
    # single-cycle tails contribute h_e / h_e = 1
    for p, e in ((7, 3), (11, 4), (13, 8)):
        h = tail_invariants(p, (e,)).h
        aut0 = tail_aut_orders(p, e).fixing
        assert Fraction(h, aut0) == 1
    with pytest.raises(InvalidTypeError):
        wewers_lift_count(7, 0, [(1, 1)])


@pytest.mark.parametrize(
    "fn, args",
    [
        # e = 1, e > d, the two-cycle class too big for S_d, and a sum other than 2d+2
        (hurwitz_formula_pure4, (5, (1, 3, 4, 4))),
        (hurwitz_formula_pure4, (5, (2, 2, 2, 6))),
        (hurwitz_formula_pure4, (5, (2, 2, 4, 5))),
        (hurwitz_formula_badtype, (7, 1, 1, 7, 7)),
        (hurwitz_formula_badtype, (7, 2, 2, 2, 10)),
        (hurwitz_formula_badtype, (7, 4, 4, 4, 4)),
        (hurwitz_formula_badtype, (7, 2, 2, 4, 7)),
        (admissible_enumerate_char0, (5, 1, 3, 4, 4)),
        (admissible_enumerate_char0, (5, 2, 2, 2, 6)),
        (admissible_enumerate_char0, (5, 2, 2, 4, 5)),
        (admissible_enumerate_char0, (5, 4, 4, 2, 2)),  # unsorted
        (bad_count_2cycle, (7, 1, 1, 7, 7)),
        (bad_count_2cycle, (7, 2, 2, 1, 11)),
        (bad_count_2cycle, (7, 2, 2, 2, 10)),
        (bad_count_2cycle, (7, 4, 4, 4, 4)),
        (bad_count_2cycle, (7, 2, 2, 4, 7)),
        (bad_count_2cycle, (7, 3, 2, 4, 7)),  # e1 > e2
        (p_hurwitz_3pt_badtype, (7, 1, 1, 7, 7)),
        (p_hurwitz_3pt_badtype, (7, 2, 2, 2, 10)),
        (p_hurwitz_3pt_badtype, (7, 4, 4, 4, 4)),
        (p_hurwitz_3pt_badtype, (7, 2, 2, 4, 7)),
        (p_hurwitz_3pt_badtype, (7, 3, 2, 4, 7)),
        # in degree p, e > d is e4 >= p
        (admissible_reduction_census, (7, 1, 4, 5, 6)),
        (admissible_reduction_census, (7, 2, 3, 4, 5)),
        (admissible_reduction_census, (7, 6, 5, 3, 2)),
        (admissible_reduction_census, (7, 2, 2, 5, 7)),
        (good_degeneration, (7, 1, 4, 5, 6)),
        (good_degeneration, (7, 2, 3, 4, 5)),
        (good_degeneration, (7, 6, 5, 3, 2)),
        (good_degeneration, (7, 2, 2, 5, 7)),
        (p_hurwitz_pure4, (7, 1, 4, 5, 6)),
        (p_hurwitz_pure4, (7, 2, 3, 4, 5)),
        (p_hurwitz_pure4, (7, 2, 2, 5, 7)),
        (single_cycle_node_bad_general, (9, 11, 1, 4, 7, 8)),
        (single_cycle_node_bad_general, (5, 11, 2, 2, 2, 6)),
        (single_cycle_node_bad_general, (9, 11, 2, 4, 7, 9)),
        (single_cycle_node_bad_general, (9, 11, 8, 5, 5, 2)),
        (single_cycle_node_bad_general, (12, 11, 2, 4, 9, 11)),
        (three_point_good_reduction, (5, 1, 5, 5, 7)),
        (three_point_good_reduction, (5, 2, 2, 7, 11)),
        (three_point_good_reduction, (5, 2, 3, 4, 7)),
        (three_point_good_reduction, (5, 3, 3, 5, 5)),
        # the pair class e1-e2 of the modified type: e = 1, e > p, e1 + e2 > p
        (n_prime_tau_star, (7, 1, 100, 1, 1, 1)),
        (n_prime_tau_star, (7, 1, 6, 1, 1, 1)),
        (n_prime_tau_star, (7, 2, 8, 1, 1, 1)),
        (n_prime_tau_star, (7, 4, 4, 1, 1, 1)),
    ],
    ids=lambda v: v.__name__ if callable(v) else str(v).replace(" ", ""),
)
def test_invalid_genus0_inputs_raise(fn, args):
    with pytest.raises(InvalidTypeError):
        fn(*args)


def test_n_prime_tau_star():
    assert n_prime_tau_star(7, 3, 3, 1, 1, 2) == 3
    assert n_prime_tau_star(7, 2, 3, 1, 1, 1) == 2
    # the Kronecker factor doubles the value exactly when e1 = e2,
    # other inputs (including e1 + e2) held fixed
    assert n_prime_tau_star(11, 4, 4, 3, 5, 2) == 2 * n_prime_tau_star(11, 3, 5, 3, 5, 2)


def test_reduction_count_arithmetic():
    assert ReductionCount(3, 3).is_exact and ReductionCount(3, 3).value == 3
    amb = ReductionCount(2, 4)
    assert not amb.is_exact
    assert str(amb) == "{2|4}"
    assert (amb + 5).lo == 7 and (amb + 5).hi == 9
    assert (10 - amb).lo == 6 and (10 - amb).hi == 8
    with pytest.raises(InvalidTypeError):
        amb.value
    with pytest.raises(InvalidTypeError):
        ReductionCount(4, 2)


def test_bad_count_2cycle_values():
    assert bad_count_2cycle(7, 3, 3, 5, 5) == ReductionCount(1, 1)
    assert bad_count_2cycle(7, 2, 3, 5, 6) == ReductionCount(3, 3)
    assert bad_count_2cycle(7, 2, 4, 4, 6) == ReductionCount(2, 4)
    with pytest.raises(InvalidTypeError):
        bad_count_2cycle(5, 2, 2, 4, 4)  # excluded exceptional type
    with pytest.raises(InvalidTypeError):
        bad_count_2cycle(7, 3, 5, 4, 4)  # e1 + e2 > p


def test_p_hurwitz_3pt_values():
    # frozen from the closed formulas: h(7;3-3,5,5) = 3 with exactly 1 bad
    assert p_hurwitz_3pt_badtype(7, 3, 3, 5, 5) == ReductionCount(2, 2)
    assert p_hurwitz_3pt_badtype(7, 2, 3, 5, 6) == ReductionCount(3, 3)
    # h(7;2-4,4,6) = 4 and bad = {2|4}
    assert p_hurwitz_3pt_badtype(7, 2, 4, 4, 6) == ReductionCount(0, 2)


def test_three_point_good_reduction():
    assert three_point_good_reduction(4, 3, 3, 3, 5) is True
    assert three_point_good_reduction(5, 3, 4, 4, 5) is False
    assert three_point_good_reduction(6, 4, 4, 5, 7) is True
    with pytest.raises(InvalidTypeError):
        three_point_good_reduction(5, 3, 3, 5, 5)  # index not < p
    with pytest.raises(InvalidTypeError):
        three_point_good_reduction(5, 2, 3, 4, 7)  # not a genus-0 triple


def test_three_point_good_reduction_index_bounds():
    assert three_point_good_reduction(5, 2, 4, 5, 7) is True  # indices 2 and d accepted
    with pytest.raises(InvalidTypeError):
        three_point_good_reduction(5, 1, 5, 5, 7)  # index 1
    with pytest.raises(InvalidTypeError):
        three_point_good_reduction(4, 5, 2, 2, 7)  # index above d, still below p


def test_census_examples():
    good, bad = admissible_reduction_census(7, 3, 3, 5, 5)
    assert bad == ReductionCount(7, 7) and good == ReductionCount(8, 8)
    good, bad = admissible_reduction_census(7, 2, 3, 5, 6)
    # h = min(12,15,15,12) = 12
    assert bad == ReductionCount(7, 7) and good == ReductionCount(5, 5)
    good, bad = admissible_reduction_census(7, 2, 4, 4, 6)
    assert (bad.lo, bad.hi) == (7, 9) and (good.lo, good.hi) == (3, 5)
    # exceptional type falls back to the coarse bounds
    good, bad = admissible_reduction_census(5, 2, 2, 4, 4)
    assert bad.hi < 10 and good.lo >= 8 - 10


def test_census_validation():
    with pytest.raises(InvalidTypeError):
        admissible_reduction_census(7, 4, 3, 5, 4)  # unsorted
    with pytest.raises(InvalidTypeError):
        admissible_reduction_census(8, 2, 3, 5, 6)  # not prime


def test_p_hurwitz_pure4_values():
    assert p_hurwitz_pure4(5, 2, 2, 4, 4) == 3
    assert p_hurwitz_pure4(7, 2, 4, 4, 6) == 5
    assert p_hurwitz_pure4(7, 3, 3, 5, 5) == 8
    with pytest.raises(InvalidTypeError):
        p_hurwitz_pure4(7, 2, 4, 4, 7)  # e4 = p not allowed


def test_p_hurwitz_difference_is_exactly_p():
    for p in (5, 7, 11, 13):
        for e1 in range(2, p):
            for e2 in range(e1, p):
                for e3 in range(e2, p):
                    e4 = 2 * p + 2 - e1 - e2 - e3
                    if not e3 <= e4 < p:
                        continue
                    from purecycle.hurwitz import hurwitz_formula_pure4

                    h = hurwitz_formula_pure4(p, (e1, e2, e3, e4))
                    hp = p_hurwitz_pure4(p, e1, e2, e3, e4)
                    assert h - hp == p
                    assert hp >= 0


def test_good_degeneration_flags():
    assert good_degeneration(7, 3, 3, 5, 5) is True
    assert good_degeneration(7, 2, 4, 4, 6) is None
    assert good_degeneration(7, 2, 3, 5, 6) is True


def test_single_cycle_node_bad_general():
    # at degree d = p the count reduces to the census value 2p+1-e3-e4
    assert single_cycle_node_bad_general(7, 7, 3, 3, 5, 5) == 2 * 7 + 1 - 10
    # below the characteristic every single-cycle degeneration stays separable
    assert single_cycle_node_bad_general(6, 7, 2, 3, 4, 5) == 0
    # d > p, full-mass branch (d+1 = 9 < e2+e3 = 10 and d+1-e1 = 7 >= p), where
    # the mass 3 + 5 happens to equal the formula's (8-7+1)(8+7+1-12)
    assert single_cycle_node_bad_general(8, 7, 2, 4, 6, 6) == (8 - 7 + 1) * (8 + 7 + 1 - 12)
    # full-mass branch where the two differ: 5 + 7 = 12, the formula gives 15
    assert single_cycle_node_bad_general(9, 7, 2, 6, 6, 6) == 12


def test_single_cycle_node_bad_general_full_mass_matches_taxonomy():
    # when d+1 < e2+e3 and d+1-e1 >= p every single-cycle node is bad, so the
    # count is the single-node mass of the characteristic-0 taxonomy
    checked = 0
    for p in (5, 7, 11, 13):
        for d in range(p, 2 * p):
            for es in itertools.combinations_with_replacement(range(2, p), 4):
                e1, e2, e3, _ = es
                if sum(es) != 2 * d + 2 or not (d + 1 < e2 + e3 and d + 1 - e1 >= p):
                    continue
                mass = sum(
                    r.subtotal
                    for r in admissible_enumerate_char0(d, *es)
                    if r.node.kind == "single"
                )
                assert single_cycle_node_bad_general(d, p, *es) == mass, (d, p, es)
                checked += 1
    assert checked == 125


def test_tau_star_cancellation_spot():
    rng = random.Random(3)
    from purecycle.hurwitz import RamificationType, galois_factor, monodromy_classify

    p, e1, e2 = 11, 3, 4
    eps = p + 2 - e1 - e2
    tau_star = RamificationType.two_cycle(p, e1, e2, eps, p)
    gamma = galois_factor(monodromy_classify(tau_star))
    h = hurwitz_formula_badtype(p, e1, e2, eps, p)
    for _ in range(50):
        n_tails, aut0 = rng.randint(1, 40), rng.randint(1, 40)
        n_prime = n_prime_tau_star(p, e1, e2, n_tails, aut0, gamma)
        lift = wewers_lift_count(
            p,
            n_prime,
            [
                (tail_invariants(p, (e1, e2)).h, aut0),
                (tail_invariants(p, (eps,)).h, tail_aut_orders(p, eps).fixing),
            ],
        )
        assert h * gamma == n_tails * lift


def test_modified_types_have_no_separable_covers():
    # for (p; e1-e2, p+2-e1-e2, p) the bad count equals the full Hurwitz
    # number, so the p-Hurwitz number vanishes identically
    from purecycle.hurwitz import hurwitz_formula_badtype

    for p in (5, 7, 11, 13):
        for e1 in range(2, p):
            for e2 in range(e1, p + 1 - e1):
                eps = p + 2 - e1 - e2
                if not 2 <= eps <= p - 1:
                    continue
                hp = p_hurwitz_3pt_badtype(p, e1, e2, eps, p)
                assert hp == ReductionCount(0, 0), (p, e1, e2)
                assert bad_count_2cycle(p, e1, e2, eps, p).value == (
                    hurwitz_formula_badtype(p, e1, e2, eps, p)
                )
