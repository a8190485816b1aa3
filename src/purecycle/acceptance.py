"""Desk-scale verification suite: every closed formula cross-checked against
an independent computation at its documented scale.

Each criterion function runs one sweep and raises AssertionError on the first
violation, returning a short summary when it passes.  ``run_all`` drives them
and prints one PASS/FAIL line per criterion; the pytest acceptance module
calls the same functions.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Iterator

from .arith import is_prime
from .braid import admissible_enumerate_char0, braid_orbits, degenerate
from .charp import (
    admissible_reduction_census,
    good_degeneration,
    n_prime_tau_star,
    p_hurwitz_pure4,
    signature_check,
    tail_aut_orders,
    tail_invariants,
    wewers_lift_count,
)
from .fppoly import (
    FpPoly,
    KummerData,
    cartier_coefficient,
    ramification_profile,
    supersingular_lambdas,
    tail_polynomial_cofactor,
    tail_polynomial_double,
    tail_polynomial_single,
)
from .group import GroupReport, cycle_type_census, group_analyze, load_generators
from .hurwitz import (
    RamificationType,
    galois_factor,
    hurwitz_formula_badtype,
    hurwitz_formula_pure4,
    hurwitz_number_brute,
    enumerate_factorizations,
    monodromy_classify,
)
from .perm import CycleType

PRIMES_TO_101 = tuple(q for q in range(3, 102) if is_prime(q))  # odd primes
PRIMES_TO_31 = PRIMES_TO_101[:10]


def genus0_pure4_exponents(d: int) -> Iterator[tuple[int, int, int, int]]:
    """Sorted genus-0 pure-cycle 4-point exponent vectors for degree d."""
    for e1 in range(2, d + 1):
        for e2 in range(e1, d + 1):
            for e3 in range(e2, d + 1):
                e4 = 2 * d + 2 - e1 - e2 - e3
                if e3 <= e4 <= d:
                    yield (e1, e2, e3, e4)


def genus0_triple_exponents(d: int) -> Iterator[tuple[int, int, int]]:
    for e1 in range(2, d + 1):
        for e2 in range(e1, d + 1):
            e3 = 2 * d + 1 - e1 - e2
            if e2 <= e3 <= d:
                yield (e1, e2, e3)


def badtype_exponents(d: int) -> Iterator[tuple[int, int, int, int]]:
    """(e1, e2, e3, e4) for types (d; e1-e2, e3, e4), e1 <= e2, e3 <= e4."""
    for e1 in range(2, d + 1):
        for e2 in range(e1, d - e1 + 1):
            for e3 in range(2, d + 1):
                e4 = 2 * d + 2 - e1 - e2 - e3
                if e3 <= e4 <= d:
                    yield (e1, e2, e3, e4)


def _data_path(name: str):
    return resources.files("purecycle").joinpath("data", name)


# -- criteria ----------------------------------------------------------------


def criterion_1() -> str:
    """4-point pure-cycle: brute force equals min_i e_i(d+1-e_i), 4 <= d <= 9."""
    checked = 0
    for d in range(4, 10):
        for es in genus0_pure4_exponents(d):
            t = RamificationType.pure(d, es)
            brute = hurwitz_number_brute(t)
            formula = hurwitz_formula_pure4(d, es)
            assert brute == formula, f"(d={d}; {es}): brute {brute} != formula {formula}"
            checked += 1
    known = hurwitz_number_brute(RamificationType.pure(5, (2, 2, 4, 4)))
    assert known == 8, f"h(5;2,2,4,4) = {known} != 8"
    return f"{checked} types agree (incl. h(5;2,2,4,4)=8)"


def criterion_2() -> str:
    """Three-point rigidity: brute force h = 1 for all genus-0 pure triples, d <= 9."""
    checked = 0
    for d in range(3, 10):
        for es in genus0_triple_exponents(d):
            t = RamificationType.pure(d, es)
            n = hurwitz_number_brute(t)
            assert n == 1, f"(d={d}; {es}): h = {n} != 1"
            checked += 1
    return f"{checked} triples rigid"


def criterion_3() -> str:
    """Two-cycle class types: brute force equals the closed formula, d <= 9,
    including every e4 = d branch."""
    checked = with_e4_d = 0
    for d in range(4, 10):
        for e1, e2, e3, e4 in badtype_exponents(d):
            brute = hurwitz_number_brute(RamificationType.two_cycle(d, e1, e2, e3, e4))
            formula = hurwitz_formula_badtype(d, e1, e2, e3, e4)
            assert brute == formula, (
                f"(d={d}; {e1}-{e2},{e3},{e4}): brute {brute} != formula {formula}"
            )
            checked += 1
            with_e4_d += e4 == d
    assert with_e4_d > 0
    return f"{checked} types agree ({with_e4_d} with e4 = d)"


def criterion_4() -> str:
    """Braid orbits: lengths sum to h, single-cycle node m <-> length m,
    two-cycle nodes are fixed points, taxonomy subtotals reproduce h."""
    types = orbit_count = 0
    for d in range(4, 10):
        for es in genus0_pure4_exponents(d):
            t = RamificationType.pure(d, es)
            orbits = braid_orbits(t)
            h = hurwitz_formula_pure4(d, es)
            assert sum(o.length for o in orbits) == h, f"(d={d}; {es})"
            per_node: dict = {}
            for o in orbits:
                _, _, node = degenerate(o.representative)
                if node.kind == "single":
                    assert o.length == node.m, (
                        f"(d={d}; {es}): node {node} has orbit length {o.length}"
                    )
                else:
                    assert o.length == 1, f"(d={d}; {es}): two-cycle orbit not fixed"
                per_node[node] = per_node.get(node, 0) + 1
            taxonomy = admissible_enumerate_char0(d, *es)
            assert sum(r.subtotal for r in taxonomy) == h
            assert per_node == {r.node: r.count for r in taxonomy}, f"(d={d}; {es})"
            types += 1
            orbit_count += len(orbits)
    return f"{types} types, {orbit_count} orbits consistent"


def criterion_5() -> str:
    """Monodromy classifiers predict the computed group of every enumerated
    factorization for d = 5, 6, 7, including both exceptional types."""
    checked = 0
    reports = set()
    for d in (5, 6, 7):
        type_lists = [
            RamificationType.pure(d, es) for es in genus0_triple_exponents(d)
        ] + [RamificationType.pure(d, es) for es in genus0_pure4_exponents(d)]
        if d in (5, 7):  # prime degrees: two-cycle classifier applies
            type_lists += [
                RamificationType.two_cycle(d, *es) for es in badtype_exponents(d)
            ]
        for t in type_lists:
            expected = monodromy_classify(t)
            for f in enumerate_factorizations(t):
                report = group_analyze(f.perms)
                assert report == expected, (
                    f"{t}: classifier {expected} but computed {report}"
                )
                reports.add(report)
                checked += 1
    # S_5 on 6 points and F_5 : F_5^* were both met
    assert {GroupReport(6, 120, True), GroupReport(5, 20, True)} <= reports
    return f"{checked} factorizations match (both exceptional types included)"


def criterion_6(slow: bool = False) -> str:
    """Cycle-type censuses: PGammaL(2,16) has no 2-2 class; M_11 has no single
    e-cycle with 1 < e < 11 (M_23 variant with the slow flag)."""
    degree, gens = load_generators(_data_path("pgammal2_16.txt"))
    census = cycle_type_census(gens, cap=20000)
    assert sum(census.values()) == 16320
    assert CycleType(degree, (2, 2)) not in census, "PGammaL(2,16) contains a 2-2 class"

    degree, gens = load_generators(_data_path("m11.txt"))
    census = cycle_type_census(gens, cap=10**4)
    assert sum(census.values()) == 7920
    for e in range(2, 11):
        assert CycleType(11, (e,)) not in census, f"M_11 contains a single {e}-cycle"
    detail = "PGammaL(2,16) and M_11 censuses verified"
    if slow:
        degree, gens = load_generators(_data_path("m23.txt"))
        census = cycle_type_census(gens, cap=2 * 10**7)
        assert sum(census.values()) == 10200960
        for e in range(2, 23):
            assert CycleType(23, (e,)) not in census, f"M_23 contains a single {e}-cycle"
        detail += ", M_23 census verified"
    return detail


def criterion_7() -> str:
    """Tail invariants satisfy m | p-1, h < m, gcd(h,m) = 1 for all classes
    with p <= 101, and the signature identity sums to r-2."""
    invariant_checks = signature_checks = 0
    for p in PRIMES_TO_101:
        for e in range(2, p):
            ti = tail_invariants(p, (e,))
            assert (p - 1) % ti.m == 0 and math.gcd(ti.h, ti.m) == 1
            assert ti.h < ti.m or (ti.h, ti.m) == (1, 1)
            assert ti.sigma < 1
            invariant_checks += 1
        for e1 in range(2, p):
            for e2 in range(e1, p + 1 - e1):
                ti = tail_invariants(p, (e1, e2))
                assert (p - 1) % ti.m == 0 and math.gcd(ti.h, ti.m) == 1
                assert ti.h < ti.m
                invariant_checks += 1
        for es in genus0_pure4_exponents(p):
            # a full p-cycle contributes sigma = 0, so e4 = p types count too
            assert signature_check(p, [(e,) for e in es]), (p, es)
            signature_checks += 1
        for e1 in range(2, p):
            for e2 in range(e1, p + 1 - e1):
                eps = p + 2 - e1 - e2
                assert signature_check(p, [(e1, e2), (eps,), (p,)]), (p, e1, e2)
                signature_checks += 1
    return f"{invariant_checks} invariant triples, {signature_checks} signatures"


def criterion_8() -> str:
    """Reduction census for p in {5,7,11,13}: good + bad = h; bad = p exactly
    whenever e1+e2 and e3 are not both even; ambiguous intervals carry the
    documented endpoints with bad < 2p strictly."""
    checked = 0
    for p in (5, 7, 11, 13):
        for es in genus0_pure4_exponents(p):
            if es[3] >= p:
                continue
            e1, e2, e3, e4 = es
            h = hurwitz_formula_pure4(p, es)
            good, bad = admissible_reduction_census(p, *es)
            assert good.lo + bad.hi == h and good.hi + bad.lo == h, (p, es)
            assert bad.hi < 2 * p, (p, es)
            flag = good_degeneration(p, *es)
            if flag is True:
                assert bad.is_exact and bad.value == p, (p, es)
                assert good.value == h - p == p_hurwitz_pure4(p, *es), (p, es)
            elif (p, *es) == (5, 2, 2, 4, 4):
                assert good.lo >= h - 2 * p
            else:
                assert (bad.lo, bad.hi) == (p, p + (p + 1 - e1 - e2)), (p, es)
            checked += 1
    return f"{checked} census rows consistent"


def criterion_9() -> str:
    """The lift-count identity h(tau*) gamma(tau*) = N Ltilde(tau*) cancels the
    free tail parameters: 100 random (N, Aut0) per (p, e1, e2)."""
    rng = random.Random(0x5EED)
    identities = 0
    for p in (5, 7, 11, 13):
        for e1 in range(2, p):
            for e2 in range(e1, p + 1 - e1):
                eps = p + 2 - e1 - e2
                tau_star = RamificationType.two_cycle(p, e1, e2, eps, p)
                gamma = galois_factor(monodromy_classify(tau_star))
                h = hurwitz_formula_badtype(p, e1, e2, eps, p)
                eps_h = tail_invariants(p, (eps,)).h
                eps_aut0 = tail_aut_orders(p, eps).fixing
                pair_h = tail_invariants(p, (e1, e2)).h
                for _ in range(100):
                    n_tails = rng.randint(1, 50)
                    aut0 = rng.randint(1, 50)
                    n_prime = n_prime_tau_star(p, e1, e2, n_tails, aut0, gamma)
                    lift = wewers_lift_count(
                        p, n_prime, [(pair_h, aut0), (eps_h, eps_aut0)]
                    )
                    assert Fraction(h * gamma) == n_tails * lift, (p, e1, e2)
                    identities += 1
    return f"{identities} parameter draws cancel"


def _xp_coefficient_oracle(p: int) -> Callable[[int, int, int, int], tuple[int, ...]]:
    """Brute-force [x^p] extraction from x^(p-a1) (x-1)^(p-1-a2) (x-lam)^(p-1-a3),
    built by repeated polynomial multiplication only.  Polynomials in lam are
    plain int lists mod p; the result is trimmed like ``FpPoly.coeffs``."""
    pow_xm1 = [[1]]
    for n in range(1, p):
        prev, cur = pow_xm1[-1], [0] * (n + 1)
        for i, c in enumerate(prev):
            cur[i + 1] = (cur[i + 1] + c) % p
            cur[i] = (cur[i] - c) % p
        pow_xm1.append(cur)
    # pow_xml[n][i]: the lam-polynomial coefficient of x^i in (x-lam)^n
    pow_xml = [[[1]]]
    for n in range(1, p):
        prev = pow_xml[-1]
        cur = [[0] * (n + 1) for _ in range(n + 1)]
        for i, c in enumerate(prev):
            for j, v in enumerate(c):
                cur[i + 1][j] = (cur[i + 1][j] + v) % p
                cur[i][j + 1] = (cur[i][j + 1] - v) % p
        pow_xml.append(cur)

    def xp_coeff(a1: int, a2: int, a3: int, a4: int) -> tuple[int, ...]:
        row = pow_xm1[p - 1 - a2]
        col = pow_xml[p - 1 - a3]
        out = [0] * len(col)
        for i, ci in enumerate(row):
            k = a1 - i  # x-powers must combine to p
            if ci and 0 <= k < len(col):
                for j, v in enumerate(col[k]):
                    out[j] += ci * v
        out = [c % p for c in out]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    return xp_coeff


def criterion_10() -> str:
    """Sign-corrected coefficient polynomial equals brute-force extraction for
    every valid exponent vector with p <= 31; c is never zero; the p = 3 and
    p = 5 model families behave as expected."""
    vectors = 0
    for p in PRIMES_TO_31:
        oracle = _xp_coefficient_oracle(p)
        for a1 in range(p):
            for a2 in range(p):
                for a3 in range(p):
                    a4 = 2 * (p - 1) - a1 - a2 - a3
                    if not 0 <= a4 <= p - 1:
                        continue
                    c = cartier_coefficient(KummerData(p, (a1, a2, a3, a4)))
                    sign = -1 if a4 % 2 else 1
                    assert (c * sign).coeffs == oracle(a1, a2, a3, a4), (p, a1, a2, a3, a4)
                    vectors += 1
    assert supersingular_lambdas(KummerData(3, (1, 1, 1, 1))) == [2]
    assert supersingular_lambdas(KummerData(5, (2, 2, 2, 2))) == []
    return f"{vectors} exponent vectors agree, c always nonzero"


def criterion_11() -> str:
    """Tail polynomials: the derivative is a nonzero constant times
    y^(e1-1) (y-1)^(e2-1), and ramification profiles carry the stated tame
    indices, for all valid classes with p <= 31."""
    singles = doubles = 0
    for p in PRIMES_TO_31:
        for e in range(2, p):
            profile = ramification_profile(tail_polynomial_single(p, e))
            assert profile.finite_points == ((0, e),) and profile.wild_at_infinity
            singles += 1
        y = FpPoly.monomial(p, 1)
        y_minus_1 = y - FpPoly.monomial(p, 0)
        for e1 in range(2, p):
            for e2 in range(e1, p + 1 - e1):
                poly = tail_polynomial_double(p, e1, e2)
                target = FpPoly.monomial(p, e1 - 1)
                for _ in range(e2 - 1):
                    target = target * y_minus_1
                quot, rem = divmod(poly.derivative(), target)
                assert rem.is_zero() and quot.degree() == 0 and not quot.is_zero()
                cofactor = tail_polynomial_cofactor(p, e1, e2)
                assert cofactor.degree() == p - e1 - e2
                assert cofactor.coeffs[-1] == 1
                profile = ramification_profile(poly)
                assert profile.wild_at_infinity
                assert sorted(profile.finite_points) == [(0, e1), (1, e2)], (p, e1, e2)
                doubles += 1
    return f"{singles} single-cycle and {doubles} two-cycle tails verified"


@dataclass
class CriterionResult:
    number: int
    passed: bool
    detail: str
    seconds: float


CRITERIA: tuple[tuple[int, Callable[[], str]], ...] = (
    (1, criterion_1),
    (2, criterion_2),
    (3, criterion_3),
    (4, criterion_4),
    (5, criterion_5),
    (6, criterion_6),
    (7, criterion_7),
    (8, criterion_8),
    (9, criterion_9),
    (10, criterion_10),
    (11, criterion_11),
)


def run_all(
    numbers: tuple[int, ...] | None = None,
    slow: bool = False,
    echo: Callable[[str], None] | None = print,
) -> list[CriterionResult]:
    results = []
    for number, fn in CRITERIA:
        if numbers is not None and number not in numbers:
            continue
        start = time.perf_counter()
        try:
            detail = fn(slow) if number == 6 else fn()
            passed = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            passed = False
        elapsed = time.perf_counter() - start
        results.append(CriterionResult(number, passed, detail, elapsed))
        if echo:
            status = "PASS" if passed else "FAIL"
            echo(f"criterion {number:2d} {status} ({elapsed:6.1f}s)  {detail}")
    return results
