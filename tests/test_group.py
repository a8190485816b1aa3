import math
import random
import time
from collections import Counter
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import element_closure, perm_order, random_perm
from purecycle import group
from purecycle.errors import BoundExceededError, InvalidTypeError
from purecycle.group import (
    GroupReport,
    StabilizerChain,
    cycle_type_census,
    cycle_type_keys,
    group_analyze,
    is_transitive,
    load_generators,
)
from purecycle.perm import (
    CycleType,
    compose,
    conjugate,
    cycle_lengths,
    from_cycles,
    identity,
    parse_cycles,
)


def data_file(name):
    return resources.files("purecycle").joinpath("data", name)


def s_n_gens(d):
    return [parse_cycles(d, "(1,2)"), tuple(list(range(1, d)) + [0])]


def test_chain_order_matches_closure_battery():
    rng = random.Random(7)
    cases = [s_n_gens(d) for d in range(2, 7)]
    cases.append([parse_cycles(8, "(1,2,3,4,5,6,7,8)")])  # C8
    cases.append([parse_cycles(5, "(1,2,3)"), parse_cycles(5, "(3,4,5)")])  # A5
    for _ in range(6):
        cases.append([random_perm(rng, 7), random_perm(rng, 7)])
    for gens in cases:
        d = len(gens[0])
        chain = StabilizerChain(gens, d)
        closure = element_closure(gens, cap=10**6)
        assert chain.order() == len(closure)
        elems = list(chain.elements())
        assert len(elems) == len(set(elems)) == len(closure)
        assert set(elems) == closure


def degree_40_generating_sets():
    d = 40
    rng = random.Random(40)
    return {
        "star transpositions": ([from_cycles(d, [[0, i]]) for i in range(1, d)], 1),
        "adjacent transpositions": ([from_cycles(d, [[i, i + 1]]) for i in range(d - 1)], 1),
        "(1,2) and a 40-cycle": (s_n_gens(d), 1),
        "random 3-cycles": ([from_cycles(d, [rng.sample(range(d), 3)]) for _ in range(60)], 2),
    }


@pytest.mark.parametrize("name", list(degree_40_generating_sets()))
def test_chain_orders_at_degree_forty(name):
    # known orders from generating sets of different shapes at the degree
    # bound; each must build well within a second
    gens, index = degree_40_generating_sets()[name]
    start = time.perf_counter()
    chain = StabilizerChain(gens, 40)
    assert time.perf_counter() - start < 1.0
    assert chain.order() == math.factorial(40) // index


@pytest.mark.parametrize(
    "gens",
    [
        s_n_gens(7),
        [parse_cycles(8, "(1,2,3)"), parse_cycles(8, "(4,5)(6,7,8)")],  # intransitive
        load_generators(data_file("m11.txt"))[1],
        degree_40_generating_sets()["random 3-cycles"][0],
    ],
    ids=["S7", "intransitive", "M11", "A40"],
)
def test_transversals_map_base_points_and_fix_earlier_ones(gens):
    chain = StabilizerChain(gens, len(gens[0]))
    ident = identity(chain.degree)
    assert len(chain.transversals) == len(chain._inverses) == len(chain.base)
    for i, b in enumerate(chain.base):
        assert set(chain._inverses[i]) == set(chain.transversals[i])
        for pt, u in chain.transversals[i].items():
            assert u[b] == pt
            assert all(u[c] == c for c in chain.base[:i])
            assert compose(chain._inverses[i][pt], u) == ident


def test_chain_degree_bound():
    with pytest.raises(BoundExceededError):
        StabilizerChain(s_n_gens(group.MAX_GROUP_DEGREE + 1), group.MAX_GROUP_DEGREE + 1)


def test_chain_generator_bound():
    d = 6
    transpositions = [from_cycles(d, [[0, i]]) for i in range(1, d)]
    gens = (transpositions * group.MAX_GROUP_GENERATORS)[: group.MAX_GROUP_GENERATORS]
    assert StabilizerChain(gens, d).order() == 720
    with pytest.raises(BoundExceededError):
        StabilizerChain(gens + [identity(d)], d)
    for name in ("m11.txt", "m23.txt", "pgammal2_16.txt"):
        degree, file_gens = load_generators(data_file(name))
        assert len(file_gens) <= group.MAX_GROUP_GENERATORS
        StabilizerChain(file_gens, degree)


def test_analyze_then_census_builds_one_chain(monkeypatch):
    builds = []

    class CountingChain(StabilizerChain):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(group, "StabilizerChain", CountingChain)
    group._chain.cache_clear()
    gens = load_generators(data_file("m11.txt"))[1]
    assert group_analyze(gens).order == 7920
    assert sum(cycle_type_census(gens, cap=10**4).values()) == 7920
    assert len(builds) == 1
    assert group_analyze(s_n_gens(5)).order == 120
    assert len(builds) == 2


def test_group_analyze_s5():
    report = group_analyze([parse_cycles(5, "(1,2)"), parse_cycles(5, "(1,2,3,4,5)")])
    assert report == GroupReport(5, 120, True)
    assert report.classification == "symmetric"


def test_group_analyze_a5_from_two_3cycles():
    report = group_analyze([parse_cycles(5, "(1,2,3)"), parse_cycles(5, "(3,4,5)")])
    assert report.order == 60
    assert report.classification == "alternating"
    assert report.is_transitive
    # oracle: exhaustive closure
    assert len(element_closure([parse_cycles(5, "(1,2,3)"), parse_cycles(5, "(3,4,5)")], 100)) == 60


def test_group_analyze_intransitive():
    report = group_analyze([parse_cycles(5, "(1,2,3)")])
    assert not report.is_transitive
    assert report.order == 3
    assert report.classification == "other"


def test_group_order_divides_factorial_and_generator_orders_divide():
    rng = random.Random(23)
    for _ in range(20):
        d = rng.randint(3, 9)
        gens = [random_perm(rng, d) for _ in range(2)]
        if all(g == identity(d) for g in gens):
            continue
        order = StabilizerChain(gens, d).order()
        assert math.factorial(d) % order == 0
        for g in gens:
            assert order % perm_order(g) == 0


def test_closure_cap_guard():
    with pytest.raises(BoundExceededError):
        element_closure(s_n_gens(8), cap=1000)


@pytest.mark.parametrize(
    "call",
    [
        lambda: cycle_type_census([], 10),
        lambda: group_analyze([]),
        lambda: StabilizerChain([], 5),
    ],
    ids=["cycle_type_census", "group_analyze", "StabilizerChain"],
)
def test_empty_generator_list_is_rejected(call):
    with pytest.raises(InvalidTypeError, match="at least one generator required"):
        call()


def test_chain_rejects_generators_of_another_degree():
    with pytest.raises(InvalidTypeError, match="generators must share the chain degree"):
        StabilizerChain([identity(5), identity(4)], 5)


def test_pgammal2_16_order_and_closure():
    degree, gens = load_generators(data_file("pgammal2_16.txt"))
    assert degree == 17
    report = group_analyze(gens)
    assert report.order == 16320  # frozen from exhaustive closure
    assert report.classification == "other"
    assert report.is_transitive
    assert len(element_closure(gens, cap=20000)) == 16320


def test_m11_order():
    degree, gens = load_generators(data_file("m11.txt"))
    report = group_analyze(gens)
    assert (degree, report.order, report.classification) == (11, 7920, "other")


def test_s3_census():
    census = cycle_type_census(s_n_gens(3), cap=10)
    assert census == Counter(
        {CycleType(3, ()): 1, CycleType(3, (2,)): 3, CycleType(3, (3,)): 2}
    )


def test_census_cap():
    with pytest.raises(BoundExceededError):
        cycle_type_census(s_n_gens(8), cap=100)


def test_pgammal_census_has_no_2_2_class():
    degree, gens = load_generators(data_file("pgammal2_16.txt"))
    census = cycle_type_census(gens, cap=20000)
    assert sum(census.values()) == 16320
    assert CycleType(17, (2, 2)) not in census


def test_m11_census_has_no_single_short_cycle():
    degree, gens = load_generators(data_file("m11.txt"))
    census = cycle_type_census(gens, cap=10**4)
    assert sum(census.values()) == 7920
    for e in range(2, 11):
        assert CycleType(11, (e,)) not in census
    assert CycleType(11, (11,)) in census  # the 11-cycles are there


def direct_census(gens):
    """Reference census: cycle_lengths of every element, one at a time."""
    chain = StabilizerChain(gens, len(gens[0]))
    return Counter(cycle_lengths(g) for g in chain.elements())


def census_lengths(gens):
    census = cycle_type_census(gens, cap=10**5)
    return Counter({ct.lengths: n for ct, n in census.items()})


CENSUS_GROUPS = {
    "trivial": [identity(4)],
    **{f"S{d}": s_n_gens(d) for d in range(3, 8)},
    "A5": [parse_cycles(5, "(1,2,3)"), parse_cycles(5, "(3,4,5)")],
    # degree 40: a row of 40 fixed-point counts overflows a mixed-radix int64
    "C40": [tuple(list(range(1, 40)) + [0])],
    "M11": load_generators(data_file("m11.txt"))[1],
    "PGammaL2_16": load_generators(data_file("pgammal2_16.txt"))[1],
}


@pytest.mark.parametrize("name", list(CENSUS_GROUPS))
def test_census_agrees_with_direct(name):
    gens = CENSUS_GROUPS[name]
    assert census_lengths(gens) == direct_census(gens)


def test_census_agrees_with_direct_across_chunks(monkeypatch):
    # M_11 (degree 11) then runs as 990 chunks of 8 elements each
    monkeypatch.setattr(group, "_CENSUS_CHUNK", 8 * 11)
    gens = CENSUS_GROUPS["M11"]
    assert census_lengths(gens) == direct_census(gens)


@st.composite
def two_generator_groups(draw):
    n = draw(st.integers(1, 7))
    return [tuple(draw(st.permutations(range(n)))) for _ in range(2)]


@settings(max_examples=50, deadline=None)
@given(two_generator_groups())
def test_census_matches_closure_on_random_groups(gens):
    closure = element_closure(gens, cap=5040)
    assert census_lengths(gens) == Counter(cycle_lengths(g) for g in closure)


@st.composite
def generator_lists(draw):
    """1 to 4 generators of degree 1 to 8: random permutations, single cycles
    of 1 to 4 points, the identity, and repeats of earlier entries."""
    n = draw(st.integers(1, 8))
    shapes = [
        st.permutations(range(n)).map(tuple),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True).map(
            lambda c: from_cycles(n, [c])
        ),
        st.just(identity(n)),
    ]
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        gens.append(draw(st.one_of(shapes + ([st.sampled_from(gens)] if gens else []))))
    return gens


@settings(max_examples=50, deadline=None)
@given(generator_lists())
def test_chain_matches_closure_on_random_groups(gens):
    chain = StabilizerChain(gens, len(gens[0]))
    closure = element_closure(gens, cap=math.factorial(8))
    assert chain.order() == len(closure)
    assert set(chain.elements()) == closure


def cycle_types(degree):
    """Every CycleType of the degree."""

    def lengths(room, largest):  # non-increasing lengths >= 2, sum <= room
        yield ()
        for l in range(min(room, largest), 1, -1):
            for rest in lengths(room - l, l):
                yield (l,) + rest

    return [CycleType(degree, ls) for ls in lengths(degree, degree)]


@pytest.mark.parametrize("degree", range(1, 13))
def test_census_of_every_cyclic_group_through_degree_twelve(degree):
    # the census reads fix(g^k) for k <= degree // 2 only; a cycle longer than
    # degree / 2 and degrees 1 to 3 are where that cutoff could go wrong
    for t in cycle_types(degree):
        g = t.canonical_representative()
        powers = [identity(degree)]
        while (nxt := compose(g, powers[-1])) != powers[0]:
            powers.append(nxt)
        expected = Counter(CycleType.of(h) for h in powers)
        assert cycle_type_census([g], cap=100) == expected, t


def test_cycle_type_keys_separate_and_decode_every_cycle_type():
    # the census and the Hurwitz search both key a class by this; at degree 26
    # the 13 counts of 5 bits take two words
    rng = random.Random(12)
    checked = 0
    for degree in [*range(1, 13), 26]:
        types = cycle_types(degree)
        reps = [t.canonical_representative() for t in types]
        keys = cycle_type_keys(np.array(reps, dtype=np.int16))
        assert keys.shape == (len(types),)
        assert keys.dtype == (np.uint64 if degree <= 25 else np.dtype((np.void, 16)))
        assert len(set(keys.tolist())) == len(types)
        assert [group._key_lengths(k, degree) for k in keys.tolist()] == [t.lengths for t in types]
        moved = [conjugate(random_perm(rng, degree), g) for g in reps]
        assert (cycle_type_keys(np.array(moved, dtype=np.int16)) == keys).all()
        checked += len(types)
    assert checked == 271 + 2436  # the partitions of 1 to 12, then of 26


@pytest.mark.slow
def test_m23_census_has_no_single_short_cycle():
    degree, gens = load_generators(data_file("m23.txt"))
    census = cycle_type_census(gens, cap=2 * 10**7)
    assert sum(census.values()) == 10200960
    for e in range(2, 23):
        assert CycleType(23, (e,)) not in census


def test_generator_file_parsing(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("# comment\ndegree: 4\n(1,2,3)(4)\n(1,2)\n")
    degree, gens = load_generators(path)
    assert degree == 4
    assert gens[0] == parse_cycles(4, "(1,2,3)")

    headerless = tmp_path / "missing_header.txt"
    headerless.write_text("(1,2)\n")
    with pytest.raises(InvalidTypeError):
        load_generators(headerless)

    bad_degree = tmp_path / "bad_degree.txt"
    bad_degree.write_text("degree: x\n(1,2)\n")
    with pytest.raises(InvalidTypeError, match="not an integer: ' x'"):
        load_generators(bad_degree)

    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("# m\xe9lange\ndegree: 4\n(1,2)\n".encode("latin-1"))
    with pytest.raises(InvalidTypeError, match="is not UTF-8 text"):
        load_generators(latin1)


def test_transitivity_helper():
    assert is_transitive(s_n_gens(5), 5)
    assert not is_transitive([from_cycles(5, [[0, 1]])], 5)


def test_m23_order():
    degree, gens = load_generators(data_file("m23.txt"))
    report = group_analyze(gens)
    assert (degree, report.order) == (23, 10200960)
    assert report.classification == "other" and report.is_transitive


def test_pgl2_7_order_from_moebius_action():
    # PGL(2,7) acting on the 8 points of the projective line over F_7:
    # x -> x+1, x -> 3x (3 generates F_7^*), x -> 1/x; infinity encoded as 7
    INF = 7

    def act(fn):
        return tuple(fn(x) for x in range(8))

    add = act(lambda x: INF if x == INF else (x + 1) % 7)
    mul = act(lambda x: INF if x == INF else 3 * x % 7)
    inv = act(lambda x: 0 if x == INF else INF if x == 0 else pow(x, 5, 7))
    report = group_analyze([add, mul, inv])
    assert (report.order, report.classification, report.is_transitive) == (336, "other", True)
    assert len(element_closure([add, mul, inv], cap=1000)) == 336


def test_classification_at_degree_nine():
    s9 = group_analyze(s_n_gens(9))
    assert (s9.order, s9.classification) == (math.factorial(9), "symmetric")
    a9 = group_analyze(
        [parse_cycles(9, "(1,2,3)"), parse_cycles(9, "(1,2,3,4,5,6,7,8,9)")]
    )
    assert (a9.order, a9.classification) == (math.factorial(9) // 2, "alternating")
