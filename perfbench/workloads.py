"""The four benchmark workloads.

Each workload turns a seed into a stream of blocks of ops.  A block has a
fixed composition (so many ops of each kind or size), shuffled by the seed;
the runner only stops between blocks, so every run measures the same mix.
``run`` is what the timed loop calls, once per op, one op at a time (a closed
loop with one caller).  ``check`` runs after timing and compares an output
with the expected values the benchmark computed itself (``oracle``).

purecycle is called through module attributes (``H.hurwitz_number_brute``),
never through names bound at import, so the tracer's wrappers are used.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import purecycle.braid as B
import purecycle.charp as C
import purecycle.cli as CLI
import purecycle.fppoly as F
import purecycle.group as G
import purecycle.hurwitz as H
from purecycle.perm import CycleType

import oracle as O

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "purecycle" / "data"
PRIMES_3_101 = tuple(p for p in range(3, 102) if all(p % q for q in range(2, p)))
PRIMES_5_101 = PRIMES_3_101[1:]
GROUP_FILES = {"m11": 7920, "pgammal2_16": 16320, "m23": 10200960}
CENSUS_CAP = 10**6


@dataclass
class Op:
    kind: str
    args: tuple
    expected: dict = field(default_factory=dict)


def ramification_type(d, kind, es):
    if kind == "tc":
        e1, e2, e3, e4 = es
        classes = (CycleType(d, (e1, e2)), CycleType(d, (e3,)), CycleType(d, (e4,)))
        return H.RamificationType(d, classes)
    return H.RamificationType.pure(d, es)


# -- hurwitz_sweep -------------------------------------------------------------

# Degree-9 pure 4-point types with their cost in seconds (brute force plus
# braid orbits, measured on a 2-core machine at the commit that added this
# file).  A pair holds two types of about the same cost, and the seed picks
# one; the other entries are always run, so every seed does nearly the same
# work.  (9; 5,5,5,5), (9; 3,5,6,6) and (9; 2,6,6,6) take 4.5 to 17 s each and
# are left out of the timed sweep; ``run.py --profile 9:5,5,5,5`` traces the
# worst of them.
D9_PURE4 = (
    ((2, 5, 6, 7), 2.4), (((4, 5, 5, 6), (4, 4, 6, 6)), 1.84), ((2, 4, 7, 7), 1.55),
    (((3, 4, 6, 7), (2, 4, 6, 8)), 0.68), (((3, 3, 7, 7), (3, 5, 5, 7)), 0.57),
    (((4, 4, 5, 7), (2, 3, 7, 8)), 0.46), (((2, 2, 8, 8), (2, 5, 5, 8)), 0.31),
    ((3, 4, 5, 8), 0.26), ((3, 3, 6, 8), 0.2), ((2, 4, 5, 9), 0.19), ((2, 2, 7, 9), 0.17),
    ((2, 3, 6, 9), 0.16), ((4, 4, 4, 8), 0.08), ((3, 3, 5, 9), 0.06), ((3, 4, 4, 9), 0.04),
)
SWEEP_BLOCKS = 4


class HurwitzSweep:
    """The acceptance pattern of criteria 1, 3 and 4 on seeded inputs: every
    genus-0 type of degrees 7 and 8, every degree-9 type with three branch
    points or a two-cycle class, and 15 of the degree-9 pure 4-point types,
    in four blocks of the same mix, one pass, no type twice.  An op is one type: brute force
    against the closed formula and, for pure 4-point types, braid orbits,
    the degeneration of each orbit representative and the char-0 taxonomy."""

    name = "hurwitz_sweep"

    @staticmethod
    def _op(d, kind, es):
        return Op(kind, (d, es), {"h": O.hurwitz_count(d, kind, es)})

    def streams(self, rng):
        warmup = [self._op(d, kind, es)
                  for d in (4, 5, 6)
                  for kind, gen in (("p3", O.pure3), ("p4", O.pure4), ("tc", O.two_cycle))
                  for es in gen(d)] * 2
        rng.shuffle(warmup)
        # The blocks get the same mix: the cheaper types are dealt out in
        # turn, and each degree-9 pure 4-point type goes to the block with the
        # least of their cost so far.
        ops = [self._op(d, kind, es)
               for d in (7, 8, 9)
               for kind, gen in (("p3", O.pure3), ("tc", O.two_cycle), ("p4", O.pure4))
               for es in gen(d) if kind != "p4" or d < 9]
        blocks = [ops[i::SWEEP_BLOCKS] for i in range(SWEEP_BLOCKS)]
        load = [0.0] * SWEEP_BLOCKS
        for es, cost in D9_PURE4:
            i = load.index(min(load))
            load[i] += cost
            blocks[i].append(self._op(9, "p4", rng.choice(es) if isinstance(es[0], tuple) else es))
        for block in blocks:
            rng.shuffle(block)
        rng.shuffle(blocks)
        return warmup, iter(blocks)

    def run(self, op):
        d, es = op.args
        t = ramification_type(d, op.kind, es)
        out = {"brute": H.hurwitz_number_brute(t)}
        if op.kind == "p4":
            out["formula"] = H.hurwitz_formula_pure4(d, es)
            orbits = B.braid_orbits(t)
            out["orbits"] = [(o.length, B.degenerate(o.representative)[2]) for o in orbits]
            out["taxonomy"] = B.admissible_enumerate_char0(d, *es)
        elif op.kind == "tc":
            out["formula"] = H.hurwitz_formula_badtype(d, *es)
        return out

    def check(self, op, out):
        h = op.expected["h"]
        if out["brute"] != h or out.get("formula", h) != h:
            return f"brute {out['brute']}, formula {out.get('formula')}, expected {h}"
        if op.kind != "p4":
            return None
        if sum(length for length, _ in out["orbits"]) != h:
            return "orbit lengths do not sum to h"
        for length, node in out["orbits"]:
            if length != (node.lengths[0] if node.kind == "single" else 1):
                return f"node {node} has orbit length {length}"
        per_node = Counter(node for _, node in out["orbits"])
        if per_node != {row.node: row.count for row in out["taxonomy"]}:
            return "orbit nodes differ from the taxonomy"
        if sum(row.subtotal for row in out["taxonomy"]) != h:
            return "taxonomy subtotals do not sum to h"
        return None


# -- cli_queries -----------------------------------------------------------------

FORMATS = ("table", "json", "csv")

# One block: 29 queries plus a ``group`` query every tenth block.  Queries
# that enumerate (``hurwitz``, ``braid``) are one or two per block: there are
# only 425 distinct enumerating queries, and none may repeat in a run.
CLI_RECIPE = (("admissible", 1), ("charp", 2), ("invalid", 2), ("tails", 11), ("defdatum", 11))
GROUP_EVERY = 10  # 18 distinct ``group`` queries


def _types(degrees, kinds, orders):
    gens = {"p3": O.pure3, "p4": O.pure4, "tc": O.two_cycle}
    return [(d, k, es, orders) for d in degrees for k in kinds for es in gens[k](d)]


# The enumerator anchors the last class of a type and canonicalizes each raw
# tuple over the anchor's centralizer, so a class with a large centralizer last
# is slow: 8:2-6,8,2 takes about 10 s.  Which class orders a type is asked in:
# "any" where every order stays under about 15 ms (degrees 4 to 6); "anchor"
# at degree 7, where a class with the most moved points goes last and, besides,
# any class whose centralizer has order at most ANCHOR_CENTRALIZER_MAX (80 more
# queries of up to about 0.13 s, 2.4 s in all, so the anchor choice is
# measured; a 2- or 3-cycle last, up to 10 s and more, is left out); "largest"
# at degree 8, where only a class with the most moved points goes last.
ANCHOR_CENTRALIZER_MAX = 48
ENUM_TYPES = (_types(range(4, 7), ("p3", "tc"), "any") + _types((4, 5), ("p4",), "any")
              + _types((7,), ("p3", "tc"), "anchor") + _types((8,), ("p3", "tc"), "largest")
              + _types((6,), ("p4",), "largest") + _types((7,), ("p4",), "anchor"))
PRIME_TYPES = ([t for t in _types((5, 7), ("p4",), "any") if max(t[2]) < t[0]]
               + [t for t in _types((5, 7), ("tc",), "any") if (t[0], *t[2]) != (5, 2, 2, 4, 4)])


def _type_texts(types):
    """(text, expected) for each type in each allowed class order."""
    for d, kind, es, orders in types:
        h = O.hurwitz_count(d, kind, es)
        classes = [f"{es[0]}-{es[1]}", *map(str, es[2:])] if kind == "tc" else list(map(str, es))
        lengths = ([(max(es[:2]), min(es[:2])), (es[2],), (es[3],)] if kind == "tc"
                   else [(e,) for e in es])
        moved = [sum(ls) for ls in lengths]
        texts = {}
        for order in itertools.permutations(range(len(classes))):
            last = order[-1]
            if (orders == "any" or moved[last] == max(moved) or orders == "anchor"
                    and O.centralizer_order(d, lengths[last]) <= ANCHOR_CENTRALIZER_MAX):
                texts.setdefault(f"{d}:" + ",".join(classes[i] for i in order), order)
        for text, order in sorted(texts.items()):
            yield text, {"exit": 0, "h": h, "d": d, "kind": kind, "es": es,
                         "lengths": [lengths[i] for i in order]}


def _enumerating_queries(rng):
    """Each type text once, in one format: ``braid`` for pure 4-point types
    below degree 7, ``hurwitz`` or ``braid`` at degree 7, ``hurwitz`` else."""
    ops = []
    for text, exp in _type_texts(ENUM_TYPES):
        if exp["kind"] != "p4":
            command = "hurwitz"
        else:
            command = "braid" if exp["d"] < 7 else rng.choice(("hurwitz", "braid"))
        extra = ("--mode", "both") if command == "hurwitz" else ()
        ops.append(Op(command, (command, text, *extra, "--format", rng.choice(FORMATS)), exp))
    rng.shuffle(ops)
    return iter(ops)


def _formula_queries(rng, command, types, extra):
    ops = [Op(command, (command, text, *extra(exp["d"]), "--format", fmt), exp)
           for text, exp in _type_texts(types) for fmt in FORMATS]
    rng.shuffle(ops)
    return iter(ops)


class CliQueries:
    """In-process ``purecycle.cli.main(argv)`` calls with stdout captured,
    one distinct argv per query and each type enumerated at most once (a real
    CLI call is a fresh process and gets nothing from an in-process cache).
    An op is one query.  The run ends early if a pool of queries runs out."""

    name = "cli_queries"

    def streams(self, rng):
        pools = {
            "enumerate": _enumerating_queries(rng),
            "admissible": _formula_queries(rng, "admissible", [t for t in PRIME_TYPES if t[1] == "p4"],
                                           lambda d: ("--char", str(d))),
            "charp": _formula_queries(rng, "charp", PRIME_TYPES, lambda d: ()),
            "tails": _fresh(rng, self._tails, "tails"),
            "defdatum": _fresh(rng, self._defdatum, "defdatum"),
            "invalid": _fresh(rng, self._invalid, "invalid"),
            "group": iter(self._group(rng)),
        }
        blocks = self._blocks(rng, pools)
        warmup = [op for _ in range(6) for op in next(blocks)]
        return warmup, blocks

    @staticmethod
    def _blocks(rng, pools):
        for i in itertools.count():
            slots = [kind for kind, n in CLI_RECIPE for _ in range(n)]
            slots += ["enumerate"] * (1 + i % 2)
            if i % GROUP_EVERY == 0:
                slots.append("group")
            block = []
            for slot in slots:
                op = next(pools[slot], None)
                if op is None and slot != "group":
                    return  # a pool of distinct queries ran out
                if op is not None:
                    block.append(op)
            rng.shuffle(block)
            yield block

    # query generators: each returns (argv, expected)

    @staticmethod
    def _tails(rng, p):
        fmt = rng.choice(FORMATS)
        if p > 4 and rng.random() < 0.5:
            e1, e2 = lengths = _pair(rng, p)
            text = f"{e1}-{e2}"
        else:
            e = rng.randint(2, p - 1)
            lengths, text = (e,), str(e)
        h, m = O.tail_hm(p, lengths)
        expected = {"exit": 0, "h": h, "m": m, "sigma": str(Fraction(h, m))}
        if len(lengths) == 1:
            expected["aut"], expected["aut0"] = O.tail_aut(p, lengths[0])
        return ("tails", str(p), text, "--format", fmt), expected

    @staticmethod
    def _defdatum(rng, p):
        a = _kummer_exponents(rng, p)
        coeffs = O.cartier_coeffs(p, a)
        expected = {"exit": 0, "deg": len(coeffs) - 1, "p": p, "coeffs": coeffs,
                    "kummer_degree": (p - 1) // math.gcd(p - 1, *a)}
        return ("defdatum", str(p), ",".join(map(str, a)), "--format", rng.choice(FORMATS)), expected

    @staticmethod
    def _invalid(rng, _):
        fmt = ("--format", rng.choice(FORMATS))
        family = rng.randrange(9)
        if family == 0:  # composite characteristic
            p = rng.choice([n for n in range(4, 101) if any(n % q == 0 for q in range(2, n))])
            return ("tails", str(p), str(rng.randint(2, p - 1)), *fmt), {"exit": 2}
        if family == 1:  # a p-cycle class has no tail
            p = rng.choice(PRIMES_5_101)
            return ("tails", str(p), str(p), *fmt), {"exit": 2}
        if family == 2:  # exponents not summing to 2(p-1)
            p = rng.choice(PRIMES_5_101)
            a = list(_kummer_exponents(rng, p))
            a[min(i for i in range(4) if a[i] < p - 1)] += 1
            return ("defdatum", str(p), ",".join(map(str, a)), *fmt), {"exit": 2}
        if family == 3:  # degree 10 is over the enumeration guard for two-cycle types
            es = rng.choice(O.two_cycle(10))  # one format, so no type is tried twice
            return ("hurwitz", O.type_text(10, "tc", es), "--mode", "both", "--format", "table"), {"exit": 3}
        if family == 4:  # braid orbits need four branch points
            d = rng.randint(4, 8)
            es = list(rng.choice(O.pure3(d)))
            rng.shuffle(es)
            return ("braid", O.type_text(d, "p3", es), *fmt), {"exit": 2}
        if family == 5:  # reduction census needs degree equal to the characteristic
            es = list(rng.choice(O.pure4(7)))
            rng.shuffle(es)
            return ("admissible", O.type_text(7, "p4", es), "--char", "5", *fmt), {"exit": 2}
        if family == 6:  # no characteristic-p result for pure triples
            p = rng.choice((5, 7))
            es = list(rng.choice(O.pure3(p)))
            rng.shuffle(es)
            return ("charp", O.type_text(p, "p3", es), *fmt), {"exit": 2}
        d = rng.randint(4, 8)
        es = list(rng.choice(O.pure4(d)))
        rng.shuffle(es)
        if family == 7:  # a cycle longer than the degree
            es[rng.randrange(4)] = d + rng.randint(1, 3)
            return ("hurwitz", O.type_text(d, "p4", es), "--mode", "both", *fmt), {"exit": 2}
        # an unknown --mode is an argparse usage error
        return ("hurwitz", O.type_text(d, "p4", es), "--mode", rng.choice(("fast", "all")), *fmt), {"exit": 2}

    @staticmethod
    def _group(rng):
        out = []
        for name, order in GROUP_FILES.items():
            for census in (False, True):
                for fmt in FORMATS:
                    argv = ("group", str(DATA / f"{name}.txt"), *(("--census",) if census else ()),
                            "--format", fmt)
                    code = 3 if census and order > CENSUS_CAP else 0
                    out.append(Op("group", argv, {"exit": code, "order": order, "census": census}))
        rng.shuffle(out)
        return out

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = CLI.main(list(op.args))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue()

    def check(self, op, out):
        code, text = out
        exp = op.expected
        if code != exp["exit"]:
            return f"exit {code}, expected {exp['exit']}"
        if op.kind == "invalid" or (code != 0 and op.kind != "group"):
            return None
        fmt = op.args[op.args.index("--format") + 1]
        tables = O.parse_tables(text, fmt, split_after=2 if op.kind == "group" else None)
        return getattr(self, "_check_" + op.kind)(exp, tables)

    @staticmethod
    def _check_hurwitz(exp, tables):
        (row,) = tables[0]
        want = {"formula": str(exp["h"]), "brute": str(exp["h"]), "status": "PASS"}
        return None if all(row[k] == v for k, v in want.items()) else f"row {row}"

    @staticmethod
    def _check_braid(exp, tables):
        rows, d = tables[0], exp["d"]
        if sum(int(r["length"]) for r in rows) != exp["h"]:
            return "orbit lengths do not sum to h"
        for r in rows:
            node = r["node"][1:]
            want = 1 if "-" in node else int(node)
            if int(r["length"]) != want:
                return f"node {r['node']} has orbit length {r['length']}"
            rep = json.loads(r["representative"])
            perms = [O.perm_from_json_cycles(d, cycles) for cycles in rep["tuple"]]
            if rep["d"] != d or not O.factorization_ok(d, perms, [tuple(l) for l in exp["lengths"]]):
                return f"representative {r['representative']} is not a factorization of the type"
        return None

    @staticmethod
    def _check_admissible(exp, tables):
        rows = tables[0]
        *body, total = rows
        h, p = exp["h"], exp["d"]
        if total["node"] != "TOTAL" or int(total["subtotal"]) != h:
            return "TOTAL row missing or wrong"
        if sum(int(r["subtotal"]) for r in body) != h:
            return "subtotals do not sum to h"
        if any(int(r["count"]) * int(r["multiplicity"]) != int(r["subtotal"]) for r in body):
            return "count * multiplicity != subtotal"
        good_text, bad_text = total["reduction"].split()
        good, bad = O.interval(good_text[5:]), O.interval(bad_text[4:])
        if good[0] + bad[1] != h or good[1] + bad[0] != h:
            return "good + bad != h"
        if bad[0] == bad[1] and bad[0] != p:
            return f"bad = {bad[0]} != p"
        return None

    @staticmethod
    def _check_charp(exp, tables):
        (row,) = tables[0]
        h, p, es = exp["h"], exp["d"], exp["es"]
        if row["h"] != str(h):
            return f"h {row['h']} != {h}"
        if exp["kind"] == "p4":
            if row["h_p"] != str(h - p):
                return "h_p != h - p"
            if not O.reduction_ambiguous(*es[:3]):
                ok = row["bad"] == str(p) and row["good_degeneration"] == "true"
            else:
                lo, hi = O.interval(row["bad"])
                ok = row["good_degeneration"] == "unknown" and lo <= hi < 2 * p
            return None if ok else f"row {row}"
        lo, hi = O.bad_count_2cycle(p, *es[:3])
        ok = (row["bad"] == O.interval_text(lo, hi)
              and row["h_p"] == O.interval_text(h - hi, h - lo))
        return None if ok else f"row {row}"

    @staticmethod
    def _check_tails(exp, tables):
        (row,) = tables[0]
        want = {k: str(exp[k]) for k in ("h", "m", "aut", "aut0") if k in exp}
        want["sigma"] = str(exp["sigma"])
        return None if all(row[k] == v for k, v in want.items()) else f"row {row}"

    @staticmethod
    def _check_defdatum(exp, tables):
        (row,) = tables[0]
        p, coeffs = exp["p"], exp["coeffs"]
        if row["coefficients"] != ",".join(map(str, coeffs)):
            return "coefficients differ from the binomial sum"
        if row["kummer_degree"] != str(exp["kummer_degree"]):
            return "kummer degree"
        roots = [int(r) for r in row["supersingular"].split(",") if r]
        if any(not 2 <= r < p or O.poly_eval(coeffs, r, p) for r in roots):
            return f"reported roots {roots} are not roots"
        degrees = [int(k) for k in row["factor_degrees"].split(",") if k]
        if sum(degrees) != exp["deg"] or degrees.count(1) < len(roots):
            return "factor degrees do not match deg c"
        return None

    @staticmethod
    def _check_group(exp, tables):
        (report,) = tables[0]
        if report["order"] != str(exp["order"]) or report["transitive"] != "true":
            return f"report {report}"
        if exp["census"] and exp["exit"] == 0:
            counts = {r["cycle_type"]: int(r["count"]) for r in tables[1]}
            if sum(counts.values()) != exp["order"] or counts.get("1") != 1:
                return "census total differs from the group order"
        return None


def _fresh(rng, make, kind):
    """Endless distinct queries from ``make(rng, p)``; repeats are drawn
    again.  The primes up to 101 are drawn in shuffled rounds, so the mix of p
    is nearly the same in every run."""
    seen = set()
    primes = []
    while True:
        if not primes:
            primes = list(PRIMES_3_101)
            rng.shuffle(primes)
        argv, expected = make(rng, primes.pop())
        if argv not in seen:
            seen.add(argv)
            yield Op(kind, argv, expected)


def _kummer_exponents(rng, p):
    while True:
        a = [rng.randint(0, p - 1) for _ in range(3)]
        a4 = 2 * (p - 1) - sum(a)
        if 0 <= a4 <= p - 1:
            return (*a, a4)


# -- charp_fppoly ------------------------------------------------------------------

# Items per prime in a block.  The polynomial items take 0.1 to 10 ms and the
# tails and census items 0.03 to 0.1 ms; with a third of the ops in the fast
# group, the median latency falls among the small-p polynomial items, not in
# the gap between the two groups.
CHARP_KINDS = ("defdatum", "defdatum", "tailpoly", "tailpoly", "tails", "census")


def _pair(rng, p):
    e1 = rng.randint(2, p // 2)
    return e1, rng.randint(e1, p - e1)


def _pure4_exponents(rng, p, top):
    """Genus-0 exponents of degree p, each in [2, top]."""
    while True:
        es = [rng.randint(2, top) for _ in range(3)]
        e4 = 2 * p + 2 - sum(es)
        if 2 <= e4 <= top:
            return (*es, e4)


class CharpFppoly:
    """A seeded stream of (p, item) ops over the primes 5..101, with no
    enumeration.  A block holds the same items at every prime, so the mix of
    p is the same in every run."""

    name = "charp_fppoly"

    def _make(self, rng, kind, p):
        if kind == "defdatum":
            a = _kummer_exponents(rng, p)
            coeffs = O.cartier_coeffs(p, a)
            return Op(kind, (p, a), {"deg": len(coeffs) - 1, "coeffs": coeffs})
        if kind == "tails":
            e = rng.randint(2, p - 1)
            pair = _pair(rng, p)
            es = _pure4_exponents(rng, p, p)
            return Op(kind, (p, e, pair, es),
                      {"h": O.tail_hm(p, (e,)), "pair": O.tail_hm(p, pair),
                       "aut": O.tail_aut(p, e), "signature": O.signature_sum(p, es)})
        if kind == "census":
            es = tuple(sorted(_pure4_exponents(rng, p, p - 1)))
            while True:
                e1, e2 = _pair(rng, p)
                rest = 2 * p + 2 - e1 - e2
                e3 = rng.randint(rest - p, min(p, rest - 2))
                tc = (e1, e2, *sorted((e3, rest - e3)))
                if (p, *tc) != (5, 2, 2, 4, 4):
                    break
            return Op(kind, (p, es, tc),
                      {"h": O.hurwitz_count(p, "p4", es),
                       "ambiguous": O.reduction_ambiguous(*es[:3]),
                       "bad_2cycle": O.bad_count_2cycle(p, *tc[:3])})
        e1, e2 = _pair(rng, p)
        return Op(kind, (p, e1, e2), {"e1": e1, "e2": e2})

    def streams(self, rng):
        blocks = self._blocks(rng)
        return next(blocks) + next(blocks), blocks

    def _blocks(self, rng):
        while True:
            block = [self._make(rng, kind, p) for kind in CHARP_KINDS for p in PRIMES_5_101]
            rng.shuffle(block)
            yield block

    def run(self, op):
        p = op.args[0]
        if op.kind == "defdatum":
            datum = F.KummerData(p, op.args[1])
            c = F.cartier_coefficient(datum)
            return c.coeffs, F.supersingular_lambdas(datum), F.irreducible_factor_degrees(c)
        if op.kind == "tails":
            _, e, pair, es = op.args
            single, double = C.tail_invariants(p, (e,)), C.tail_invariants(p, pair)
            aut = C.tail_aut_orders(p, e)
            return ((single.h, single.m), (double.h, double.m), (aut.full, aut.fixing),
                    C.signature_check(p, [(x,) for x in es]))
        if op.kind == "census":
            _, es, tc = op.args
            good, bad = C.admissible_reduction_census(p, *es)
            bad2 = C.bad_count_2cycle(p, *tc)
            return ((good.lo, good.hi), (bad.lo, bad.hi), C.good_degeneration(p, *es),
                    C.p_hurwitz_pure4(p, *es), (bad2.lo, bad2.hi))
        poly = F.tail_polynomial_double(p, op.args[1], op.args[2])
        profile = F.ramification_profile(poly)
        return poly.coeffs, profile.finite_points, profile.wild_at_infinity

    def check(self, op, out):
        p, exp = op.args[0], op.expected
        if op.kind == "defdatum":
            coeffs, roots, degrees = out
            if list(coeffs) != exp["coeffs"]:
                return "coefficients differ from the binomial sum"
            if len(set(roots)) != len(roots) or any(
                    not 2 <= r < p or O.poly_eval(coeffs, r, p) for r in roots):
                return f"reported roots {roots} are not roots"
            if sum(degrees) != exp["deg"] or degrees.count(1) < len(roots):
                return "factor degrees do not sum to deg c"
            return None
        if op.kind == "tails":
            single, double, aut, signature = out
            if (single, double, aut) != (exp["h"], exp["pair"], exp["aut"]):
                return f"tail invariants {single} {double} {aut}"
            if signature is not True or exp["signature"] != 2:
                return "signature identity does not sum to r-2"
            return None
        if op.kind == "census":
            good, bad, flag, h_p, bad2 = out
            h = exp["h"]
            if good[0] + bad[1] != h or good[1] + bad[0] != h:
                return "good + bad != h"
            if flag is not (None if exp["ambiguous"] else True):
                return f"good_degeneration {flag}"
            if not exp["ambiguous"] and bad != (p, p):
                return f"bad {bad} != p"
            if h_p != h - p or bad2 != exp["bad_2cycle"]:
                return f"h_p {h_p}, two-cycle bad {bad2}"
            return None
        coeffs, points, wild = out
        if len(coeffs) != p + 1 or coeffs[-1] != 1 or coeffs[0] or O.poly_eval(coeffs, 1, p):
            return "tail polynomial is not monic of degree p vanishing at 0 and 1"
        if sorted(points) != [(0, exp["e1"]), (1, exp["e2"])] or wild is not True:
            return f"ramification profile {points}, wild {wild}"
        return None


# -- group_census ------------------------------------------------------------------

# One block: 23 two-generator subgroups of S_n, as (n, shape, parameter).
# Each group is a fixed group, given by random generators: a textbook
# generating pair, scrambled by random Nielsen moves and relabelled by a
# random permutation.  "sym"/"alt" are S_n and A_n; ("split", a) is generated
# by an a-cycle times an (n-a)-cycle and a product of two transpositions, an
# intransitive subgroup of S_a x S_(n-a); ("blocks", k) permutes n/k blocks of
# size k, a subgroup of the wreath product.  The batched census (orders above
# 10^5) runs on A_9 in each block and on S_9 once per run, in the first block
# with the shipped groups.
GROUP_RECIPE = (
    (9, "alt", 0), (8, "sym", 0), (8, "sym", 0), (8, "alt", 0), (8, "alt", 0),
    (7, "sym", 0), (7, "sym", 0), (7, "alt", 0), (7, "alt", 0), (7, "split", 3), (7, "split", 2),
    (6, "sym", 0), (6, "sym", 0), (6, "alt", 0), (6, "alt", 0), (6, "blocks", 2), (6, "blocks", 3),
    (8, "blocks", 2), (8, "blocks", 4), (9, "blocks", 3), (9, "blocks", 3), (9, "split", 4),
    (6, "split", 2),
)


def _cycle_perm(n, points):
    images = list(range(n))
    for i, x in enumerate(points):
        images[x] = points[(i + 1) % len(points)]
    return tuple(images)


def _generating_pair(n, shape, param):
    """The textbook generators of each group shape (see GROUP_RECIPE)."""
    if shape == "sym":
        return _cycle_perm(n, range(n)), _cycle_perm(n, (0, 1))
    if shape == "alt":
        return _cycle_perm(n, range(n) if n % 2 else range(1, n)), _cycle_perm(n, (0, 1, 2))
    if shape == "split":
        a = param
        return (O.compose(_cycle_perm(n, range(a)), _cycle_perm(n, range(a, n))),
                O.compose(_cycle_perm(n, (0, 1)), _cycle_perm(n, (a, a + 1))))
    k = param
    m = n // k
    shift = tuple((x // k + 1) % m * k + x % k for x in range(n))
    swap = tuple((1 - x // k if x < 2 * k else x // k) * k + x % k for x in range(n))
    return (O.compose(_cycle_perm(n, range(k)), shift), O.compose(_cycle_perm(n, (0, 1)), swap))


def _nielsen(rng, a, b, steps=12):
    """Random Nielsen moves, which keep the generated group."""
    ident = tuple(range(len(a)))
    for _ in range(steps):
        move = rng.randrange(4)
        if move == 0:
            new = (O.compose(a, b), b)
        elif move == 1:
            new = (O.compose(a, O.inverse(b)), b)
        elif move == 2:
            new = (a, O.compose(b, a))
        else:
            new = (a, O.compose(b, O.inverse(a)))
        if ident not in new:
            a, b = new
    return a, b


def _conjugate(s, g):
    out = [0] * len(g)
    for x, y in enumerate(g):
        out[s[x]] = s[y]
    return tuple(out)


class GroupCensus:
    """``group_analyze`` then ``cycle_type_census`` on seeded two-generator
    subgroups of S_n, 6 <= n <= 9, plus the three shipped generator files
    (M_23 gets ``group_analyze`` only).  An op is one group."""

    name = "group_census"

    def _make(self, rng, n, shape, param):
        a, b = _nielsen(rng, *_generating_pair(n, shape, param))
        if shape in ("sym", "alt"):
            expected = {"order": math.factorial(n) // (2 if shape == "alt" else 1),
                        "transitive": True,
                        "classification": "symmetric" if shape == "sym" else "alternating"}
        elif shape == "split":
            expected = {"order_divides": math.factorial(param) * math.factorial(n - param),
                        "transitive": False, "classification": "other"}
        else:
            expected = {"order_divides": math.factorial(param) ** (n // param) * math.factorial(n // param),
                        "transitive": True, "classification": "other"}
        relabel = list(range(n))
        rng.shuffle(relabel)
        return Op(shape, (n, (_conjugate(relabel, a), _conjugate(relabel, b))), expected)

    def streams(self, rng):
        warmup = [self._make(rng, *entry) for entry in (
            (9, "alt", 0), (8, "sym", 0), (7, "sym", 0), (6, "blocks", 2), (9, "blocks", 3))]
        return warmup, self._blocks(rng)

    def _blocks(self, rng):
        first = [Op("file", (name,), {"order": order, "transitive": True, "classification": "other"})
                 for name, order in GROUP_FILES.items()] + [self._make(rng, 9, "sym", 0)]
        while True:
            block = [self._make(rng, *entry) for entry in GROUP_RECIPE]
            rng.shuffle(block)
            yield first + block
            first = []

    def run(self, op):
        if op.kind == "file":
            _, gens = G.load_generators(DATA / f"{op.args[0]}.txt")
        else:
            gens = list(op.args[1])
        report = G.group_analyze(gens)
        census = None
        if report.order <= CENSUS_CAP:
            census = {ct.lengths: n for ct, n in G.cycle_type_census(gens, cap=CENSUS_CAP).items()}
        return report.order, report.is_transitive, report.classification, census

    def check(self, op, out):
        order, transitive, classification, census = out
        exp = op.expected
        if "order" in exp and order != exp["order"]:
            return f"order {order} != {exp['order']}"
        if "order_divides" in exp and exp["order_divides"] % order:
            return f"order {order} does not divide {exp['order_divides']}"
        if transitive != exp["transitive"] or classification != exp["classification"]:
            return f"transitive {transitive}, classification {classification}"
        if census is None:
            return None if order > CENSUS_CAP else "census missing"
        if sum(census.values()) != order or census.get(()) != 1:
            return "census total differs from the group order"
        if classification == "alternating" and any(
                sum(l - 1 for l in lengths) % 2 for lengths in census):
            return "odd cycle type in an alternating group"
        return None


WORKLOADS = {w.name: w for w in (CliQueries(), HurwitzSweep(), CharpFppoly(), GroupCensus())}
