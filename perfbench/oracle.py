"""Expected values computed by the benchmark itself, independently of
purecycle: genus-0 type lists, the closed Hurwitz formulas, tail invariants,
binomial coefficients mod p, and a parser for the CLI's three output formats.
"""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction


# -- genus-0 types -----------------------------------------------------------


def pure3(d):
    """Sorted exponents (e1, e2, e3) of genus-0 pure-cycle triples."""
    return [(a, b, 2 * d + 1 - a - b) for a in range(2, d + 1) for b in range(a, d + 1)
            if b <= 2 * d + 1 - a - b <= d]


def pure4(d):
    """Sorted exponents (e1, e2, e3, e4) of genus-0 pure-cycle quadruples."""
    return [(a, b, c, 2 * d + 2 - a - b - c)
            for a in range(2, d + 1) for b in range(a, d + 1) for c in range(b, d + 1)
            if c <= 2 * d + 2 - a - b - c <= d]


def two_cycle(d):
    """(e1, e2, e3, e4) for types (d; e1-e2, e3, e4), e1 <= e2, e3 <= e4."""
    return [(a, b, c, 2 * d + 2 - a - b - c)
            for a in range(2, d + 1) for b in range(a, d - a + 1) for c in range(2, d + 1)
            if c <= 2 * d + 2 - a - b - c <= d]


def type_text(d, kind, es):
    """The CLI spelling of a type, classes in the given order."""
    if kind == "tc":
        e1, e2, e3, e4 = es
        return f"{d}:{e1}-{e2},{e3},{e4}"
    return f"{d}:" + ",".join(str(e) for e in es)


# -- closed formulas ---------------------------------------------------------


def hurwitz_count(d, kind, es):
    """Hurwitz number of a genus-0 type: 1 for triples, min e(d+1-e) for
    quadruples, and the one-two-cycle-class count."""
    if kind == "p3":
        return 1
    if kind == "p4":
        return min(e * (d + 1 - e) for e in es)
    e1, e2, e3, e4 = es
    if e1 != e2:
        return (d + 1 - e1 - e2) * min(e1, e2, d + 1 - e3, d + 1 - e4)
    return -(-(d + 1 - e1 - e2) * min(d + 1 - e3, d + 1 - e4) // 2)


def tail_hm(p, lengths):
    """Conductor h and inertia m of the tail of a class e or e1-e2."""
    if len(lengths) == 1:
        (e,) = lengths
        g = math.gcd(p - 1, e - 1)
        return (p - e) // g, (p - 1) // g
    e1, e2 = sorted(lengths)
    g = math.gcd(p - 1, e1 + e2 - 2)
    return (p + 1 - e1 - e2) // g, (p - 1) // g


def tail_aut(p, e):
    """(full, point-fixing) automorphism orders of the single-cycle tail."""
    return ((p - e) // 2 if e % 2 else p - e), tail_hm(p, (e,))[0]


def signature_sum(p, es):
    return sum((Fraction(*tail_hm(p, (e,))) for e in es if e != p), Fraction(0))


def reduction_ambiguous(e1, e2, e3):
    """The doubly-even case where a factor 2 in the bad count is undetermined."""
    return (e1 + e2) % 2 == 0 and e3 % 2 == 0


def bad_count_2cycle(p, e1, e2, e3):
    """(lo, hi) bad-reduction covers of (p; e1-e2, e3, e4)."""
    n = p + 1 - e1 - e2
    if e1 == e2:
        n //= 2
    return (n, 2 * n) if reduction_ambiguous(e1, e2, e3) else (n, n)


def cartier_coeffs(p, a):
    """Coefficients of c(lambda) = sum_j C(p-1-a2, a4-j) C(p-1-a3, j) lambda^j
    mod p, trimmed, from exact integer binomials."""
    _, a2, a3, a4 = a
    coeffs = [math.comb(p - 1 - a2, a4 - j) * math.comb(p - 1 - a3, j) % p if j <= a4 else 0
              for j in range(0, p - a3)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_eval(coeffs, x, p):
    y = 0
    for c in reversed(coeffs):
        y = (y * x + c) % p
    return y


def interval(text):
    """'7' -> (7, 7); '{7|9}' -> (7, 9)."""
    text = str(text)
    if text.startswith("{"):
        lo, hi = text[1:-1].split("|")
        return int(lo), int(hi)
    return int(text), int(text)


def interval_text(lo, hi):
    return str(lo) if lo == hi else f"{{{lo}|{hi}}}"


# -- permutations --------------------------------------------------------------


def compose(a, b):
    return tuple(a[x] for x in b)


def inverse(g):
    out = [0] * len(g)
    for x, y in enumerate(g):
        out[y] = x
    return tuple(out)


def cycle_lengths(g):
    seen = [False] * len(g)
    out = []
    for s in range(len(g)):
        if seen[s]:
            continue
        n, x = 0, s
        while not seen[x]:
            seen[x] = True
            x = g[x]
            n += 1
        if n > 1:
            out.append(n)
    return tuple(sorted(out, reverse=True))


def centralizer_order(d, lengths):
    """Order of the centralizer in S_d of an element with these cycle lengths."""
    out = math.factorial(d - sum(lengths))
    for l in set(lengths):
        k = lengths.count(l)
        out *= l**k * math.factorial(k)
    return out


def orbit_size(gens, n):
    reach, queue = {0}, [0]
    for a in queue:
        for g in gens:
            if g[a] not in reach:
                reach.add(g[a])
                queue.append(g[a])
    return len(reach)


def factorization_ok(d, perms, class_lengths):
    """Product identity, transitivity and the prescribed cycle types."""
    prod = tuple(range(d))
    for g in perms:
        prod = compose(prod, g)
    return (prod == tuple(range(d)) and orbit_size(perms, d) == d
            and [cycle_lengths(g) for g in perms] == list(class_lengths))


def perm_from_json_cycles(d, cycles):
    images = list(range(d))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            images[pt - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(images)


# -- CLI output ------------------------------------------------------------------


def parse_tables(text, fmt, split_after=None):
    """Rows of each table the CLI printed, every value as a string.

    ``split_after`` is the number of lines of the first table for commands
    that print two tables (``group --census``) in table or csv format.
    """
    if fmt == "json":
        decoder = json.JSONDecoder()
        tables, pos = [], 0
        text = text.strip()
        while pos < len(text):
            obj, end = decoder.raw_decode(text, pos)
            tables.append([{k: str(v) for k, v in row.items()} for row in obj])
            pos = end
            while pos < len(text) and text[pos].isspace():
                pos += 1
        return tables
    lines = text.splitlines()
    chunks = [lines] if split_after is None else [lines[:split_after], lines[split_after:]]
    return [_parse_csv(c) if fmt == "csv" else _parse_table(c) for c in chunks if c]


def _parse_csv(lines):
    return [dict(row) for row in csv.DictReader(io.StringIO("\n".join(lines) + "\n"))]


def _parse_table(lines):
    """Columns are left-justified to a common width, so each value sits at
    its header's offset."""
    header = lines[0]
    names = header.split()
    starts, pos = [], 0
    for name in names:
        pos = header.index(name, pos)
        starts.append(pos)
        pos += len(name)
    bounds = list(zip(starts, starts[1:] + [None]))
    return [{name: line[a:b].strip() for name, (a, b) in zip(names, bounds)}
            for line in lines[1:]]
