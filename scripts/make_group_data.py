#!/usr/bin/env python3
"""Regenerate src/purecycle/data/pgammal2_16.txt and re-verify all data files.

The library never constructs these groups symbolically; this script documents
where the shipped generators come from.  PGammaL(2,16) is built from scratch
as the semilinear action on the projective line over F_16; the Mathieu
generators are the standard GAP-library pairs, checked here against their
known orders.

Prints the PGammaL(2,16) generators and one line per data file, and exits 1
when a group order is wrong or the shipped PGammaL(2,16) file does not hold
exactly the generators built here.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from purecycle.group import StabilizerChain, load_generators
from purecycle.perm import format_cycles

DATA = Path(__file__).resolve().parent.parent / "src" / "purecycle" / "data"

# F_16 = F_2[g]/(g^4 + g + 1); elements are 4-bit integers, g = 2.
_MODULUS = 0b10011


def gf16_mul(a: int, b: int) -> int:
    r = 0
    for i in range(4):
        if (b >> i) & 1:
            r ^= a << i
    for i in range(7, 3, -1):
        if (r >> i) & 1:
            r ^= _MODULUS << (i - 4)
    return r


def gf16_inv(a: int) -> int:
    x = a
    for _ in range(13):  # a^14 = a^-1 since a^15 = 1
        x = gf16_mul(x, a)
    return x


INF = 16  # points 0..15 are the field elements, 16 is infinity


def pgammal2_16_generators():
    def add_one(p):
        return INF if p == INF else p ^ 1

    def mul_g(p):
        return INF if p == INF else gf16_mul(p, 2)

    def inv_pt(p):
        if p == INF:
            return 0
        if p == 0:
            return INF
        return gf16_inv(p)

    def frob(p):
        return INF if p == INF else gf16_mul(p, p)

    return [tuple(f(p) for p in range(17)) for f in (add_one, mul_g, inv_pt, frob)]


def main() -> int:
    gens = pgammal2_16_generators()
    if any(sorted(g) != list(range(17)) for g in gens):
        print("PGammaL(2,16): a generator is not a permutation of 17 points")
        return 1
    ok = True
    lines = [format_cycles(g) for g in gens]
    print("\n".join(lines))
    psl = StabilizerChain(gens[:3], 17).order()
    if psl != 4080:
        print(f"PSL(2,16): order {psl} MISMATCH (expected 4080)")
        ok = False
    shipped = [
        line.strip()
        for line in (DATA / "pgammal2_16.txt").read_text().splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if shipped != ["degree: 17", *lines]:
        print("pgammal2_16.txt: generators differ from the ones built here")
        ok = False
    expected = {"pgammal2_16.txt": 16320, "m11.txt": 7920, "m23.txt": 10200960}
    for name, order in expected.items():
        degree, file_gens = load_generators(DATA / name)
        got = StabilizerChain(file_gens, degree).order()
        status = "ok" if got == order else f"MISMATCH (expected {order})"
        ok = ok and got == order
        print(f"{name}: degree {degree}, order {got} {status}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
