"""Command-line front end.

Every computation is exposed as a subcommand with deterministic, scriptable
output (table, json or csv).  Exit codes: 0 success, 1 failed check
(``hurwitz --mode both`` or ``verify`` reports FAIL), 2 validation error or
unreadable input file, 3 resource-guard abort, the last two with a one-line
message.  A malformed integer list is an argparse usage error (exit 2) that
names the argument and the bad item.  ``main`` catches only InvalidTypeError,
BoundExceededError and OSError, so a traceback means a bug.  The resource
bounds are fixed constants, each checked before the work it limits:
enumeration to degree 9, or 11 for pure-cycle types, and to about 10^7 search
rows (``hurwitz.MAX_SEARCH_ROWS``), which refuses many-point genus-0 types
such as 6:2^10, 7:2^12, 8:3^7, 9:3^8 and 11:3^10.  The rows bound time, not
memory: ``hurwitz --mode brute|both`` counts in constant memory, and
``hurwitz --list`` and ``braid`` hold one tuple per class; characteristics up
to 10^12 (``arith.MAX_PRIME``), and up to 250 for ``defdatum``
(``fppoly.KUMMER_MAX_PRIME``); up to 370 generators of degree up to 40 for
``group`` (``group.MAX_GROUP_GENERATORS``, ``group.MAX_GROUP_DEGREE``).
``group --census`` enumerates groups of order at most ``--census-cap``
(default 10^6).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import acceptance
from .braid import admissible_enumerate_char0, braid_orbits, degenerate
from .charp import (
    admissible_reduction_census,
    bad_count_2cycle,
    bad_single_node,
    good_degeneration,
    p_hurwitz_3pt_badtype,
    p_hurwitz_pure4,
    tail_aut_orders,
    tail_invariants,
)
from .errors import BoundExceededError, InvalidTypeError
from .fppoly import (
    KummerData,
    cartier_coefficient,
    irreducible_factor_degrees,
    supersingular_lambdas,
)
from .group import cycle_type_census, group_analyze, load_generators
from .hurwitz import (
    RamificationType,
    enumerate_factorizations,
    factorization_to_json,
    factorizations_to_jsonl,
    hurwitz_formula_badtype,
    hurwitz_formula_pure4,
    hurwitz_number_brute,
)
from .perm import parse_ints

FORMATS = ("table", "json", "csv")


def _emit(rows: list[dict], fmt: str, out) -> None:
    """Rows of scalar values, rendered deterministically in the chosen format."""
    if fmt == "json":
        out.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        return
    if not rows:
        return
    headers = list(rows[0])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=headers)
        writer.writeheader()
        writer.writerows(rows)
        out.write(buf.getvalue())
        return
    widths = {
        h: max(len(h), *(len(str(r[h])) for r in rows)) for h in headers
    }
    out.write("  ".join(h.ljust(widths[h]) for h in headers).rstrip() + "\n")
    for r in rows:
        out.write("  ".join(str(r[h]).ljust(widths[h]) for h in headers).rstrip() + "\n")


def _formula_count(t: RamificationType) -> int:
    """Closed-form count of t, whose genus cmd_hurwitz has checked to be 0."""
    if t.is_pure_cycle:
        es = t.exponents
        if len(es) == 3:
            return 1
        if len(es) == 4:
            return hurwitz_formula_pure4(t.degree, es)
        raise InvalidTypeError("closed formulas cover 3 or 4 branch points only")
    exponents = t.two_cycle_exponents()
    if exponents is not None:
        return hurwitz_formula_badtype(t.degree, *exponents)
    raise InvalidTypeError(f"no closed formula for type {t}")


# -- subcommands ---------------------------------------------------------------


def cmd_hurwitz(args, out) -> int:
    if args.list and (args.format != "table" or args.mode != "both"):
        raise InvalidTypeError("--list writes JSON lines and takes no --format or --mode")
    t = RamificationType.parse(args.type).require_genus0()
    if args.list:
        reps = enumerate_factorizations(t)
        out.write(factorizations_to_jsonl(reps) + ("\n" if reps else ""))
        return 0
    row: dict = {"type": str(t), "mode": args.mode}
    if args.mode in ("formula", "both"):
        row["formula"] = _formula_count(t)
    if args.mode in ("brute", "both"):
        row["brute"] = hurwitz_number_brute(t)
    if args.mode == "both":
        row["status"] = "PASS" if row["formula"] == row["brute"] else "FAIL"
    _emit([row], args.format, out)
    return 0 if row.get("status") != "FAIL" else 1


def cmd_braid(args, out) -> int:
    t = RamificationType.parse(args.type)
    orbits = braid_orbits(t)
    rows = []
    for o in orbits:
        _, _, node = degenerate(o.representative)
        rows.append(
            {
                "representative": json.dumps(factorization_to_json(o.representative)),
                "node": str(node),
                "length": o.length,
            }
        )
    rows.sort(key=lambda r: (r["node"], r["length"], r["representative"]))
    _emit(rows, args.format, out)
    return 0


def cmd_admissible(args, out) -> int:
    t = RamificationType.parse(args.type)
    if not t.is_pure_cycle or len(t.classes) != 4:
        raise InvalidTypeError("admissible taxonomy needs a pure-cycle 4-point type")
    es = tuple(sorted(t.exponents))
    taxonomy = admissible_enumerate_char0(t.degree, *es)
    rows = [
        {
            "node": str(r.node),
            "count": r.count,
            "multiplicity": r.multiplicity,
            "subtotal": r.subtotal,
        }
        for r in taxonomy
    ]
    if args.char is not None:
        p = args.char
        if t.degree != p:
            raise InvalidTypeError("reduction census needs degree equal to the characteristic")
        bad_m = bad_single_node(p, es[2], es[3])
        for r, row in zip(taxonomy, rows):
            if r.node.kind == "single":
                row["reduction"] = "bad" if r.node.m == bad_m else "good"
            else:
                row["reduction"] = "see census"
        good, bad = admissible_reduction_census(p, *es)
        rows.append(
            {
                "node": "TOTAL",
                "count": "",
                "multiplicity": "",
                "subtotal": hurwitz_formula_pure4(p, es),
                "reduction": f"good={good} bad={bad}",
            }
        )
    _emit(rows, args.format, out)
    return 0


def cmd_charp(args, out) -> int:
    t = RamificationType.parse(args.type)
    p = t.degree
    if t.is_pure_cycle and len(t.classes) == 4:
        es = tuple(sorted(t.exponents))
        h = hurwitz_formula_pure4(p, es)
        good, bad = admissible_reduction_census(p, *es)
        flag = good_degeneration(p, *es)
        row = {
            "type": str(t),
            "h": h,
            "h_p": p_hurwitz_pure4(p, *es),
            "bad": str(bad),
            "good_degeneration": {True: "true", None: "unknown"}[flag],
        }
    elif (exponents := t.two_cycle_exponents()) is not None:
        e1, e2, e3, e4 = exponents
        row = {
            "type": str(t),
            "h": hurwitz_formula_badtype(p, e1, e2, e3, e4),
            "h_p": str(p_hurwitz_3pt_badtype(p, e1, e2, e3, e4)),
            "bad": str(bad_count_2cycle(p, e1, e2, e3, e4)),
            "good_degeneration": "n/a",
        }
    else:
        raise InvalidTypeError(f"type {t} is outside the characteristic-p results")
    _emit([row], args.format, out)
    return 0


def cmd_defdatum(args, out) -> int:
    datum = KummerData(args.p, args.exponents)
    poly = cartier_coefficient(datum)
    row = {
        "p": args.p,
        "exponents": ",".join(str(a) for a in datum.a),
        "kummer_degree": datum.kummer_degree,
        "c": poly.to_string("λ"),
        "coefficients": ",".join(str(c) for c in poly.coeffs),
        "supersingular": ",".join(str(r) for r in supersingular_lambdas(datum)),
        "factor_degrees": ",".join(str(d) for d in irreducible_factor_degrees(poly)),
    }
    _emit([row], args.format, out)
    return 0


def cmd_tails(args, out) -> int:
    info = tail_invariants(args.p, args.tail_class)
    row = {
        "p": args.p,
        "class": "-".join(str(e) for e in info.tail_class),
        "h": info.h,
        "m": info.m,
        "sigma": str(info.sigma),
    }
    if len(args.tail_class) == 1:
        orders = tail_aut_orders(args.p, args.tail_class[0])
        row["aut"], row["aut0"] = orders.full, orders.fixing
    _emit([row], args.format, out)
    return 0


def cmd_group(args, out) -> int:
    if args.census_cap < 1:
        raise InvalidTypeError("census cap must be positive")
    degree, gens = load_generators(args.file)
    report = group_analyze(gens)
    rows = [
        {
            "degree": report.degree,
            "order": report.order,
            "transitive": str(report.is_transitive).lower(),
            "classification": report.classification,
        }
    ]
    _emit(rows, args.format, out)
    if args.census:
        census = cycle_type_census(gens, cap=args.census_cap)
        census_rows = [
            {"cycle_type": str(ct), "count": n}
            for ct, n in sorted(census.items(), key=lambda kv: (kv[0].moved, kv[0].lengths))
        ]
        _emit(census_rows, args.format, out)
    return 0


def cmd_verify(args, out) -> int:
    results = acceptance.run_all(
        numbers=args.criteria, slow=args.slow, echo=lambda line: out.write(line + "\n")
    )
    return 0 if all(r.passed for r in results) else 1


def _criteria(text: str) -> tuple[int, ...]:
    numbers, known = parse_ints(text, ","), [n for n, _ in acceptance.CRITERIA]
    if unknown := ",".join(str(n) for n in sorted(set(numbers) - set(known))):
        raise InvalidTypeError(f"no criterion {unknown}; criteria are {known[0]}..{known[-1]}")
    return numbers


def _usage(parse, *args):
    """parse(text, *args) as an argparse type: its InvalidTypeError exits 2 as
    a usage error that names the argument."""
    def convert(text: str):
        try:
            return parse(text, *args)
        except InvalidTypeError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purecycle",
        description="Hurwitz numbers, braid orbits and characteristic-p "
        "reduction counts for genus-0 pure-cycle covers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=FORMATS, default="table")

    p = sub.add_parser("hurwitz", help="Hurwitz number of a type")
    p.add_argument("type", help="e.g. 5:2,2,4,4 or 7:3-3,3,7")
    p.add_argument("--mode", choices=("formula", "brute", "both"), default="both")
    p.add_argument("--list", action="store_true",
                   help="emit the enumerated factorizations as JSON lines instead "
                   "(no --format or --mode)")
    add_common(p)
    p.set_defaults(fn=cmd_hurwitz)

    p = sub.add_parser("braid", help="braid orbits of a 4-point type")
    p.add_argument("type")
    add_common(p)
    p.set_defaults(fn=cmd_braid)

    p = sub.add_parser("admissible", help="admissible-cover taxonomy")
    p.add_argument("type")
    p.add_argument("--char", type=int, default=None, metavar="P",
                   help="annotate with the characteristic-P reduction census")
    add_common(p)
    p.set_defaults(fn=cmd_admissible)

    p = sub.add_parser("charp", help="characteristic-p counts for a type")
    p.add_argument("type", help="degree must be the prime, e.g. 7:3,3,5,5")
    add_common(p)
    p.set_defaults(fn=cmd_charp)

    p = sub.add_parser("defdatum", help="coefficient polynomial c and its roots")
    p.add_argument("p", type=int)
    p.add_argument("exponents", type=_usage(parse_ints, ","), help="a1,a2,a3,a4 summing to 2(p-1)")
    add_common(p)
    p.set_defaults(fn=cmd_defdatum)

    p = sub.add_parser("tails", help="tail invariants h, m, sigma")
    p.add_argument("p", type=int)
    p.add_argument("tail_class", type=_usage(parse_ints, "-"), help="e or e1-e2")
    add_common(p)
    p.set_defaults(fn=cmd_tails)

    p = sub.add_parser("group", help="analyze a generator data file")
    p.add_argument("file")
    p.add_argument("--census", action="store_true", help="add a cycle-type census")
    p.add_argument("--census-cap", type=int, default=10**6)
    add_common(p)
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--criteria", type=_usage(_criteria), default=None,
                   help="comma-separated subset, e.g. 1,4,8")
    p.add_argument("--slow", action="store_true", help="include the slow M_23 census")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes an argument that begins with a single '-' for an option;
    # one that holds a ':', such as the type -1:8,6, is none and goes behind '--'
    dashed = [a for a in argv if a[:1] == "-" and a[1:2] != "-" and ":" in a]
    if dashed and "--" not in argv:
        argv = [a for a in argv if a not in dashed] + ["--", *dashed]
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except BoundExceededError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (InvalidTypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
