"""Per-layer tracing of purecycle, installed from outside the package.

The tracer replaces a fixed list of purecycle functions with wrappers.  The
package binds names with ``from .x import y``, so a wrapper has to replace the
name in every *calling* module, not only where the function is defined:
``purecycle.braid.enumerate_factorizations``, ``purecycle.cli.main`` and so
on.  Nothing under ``src/`` changes.

There are four kinds of boundary:

* ``SPAN``: each call records a span (name, start, end, parent, op id) in
  memory.  A span's self time is its duration minus the time covered by its
  child spans and by timed children (below).
* ``TIMED``: calls and seconds are accumulated and the seconds are charged to
  the enclosing span as child time, but no span is kept.  For
  ``lucas_binomial``, which runs about 10^5 times per run.
* ``COUNT``: calls only.  For boundaries that run millions of times
  (``conjugate``, ``cycle_lengths``, ``is_prime``, ``FpPoly`` construction),
  where a span or a clock read per call would swamp the self times.  Their
  time stays in the caller's self time.  The input checks of ``CycleType``
  and ``KummerData`` are wrapped the same way, so that invalid input counts
  in ``perm.errors`` and ``fppoly.errors``.
* ``GEN_TIMED`` / ``GEN_COUNT``: generators.  ``all_of_type`` is timed per
  element; the search generators only count the raw tuples they yield.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

SPAN, TIMED, COUNT, GEN_TIMED, GEN_COUNT = "span", "timed", "count", "gen_timed", "gen_count"

# (target, metric name, kind, modules that get the wrapper)
# The target is "module:attr" or "module:Class.method".  ``None`` for the
# modules means every purecycle module whose attribute is the original object.
BOUNDARIES = (
    ("purecycle.cli:main", "cli.main", SPAN, None),
    ("purecycle.hurwitz:hurwitz_number_brute", "hurwitz.brute", SPAN, None),
    ("purecycle.hurwitz:enumerate_factorizations", "hurwitz.enumerate", SPAN, None),
    ("purecycle.hurwitz:canonical_form", "hurwitz.canonical_form", SPAN, None),
    ("purecycle.hurwitz:_search_r3", "hurwitz.raw_tuples", GEN_COUNT, ("purecycle.hurwitz",)),
    ("purecycle.hurwitz:_search_r4", "hurwitz.raw_tuples", GEN_COUNT, ("purecycle.hurwitz",)),
    ("purecycle.hurwitz:_search_generic", "hurwitz.raw_tuples", GEN_COUNT, ("purecycle.hurwitz",)),
    ("purecycle.perm:all_of_type", "perm.all_of_type", GEN_TIMED, ("purecycle.hurwitz",)),
    ("purecycle.perm:centralizer_elements", "perm.centralizer_elements", SPAN, ("purecycle.hurwitz",)),
    ("purecycle.perm:cycle_lengths", "perm.cycle_lengths", COUNT, ("purecycle.hurwitz",)),
    ("purecycle.perm:conjugate", "perm.conjugate", COUNT, ("purecycle.hurwitz",)),
    ("purecycle.perm:CycleType.__post_init__", "perm.CycleType.check", COUNT, None),
    ("purecycle.braid:braid_orbits", "braid.orbits", SPAN, None),
    ("purecycle.braid:braid_q3", "braid.q3", COUNT, None),
    ("purecycle.braid:degenerate", "braid.degenerate", SPAN, None),
    ("purecycle.braid:admissible_enumerate_char0", "braid.admissible", SPAN, None),
    ("purecycle.group:StabilizerChain.__init__", "group.chain", SPAN, None),
    ("purecycle.group:group_analyze", "group.analyze", SPAN, None),
    ("purecycle.group:cycle_type_census", "group.census", SPAN, None),
    ("purecycle.group:_census_batched", "group.census.batched", COUNT, ("purecycle.group",)),
    ("purecycle.group:load_generators", "group.load", SPAN, None),
    ("purecycle.fppoly:cartier_coefficient", "fppoly.cartier", SPAN, None),
    ("purecycle.fppoly:supersingular_lambdas", "fppoly.supersingular", SPAN, None),
    ("purecycle.fppoly:fp_roots", "fppoly.roots", SPAN, None),
    ("purecycle.fppoly:irreducible_factor_degrees", "fppoly.factor", SPAN, None),
    ("purecycle.fppoly:tail_polynomial_double", "fppoly.tail_poly", SPAN, None),
    ("purecycle.fppoly:ramification_profile", "fppoly.ramification_profile", SPAN, None),
    ("purecycle.fppoly:lucas_binomial", "fppoly.lucas_binomial", TIMED, None),
    ("purecycle.fppoly:FpPoly.__init__", "fppoly.FpPoly.new", COUNT, None),
    ("purecycle.fppoly:KummerData.__post_init__", "fppoly.KummerData.check", COUNT, None),
    ("purecycle.hurwitz:is_prime", "fppoly.is_prime", COUNT, ("purecycle.fppoly", "purecycle.charp")),
    ("purecycle.charp:tail_invariants", "charp.tail_invariants", SPAN, None),
    ("purecycle.charp:tail_aut_orders", "charp.tail_aut_orders", SPAN, None),
    ("purecycle.charp:signature_check", "charp.signature_check", SPAN, None),
    ("purecycle.charp:admissible_reduction_census", "charp.reduction_census", SPAN, None),
    ("purecycle.charp:good_degeneration", "charp.good_degeneration", SPAN, None),
    ("purecycle.charp:p_hurwitz_pure4", "charp.p_hurwitz_pure4", SPAN, None),
    ("purecycle.charp:p_hurwitz_3pt_badtype", "charp.p_hurwitz_3pt_badtype", SPAN, None),
    ("purecycle.charp:bad_count_2cycle", "charp.bad_count_2cycle", SPAN, None),
)

LAYERS = ("perm", "group", "hurwitz", "braid", "charp", "fppoly", "cli")

perf = time.perf_counter


class Stat:
    __slots__ = ("calls", "s", "self_s", "elems")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.elems = 0


class _Frame:
    __slots__ = ("sid", "layer", "child")

    def __init__(self, sid, layer):
        self.sid = sid
        self.layer = layer
        self.child = 0.0


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Installs the wrappers, keeps spans and counters, and restores the
    original functions on ``uninstall``."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id, ok)
        self.stats: dict[str, Stat] = {}
        self.layers: dict[str, Stat] = {layer: Stat() for layer in LAYERS}
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.types: set = set()
        self.stack: list[_Frame] = []
        self.op = -1
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for target, name, kind, modules in BOUNDARIES:
            owner_name, attr = target.split(":")
            owner = importlib.import_module(owner_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                sites = [owner]
            else:
                original = getattr(owner, attr)
                if modules is None:
                    sites = [
                        mod for mname, mod in sorted(sys.modules.items())
                        if (mname == "purecycle" or mname.startswith("purecycle."))
                        and getattr(mod, attr, None) is original
                    ]
                else:
                    sites = [importlib.import_module(m) for m in modules]
            wrapper = getattr(self, "_wrap_" + kind)(original, name)
            for site in sites:
                self._patched.append((site, attr, original))
                setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patched):
            setattr(site, attr, original)
        self._patched.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap_span(self, fn, name):
        layer = _layer(name)
        st = self.stat(name)
        lst = self.layers[layer]
        stack = self.stack
        spans = self.spans
        on_result = self._hooks().get(name)
        on_call = self.types.add if name == "hurwitz.enumerate" else None

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args[0])
            parent = stack[-1] if stack else None
            frame = _Frame(self._next_id, layer)
            self._next_id += 1
            stack.append(frame)
            ok = False
            start = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                own = dur - frame.child
                st.calls += 1
                st.s += dur
                st.self_s += own
                lst.self_s += own
                outer = parent is None or parent.layer != layer
                if parent is not None:
                    parent.child += dur
                if outer:
                    lst.calls += 1
                    lst.s += dur
                    if not ok:
                        self.errors[layer] += 1
                spans.append((frame.sid, name, start, end,
                              parent.sid if parent else -1, self.op, ok))
            if on_result is not None:
                on_result(st, args, result)
            return result

        return wrapper

    def _wrap_timed(self, fn, name):
        layer = _layer(name)
        st = self.stat(name)
        lst = self.layers[layer]
        stack = self.stack

        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if not stack or stack[-1].layer != layer:
                    self.errors[layer] += 1
                raise
            finally:
                dur = perf() - start
                st.calls += 1
                st.s += dur
                lst.self_s += dur
                if stack:
                    stack[-1].child += dur

        return wrapper

    def _wrap_count(self, fn, name):
        layer = _layer(name)
        st = self.stat(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            st.calls += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if not stack or stack[-1].layer != layer:
                    self.errors[layer] += 1
                raise

        return wrapper

    def _wrap_gen_timed(self, fn, name):
        layer = _layer(name)
        st = self.stat(name)
        lst = self.layers[layer]
        stack = self.stack

        def wrapper(*args, **kwargs):
            st.calls += 1
            it = fn(*args, **kwargs)
            while True:
                start = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = perf() - start
                    st.s += dur
                    lst.self_s += dur
                    if stack:
                        stack[-1].child += dur
                st.elems += 1
                yield item

        return wrapper

    def _wrap_gen_count(self, fn, name):
        st = self.stat(name)

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                st.calls += 1
                yield item

        return wrapper

    def _hooks(self):
        def elems_hook(st, args, result):
            st.elems += len(result)

        def census_hook(st, args, result):
            st.elems += sum(result.values())

        return {
            "hurwitz.enumerate": elems_hook,
            "perm.centralizer_elements": elems_hook,
            "group.census": census_hook,
        }

    # -- reporting ---------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer figures.  Counts and seconds are per traced op, so that
        runs of different lengths compare; ratios are over the whole run."""
        def get(name, field):
            st = self.stats.get(name)
            return getattr(st, field) if st else 0

        def ratio(a, b):
            return a / b if b else 0.0

        per = 1.0 / ops
        raw = get("hurwitz.raw_tuples", "calls")
        classes = get("hurwitz.enumerate", "elems")
        candidates = get("perm.cycle_lengths", "calls")
        census_s = get("group.census", "s")
        out = {
            "perm.all_of_type.elems": get("perm.all_of_type", "elems") * per,
            "perm.all_of_type.s": get("perm.all_of_type", "s") * per,
            "perm.cycle_lengths.calls": candidates * per,
            "perm.conjugate.calls": get("perm.conjugate", "calls") * per,
            "perm.centralizer_elements.calls": get("perm.centralizer_elements", "calls") * per,
            "perm.centralizer_elements.elems": get("perm.centralizer_elements", "elems") * per,
            "hurwitz.enumerate.calls": get("hurwitz.enumerate", "calls") * per,
            "hurwitz.enumerate.s": get("hurwitz.enumerate", "s") * per,
            "hurwitz.enumerate.self_s": get("hurwitz.enumerate", "self_s") * per,
            "hurwitz.raw_tuples": raw * per,
            "hurwitz.classes": classes * per,
            "hurwitz.filter_yield": ratio(raw, candidates),
            "hurwitz.dedup_ratio": ratio(classes, raw),
            "hurwitz.enumerate.distinct_frac": ratio(len(self.types), get("hurwitz.enumerate", "calls")),
            "hurwitz.canonical_form.calls": get("hurwitz.canonical_form", "calls") * per,
            "hurwitz.canonical_form.s": get("hurwitz.canonical_form", "s") * per,
            "braid.orbits.calls": get("braid.orbits", "calls") * per,
            "braid.orbits.s": get("braid.orbits", "s") * per,
            "braid.orbits.self_s": get("braid.orbits", "self_s") * per,
            "braid.q3.calls": get("braid.q3", "calls") * per,
            "group.chain.calls": get("group.chain", "calls") * per,
            "group.chain.s": get("group.chain", "s") * per,
            "group.analyze.s": get("group.analyze", "s") * per,
            "group.census.calls": get("group.census", "calls") * per,
            "group.census.s": census_s * per,
            "group.census.elems": get("group.census", "elems") * per,
            "group.census.elems_per_s": ratio(get("group.census", "elems"), census_s),
            "group.census.batched_calls": get("group.census.batched", "calls") * per,
            "fppoly.cartier.calls": get("fppoly.cartier", "calls") * per,
            "fppoly.cartier.s": get("fppoly.cartier", "s") * per,
            "fppoly.lucas_binomial.calls": get("fppoly.lucas_binomial", "calls") * per,
            "fppoly.lucas_binomial.s": get("fppoly.lucas_binomial", "s") * per,
            "fppoly.factor.s": get("fppoly.factor", "s") * per,
            "fppoly.roots.s": get("fppoly.roots", "s") * per,
            "fppoly.tail_poly.s": get("fppoly.tail_poly", "s") * per,
            "fppoly.ramification_profile.s": get("fppoly.ramification_profile", "s") * per,
            "fppoly.FpPoly.new": get("fppoly.FpPoly.new", "calls") * per,
            "fppoly.is_prime.calls": get("fppoly.is_prime", "calls") * per,
            "charp.calls": self.layers["charp"].calls * per,
            "charp.s": self.layers["charp"].s * per,
            "charp.self_s": self.layers["charp"].self_s * per,
            "charp.tail_invariants.calls": get("charp.tail_invariants", "calls") * per,
            "cli.main.calls": get("cli.main", "calls") * per,
            "cli.main.s": get("cli.main", "s") * per,
            "cli.self_s": self.layers["cli"].self_s * per,
        }
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer] * per
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: [id, name, start, end, parent, op, ok]."""
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
