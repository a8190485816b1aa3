"""Fresh-process set-up of purecycle, timed from inside the process.

Covers importing purecycle (and numpy with it), loading the shipped generator
files and one first call into each layer.  Interpreter start-up is not
included.  Prints the elapsed seconds.  Usage: ``python3 setup_probe.py ROOT``.
"""
import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

root = Path(sys.argv[1])
sys.path.insert(0, str(root / "src"))

import purecycle.cli as CLI  # noqa: E402
from purecycle import (  # noqa: E402
    KummerData, RamificationType, braid_orbits, cartier_coefficient, group_analyze,
    hurwitz_number_brute, irreducible_factor_degrees, load_generators, tail_invariants,
)

generators = [load_generators(root / "src" / "purecycle" / "data" / f"{name}.txt")[1]
              for name in ("m11", "pgammal2_16", "m23")]
t = RamificationType.parse("5:2,2,4,4")
hurwitz_number_brute(t)
braid_orbits(t)
irreducible_factor_degrees(cartier_coefficient(KummerData(13, (6, 6, 6, 6))))
tail_invariants(7, (3,))
group_analyze(generators[0])
with contextlib.redirect_stdout(io.StringIO()):
    CLI.main(["tails", "7", "3"])

print(time.perf_counter() - START)
