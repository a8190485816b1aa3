"""Integer arithmetic shared by the modules: primality and the prime-degree
check that every characteristic-p computation starts with."""
from __future__ import annotations

import math
from functools import lru_cache

from .errors import BoundExceededError, InvalidTypeError

# Trial division of the largest prime below this bound, 999999999989, takes
# under 0.1 s; at 10^16 it takes over 8 s (2-core Xeon, Python 3.11).
MAX_PRIME = 10**12


@lru_cache(maxsize=1024, typed=True)
def is_prime(n: int) -> bool:
    """Trial division, cached: callers ask about the same few primes millions
    of times (every ``FpPoly`` checks its modulus).  Refused above MAX_PRIME,
    before any division; a cache hit skips the check."""
    if n > MAX_PRIME:
        raise BoundExceededError(f"{n} exceeds the primality bound {MAX_PRIME}")
    if n < 2:
        return False
    return all(n % q for q in range(2, math.isqrt(n) + 1))


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise InvalidTypeError(f"{p} is not prime")
