"""Integer arithmetic shared by the modules: primality and the prime-degree
check that every characteristic-p computation starts with."""
from __future__ import annotations

import math
from functools import lru_cache

from .errors import InvalidTypeError


@lru_cache(maxsize=1024, typed=True)
def is_prime(n: int) -> bool:
    """Trial division, cached: callers ask about the same few primes millions
    of times (every ``FpPoly`` checks its modulus)."""
    if n < 2:
        return False
    return all(n % q for q in range(2, math.isqrt(n) + 1))


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise InvalidTypeError(f"{p} is not prime")
