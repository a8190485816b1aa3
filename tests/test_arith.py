import pytest

from purecycle.arith import MAX_PRIME, is_prime, require_prime
from purecycle.errors import BoundExceededError, InvalidTypeError


def test_is_prime_matches_sieve():
    limit = 2000
    sieve = [False, False] + [True] * (limit - 2)
    for q in range(2, limit):
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(range(q * q, limit, q))
    assert [n for n in range(-3, limit) if is_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]


@pytest.mark.parametrize("n", [0, 1, 4, 91])
def test_require_prime_rejects(n):
    with pytest.raises(InvalidTypeError, match=f"{n} is not prime"):
        require_prime(n)


def test_primality_bound():
    require_prime(999999999989)  # the largest prime up to MAX_PRIME
    for check in (is_prime, require_prime):
        with pytest.raises(BoundExceededError):
            check(MAX_PRIME + 1)  # refused before any trial division
