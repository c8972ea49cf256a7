"""Classical number-theory helpers for the factoring driver."""
from __future__ import annotations

import math

from .errors import InvalidParameterError, as_int


def gcd(a: int, b: int) -> int:
    """Greatest common divisor via the Euclidean algorithm."""
    a, b = as_int(a, "gcd argument"), as_int(b, "gcd argument")
    if a == 0 and b == 0:
        raise InvalidParameterError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def mod_pow(m: int, x: int, modulus: int) -> int:
    """m**x mod modulus by square-and-multiply; intermediates stay below modulus**2."""
    m, x, modulus = as_int(m, "base"), as_int(x, "exponent"), as_int(modulus, "modulus")
    if modulus <= 1:
        raise InvalidParameterError(f"modulus must exceed 1, got {modulus}")
    if x < 0:
        raise InvalidParameterError("exponent must be non-negative")
    return pow(m, x, modulus)


def bits_to_express(value: int) -> int:
    """Minimal bit width of a positive integer."""
    value = as_int(value, "value")
    if value < 1:
        raise InvalidParameterError(f"need a positive integer, got {value}")
    return value.bit_length()


# Miller-Rabin to these bases, the first 13 primes, is exact below ψ13 =
# 3317044064679887385961981 (Sorenson and Webster, arXiv:1509.00864). The first
# twelve are not enough: ψ12 = 318665857834031151167461 passes every base up to 37.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(value: int) -> bool:
    """Whether ``value`` is prime, by Miller-Rabin to the first 13 primes as bases.

    Exact below 3.3e24, which holds every N a simulated register can hold
    (under 2**62), in microseconds to about a millisecond. Past that bound the
    answer is a strong probable-prime test's: a composite that passes every
    base would be called prime.
    """
    value = as_int(value, "value")
    if value < 2:
        return False
    for p in _WITNESSES:
        if value % p == 0:
            return value == p
    s = ((value - 1) & -(value - 1)).bit_length() - 1  # value - 1 == d * 2**s, d odd
    d = (value - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, value)
        if x == 1 or x == value - 1:
            continue
        for _ in range(s - 1):
            x = x * x % value
            if x == value - 1:
                break
        else:
            return False
    return True


def _integer_root(value: int, k: int) -> int:
    """floor(value ** (1/k)) for value >= 1, by Newton's method on ints (floats
    are not exact past 2**53)."""
    root = 1 << -(-value.bit_length() // k)  # 2**ceil(bits/k), at least the root
    while True:
        step = ((k - 1) * root + value // root ** (k - 1)) // k
        if step >= root:
            return root
        root = step


def is_prime_power(value: int) -> bool:
    """True iff value == p**k for a prime p and k >= 1."""
    value = as_int(value, "value")
    if value < 2:
        return False
    # the largest k with an exact k-th root (k = 1 always has one) leaves a root
    # that is no perfect power itself
    for k in range(value.bit_length() - 1, 0, -1):
        root = _integer_root(value, k)
        if root ** k == value:
            return is_prime(root)
