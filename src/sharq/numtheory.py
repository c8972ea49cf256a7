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


def smallest_prime_factor(value: int) -> int:
    value = as_int(value, "value")
    if value < 2:
        raise InvalidParameterError(f"need an integer >= 2, got {value}")
    if value % 2 == 0:
        return 2
    d = 3
    while d * d <= value:
        if value % d == 0:
            return d
        d += 2
    return value


def is_prime(value: int) -> bool:
    return as_int(value, "value") >= 2 and smallest_prime_factor(value) == value


def is_prime_power(value: int) -> bool:
    """True iff value == p**k for a prime p and k >= 1."""
    value = as_int(value, "value")
    if value < 2:
        return False
    p = smallest_prime_factor(value)
    while value % p == 0:
        value //= p
    return value == 1
