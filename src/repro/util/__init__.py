"""Low-level utilities: bit manipulation, Gray codes, validation helpers,
atomic file publication."""

from repro.util.bits import (
    bit,
    gray_code,
    gray_code_inverse,
    hamming_distance,
    is_power_of_two,
    is_power_of_eight,
    is_perfect_cube_pow2,
    is_perfect_square_pow2,
    ilog2,
    icbrt_pow2,
    isqrt_pow2,
    popcount,
    set_bits,
)
from repro.util.files import atomic_write

__all__ = [
    "atomic_write",
    "bit",
    "gray_code",
    "gray_code_inverse",
    "hamming_distance",
    "is_power_of_two",
    "is_power_of_eight",
    "is_perfect_cube_pow2",
    "is_perfect_square_pow2",
    "ilog2",
    "icbrt_pow2",
    "isqrt_pow2",
    "popcount",
    "set_bits",
]
