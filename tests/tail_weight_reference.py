"""The tests' one sum of the tail weights at n = 10 through l = 10^5, read
by tests/test_sequences.py and criterion 09: the 10^5 mpf terms take seconds,
so they are summed once per test session."""

import functools

from hardyz.sequences import tail_weight_sum


@functools.cache
def tail_weight_sum_to_1e5():
    """tail_weight_sum(10, 10**5, prec=64): (partial sum, tail bound)."""
    return tail_weight_sum(10, 10 ** 5, prec=64)
