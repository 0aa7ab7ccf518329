"""Inequality metrics over agent balance vectors.

Two independent routes to the same number are provided on purpose:
``gini`` is the fast ranked form used by the simulation loop, and
``gini_oracle`` is the O(n^2) mean-absolute-difference form kept as a
cross-check in the test suite. They agree to ~1e-12 on integer inputs.

``gini`` is exact for integers of any size: it sums in Python integers, or
in C (``pd_gini`` in ``_pass.c``) in 128 bits where no sum can leave them,
and divides the two integer sums in Python either way.
"""

from array import array
from operator import index, mul

from . import _kernel

_INT64_LIMIT = 2**63
_UINT64_LIMIT = 2**64


def gini(values, n=None) -> float:
    """Gini coefficient of n non-negative integer balances.

    `values` holds the balances; when `n` is given and larger than
    len(values), the other n - len(values) balances are zeros. Callers that
    know most balances are zero pass only the rest: the zeros take the
    lowest ranks, so their offset n - len(values) is added to every rank
    and the weighted sum below is the same integer, and so the same float,
    as for the zero-padded vector. `n` defaults to len(values).

    It is the weighted-rank form over the ascending order

        G = sum_i (2*i - n - 1) * x_i / (n * sum(x))      (1-based rank i)

    evaluated with exact integer accumulation before the final division.
    Python sorts the values to rank them; the kernel counts them by value
    when they span a narrow range and radix-sorts them otherwise.
    Returns a value in [0, 1). An all-zero vector counts as perfect
    equality (every pairwise difference is zero) and returns 0.0.

    An int64 ``array`` (typecode "q") is summed by the compiled kernel when
    it loads; anything else, or any input the kernel cannot take, by the
    same sums in Python. Both give the same two integers.

    Raises ValueError when n is 0, when n < len(values), or on negative
    entries.
    """
    m = len(values)
    if n is None:
        n = m
    if n == 0:
        raise ValueError("gini requires a non-empty balance vector")
    if n < m:
        raise ValueError(f"gini got {m} balances for a vector of {n}")
    if m == 0:
        return 0.0
    kernel = None
    if isinstance(values, array) and values.typecode == "q" and n * m < _UINT64_LIMIT:
        kernel = _kernel.load()[0]
    weighted, total = _python_sums(values, n) if kernel is None else _kernel_sums(kernel, values, n)
    if total == 0:
        return 0.0
    return weighted / (n * total)


def _python_sums(values, n: int) -> tuple[int, int]:
    """(weighted rank sum, total) of `values` padded to n with zeros."""
    x = sorted(map(index, values))
    if x[0] < 0:
        raise ValueError("gini requires non-negative balances")
    m = len(x)
    return sum(map(mul, range(n - 2 * m + 1, n, 2), x)), sum(x)  # 2*i - n - 1 for ranks n-m+1 .. n


def _kernel_sums(kernel, values: array, n: int) -> tuple[int, int]:
    """`_python_sums` in C, for an int64 array with n * len(values) < 2**64."""
    out = array("Q", [0, 0, 0, 0])
    status = kernel.pd_gini(values.buffer_info()[0], len(values), n, out.buffer_info()[0])
    if status == -1:
        raise ValueError("gini requires non-negative balances")
    if status != 0:
        raise MemoryError("pd_gini could not allocate its buffer")
    return out[1] << 64 | out[0], out[3] << 64 | out[2]


def gini_oracle(balances) -> float:
    """Reference Gini: average absolute difference over all balance pairs.

    Computes sum_{i,j} |x_i - x_j| / (2 * n * sum(x)) directly, without
    sorting. Quadratic in the vector length; intended for tests, not for
    per-iteration use. Accumulates in int64 only when the sums provably
    fit, and otherwise in exact Python integers. Needs numpy, which the
    simulator itself does not.
    """
    import numpy as np

    try:
        x = np.asarray(balances, dtype=np.int64)
    except OverflowError:  # an entry does not fit in 64 bits
        x = np.array([int(v) for v in balances], dtype=object)
    if x.size == 0:
        raise ValueError("gini_oracle requires a non-empty balance vector")
    if x.min() < 0:
        raise ValueError("gini_oracle requires non-negative balances")
    if x.size * x.size * int(x.max()) >= _INT64_LIMIT:  # the pair sum could leave int64
        x = x.astype(object)
    total = int(x.sum())
    if total == 0:
        return 0.0
    pair_diffs = int(np.abs(x[:, None] - x[None, :]).sum())
    return pair_diffs / (2 * x.size * total)
