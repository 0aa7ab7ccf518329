"""Inequality metrics over agent balance vectors.

``gini`` is exact for integers of any size: it sums in Python integers, or
in C (``pd_gini`` in ``_pass.c``) in 128 bits where no sum can leave them.
Either way ``gini_of_sums`` turns the two integer sums into the float; the
engine's kernel path, which takes the sums in ``pd_run``, calls it too.
"""

from array import array
from operator import index, mul

from . import _kernel

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
    return gini_of_sums(weighted, total, n)


def gini_of_sums(weighted: int, total: int, n: int) -> float:
    """The Gini of n balances from their weighted rank sum and their total,
    both exact integers: 0.0 when the total is 0 (every balance zero)."""
    return weighted / (n * total) if total else 0.0


def _python_sums(values, n: int) -> tuple[int, int]:
    """(weighted rank sum, total) of `values` padded to n with zeros."""
    x = sorted(map(index, values))
    if x[0] < 0:
        raise ValueError("gini requires non-negative balances")
    m = len(x)
    return sum(map(mul, range(n - 2 * m + 1, n, 2), x)), sum(x)  # 2*i - n - 1 for ranks n-m+1 .. n


def _kernel_sums(kernel, values: array, n: int) -> tuple[int, int]:
    """`_python_sums` in C, for an int64 array with n * len(values) < 2**64."""
    scratch = array("Q", [0]) * (2 * len(values))  # pd_gini's working memory
    out = array("Q", [0, 0, 0, 0])
    if kernel.pd_gini(values.buffer_info()[0], len(values), n, scratch.buffer_info()[0], out.buffer_info()[0]) == -1:
        raise ValueError("gini requires non-negative balances")
    return out[1] << 64 | out[0], out[3] << 64 | out[2]
