"""Inequality metrics over agent balance vectors.

Two independent routes to the same number are provided on purpose:
``gini`` is the fast sorted-rank form used by the simulation loop, and
``gini_oracle`` is the O(n^2) mean-absolute-difference form kept as a
cross-check in the test suite. They agree to ~1e-12 on integer inputs.

Both accumulate in int64 only when the sums provably fit, and otherwise
in exact Python integers, so balances of any size give the right value.
"""

import numpy as np

_INT64_LIMIT = 2**63


def _int_array(values) -> np.ndarray:
    """values as an int64 array, or as exact Python ints (dtype object) when
    an entry does not fit in 64 bits."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array([int(v) for v in values], dtype=object)


def gini(values, n=None) -> float:
    """Gini coefficient of n non-negative integer balances.

    `values` holds the balances; when `n` is given and larger than
    len(values), the other n - len(values) balances are zeros. Callers that
    know most balances are zero pass only the rest: the zeros take the
    lowest ranks, so their offset n - len(values) is added to every rank
    and the weighted sum below is the same integer, and so the same float,
    as for the zero-padded vector. `n` defaults to len(values).

    The vector is sorted ascending and the weighted-rank form

        G = sum_i (2*i - n - 1) * x_i / (n * sum(x))      (1-based rank i)

    is evaluated with exact integer accumulation before the final division.
    Returns a value in [0, 1). An all-zero vector counts as perfect
    equality (every pairwise difference is zero) and returns 0.0.

    Raises ValueError when n is 0, when n < len(values), or on negative
    entries.
    """
    x = np.sort(_int_array(values))
    m = x.size
    if n is None:
        n = m
    if n == 0:
        raise ValueError("gini requires a non-empty balance vector")
    if n < m:
        raise ValueError(f"gini got {m} balances for a vector of {n}")
    if m == 0:
        return 0.0
    if x[0] < 0:
        raise ValueError("gini requires non-negative balances")
    if m * int(x[-1]) >= _INT64_LIMIT:  # the sum could leave int64
        x = x.astype(object)
    total = int(x.sum())
    if total == 0:
        return 0.0
    if n * total >= _INT64_LIMIT:  # |weighted| <= n * total
        x = x.astype(object)
    coeffs = np.arange(n - 2 * m + 1, n, 2)  # 2*i - n - 1 for ranks n-m+1 .. n
    weighted = int(np.dot(coeffs, x))
    return weighted / (n * total)


def gini_oracle(balances) -> float:
    """Reference Gini: average absolute difference over all balance pairs.

    Computes sum_{i,j} |x_i - x_j| / (2 * n * sum(x)) directly, without
    sorting. Quadratic in the vector length; intended for tests, not for
    per-iteration use.
    """
    x = _int_array(balances)
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
