import random
import shutil
from array import array
from functools import partial
from types import SimpleNamespace

import pytest

from pdnetsim import _kernel, gini, metrics

from conftest import gini_oracle


def test_uniform_vector_is_perfect_equality():
    assert gini([100, 100, 100, 100]) == 0.0


def test_small_vector_matches_pairwise_oracle_value():
    # sum of |x_i - x_j| over ordered pairs = 20; 20 / (2 * 4 * 10) = 0.25
    assert gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)
    assert gini_oracle([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)


def test_single_holder_closed_form():
    # one node owns everything: G = (n - 1) / n
    assert gini([0, 0, 0, 10]) == pytest.approx(0.75, abs=1e-12)
    for n in (2, 5, 17, 100):
        vec = [0] * (n - 1) + [123]
        assert gini(vec) == pytest.approx((n - 1) / n, abs=1e-12)


def test_all_zero_vector_counts_as_equality():
    assert gini([0, 0, 0, 0]) == 0.0
    assert gini_oracle([0, 0, 0, 0]) == 0.0


def test_oracle_trivial_pair():
    assert gini_oracle([5, 5]) == 0.0


def test_empty_vector_rejected():
    with pytest.raises(ValueError):
        gini([])
    with pytest.raises(ValueError):
        gini_oracle([])


def test_negative_balance_rejected():
    with pytest.raises(ValueError):
        gini([3, -1])
    with pytest.raises(ValueError):
        gini_oracle([3, -1])


def test_formula_matches_oracle_on_random_vectors():
    rng = random.Random(123)
    for _ in range(1000):
        n = rng.randint(1, 200)
        vec = [rng.randint(0, 10**6) for _ in range(n)]
        if rng.random() < 0.1:  # force some zero-heavy vectors
            vec = [x if rng.random() < 0.3 else 0 for x in vec]
        assert abs(gini(vec) - gini_oracle(vec)) <= 1e-12


def test_scale_invariance():
    rng = random.Random(7)
    for _ in range(50):
        vec = [rng.randint(0, 1000) for _ in range(rng.randint(2, 60))]
        for c in (2, 7, 1000):
            assert gini([c * x for x in vec]) == pytest.approx(gini(vec), abs=1e-12)


def test_permutation_invariance():
    rng = random.Random(8)
    for _ in range(50):
        vec = [rng.randint(0, 1000) for _ in range(rng.randint(2, 60))]
        shuffled = vec[:]
        rng.shuffle(shuffled)
        assert gini(shuffled) == gini(vec)


def test_range_bound():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 80)
        vec = [rng.randint(0, 10**6) for _ in range(n)]
        g = gini(vec)
        assert 0.0 <= g <= (n - 1) / n < 1.0


def test_n_pads_with_zeros():
    rng = random.Random(10)
    for _ in range(300):
        values = [rng.randint(0, 10**6) for _ in range(rng.randint(0, 60))]
        n = len(values) + rng.randint(0, 200)
        if n == 0:
            continue
        assert gini(values, n) == gini(values + [0] * (n - len(values)))
    assert gini([], 5) == 0.0
    assert gini([0, 0], 5) == 0.0
    assert gini([7], 4) == 0.75
    with pytest.raises(ValueError):
        gini([1, 2, 3], 2)
    with pytest.raises(ValueError):
        gini([], 0)


@pytest.mark.parametrize("big", [10**15, 10**19])
def test_exact_beyond_int64(big):
    # z zeros and k equal holders: G = z / n exactly. At 10**15 the int64
    # weighted sum overflows; at 10**19 a balance does not fit int64 at all.
    assert gini([0] * 2000 + [big] * 2039) == 2000 / 4039
    assert gini([big] * 2039, 4039) == 2000 / 4039
    assert gini_oracle([0] * 100 + [big] * 100) == 0.5
    rng = random.Random(big % 1000)
    for _ in range(30):
        vec = [rng.randint(0, big) for _ in range(rng.randint(2, 150))]
        assert gini(vec) == pytest.approx(gini_oracle(vec), abs=1e-12)


# --- the compiled route (pd_gini in _pass.c) --------------------------------

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc)")


@pytest.fixture
def library():
    """The compiled kernel; wherever a C compiler exists it must load."""
    library, reason = _kernel.load()
    assert library is not None, reason
    return library


def _vectors():
    """(values, n) pairs that vary the length, the zero padding, the bytes
    the maximum uses (so the number of radix passes) and the input order."""
    rng = random.Random(2024)
    lengths = [1, 2, 3, 255, 256, 257, 5000] + [rng.randint(1, 5000) for _ in range(60)]
    for i, m in enumerate(lengths):
        bits = (1, 7, 8, 9, 16, 17, 31, 33, 48, 62)[i % 10]
        values = [rng.randint(0, 2**bits) for _ in range(m)]
        if i % 4 == 1:
            values = [v if rng.random() < 0.2 else 0 for v in values]
        elif i % 4 == 2:
            values.sort()
        elif i % 4 == 3:
            values.sort(reverse=True)
        yield values, m + (0 if i % 3 == 0 else rng.randint(1, 3 * m))
    yield [0] * 4039, 4039
    yield [0] * 10, 50
    yield [2**62] * 5000, 5000
    yield [2**62] * 5000 + [0], 9000
    yield [256 * k for k in range(1, 300)], 400  # every key shares its lowest byte


@needs_cc
def test_compiled_sums_equal_the_python_sums_bit_for_bit(library):
    for values, n in _vectors():
        expected = metrics._python_sums(values, n)
        assert metrics._kernel_sums(library, array("q", values), n) == expected
        assert gini(array("q", values), n) == gini(values, n)


@needs_cc
def test_an_int64_array_takes_the_compiled_route(library, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[1:3])
        return library.pd_gini(*args)

    monkeypatch.setattr(_kernel, "load", lambda: (SimpleNamespace(pd_gini=counting), None))
    assert gini(array("q", [0, 0, 0, 10])) == 0.75
    assert gini(array("q", [7]), 4) == 0.75
    assert calls == [(4, 4), (1, 4)]
    # Past the bound of the 128-bit sums, or not an int64 array: Python.
    assert gini(array("q", [5]), 2**64) == gini([5], 2**64) == (2**64 - 1) / 2**64
    assert gini(array("i", [1, 3])) == 0.25
    assert len(calls) == 2


@pytest.mark.parametrize("route", ["python", "compiled"])
def test_invalid_input_raises_value_error_on_both_routes(route):
    if route == "compiled" and shutil.which("cc") is None:
        pytest.skip("no C compiler (cc)")
    vector = partial(array, "q") if route == "compiled" else list
    with pytest.raises(ValueError, match="non-negative"):
        gini(vector([3, -1]))
    with pytest.raises(ValueError, match="non-negative"):
        gini(vector([-(2**63), 5, 2**63 - 1]), 10)
    with pytest.raises(ValueError, match="balances for a vector of"):
        gini(vector([1, 2, 3]), 2)
    with pytest.raises(ValueError, match="non-empty"):
        gini(vector([]), 0)
    assert gini(vector([]), 3) == 0.0


def _count_and_sort_vectors():
    """(values, n) on both sides of the bound that picks pd_gini's route:
    counts by value when R = max - min + 1 <= 4 * m and n * m < 2**63, a
    radix sort otherwise. Each vector holds its min and max, so R is exact."""
    rng = random.Random(4039)

    def spread(m, low, r):  # m values in [low, low + r), both ends present
        values = [low, low + r - 1] + [low + rng.randrange(r) for _ in range(m - 2)]
        rng.shuffle(values)
        return values

    for _ in range(60):
        m = rng.randint(2, 3000)
        low = rng.choice([0, 1, rng.randrange(10**6), rng.randrange(2**62)])
        r = rng.randint(1, 4 * m) if rng.random() < 0.5 else rng.randint(4 * m + 1, 64 * m)
        yield spread(m, low, r), m + rng.choice([0, 1, rng.randint(1, 3 * m)])
    for m in (2, 7, 1000, 4039):
        for r in (4 * m, 4 * m + 1):  # the bound itself, and one past it
            yield spread(m, rng.randrange(10**6), r), m + rng.randint(0, m)
    yield [5] * 300, 300  # R = 1
    yield [5] * 300, 1000
    yield [0] * 300, 700  # all zero
    yield [0], 1
    yield [9], 1  # m = 1
    yield [123456789], 10**9
    yield [2**63 - 1] * 50, 50  # near 2**63 in a narrow range: counted
    yield spread(40, 2**63 - 3 * 40, 3 * 40), 100
    yield [0, 2**63 - 1], 2  # near 2**63 in a wide range: sorted
    yield spread(500, 2**63 - 2**40, 2**40), 2000
    yield [2**63 - 1 - rng.randrange(2**62) for _ in range(300)], 301
    yield [3, 4], 2**62 - 1  # n * m just below 2**63: counted
    yield [3, 4], 2**62  # n * m = 2**63: sorted
    yield [2**63 - 1, 2**63 - 2], 2**62


@needs_cc
def test_counted_and_sorted_sums_equal_the_python_sums_bit_for_bit(library):
    for values, n in _count_and_sort_vectors():
        expected = metrics._python_sums(values, n)
        assert metrics._kernel_sums(library, array("q", values), n) == expected, (len(values), n)
