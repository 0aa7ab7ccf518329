import random

import pytest

from pdnetsim import gini, gini_oracle


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
