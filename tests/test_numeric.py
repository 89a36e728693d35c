import numpy as np
import pytest

from convtransfer.numeric import Rng


def test_rand_uniform_deterministic():
    a = Rng(123).uniform(-1.0, 1.0, (5, 7))
    b = Rng(123).uniform(-1.0, 1.0, (5, 7))
    assert np.array_equal(a, b)


def test_rand_uniform_range():
    m = Rng(9).uniform(0.25, 0.75, (20, 20))
    assert np.all(m >= 0.25) and np.all(m < 0.75)


def test_rand_uniform_mean_law_of_large_numbers():
    m = Rng(1).uniform(0.0, 1.0, (100, 100))
    assert abs(m.mean() - 0.5) < 0.02


def test_rand_uniform_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Rng(0).uniform(1.0, 1.0, (2, 2))
    with pytest.raises(ValueError):
        Rng(0).uniform(2.0, 1.0, (2, 2))


def test_rng_rejects_out_of_range_seed():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2**64)
