import statistics

import pytest

from stats import MIN_BEYOND, mean, median, percentile, quartiles, tail


def test_mean_median_and_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert median(values) == 4.0
    assert median([]) == 0.0
    assert mean(values) == statistics.fmean(values)
    assert mean([]) == 0.0
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == (50, 50)
    assert percentile(values, 99) == (99, 99)
    assert percentile(values, 99.5) == (100, 100)
    assert percentile([3.0], 50) == (3.0, 1)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 0)


@pytest.mark.parametrize(
    "n, p",
    [
        (19, None),  # the median has 9 samples beyond it
        (20, 50.0),
        (39, 50.0),  # p75 is rank 30: 9 beyond
        (40, 75.0),
        (100, 90.0),  # p95 is rank 95: 5 beyond
        (200, 95.0),
        (1000, 99.0),
        (9999, 99.0),  # p99.9 is rank 9990: 9 beyond
        (10000, 99.9),
    ],
)
def test_tail_needs_ten_samples_beyond(n, p):
    t = tail([float(i) for i in range(n)])
    assert t["p"] == p and t["n"] == n
    if p is not None:
        assert t["beyond"] >= MIN_BEYOND
        assert t["value"] == percentile(range(n), p)[0]


def test_tail_of_no_samples():
    assert tail([]) == {"p": None, "n": 0}
