import numpy as np
import pytest
from scipy.stats import chi2

from groupnets import partition
from groupnets.partition import (
    PowerLawSpec,
    SaturationError,
    SizeSequence,
    fixed_sum_realizations,
    power_law_pmf,
    sample_group_sizes,
)


def test_pmf_single_point_support():
    pmf = power_law_pmf(PowerLawSpec(support_max=3))
    assert pmf == {3: 1.0}


def test_pmf_two_point_support_hand_normalized():
    # weights 1/27 and 1/64 normalize to 64/91 and 27/91
    pmf = power_law_pmf(PowerLawSpec(support_max=4))
    assert pmf[3] == pytest.approx(64 / 91, abs=1e-12)
    assert pmf[4] == pytest.approx(27 / 91, abs=1e-12)
    assert pmf[3] == pytest.approx(0.70330, abs=5e-6)


def test_pmf_branching_support():
    pmf = power_law_pmf(PowerLawSpec(support_max=3, support_min=2))
    assert pmf[2] == pytest.approx(27 / 35, abs=1e-12)
    assert pmf[3] == pytest.approx(8 / 35, abs=1e-12)


def test_pmf_normalization_large_support():
    pmf = power_law_pmf(PowerLawSpec(support_max=2000))
    assert abs(sum(pmf.values()) - 1.0) < 1e-12
    assert len(pmf) == 1998


def test_spec_validation():
    with pytest.raises(ValueError):
        PowerLawSpec(support_max=2, support_min=3)
    with pytest.raises(ValueError):
        PowerLawSpec(support_max=10, exponent=1.5)
    with pytest.raises(ValueError):
        PowerLawSpec(support_max=10, support_min=1)


def test_fixed_sum_forced_partition():
    seq = fixed_sum_realizations({3: 1.0}, 3, np.random.default_rng(0))
    assert seq.sizes == (3,)
    assert seq.proportions == (1.0,)


def test_fixed_sum_degenerate_pmf_remainder():
    # draws [3, 3], remainder 1 goes to one element since 4 is in support
    seq = fixed_sum_realizations({3: 1.0, 4: 0.0}, 7, np.random.default_rng(1))
    assert sorted(seq.sizes) == [3, 4]
    assert seq.total == 7


def test_fixed_sum_saturation():
    with pytest.raises(SaturationError):
        fixed_sum_realizations({3: 1.0}, 7, np.random.default_rng(1))


def test_fixed_sum_too_small():
    with pytest.raises(ValueError):
        fixed_sum_realizations({3: 0.5, 4: 0.5}, 2, np.random.default_rng(0))


def test_fixed_sum_invalid_tables():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        fixed_sum_realizations({}, 5, rng)
    with pytest.raises(ValueError):
        fixed_sum_realizations({3: -0.1, 4: 1.1}, 5, rng)
    with pytest.raises(ValueError):
        fixed_sum_realizations({3: 0.0, 4: 0.0}, 5, rng)


def test_exact_sum_fuzz():
    # every seed and size must hit the total exactly, within support bounds
    rng = np.random.default_rng(1234)
    pmf_cache = {}
    for _ in range(10_000):
        n = int(rng.integers(3, 2001))
        if n not in pmf_cache:
            pmf_cache[n] = power_law_pmf(PowerLawSpec(support_max=n))
        seq = fixed_sum_realizations(pmf_cache[n], n, rng)
        assert sum(seq.sizes) == n
        assert min(seq.sizes) >= 3
        assert max(seq.sizes) <= n


def test_size_law_table_is_cached_read_only():
    # one table per spec, shared and read-only; the pmf is a fresh dict each call
    spec = PowerLawSpec(support_max=500)
    keys, cum, positive_min = partition._size_law_cdf(spec)
    assert partition._size_law_cdf(PowerLawSpec(support_max=500))[1] is cum
    assert not keys.flags.writeable and not cum.flags.writeable
    assert (keys[0], keys[-1], positive_min, cum[-1]) == (3, 500, 3, 1.0)
    pmf = power_law_pmf(spec)
    pmf[3] = 0.0
    assert power_law_pmf(spec)[3] > 0.0
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    assert sample_group_sizes(500, rng) == fixed_sum_realizations(power_law_pmf(spec), 500, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_determinism():
    a = sample_group_sizes(500, np.random.default_rng(42))
    b = sample_group_sizes(500, np.random.default_rng(42))
    assert a == b


def test_sample_group_sizes_small():
    seq = sample_group_sizes(3, np.random.default_rng(0))
    assert seq.sizes == (3,)
    assert seq.proportions == (1.0,)
    with pytest.raises(ValueError):
        sample_group_sizes(2, np.random.default_rng(0))


def test_mostly_small_groups():
    rng = np.random.default_rng(7)
    counts = {}
    for _ in range(200):
        for s in sample_group_sizes(100, rng).sizes:
            counts[s] = counts.get(s, 0) + 1
    assert max(counts, key=counts.get) == 3


def test_size_frequency_monotone():
    # 1/x^3 mass: size-3 groups beat size-4 beat size-5 in frequency
    rng = np.random.default_rng(99)
    counts = np.zeros(6)
    for _ in range(10_000):
        for s in sample_group_sizes(1000, rng).sizes:
            if s <= 5:
                counts[s] += 1
    assert counts[3] > counts[4] > counts[5]


def test_draw_frequencies_match_pmf():
    # pooled sizes from large-n sampling track the pmf (chi-square p > 0.001)
    rng = np.random.default_rng(11)
    spec = PowerLawSpec(support_max=2000)
    pmf = power_law_pmf(spec)
    observed = {}
    total = 0
    for _ in range(150):
        for s in sample_group_sizes(2000, rng).sizes:
            observed[s] = observed.get(s, 0) + 1
            total += 1
    bins = list(range(3, 10))
    obs = np.array([observed.get(b, 0) for b in bins] + [
        sum(v for k, v in observed.items() if k >= 10)
    ], dtype=float)
    expected = np.array([pmf[b] for b in bins] + [
        sum(p for k, p in pmf.items() if k >= 10)
    ]) * total
    stat = ((obs - expected) ** 2 / expected).sum()
    p = chi2.sf(stat, df=len(obs) - 1)
    assert p > 0.001, f"chi-square stat {stat:.1f}, p {p:.2e}"


def test_size_sequence_validation():
    with pytest.raises(ValueError):
        SizeSequence(sizes=(3, 3), proportions=(0.5, 0.5), total=7)
    with pytest.raises(ValueError):
        SizeSequence(sizes=(3, 4), proportions=(0.4, 0.4), total=7)
    seq = SizeSequence.from_sizes([3, 4], 7)
    assert seq.proportions == (3 / 7, 4 / 7)
    assert len(seq) == 2
