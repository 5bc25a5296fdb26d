import numpy as np
import pytest
from scipy.stats import chisquare

from admixscan.hmm import MISSING
from admixscan.simulate import (
    BINARY_C_VALUES,
    CAUSAL_PAAP,
    CONTINUOUS_C_VALUES,
    SEGMENT_N_LOCI,
    build_artificial_chromosome,
    label_regions,
    sample_ancestry_hwe,
    sample_genotypes_from_ancestry,
    simulate_traits,
)
from conftest import sample_correlated_ancestry


class TestHweSampling:
    def test_fixed_frequency_gives_all_twos(self, rng):
        s = sample_ancestry_hwe([1.0 - 1e-12], 100, rng)
        assert (s == 2).all()

    def test_category_frequencies_at_half(self, rng):
        s = sample_ancestry_hwe([0.5], 100000, rng)
        freqs = [(s == k).mean() for k in range(3)]
        assert np.allclose(freqs, [0.25, 0.5, 0.25], atol=0.01)

    def test_mean_count_at_reported_low_end(self, rng):
        p = 0.8321
        s = sample_ancestry_hwe([p], 100000, rng)
        assert s.mean() == pytest.approx(2 * p, abs=0.01)

    def test_out_of_range_frequency_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_ancestry_hwe([0.0], 10, rng)


class TestCorrelatedAncestry:
    def test_independent_latents_give_uncorrelated_counts(self, rng):
        s = sample_correlated_ancestry(0.8, 0.0, 100000, rng)
        r = np.corrcoef(s[:, 0], s[:, 1])[0, 1]
        assert abs(r) < 0.02

    def test_marginals_stay_hwe_for_any_latent_correlation(self, rng):
        p = 0.8
        expected = np.array([(1 - p) ** 2, 2 * p * (1 - p), p ** 2])
        for rho in (0.0, 0.5, 0.9):
            s = sample_correlated_ancestry(p, rho, 100000, rng)
            for col in range(2):
                counts = np.bincount(s[:, col], minlength=3)
                stat = chisquare(counts, expected * s.shape[0])
                assert stat.pvalue > 0.001

    def test_stronger_latent_correlation_orders_count_correlation(self, rng):
        r25 = np.corrcoef(
            *sample_correlated_ancestry(0.8, 0.25, 100000, rng).T
        )[0, 1]
        r75 = np.corrcoef(
            *sample_correlated_ancestry(0.8, 0.75, 100000, rng).T
        )[0, 1]
        assert r75 > r25 > 0

    def test_hwe_and_latent_marginals_agree(self, rng):
        p = 0.73
        hwe = sample_ancestry_hwe([p], 100000, rng)[:, 0]
        lat = sample_correlated_ancestry(p, 0.4, 100000, rng)[:, 0]
        counts_h = np.bincount(hwe, minlength=3)
        counts_l = np.bincount(lat, minlength=3)
        expected = np.array([(1 - p) ** 2, 2 * p * (1 - p), p ** 2]) * 100000
        assert chisquare(counts_h, expected).pvalue > 0.001
        assert chisquare(counts_l, expected).pvalue > 0.001


class TestTraits:
    def test_default_effect_grids(self):
        assert CONTINUOUS_C_VALUES == (0.2, 0.25, 0.3, 0.35, 0.4)
        assert BINARY_C_VALUES == (0.4, 0.5, 0.6, 0.7, 0.8)
        # largest continuous effect at the top of the ancestry range
        assert 0.4 * 0.8817 == pytest.approx(0.3527, abs=5e-5)

    def test_zero_effect_reproduces_null_stream_exactly(self, rng):
        s = sample_ancestry_hwe([0.8], 500, np.random.default_rng(4))
        for kind in ("continuous", "binary"):
            a = simulate_traits(
                s, kind, 1.0, 0.0, [0.8], np.random.default_rng(9)
            )
            b = simulate_traits(
                np.empty((500, 0)), kind, 1.0, 0.0, np.empty(0),
                np.random.default_rng(9)
            )
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(a.covariates, b.covariates)

    def test_null_continuous_total_variance(self, rng):
        trait = simulate_traits(
            np.empty((100000, 0)), "continuous", 1.0, 0.0, np.empty(0), rng
        )
        assert trait.y.var() == pytest.approx(2.0, rel=0.05)
        assert abs(trait.y.mean()) < 0.02

    def test_binary_rate_shifts_with_effect(self, rng):
        s = np.full((20000, 1), 2, dtype=np.int8)
        null = simulate_traits(np.empty((20000, 0)), "binary", 0.0, 0.0,
                               np.empty(0), rng)
        alt = simulate_traits(s, "binary", 0.0, 0.8, [0.88], rng)
        assert null.y.mean() == pytest.approx(0.5, abs=0.02)
        assert alt.y.mean() > 0.7

    def test_count_traits_not_generated(self, rng):
        with pytest.raises(ValueError):
            simulate_traits(np.empty((10, 0)), "count", 0.0, 0.0, np.empty(0), rng)


class TestGenotypes:
    def test_degenerate_frequencies_copy_ancestry(self, rng):
        s = sample_ancestry_hwe([0.8, 0.7], 2000, rng)
        x = sample_genotypes_from_ancestry(
            s, np.full(2, 1 - 1e-12), np.full(2, 1e-12), rng
        )
        assert np.array_equal(x, s)

    def test_missing_rate_applied(self, rng):
        s = sample_ancestry_hwe([0.8], 20000, rng)
        x = sample_genotypes_from_ancestry(
            s, np.array([0.9]), np.array([0.1]), rng, missing_rate=0.25
        )
        assert (x == MISSING).mean() == pytest.approx(0.25, abs=0.01)


class TestArtificialChromosome:
    def test_layout_and_causal_placement(self, rng):
        chromo = build_artificial_chromosome(400, rng)
        assert chromo.s.shape == (400, 2 * SEGMENT_N_LOCI)
        assert chromo.causal == (25, 76)
        assert chromo.paap[25] == CAUSAL_PAAP
        assert chromo.paap[76] == CAUSAL_PAAP
        assert chromo.regions[25] == "L1"
        assert chromo.regions[76] == "L2"
        assert set(chromo.regions) <= {"L1", "L2", "REG1", "REG2", "REG3"}

    def test_region_sizes_near_calibration_targets(self):
        rng = np.random.default_rng(5)
        sizes1, sizes2 = [], []
        for _ in range(20):
            chromo = build_artificial_chromosome(1000, rng)
            sizes1.append((chromo.regions == "REG1").sum())
            sizes2.append((chromo.regions == "REG2").sum())
        assert 42 * 0.8 <= np.mean(sizes1) <= 42 * 1.2
        assert 35 * 0.8 <= np.mean(sizes2) <= 35 * 1.2

    def test_region_rule_follows_correlation_threshold(self, rng):
        chromo = build_artificial_chromosome(800, rng)
        corr = np.corrcoef(chromo.s.astype(float), rowvar=False)
        for j in range(chromo.n_loci):
            if j in chromo.causal:
                continue
            r1 = abs(corr[j, chromo.causal[0]])
            r2 = abs(corr[j, chromo.causal[1]])
            if chromo.regions[j] == "REG1":
                assert r1 > 0.12
            elif chromo.regions[j] == "REG2":
                assert r2 > 0.12
            else:
                assert (r1 <= 0.12 or r2 > r1) and (r2 <= 0.12 or r1 >= r2)

    def test_labels_recomputed_from_data(self, rng):
        s = sample_ancestry_hwe(np.full(102, 0.8), 1500, rng)
        labels = label_regions(s, (25, 76))
        # independent loci: almost everything lands in the background region
        assert (labels == "REG3").sum() > 80


def _label_regions_loop(s, causal, threshold):
    """The region rule written out one locus at a time."""
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(s.astype(np.float64), rowvar=False)
    labels = []
    for j in range(s.shape[1]):
        r1 = abs(corr[j, causal[0]])
        r2 = abs(corr[j, causal[1]])
        if j == causal[0]:
            labels.append("L1")
        elif j == causal[1]:
            labels.append("L2")
        elif r1 > threshold and r1 >= r2:
            labels.append("REG1")
        elif r2 > threshold:
            labels.append("REG2")
        else:
            labels.append("REG3")
    return labels


@pytest.mark.parametrize("threshold", [0.0, 0.12, 0.3])
def test_label_regions_matches_per_locus_rule(threshold):
    rng = np.random.default_rng(17)
    for _ in range(200):
        n_sub, n_loc = rng.integers(3, 9), rng.integers(4, 12)
        s = rng.integers(0, 3, size=(n_sub, n_loc)).astype(np.int8)
        causal = tuple(int(j) for j in rng.choice(n_loc, 2, replace=False))
        # constant columns correlate as NaN; copies of a causal column tie
        # r1 with r2 when both causal columns are copies of one another
        s[:, rng.random(n_loc) < 0.15] = rng.integers(0, 3)
        for src, dst in rng.integers(0, n_loc, size=(rng.integers(0, 4), 2)):
            s[:, dst] = s[:, src]
        labels = label_regions(s, causal, threshold)
        assert labels.tolist() == _label_regions_loop(s, causal, threshold)
