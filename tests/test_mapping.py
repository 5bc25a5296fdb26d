import tracemalloc

import numpy as np
import pytest

from admixscan import mapping
from admixscan.glm import TraitData
from admixscan.hmm import AncestryDraws
from admixscan.mapping import (
    LocusScan,
    ScanResult,
    ald_correlation,
    reported_subsets,
    stage1_scan,
    stage2_joint,
)
from admixscan.simulate import (
    sample_ancestry_hwe,
    simulate_traits,
)
from conftest import sample_correlated_ancestry


def make_draws(s, m=1, marker_ids=None):
    s = np.asarray(s, dtype=np.int8)
    return AncestryDraws(
        draws=np.repeat(s[None, :, :], m, axis=0),
        sweep_index=np.arange(m),
        marker_ids=marker_ids,
    )


def single_locus_dataset(rng, n=300, beta=0.8):
    s = sample_ancestry_hwe([0.8, 0.75, 0.85], n, rng)
    trait = simulate_traits(s[:, [1]], "continuous", 0.0, beta / 0.75, [0.75], rng)
    return make_draws(s), trait


class TestStage1:
    @pytest.mark.parametrize("delta", [np.inf, -np.inf, np.nan])
    def test_non_finite_threshold_refused(self, rng, monkeypatch, delta):
        # NaN and inf used to select no locus and -inf every one, silently
        draws, trait = single_locus_dataset(rng)
        monkeypatch.setattr(mapping, "fit_glm", None)   # refused before any fit
        with pytest.raises(ValueError, match=r"^delta must be finite, got "):
            stage1_scan(draws, trait, delta=delta)

    def test_largest_finite_threshold_selects_nothing(self, rng):
        draws, trait = single_locus_dataset(rng)
        result = stage1_scan(draws, trait, delta=np.finfo(np.float64).max)
        assert result.selected_indices == []
        assert len(result.stage1) == 3

    def test_strong_locus_found(self, rng):
        draws, trait = single_locus_dataset(rng, n=800, beta=0.9)
        result = stage1_scan(draws, trait, delta=2.0)
        assert 1 in result.selected_indices
        by_bf = max(result.stage1, key=lambda r: r.log10_bf)
        assert by_bf.index == 1

    def test_alignment_mismatch_rejected(self, rng):
        draws, trait = single_locus_dataset(rng)
        short = TraitData(y=trait.y[:-5], kind="continuous",
                          covariates=trait.covariates[:-5])
        with pytest.raises(ValueError, match="subjects"):
            stage1_scan(draws, short)

    def test_constant_locus_skipped_not_fatal(self, rng):
        s = sample_ancestry_hwe([0.8, 0.7], 100, rng)
        s[:, 0] = 2
        trait = simulate_traits(np.empty((100, 0)), "continuous", 0.0, 0.0,
                                np.empty(0), rng)
        result = stage1_scan(make_draws(s), trait)
        assert "constant" in result.stage1[0].flag
        assert np.isnan(result.stage1[0].log10_bf)
        assert result.diagnostics["skipped_loci"] == ["0"]

    def test_repeated_scan_gives_identical_output(self, rng):
        draws, trait = single_locus_dataset(rng, n=400)
        r1 = stage1_scan(draws, trait)
        r2 = stage1_scan(draws, trait)
        assert [r.log10_bf for r in r1.stage1] == [r.log10_bf for r in r2.stage1]

    def test_single_imputation_average_equals_single_bf(self, rng):
        s = sample_ancestry_hwe([0.8], 200, rng)
        trait = simulate_traits(s, "continuous", 0.0, 0.5, [0.8], rng)
        one = stage1_scan(make_draws(s, m=1), trait)
        rep = stage1_scan(make_draws(s, m=4), trait)  # identical imputations
        assert one.stage1[0].log10_bf == pytest.approx(rep.stage1[0].log10_bf)


class TestStage2:
    def two_locus_dataset(self, rng, n=600):
        s = np.concatenate(
            [
                sample_ancestry_hwe([0.8], n, rng),
                sample_ancestry_hwe([0.8, 0.75], n, rng),
            ],
            axis=1,
        )
        trait = simulate_traits(
            s[:, [0, 1]], "continuous", 0.0, 0.9, [0.8, 0.8], rng
        )
        return make_draws(s, marker_ids=["a", "b", "c"]), trait

    def test_empty_selection_gives_empty_stage2(self, rng):
        draws, trait = self.two_locus_dataset(rng)
        stage1 = stage1_scan(draws, trait, delta=np.finfo(np.float64).max)
        result = stage2_joint(stage1, draws, trait)
        assert result.stage2 == []
        assert reported_subsets(result) == []

    def test_single_selection_passes_through(self, rng):
        s = sample_ancestry_hwe([0.8, 0.7], 500, rng)
        trait = simulate_traits(s[:, [0]], "continuous", 0.0, 0.8, [0.8], rng)
        draws = make_draws(s)
        stage1 = stage1_scan(draws, trait, delta=2.0)
        if stage1.selected_indices != [0]:
            pytest.skip("seeded dataset did not select exactly one locus")
        result = stage2_joint(stage1, draws, trait)
        assert len(result.stage2) == 1
        assert result.stage2[0].indices == (0,)
        assert result.stage2[0].log10_bf == stage1.stage1[0].log10_bf

    def test_joint_pair_outranks_singletons(self, rng):
        draws, trait = self.two_locus_dataset(rng)
        stage1 = stage1_scan(draws, trait, delta=2.0)
        assert set(stage1.selected_indices) >= {0, 1}
        result = stage2_joint(stage1, draws, trait)
        assert result.stage2[0].indices == (0, 1)
        assert result.stage2[0].rank == 1
        reported = reported_subsets(result)
        assert reported[0].indices == (0, 1)

    def test_subset_cap_enforced(self, rng, monkeypatch):
        # 13 selected loci make 2**13 - 1 = 8191 subsets, over SUBSET_CAP;
        # the refusal comes before any fit
        s = sample_ancestry_hwe(np.full(13, 0.8), 50, rng)
        trait = simulate_traits(np.empty((50, 0)), "continuous", 0.0, 0.0,
                                np.empty(0), rng)
        stage1 = ScanResult(
            stage1=[LocusScan(str(j), j, 5.0, True, 1) for j in range(13)],
            delta=2.0,
            m=1,
        )

        def no_fit(*args, **kwargs):
            raise AssertionError("stage 2 fitted a subset before refusing")

        monkeypatch.setattr(mapping, "fit_glm", no_fit)
        with pytest.raises(ValueError, match="8191 candidate subsets exceed the cap of 4096"):
            stage2_joint(stage1, make_draws(s), trait)

    def test_max_cardinality_limits_enumeration(self, rng):
        draws, trait = self.two_locus_dataset(rng)
        stage1 = stage1_scan(draws, trait, delta=0.0)
        result = stage2_joint(stage1, draws, trait, max_cardinality=1)
        assert all(len(e.indices) == 1 for e in result.stage2)

    def test_max_cardinality_below_one_rejected(self, rng):
        # with two loci selected, 0 used to enumerate no subset and write an
        # empty stage-2 table
        draws, trait = self.two_locus_dataset(rng)
        stage1 = stage1_scan(draws, trait, delta=2.0)
        assert len(stage1.selected_indices) >= 2
        with pytest.raises(ValueError, match="max_cardinality must be at least 1"):
            stage2_joint(stage1, draws, trait, max_cardinality=0)

    def test_identical_loci_skip_their_joint_subset(self, rng):
        # a repeated ancestry column makes the joint fit singular: that subset
        # is set aside with its flag and the singletons are still ranked
        s = sample_ancestry_hwe([0.8], 500, rng)
        trait = simulate_traits(s, "continuous", 0.0, 0.9, [0.8], rng)
        draws = make_draws(np.repeat(s, 2, axis=1), marker_ids=["a", "b"])
        stage1 = stage1_scan(draws, trait, delta=2.0)
        assert stage1.selected_indices == [0, 1]
        result = stage2_joint(stage1, draws, trait)
        [skipped] = result.diagnostics["skipped_subsets"]
        assert skipped["subset"] == [0, 1]
        assert skipped["flag"] == "4x4 matrix is not positive definite"
        assert [(e.rank, e.indices) for e in result.stage2] == [(1, (0,)), (2, (1,))]
        assert result.stage2[0].log10_bf == stage1.stage1[0].log10_bf

    def test_dominated_singletons_not_reported(self, rng):
        draws, trait = self.two_locus_dataset(rng)
        stage1 = stage1_scan(draws, trait, delta=0.5)
        result = stage2_joint(stage1, draws, trait)
        reported = reported_subsets(result)
        covered = set()
        for entry in reported:
            assert not covered.intersection(entry.indices)
            covered.update(entry.indices)


class TestBlocks:
    """Stage 1 and stage 2 fit in blocks; the block size changes no result."""

    def scan(self, kind):
        rng = np.random.default_rng(21)
        n, m, n_loci = 200, 3, 8
        s = np.stack([sample_ancestry_hwe(np.full(n_loci, 0.7), n, rng) for _ in range(m)])
        trait = simulate_traits(s[0][:, [4]], kind, 0.5, 1.0, [0.7], rng)
        s[1, :, 2] = 1                    # locus 2 is constant in imputation 1 only
        s[:, :, 5] = s[:, :, 4]           # loci 4 and 5 make a singular pair
        s[:, :, 7] = 2 * (trait.y > trait.y.mean())   # locus 7 separates the cases
        draws = AncestryDraws(draws=s, sweep_index=np.arange(m))
        stage1 = stage1_scan(draws, trait, delta=np.finfo(np.float64).min)
        return stage2_joint(stage1, draws, trait, max_cardinality=2)

    @pytest.mark.parametrize("kind", ["continuous", "binary"])
    def test_block_size_changes_no_result(self, kind, monkeypatch):
        monkeypatch.setattr(mapping, "BLOCK_CELLS", 1)      # one locus set a block
        small = self.scan(kind)
        monkeypatch.setattr(mapping, "BLOCK_CELLS", 10 ** 9)   # one block
        large = self.scan(kind)
        for a, b in zip(small.stage1, large.stage1, strict=True):
            assert (a.flag, a.n_imputations_used, a.selected) == (
                b.flag, b.n_imputations_used, b.selected)
            assert a.log10_bf == pytest.approx(b.log10_bf, abs=1e-12, nan_ok=True)
        assert small.stage1[2].flag is None and small.stage1[2].n_imputations_used == 2
        if kind == "binary":
            assert small.stage1[7].flag == "separation"
        joint = {e.indices: e.log10_bf for e in large.stage2}
        assert {e.indices for e in small.stage2} == set(joint)
        for e in small.stage2:
            assert e.log10_bf == pytest.approx(joint[e.indices], abs=1e-12)
        assert small.diagnostics["skipped_subsets"] == large.diagnostics["skipped_subsets"]
        assert {"subset": [4, 5], "flag": "4x4 matrix is not positive definite"} in (
            small.diagnostics["skipped_subsets"])

    def test_block_holds_as_many_fits_at_every_set_size(self, monkeypatch):
        # a block is sized by subject x fit cells, so a block of 3-locus sets
        # holds as many fits as a block of single loci
        rng = np.random.default_rng(8)
        n, m = 100, 2
        s = rng.integers(0, 3, size=(m, n, 9)).astype(np.int8)
        draws = AncestryDraws(draws=s, sweep_index=np.arange(m))
        trait = TraitData(y=rng.standard_normal(n), kind="continuous")
        fits = []
        fit_glm = mapping.fit_glm

        def counting_fit_glm(trait, design):
            fits.append(design.s.shape[0])
            return fit_glm(trait, design)

        monkeypatch.setattr(mapping, "BLOCK_CELLS", m * n * 4)
        monkeypatch.setattr(mapping, "fit_glm", counting_fit_glm)
        sizes = {}
        for k in (1, 3):
            fits.clear()
            sets = np.array([list(range(i, i + k)) for i in range(0, 9, k)] * 3)
            mapping._bf_over_imputations(draws, trait, sets)
            sizes[k] = list(fits)
        assert sizes[1][0] == sizes[3][0] == 4 * m
        assert sum(sizes[1]) == 27 * m and sum(sizes[3]) == 9 * m

    def test_stage1_peak_memory_does_not_grow_with_loci(self):
        # stage 1 holds one block of fits at a time, so its traced peak is
        # set by BLOCK_CELLS (3.6 MiB measured at 50 fits of 1000 subjects),
        # whatever the number of loci
        rng = np.random.default_rng(4)
        n, m = 1000, 10
        bound = 12 * 8 * mapping.BLOCK_CELLS      # twelve float64 arrays of a block
        trait = TraitData(y=(rng.random(n) < 0.4).astype(float), kind="binary",
                          covariates=rng.standard_normal((n, 2)))
        for n_loci in (50, 400):
            raw = rng.integers(0, 3, size=(m, n, n_loci)).astype(np.int8)
            draws = AncestryDraws(draws=raw, sweep_index=np.arange(m))
            tracemalloc.start()
            try:
                stage1_scan(draws, trait)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, f"{n_loci} loci: peak {peak} B vs {bound} B"


class TestAldCorrelation:
    def test_diagonal_exactly_one(self, rng):
        s = sample_ancestry_hwe([0.8, 0.6, 0.7], 500, rng)
        corr, flagged = ald_correlation(make_draws(s))
        assert np.array_equal(np.diag(corr), np.ones(3))
        assert flagged == []

    def test_independent_loci_nearly_uncorrelated(self, rng):
        s = sample_ancestry_hwe(np.full(8, 0.8), 1000, rng)
        corr, _ = ald_correlation(make_draws(s))
        off = corr[~np.eye(8, dtype=bool)]
        assert np.abs(off).max() < 0.12
        assert np.abs(off).mean() < 0.05

    def test_latent_correlation_orders_ancestry_correlation(self, rng):
        weak = sample_correlated_ancestry(0.8, 0.25, 100000, rng)
        strong = sample_correlated_ancestry(0.8, 0.75, 100000, rng)
        c_weak, _ = ald_correlation(make_draws(weak))
        c_strong, _ = ald_correlation(make_draws(strong))
        assert c_strong[0, 1] > c_weak[0, 1] > 0

    def test_constant_locus_flagged_and_zeroed(self, rng):
        s = sample_ancestry_hwe([0.8, 0.7], 200, rng)
        s[:, 1] = 1
        corr, flagged = ald_correlation(make_draws(s))
        assert flagged == [1]
        assert corr[0, 1] == 0.0 and corr[1, 1] == 1.0

    def test_pooling_across_imputations(self, rng):
        s1 = sample_ancestry_hwe([0.8, 0.7], 400, rng)
        s2 = sample_ancestry_hwe([0.8, 0.7], 400, rng)
        draws = AncestryDraws(
            draws=np.stack([s1, s2]), sweep_index=np.arange(2)
        )
        corr, _ = ald_correlation(draws)
        pooled = np.vstack([s1, s2]).astype(float)
        expect = np.corrcoef(pooled, rowvar=False)
        assert corr[0, 1] == pytest.approx(expect[0, 1], abs=1e-12)

    def test_too_few_rows_rejected(self):
        draws = AncestryDraws(
            draws=np.zeros((1, 1, 2), dtype=np.int8), sweep_index=np.zeros(1)
        )
        with pytest.raises(ValueError, match="two pooled rows"):
            ald_correlation(draws)

    def test_peak_memory_is_one_pooled_copy(self, rng):
        # the pooled float64 matrix, centred in place; the constant locus
        # needs no copy either
        m, n_sub, n_loc = 10, 1000, 200
        raw = rng.integers(0, 3, size=(m, n_sub, n_loc)).astype(np.int8)
        raw[:, :, 7] = 1
        draws = AncestryDraws(draws=raw, sweep_index=np.arange(m))
        pooled_bytes = m * n_sub * n_loc * 8
        tracemalloc.start()
        try:
            corr, flagged = ald_correlation(draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert flagged == [7]
        assert peak < 1.5 * pooled_bytes, f"peak {peak} B vs {pooled_bytes} B pooled"
