import numpy as np
import pytest

from admixscan.mapping import stage1_scan
from admixscan.studies import multilocus_study, null_study, power_study


class TestNullStudy:
    def test_rates_low_under_null(self):
        res = null_study(150, 80, 5, "continuous", 0.0, 2.0, seed=3)
        [summary] = res.summary
        assert summary["aggregate_rate"] < 0.01
        assert summary["median_rate"] < 0.005
        assert len(res.rows) == 5

    def test_covariate_effect_does_not_inflate(self):
        res = null_study(150, 80, 5, "continuous", 1.0, 2.0, seed=4)
        assert res.summary[0]["aggregate_rate"] < 0.01


class TestPowerStudy:
    def test_power_monotone_in_effect(self):
        res = power_study(400, (0.1, 0.4, 0.9), 25, "continuous", 0.0, 1.0,
                          seed=5)
        power = [row["power"] for row in res.summary]
        assert power[0] <= power[1] <= power[2]
        assert power[2] > 0.9

    def test_rows_record_each_replicate(self):
        res = power_study(200, (0.5,), 10, "binary", 0.0, 1.0, seed=6)
        assert len(res.rows) == 10
        assert set(r["selected"] for r in res.rows) <= {0, 1}


class TestMultilocusStudy:
    def test_stage2_prunes_regions_and_finds_pair(self):
        res = multilocus_study(600, 10, "continuous", 0.7, 2.0, seed=7,
                               max_cardinality=2)
        [summary] = res.summary
        assert summary["stage2_region_rate"] <= summary["stage1_region_rate"]
        assert summary["pair_top_rate"] >= 0.8
        assert summary["pair_covered_rate"] >= summary["pair_top_rate"]
        assert len(res.rows) == 10


class TestStudyArguments:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_replicates must be at least 1, got 0"):
            null_study(50, 10, 0, "continuous", 0.0, 2.0, seed=1)
        with pytest.raises(ValueError, match="n_loci must be at least 1"):
            null_study(50, 0, 2, "continuous", 0.0, 2.0, seed=1)
        with pytest.raises(ValueError, match="nonnegative, got -0.1"):
            power_study(50, (0.2, -0.1), 2, "continuous", 0.0, 2.0, seed=1)
        with pytest.raises(ValueError, match="number of c values"):
            power_study(50, (), 2, "continuous", 0.0, 2.0, seed=1)
        with pytest.raises(ValueError, match="nonnegative, got -1.0"):
            multilocus_study(50, 2, "continuous", -1.0, 2.0, seed=1,
                             max_cardinality=2)
        with pytest.raises(ValueError, match="continuous or binary"):
            null_study(50, 10, 2, "count", 0.0, 2.0, seed=1)


class TestDataset:
    """Each study keeps its first replicate, labelled for the file formats."""

    def test_null_dataset_is_first_replicate(self):
        res = null_study(80, 30, 3, "binary", 1.0, 0.0, seed=2)
        draws, trait = res.dataset
        assert draws.subject_ids[:2] == ["S00000", "S00001"]
        assert draws.marker_ids[-1] == "L029"
        assert draws.draws.shape == (1, 80, 30)
        result = stage1_scan(draws, trait, delta=0.0)
        assert sum(r.selected for r in result.stage1) == res.rows[0]["hits"] > 0

    def test_power_dataset_is_first_c_first_replicate(self):
        res = power_study(120, (0.6, 0.1), 3, "continuous", 0.0, 1.0, seed=3)
        draws, trait = res.dataset
        assert draws.marker_ids == ["L000"]
        bf = stage1_scan(draws, trait, delta=1.0).stage1[0].log10_bf
        assert bf == res.rows[0]["log10_bf"]
        assert res.rows[0]["c"] == 0.6

    def test_multilocus_dataset_and_summary(self):
        res = multilocus_study(120, 2, "continuous", 0.7, 2.0, seed=4,
                               max_cardinality=2)
        draws, trait = res.dataset
        assert draws.n_loci == 102
        result = stage1_scan(draws, trait, delta=2.0)
        assert len(result.selected_indices) == res.rows[0]["n_selected"] > 0
        [summary] = res.summary
        assert summary["pair_top_rate"] == np.mean([r["pair_top"] for r in res.rows])
        assert list(summary) == [
            "stage1_region_rate", "stage2_region_rate", "stage1_reg3_rate",
            "stage2_reg3_rate", "pair_top_rate", "pair_covered_rate",
        ]

    def test_summaries(self):
        """Each summary is what its rows give."""
        null = null_study(60, 20, 3, "continuous", 0.0, 0.5, seed=5)
        rates = [row["rate"] for row in null.rows]
        assert null.summary == [{
            "aggregate_rate": np.mean(rates),
            "median_rate": np.median(rates),
            "max_rate": max(rates),
            "delta": 0.5,
        }]
        power = power_study(60, (0.5, 1.5), 4, "continuous", 0.0, 0.5, seed=5)
        assert power.summary == [
            {"c": c, "power": np.mean([r["selected"] for r in power.rows if r["c"] == c]),
             "delta": 0.5}
            for c in (0.5, 1.5)
        ]
        multi = multilocus_study(120, 3, "continuous", 0.7, 2.0, seed=4,
                                 max_cardinality=2)
        [summary] = multi.summary
        for key in ("pair_top", "pair_covered"):
            assert summary[f"{key}_rate"] == np.mean([r[key] for r in multi.rows])


@pytest.mark.parametrize("n_subjects", [2, 3])
def test_multilocus_study_at_few_subjects_warns_nothing(n_subjects):
    # at so few subjects some ancestry columns are constant: their region
    # correlations are 0/0 and must not warn (the suite raises RuntimeWarning)
    res = multilocus_study(n_subjects, 2, "continuous", 0.7, 2.0, seed=1,
                           max_cardinality=2)
    assert len(res.rows) == 2
