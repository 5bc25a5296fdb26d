import numpy as np
import pytest
from scipy.stats import binom

from admixscan.hmm import (
    AimPanel,
    AncestryDraws,
    FREQ_CLAMP,
    GenotypeMatrix,
    MISSING,
    hwe_rows,
    observation_rows,
    transition_kernels,
    two_lineages,
)
from conftest import build_transition_matrix


class TestTwoLineages:
    def test_matches_enumeration_of_both_lineages(self):
        grid = np.linspace(0.0, 1.0, 11)
        for p in grid:
            for q in grid:
                law = np.zeros(3)
                for a in (0, 1):
                    for b in (0, 1):
                        law[a + b] += (p if a else 1 - p) * (q if b else 1 - q)
                assert np.allclose(two_lineages(p, q), law, atol=1e-15)

    def test_broadcasts_with_the_count_axis_first(self):
        p = np.linspace(0.1, 0.9, 3)[:, None]
        q = np.linspace(0.2, 0.8, 4)
        law = two_lineages(p, q)
        assert law.shape == (3, 3, 4)
        assert np.array_equal(law[:, 2, 1], two_lineages(p[2, 0], q[1]))
        assert np.allclose(law.sum(axis=0), 1.0)


class TestObservationMatrix:
    def test_degenerate_frequencies_pin_genotype_to_state(self):
        eps = 1e-12
        p = observation_rows(1 - eps, eps)
        assert np.allclose(p, np.eye(3), atol=1e-11)

    def test_equal_frequencies_make_rows_identical(self):
        p = observation_rows(0.5, 0.5)
        for row in p:
            assert np.allclose(row, [0.25, 0.5, 0.25])

    def test_hand_computed_homozygous_row(self):
        p = observation_rows(0.8, 0.2)
        assert np.allclose(p[2], [0.04, 0.32, 0.64])

    def test_heterozygous_row_hand_arithmetic(self):
        p = observation_rows(0.8, 0.2)
        assert np.allclose(p[1], [0.16, 0.68, 0.16])

    def test_rows_stochastic_on_grid(self):
        grid = np.linspace(0.01, 0.99, 21)
        p_a, p_b = np.meshgrid(grid, grid)
        assert np.allclose(observation_rows(p_a, p_b).sum(axis=1), 1.0)

    def test_broadcasts_over_loci(self):
        p_a = np.array([[0.9, 0.8, 0.7], [0.6, 0.95, 0.5]])
        p_b = np.array([[0.1, 0.2, 0.3], [0.4, 0.05, 0.5]])
        rows = observation_rows(p_a, p_b)
        assert rows.shape == (3, 3, 2, 3)
        assert observation_rows(0.8, 0.2).shape == (3, 3)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(
                    rows[:, :, i, j], observation_rows(p_a[i, j], p_b[i, j])
                )


class TestInitialStateVector:
    @pytest.mark.parametrize(
        "rho,expected",
        [
            (0.0, [1, 0, 0]),
            (1.0, [0, 0, 1]),
            (0.5, [0.25, 0.5, 0.25]),
            (0.8, [0.04, 0.32, 0.64]),
        ],
    )
    def test_values(self, rho, expected):
        assert np.allclose(hwe_rows(rho), expected)

    def test_sums_to_one(self):
        for rho in np.linspace(0, 1, 17):
            assert hwe_rows(rho).sum() == pytest.approx(1.0)

    def test_broadcasts_over_subjects(self):
        rho = np.linspace(0.0, 1.0, 7)
        rows = hwe_rows(rho)
        assert rows.shape == (3, 7)
        for i, r in enumerate(rho):
            assert np.array_equal(rows[:, i], hwe_rows(r))


def one_recombination_table(rho):
    """The one-recombination kernel written out by hand: the oracle."""
    return np.array(
        [
            [1.0 - rho, rho, 0.0],
            [0.5 * (1.0 - rho), 0.5, 0.5 * rho],
            [0.0, 1.0 - rho, rho],
        ]
    )


class TestTransitionMatrix:
    def test_gamma_zero_is_identity(self):
        assert np.allclose(build_transition_matrix(0.37, 0.0), np.eye(3))

    def test_gamma_one_forgets_the_past(self):
        q = build_transition_matrix(0.3, 1.0)
        for row in q:
            assert np.allclose(row, hwe_rows(0.3))

    def test_mixture_oracle_row(self):
        # direct mixture over recombination counts at rho=0.8, gamma=0.1
        rho, gamma = 0.8, 0.1
        stack = transition_kernels(rho)
        weights = binom.pmf(np.arange(3), 2, gamma)
        mixture = np.tensordot(weights, stack, axes=1)
        assert np.allclose(mixture[0], [0.8464, 0.1472, 0.0064])
        assert np.allclose(build_transition_matrix(rho, gamma), mixture)

    def test_closed_form_equals_mixture_on_grid(self):
        grid = np.linspace(0.0, 1.0, 101)
        worst = 0.0
        for rho in grid:
            stack = transition_kernels(rho)
            for gamma in grid:
                weights = binom.pmf(np.arange(3), 2, gamma)
                mixture = np.tensordot(weights, stack, axes=1)
                q = build_transition_matrix(rho, gamma)
                worst = max(worst, np.abs(q - mixture).max())
                assert abs(q.sum(axis=1) - 1.0).max() < 1e-12
        assert worst < 1e-12

    def test_conditional_kernels_are_stochastic(self):
        for rho in np.linspace(0, 1, 11):
            stack = transition_kernels(rho)
            assert np.allclose(stack.sum(axis=2), 1.0)

    def test_one_recombination_kernel_matches_hand_table(self):
        for rho in np.linspace(0.0, 1.0, 101):
            assert np.array_equal(transition_kernels(rho)[1], one_recombination_table(rho))


class TestAimPanel:
    def make_panel(self, **overrides):
        kwargs = dict(
            marker_ids=["a", "b", "c", "d"],
            chrom=[1, 1, 2, 2],
            position=[0.0, 0.1, 0.0, 0.05],
            p_a0=[0.8, 0.7, 0.9, 0.6],
            p_b0=[0.2, 0.1, 0.3, 0.2],
        )
        kwargs.update(overrides)
        return AimPanel(**kwargs)

    def test_chromosome_starts_and_distances(self):
        panel = self.make_panel()
        assert panel.chrom_start.tolist() == [True, False, True, False]
        assert np.allclose(panel.d, [0.0, 0.1, 0.0, 0.05])

    def test_fixed_alleles_are_clamped(self):
        panel = self.make_panel(p_a0=[1.0, 0.7, 0.9, 0.6], p_b0=[0.0, 0.1, 0.3, 0.2])
        assert panel.p_a0[0] == pytest.approx(1.0 - FREQ_CLAMP)
        assert panel.p_b0[0] == pytest.approx(FREQ_CLAMP)

    def test_prior_means_are_read_only_copies(self):
        # the slice steps of a run read moments derived from them once
        p_a0 = np.array([1.0, 0.7, 0.9, 0.6])
        panel = self.make_panel(p_a0=p_a0)
        assert p_a0[0] == 1.0
        for means in (panel.p_a0, panel.p_b0):
            with pytest.raises(ValueError, match="read-only"):
                means[0] = 0.5

    def test_decreasing_position_rejected(self):
        with pytest.raises(ValueError, match="decreases"):
            self.make_panel(position=[0.0, 0.1, 0.2, 0.1], chrom=[1, 1, 1, 1])

    def test_chromosome_split_across_the_panel_rejected(self):
        # chromosome 1 resumes after chromosome 2: the chain would restart
        # there and lose the linkage across the split
        with pytest.raises(ValueError, match="chromosome 1 resumes at marker 'e'"):
            self.make_panel(
                marker_ids=["a", "b", "c", "d", "e"],
                chrom=[1, 1, 2, 2, 1],
                position=[0.0, 0.1, 0.0, 0.05, 0.2],
                p_a0=[0.8, 0.7, 0.9, 0.6, 0.7],
                p_b0=[0.2, 0.1, 0.3, 0.2, 0.3],
            )

    def test_frequency_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            self.make_panel(p_a0=[1.2, 0.7, 0.9, 0.6])

    def test_gamma0_distance_relation(self):
        panel = self.make_panel()
        g = panel.gamma0(6.0)
        assert g[1] == pytest.approx(1.0 - np.exp(-0.6))
        assert g[3] == pytest.approx(1.0 - np.exp(-0.3))


class TestGenotypeMatrix:
    def test_valid_matrix(self):
        g = GenotypeMatrix(
            x=np.array([[0, 1], [2, MISSING]], dtype=np.int8),
            subject_ids=["s1", "s2"],
        )
        assert g.n_subjects == 2
        assert g.missing_mask.sum() == 1

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="genotype value 3"):
            GenotypeMatrix(x=np.array([[0, 3]], dtype=np.int8), subject_ids=["s"])

    @pytest.mark.parametrize("value", [3, -2])
    def test_first_value_outside_the_range_named(self, value):
        x = np.array([[0, 1, 2], [MISSING, value, 2], [value, 0, value]], dtype=np.int8)
        with pytest.raises(ValueError, match=rf"^genotype value {value} at subject 1, marker 1 "
                                             r"is not in \{0, 1, 2, MISSING\}$"):
            GenotypeMatrix(x=x, subject_ids=["s", "t", "u"])

    @pytest.mark.parametrize("value, dtype, shown", [
        (257, np.int64, "257"),      # an int8 cast wraps it to 1
        (258, np.int16, "258"),      # and this to 2
        (1.5, np.float64, "1.5"),    # and this to 1
        (255, np.uint8, "255"),      # and this to MISSING
        (np.nan, np.float64, "nan"),
    ])
    def test_value_an_int8_cast_would_wrap_named_before_the_cast(self, value, dtype, shown):
        x = np.array([[0, 1, 2], [1, value, 2], [value, 0, 1]], dtype=dtype)
        with pytest.raises(ValueError, match=rf"^genotype value {shown} at subject 1, marker 1 "
                                             r"is not in \{0, 1, 2, MISSING\}$"):
            GenotypeMatrix(x=x, subject_ids=["s", "t", "u"])

    def test_integers_of_any_dtype_are_cast(self):
        x = [[0, 1], [2, MISSING]]
        for dtype in (np.int64, np.float64, np.int16):
            g = GenotypeMatrix(x=np.array(x, dtype=dtype), subject_ids=["s", "t"])
            assert g.x.dtype == np.int8 and g.x.tolist() == x


PANEL = dict(marker_ids=["a", "b", "c", "d"], chrom=[1, 1, 2, 2], position=[0.0, 0.1, 0.0, 0.05],
             p_a0=[0.8, 0.7, 0.9, 0.6], p_b0=[0.2, 0.1, 0.3, 0.2])


@pytest.mark.parametrize("record, given, message", [
    (AimPanel, dict.fromkeys(PANEL, []), "^panel needs at least one marker$"),
    (AimPanel, {**PANEL, "chrom": [1, 1, 2]}, "^chrom length does not match marker_ids$"),
    (AimPanel, {**PANEL, "position": [PANEL["position"]]}, "^position must be one-dimensional$"),
    (AimPanel, {**PANEL, "p_b0": [0.2, 0.1, 0.3]}, "^p_b0 has length 3, expected 4$"),
    (GenotypeMatrix, {"x": [0, 1, 2], "subject_ids": ["s"]},
     "^genotype matrix must be two-dimensional$"),
    (GenotypeMatrix, {"x": [[0, 1, 2]], "subject_ids": ["s", "t"]},
     "^subject_ids length does not match genotype rows$"),
    (AncestryDraws, {"draws": [[0, 1]], "sweep_index": [0]},
     r"^draws must have shape \(m, n_subjects, n_loci\)$"),
    (AncestryDraws, {"draws": np.zeros((0, 2, 3)), "sweep_index": []},
     "^at least one retained draw is required$"),
    (AncestryDraws, {"draws": np.zeros((2, 2, 3)), "sweep_index": [0]},
     "^sweep_index length does not match draws$"),
], ids=["no markers", "short chrom", "2-D position", "short p_b0", "1-D genotypes",
        "extra subject id", "2-D draws", "no draws", "short sweep_index"])
def test_record_of_the_wrong_shape_refused(record, given, message):
    with pytest.raises(ValueError, match=message):
        record(**given)
