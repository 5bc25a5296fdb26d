import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.optimize import minimize_scalar
from scipy.special import expit

from admixscan.glm import FitResult, TraitData
from admixscan.hmm import AncestryDraws
from admixscan.mapping import stage1_scan, stage2_joint
from admixscan.qnm import BfValue, TAU_BRACKET, average_bf, log_bf
from admixscan.simulate import sample_ancestry_hwe
from conftest import sample_correlated_ancestry
from qnm_helpers import (
    QnmSpec,
    density_grid,
    flagged_bf,
    hwe_second_moment,
    qnm_density,
    spec_for_frequency,
    spec_from_ancestry,
    wald_statistic,
)
from single_design import bf_one, fit_one


class TestDensity:
    def test_vanishes_at_zero(self):
        spec = QnmSpec(tau=0.05, sigma2=1.0, scale=np.eye(2), n_subjects=100)
        assert qnm_density(np.zeros(2), spec) == 0.0

    def test_univariate_mode_location(self):
        spec = spec_for_frequency(0.8, tau=0.01, sigma2=1.0, n_subjects=1000)
        v = spec.n_subjects * spec.tau * spec.sigma2 * spec.scale[0, 0]
        mode = math.sqrt(2.0 * v)
        grid = np.linspace(1e-6, 4 * mode, 40001)
        dens = qnm_density(grid[:, None], spec)
        assert grid[np.argmax(dens)] == pytest.approx(mode, rel=1e-3)

    def test_univariate_normalisation_by_quadrature(self):
        spec = spec_for_frequency(0.85, tau=0.03, sigma2=2.0, n_subjects=500)
        v = spec.n_subjects * spec.tau * spec.sigma2 * spec.scale[0, 0]
        half = 14 * math.sqrt(v)
        total, _ = quad(lambda b: qnm_density(np.array([b]), spec), -half, half,
                        limit=200)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_bivariate_normalisation_by_quadrature(self, rng):
        a = rng.standard_normal((2, 2))
        scale = a @ a.T + 2.0 * np.eye(2)
        spec = QnmSpec(tau=0.02, sigma2=1.5, scale=scale, n_subjects=200)
        v = spec.n_subjects * spec.tau * spec.sigma2
        half = 10 * math.sqrt(v * scale.diagonal().max())
        grid = np.linspace(-half, half, 401)
        bb1, bb2 = np.meshgrid(grid, grid, indexing="ij")
        pts = np.column_stack([bb1.ravel(), bb2.ravel()])
        dens = qnm_density(pts, spec).reshape(len(grid), len(grid))
        total = simpson(simpson(dens, x=grid, axis=1), x=grid)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_non_positive_definite_scale_rejected(self):
        spec = QnmSpec.__new__(QnmSpec)
        spec.tau, spec.sigma2, spec.n_subjects = 0.1, 1.0, 10
        spec.scale = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ValueError, match="positive definite"):
            qnm_density(np.ones(2), spec)

    def test_mode_shrinks_as_construction_frequency_grows(self):
        # larger ancestry frequency -> larger S'S -> smaller scale -> the
        # prior concentrates on smaller effects
        modes = []
        for p_a in (0.8, 0.9, 0.99):
            spec = spec_for_frequency(p_a, tau=0.01, sigma2=1.0, n_subjects=1000)
            v = spec.n_subjects * spec.tau * spec.sigma2 * spec.scale[0, 0]
            modes.append(math.sqrt(2.0 * v))
        assert modes[0] > modes[1] > modes[2]

    def test_bivariate_density_leans_on_diagonal_with_correlation(self):
        rng = np.random.default_rng(7)
        ratios = []
        b = 0.15
        for rho in (0.0, 0.25, 0.5, 0.75):
            s = sample_correlated_ancestry(0.8, rho, 1000, rng)
            spec = spec_from_ancestry(s, tau=0.1, sigma2=1.0)
            ratio = qnm_density(np.array([b, b]), spec) / qnm_density(
                np.array([b, -b]), spec
            )
            ratios.append(ratio)
        assert ratios == sorted(ratios)
        assert ratios[-1] > ratios[0]

    def test_density_grid_table_shape(self):
        table = density_grid([0.8, 0.9], tau=0.01, sigma2=1.0, n_subjects=1000)
        assert table.shape[1] == 3
        assert set(np.unique(table[:, 0])) == {0.8, 0.9}
        assert (table[:, 2] >= 0).all()


def synthetic_fit(rng, n=500, beta=0.35, p_a=0.85):
    s_raw = sample_ancestry_hwe([p_a], n, rng)
    y = beta * s_raw[:, 0] + rng.standard_normal(n)
    trait = TraitData(y=y, kind="continuous")
    return trait, fit_one(trait, s_raw)


class TestTauEstimate:
    def test_grid_oracle(self, rng):
        _, fit = synthetic_fit(rng)
        tau_hat = bf_one(fit, 500).tau_hat
        w = wald_statistic(fit)
        grid = np.logspace(math.log10(TAU_BRACKET[0]), math.log10(TAU_BRACKET[1]), 10000)
        values = [log_bf(w, 1, 500 * t) for t in grid]
        tau_grid = grid[int(np.argmax(values))]
        spacing = grid[1] / grid[0]
        assert tau_grid / spacing <= tau_hat <= tau_grid * spacing

    def test_null_consistent_data_returns_lower_bound(self):
        fit = FitResult(
            beta_hat=np.zeros(1),
            alpha_hat=np.empty(0),
            intercept=0.0,
            sigma_beta_hat=np.eye(1) * 0.01,
            sigma2_hat=1.0,
            converged=True,
            flag=None,
        )
        bf = bf_one(fit, 100)
        assert bf.tau_hat == TAU_BRACKET[0]
        assert 10 ** bf.log10_bf <= 1.0

    def test_flagged_fit_rejected(self):
        fit = FitResult(
            beta_hat=np.zeros(1),
            alpha_hat=np.empty(0),
            intercept=0.0,
            sigma_beta_hat=np.eye(1),
            sigma2_hat=1.0,
            converged=False,
            flag="separation",
        )
        bf = bf_one(fit, 10)
        assert bf.flag == "separation"
        assert math.isnan(bf.tau_hat) and math.isnan(bf.log10_bf)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_closed_form_matches_bounded_search(self, p):
        # reference: a bounded numerical maximisation over log10(tau) plus
        # both bracket edges; the closed form may only beat it
        lo, hi = (math.log10(t) for t in TAU_BRACKET)
        for w_target in (1e-6, 0.5, p, p + 1e-7, 6.0, 1e4, 1e8, 1e12):
            fit = FitResult(
                beta_hat=np.r_[math.sqrt(w_target), np.zeros(p - 1)],
                alpha_hat=np.empty(0),
                intercept=0.0,
                sigma_beta_hat=np.eye(p),
                sigma2_hat=1.0,
                converged=True,
                flag=None,
            )
            w = wald_statistic(fit)
            for n in (20, 1000, 100000):
                def log10_bf(log10_tau):
                    return log_bf(w, p, n * 10.0 ** log10_tau) / math.log(10.0)

                inner = minimize_scalar(lambda u: -log10_bf(u), bounds=(lo, hi),
                                        method="bounded",
                                        options={"xatol": 1e-10})
                ref_u, ref = max(
                    ((u, log10_bf(u)) for u in (inner.x, lo, hi)),
                    key=lambda item: item[1],
                )
                tau_hat = bf_one(fit, n).tau_hat
                assert TAU_BRACKET[0] <= tau_hat <= TAU_BRACKET[1]
                if w <= p:
                    assert tau_hat == TAU_BRACKET[0]
                got = log_bf(w, p, n * tau_hat) / math.log(10.0)
                # at W = 1e8 log10 BF is ~2e7, whose float spacing (~4e-9)
                # exceeds 1e-10: allow rounding of the value itself
                assert got >= ref - 1e-10 - 4 * math.ulp(ref), (w, n)
                if lo < ref_u < hi:
                    assert got == pytest.approx(ref, abs=1e-8), (w, n)


def golden_dataset(kind, n=300, n_loci=5, m=3, seed=2011):
    """Seeded scan input: m imputations that differ in ~10% of cells."""
    rng = np.random.default_rng(seed)
    s = rng.binomial(2, rng.uniform(0.55, 0.9, n_loci), size=(n, n_loci))
    draws = np.repeat(s[None], m, axis=0)
    redraw = rng.random(draws.shape) < 0.1
    draws[redraw] = rng.integers(0, 3, size=int(redraw.sum()))
    x = rng.standard_normal(n)
    eta = (0.35 * (s[:, 1] - s[:, 1].mean()) + 0.3 * (s[:, 3] - s[:, 3].mean())
           + 0.4 * x)
    if kind == "continuous":
        y = eta + rng.standard_normal(n)
    elif kind == "binary":
        y = (rng.random(n) < expit(eta - 0.2)).astype(float)
    else:
        y = rng.poisson(np.exp(0.3 + 0.5 * eta)).astype(float)
    anc = AncestryDraws(draws=draws.astype(np.int8), sweep_index=np.arange(m),
                        marker_ids=None)
    return anc, TraitData(y=y, kind=kind, covariates=x[:, None])


# log10 Bayes factors of the golden datasets, recorded when tau was still
# found by golden-section search and every fit also refit the null model
GOLDEN_STAGE1 = {
    "continuous": [0.3684300988408466, 2.5136232563227834, 0.08253262612332969,
                   0.6086514226704993, -1.64651796470907e-06],
    "binary": [0.13263120880642454, 0.5818466135878807, 0.005378819203998591,
               0.6750492166720627, 3.6080474588871444e-05],
    "count": [0.15282680887092817, 3.854634900232866, 0.0003208648341433719,
              0.058101172450799224, 4.2372531274429e-06],
}
GOLDEN_STAGE2 = [
    ((1, 3), 2.7497385092456734),
    ((0, 1, 3), 2.6842426662144465),
    ((1,), 2.5136232563227834),
    ((1, 2, 3), 2.502581749218696),
    ((0, 1), 2.469241531914442),
    ((0, 1, 2, 3), 2.4420273321006323),
    ((0, 1, 2), 2.1100193770003),
    ((1, 2), 2.0913971866253136),
    ((0, 3), 0.6615663661453773),
    ((3,), 0.6086514226704993),
    ((0, 2, 3), 0.5937807448164835),
    ((2, 3), 0.536322264733274),
    ((0,), 0.3684300988408466),
    ((0, 2), 0.22028040765869905),
    ((2,), 0.08253262612332969),
]


class TestGoldenValues:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_STAGE1))
    def test_stage1(self, kind):
        draws, trait = golden_dataset(kind)
        result = stage1_scan(draws, trait)
        assert all(r.flag is None for r in result.stage1)
        got = [r.log10_bf for r in result.stage1]
        assert got == pytest.approx(GOLDEN_STAGE1[kind], rel=0, abs=1e-8)

    def test_stage2(self):
        draws, trait = golden_dataset("continuous")
        result = stage2_joint(stage1_scan(draws, trait, delta=0.0), draws, trait)
        assert [e.indices for e in result.stage2] == [c for c, _ in GOLDEN_STAGE2]
        assert [e.log10_bf for e in result.stage2] == pytest.approx(
            [v for _, v in GOLDEN_STAGE2], rel=0, abs=1e-8
        )


class TestBayesFactor:
    def test_null_statistic_closed_form(self):
        # T = 0, p = 1, n*tau = 9: BF = 10^(-1.5)
        assert log_bf(0.0, 1, 9.0) / math.log(10.0) == pytest.approx(-1.5)

    def test_monotone_in_wald_statistic(self):
        values = [log_bf(w, 1, 25.0) for w in np.linspace(0, 40, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_closed_form_matches_quadrature_marginal_likelihood(self):
        # oracle: integrate the estimate's likelihood ratio against the
        # prior; the closed form should agree to quadrature accuracy
        rng = np.random.default_rng(31)
        rel_errs = []
        for _ in range(10):
            trait, fit = synthetic_fit(rng, n=500, beta=0.35)
            bf = bf_one(fit, 500)
            tau_hat = bf.tau_hat

            beta_hat = fit.beta_hat[0]
            var = fit.sigma_beta_hat[0, 0]
            spec = QnmSpec(
                tau=tau_hat,
                sigma2=fit.sigma2_hat,
                scale=np.array([[var / fit.sigma2_hat]]),
                n_subjects=500,
            )
            prior_sd = math.sqrt(500 * tau_hat * var)

            def integrand(b):
                ratio = math.exp(
                    (2.0 * beta_hat * b - b * b) / (2.0 * var)
                )
                return ratio * qnm_density(np.array([b]), spec)

            lo = min(beta_hat, 0.0) - 12 * max(prior_sd, math.sqrt(var))
            hi = max(beta_hat, 0.0) + 12 * max(prior_sd, math.sqrt(var))
            oracle, _ = quad(integrand, lo, hi, limit=400)
            rel_errs.append(abs(10 ** bf.log10_bf - oracle) / oracle)
        assert max(rel_errs) < 0.05

    def test_flagged_propagation(self):
        flagged = flagged_bf("separation", p=1)
        assert flagged.flag == "separation"
        assert math.isnan(flagged.log10_bf)


class TestAverageBf:
    def batch(self, *entries):
        """One set's imputations as a (1, m) batch: a Bayes factor, or a flag's reason."""
        flag = np.array([[e if isinstance(e, str) else None for e in entries]], dtype=object)
        log10_bf = np.array([[math.nan if isinstance(e, str) else math.log10(e) for e in entries]])
        return BfValue(log10_bf=log10_bf, tau_hat=np.full(log10_bf.shape, 0.1), p=1, flag=flag)

    def test_identical_inputs(self):
        out = average_bf(self.batch(7.0, 7.0))
        assert 10 ** out.log10_bf[0] == pytest.approx(7.0)

    def test_arithmetic_mean_on_bf_scale(self):
        out = average_bf(self.batch(10.0, 1000.0))
        assert 10 ** out.log10_bf[0] == pytest.approx(505.0)

    def test_flagged_entries_excluded_with_renormalisation(self):
        out = average_bf(self.batch(10.0, "skip", 1000.0))
        assert 10 ** out.log10_bf[0] == pytest.approx(505.0)

    def test_all_flagged_yields_flagged(self):
        out = average_bf(self.batch("a", "b"))
        assert out.flag[0] == "a"

    def test_all_flagged_keeps_most_common_reason(self):
        out = average_bf(self.batch("a", "b", "b"))
        assert out.flag[0] == "b"

    def test_single_draw_average_is_exact(self):
        out = average_bf(self.batch(42.0))
        assert out.log10_bf[0] == pytest.approx(math.log10(42.0))


class TestScaleHelpers:
    def test_hwe_second_moment(self):
        p = 0.8
        # E[S^2] = 2p(1-p) + 4p^2
        assert hwe_second_moment(p) == pytest.approx(2 * p * (1 - p) + 4 * p * p)

    def test_spec_from_ancestry_matches_gram_inverse(self, rng):
        s = sample_ancestry_hwe([0.7, 0.9], 400, rng)
        spec = spec_from_ancestry(s, tau=0.1, sigma2=1.0)
        gram = s.astype(float).T @ s.astype(float)
        assert np.allclose(spec.scale, np.linalg.inv(gram))
        assert spec.n_subjects == 400
