import math

import numpy as np
import pytest
from scipy.special import expit

from admixscan import glm
from admixscan.errors import DegenerateDesignError
from admixscan.glm import TraitData, center_ancestries, fit_glm, solve_spd_stack
from admixscan.qnm import bf_for_fit
from qnm_helpers import solve_spd, wald_statistic
from single_design import bf_one, center_one, fit_one


class TestCentering:
    def test_two_point_column(self):
        design = center_one(np.array([[0], [2]]))
        assert np.allclose(design.s[0, 0], [-1.0, 1.0])

    def test_constant_column_rejected(self):
        # the fit is flagged with the locus, not raised
        design = center_one(np.array([[1], [1], [1]]), locus_ids=["rs9"])
        assert design.flags == ["ancestry column 'rs9' is constant"]

    def test_mean_subtraction(self):
        design = center_one(np.array([[0], [1], [2], [1]]))
        assert np.allclose(design.s[0, 0], [-1.0, 0.0, 1.0, 0.0])
        assert abs(design.s.mean()) < 1e-10

    def test_non_ancestry_values_rejected(self):
        with pytest.raises(ValueError):
            center_one(np.array([[0], [3]]))


class TestSolveSpd:
    def test_singular_solve_past_cholesky_is_a_degenerate_design(self):
        # singular, yet its Cholesky factor passes with a zero last pivot,
        # which the pivot floor refuses
        with pytest.raises(DegenerateDesignError, match="not positive definite"):
            solve_spd(np.full((2, 2), 2.0), np.eye(2))

    @pytest.mark.parametrize("kind", ["continuous", "binary", "count"])
    def test_identical_ancestry_columns_flag_every_fit(self, kind):
        # two identical columns leave a Cholesky pivot of a few ulps, which
        # the factorisation and the solve both pass unless it is refused
        rng = np.random.default_rng(2026)
        for _ in range(200):
            n, p, q = int(rng.integers(100, 1001)), int(rng.integers(2, 4)), int(rng.integers(0, 3))
            raw = rng.binomial(2, rng.uniform(0.2, 0.9, p), size=(n, p))
            raw[:, 1] = raw[:, 0]
            eta = 0.3 * (raw[:, 0] - raw[:, 0].mean())
            y = {"continuous": eta + rng.standard_normal(n),
                 "binary": (rng.random(n) < expit(eta)).astype(float),
                 "count": rng.poisson(np.exp(eta)).astype(float)}[kind]
            trait = TraitData(y=y, kind=kind, covariates=rng.standard_normal((n, q)))
            fit = fit_one(trait, raw)
            assert fit.flag == glm.NOT_PD.format(1 + q + p), (n, p, q)
            assert math.isnan(bf_one(fit, n).log10_bf)


def toy_continuous(rng, n=200, beta=0.5, alpha=1.0, sigma=1.0):
    s_raw = rng.integers(0, 3, size=(n, 1))
    e = rng.standard_normal((n, 1))
    y = beta * s_raw[:, 0] + alpha * e[:, 0] + sigma * rng.standard_normal(n)
    trait = TraitData(y=y, kind="continuous", covariates=e)
    return trait, s_raw


class TestContinuousFit:
    def test_perfect_fit(self):
        s_raw = np.array([[0], [1], [2], [1], [0], [2]])
        trait = TraitData(y=2.0 * s_raw[:, 0], kind="continuous")
        fit = fit_one(trait, s_raw)
        assert fit.beta_hat[0] == pytest.approx(2.0)
        assert fit.sigma2_hat == pytest.approx(0.0, abs=1e-20)

    def test_matches_normal_equations(self, rng):
        n = 10
        s_raw = rng.integers(0, 3, size=(n, 1))
        e = rng.standard_normal((n, 1))
        y = rng.standard_normal(n) + s_raw[:, 0]
        trait = TraitData(y=y, kind="continuous", covariates=e)
        fit = fit_one(trait, s_raw)
        z = np.column_stack([np.ones(n), s_raw - s_raw.mean(axis=0), e])
        coef = np.linalg.solve(z.T @ z, z.T @ y)
        assert fit.beta_hat[0] == pytest.approx(coef[1], abs=1e-10)
        assert fit.alpha_hat[0] == pytest.approx(coef[2], abs=1e-10)
        assert fit.intercept == pytest.approx(coef[0], abs=1e-10)
        rss = float(((y - z @ coef) ** 2).sum())
        assert fit.sigma2_hat == pytest.approx(rss / (n - 3), rel=1e-10)

    def test_residuals_orthogonal_to_design(self, rng):
        trait, s_raw = toy_continuous(rng)
        fit = fit_one(trait, s_raw)
        z = np.column_stack([np.ones(trait.n_subjects), s_raw - s_raw.mean(axis=0),
                             trait.covariates])
        coef = np.concatenate([[fit.intercept], fit.beta_hat, fit.alpha_hat])
        resid = trait.y - z @ coef
        rel = np.abs(z.T @ resid) / (np.abs(z).sum(axis=0) * np.abs(resid).max() + 1e-30)
        assert rel.max() < 1e-8

    def test_affine_equivariance_and_t_invariance(self, rng):
        trait, s_raw = toy_continuous(rng)
        fit1 = fit_one(trait, s_raw)
        k = 3.7
        trait2 = TraitData(y=k * trait.y, kind="continuous", covariates=trait.covariates)
        fit2 = fit_one(trait2, s_raw)
        assert fit2.beta_hat[0] == pytest.approx(k * fit1.beta_hat[0], rel=1e-10)
        assert fit2.sigma2_hat == pytest.approx(k ** 2 * fit1.sigma2_hat, rel=1e-10)
        assert wald_statistic(fit2) == pytest.approx(wald_statistic(fit1), rel=1e-9)
        bf1 = bf_one(fit1, trait.n_subjects)
        bf2 = bf_one(fit2, trait.n_subjects)
        assert bf2.log10_bf == pytest.approx(bf1.log10_bf, rel=1e-6)
        assert bf2.tau_hat == pytest.approx(bf1.tau_hat, rel=1e-4)

    def test_too_few_subjects_rejected(self, rng):
        s_raw = np.array([[0], [1], [2]])
        trait = TraitData(y=np.zeros(3), kind="continuous",
                          covariates=np.zeros((3, 1)))
        # the fit is flagged, not raised
        fit = fit_one(trait, s_raw)
        assert fit.flag == "3 subjects cannot identify 3 coefficients"
        assert not fit.converged and np.isnan(fit.beta_hat).all()


def toy_binary(rng, n=400, beta=0.8, alpha=0.5):
    s_raw = rng.integers(0, 3, size=(n, 1))
    e = rng.standard_normal((n, 1))
    s_c = s_raw - s_raw.mean(axis=0)
    prob = expit(beta * s_c[:, 0] + alpha * e[:, 0])
    y = (rng.random(n) < prob).astype(float)
    trait = TraitData(y=y, kind="binary", covariates=e)
    return trait, s_raw


class TestIrlsFit:
    def test_score_vanishes_at_optimum(self, rng):
        trait, s_raw = toy_binary(rng)
        fit = fit_one(trait, s_raw)
        assert fit.converged
        z = np.column_stack([np.ones(trait.n_subjects), s_raw - s_raw.mean(axis=0),
                             trait.covariates])
        coef = np.concatenate([[fit.intercept], fit.beta_hat, fit.alpha_hat])
        mu = expit(z @ coef)
        score = z.T @ (trait.y - mu)
        info_diag = np.einsum("ij,i,ij->j", z, mu * (1 - mu), z)
        assert (np.abs(score) / np.sqrt(info_diag)).max() < 1e-6

    def test_covariance_matches_finite_difference_hessian(self, rng):
        trait, s_raw = toy_binary(rng, n=150)
        fit = fit_one(trait, s_raw)
        z = np.column_stack([np.ones(trait.n_subjects), s_raw - s_raw.mean(axis=0),
                             trait.covariates])
        coef = np.concatenate([[fit.intercept], fit.beta_hat, fit.alpha_hat])

        def loglik(c):
            mu = np.clip(expit(z @ c), 1e-12, 1 - 1e-12)
            return float(trait.y @ np.log(mu) + (1 - trait.y) @ np.log1p(-mu))

        k = coef.size
        h = 1e-5
        hess = np.empty((k, k))
        for a in range(k):
            for b in range(k):
                c = coef.copy()
                pp = c.copy(); pp[a] += h; pp[b] += h
                pm = c.copy(); pm[a] += h; pm[b] -= h
                mp = c.copy(); mp[a] -= h; mp[b] += h
                mm = c.copy(); mm[a] -= h; mm[b] -= h
                hess[a, b] = (loglik(pp) - loglik(pm) - loglik(mp) + loglik(mm)) / (4 * h * h)
        cov_fd = np.linalg.inv(-hess)
        assert fit.sigma_beta_hat[0, 0] == pytest.approx(cov_fd[1, 1], rel=0.01)

    def test_null_truth_keeps_estimates_small(self):
        # no-association truth: the estimate and its Wald z stay small in
        # nearly all replicates (frozen seeded run: 100/100 here)
        rng = np.random.default_rng(2024)
        n = 2000
        good = 0
        for _ in range(100):
            s_raw = rng.integers(0, 3, size=(n, 1))
            e = rng.standard_normal((n, 1))
            y = (rng.random(n) < expit(0.5 * e[:, 0])).astype(float)
            trait = TraitData(y=y, kind="binary", covariates=e)
            fit = fit_one(trait, s_raw)
            z = abs(fit.beta_hat[0]) / np.sqrt(fit.sigma_beta_hat[0, 0])
            good += int(abs(fit.beta_hat[0]) < 0.15 and z < 3.0)
        assert good >= 95

    def test_separation_flagged_not_raised(self):
        s_raw = np.array([[0]] * 20 + [[2]] * 20)
        y = np.array([0.0] * 20 + [1.0] * 20)
        trait = TraitData(y=y, kind="binary")
        fit = fit_one(trait, s_raw)
        assert not fit.converged
        assert fit.flag is not None

    def test_large_covariate_coefficient_not_flagged(self, rng):
        # a covariate with a small spread carries a large coefficient; only
        # the ancestry coefficients can signal separation, so rescaling the
        # covariate changes neither the flags nor the Bayes factors
        n = 1000
        s_raw = rng.integers(0, 3, size=(n, 3))
        x = 0.02 * rng.standard_normal(n)
        y = (rng.random(n) < expit(40.0 * x)).astype(float)
        bfs = {}
        for scale in (1.0, 100.0):
            trait = TraitData(y=y, kind="binary", covariates=scale * x[:, None])
            for j in range(3):
                fit = fit_one(trait, s_raw[:, [j]])
                assert fit.converged and fit.flag is None
                if scale == 1.0:
                    assert abs(fit.alpha_hat[0]) > 15.0
                bfs[scale, j] = bf_one(fit, n).log10_bf
        for j in range(3):
            assert bfs[1.0, j] == pytest.approx(bfs[100.0, j], abs=1e-8)

    def test_flagged_fit_propagates_to_flagged_bf(self):
        s_raw = np.array([[0]] * 20 + [[2]] * 20)
        y = np.array([0.0] * 20 + [1.0] * 20)
        trait = TraitData(y=y, kind="binary")
        fit = fit_one(trait, s_raw)
        bf = bf_one(fit, 40)
        assert bf.flag is not None
        assert np.isnan(bf.log10_bf)


class TestCountFit:
    def test_poisson_recovers_log_link_slope(self, rng):
        n = 3000
        s_raw = rng.integers(0, 3, size=(n, 1))
        s_c = s_raw - s_raw.mean(axis=0)
        mu = np.exp(0.4 + 0.3 * s_c[:, 0])
        y = rng.poisson(mu).astype(float)
        trait = TraitData(y=y, kind="count")
        fit = fit_one(trait, s_raw)
        assert fit.converged
        assert fit.beta_hat[0] == pytest.approx(0.3, abs=0.05)
        assert fit.sigma2_hat == 1.0

    def test_fits_converge_across_intercept_and_covariate_scales(self):
        # y ~ Poisson(exp(b0 + 0.2 s + bc c)) with a N(0, 1) covariate c:
        # starting from zero without step control, large b0 or bc made the
        # fit overshoot and come back flagged
        rng = np.random.default_rng(90)
        n, beta = 500, 0.2
        z_scores = []
        for b0 in (0.0, 3.0, 6.0, 9.0):
            for bc in (0.5, 1.5, 3.0):
                for _ in range(10):
                    s_raw = rng.binomial(2, 0.8, size=(n, 1))
                    c = rng.standard_normal((n, 1))
                    eta = b0 + beta * s_raw[:, 0] + bc * c[:, 0]
                    trait = TraitData(y=rng.poisson(np.exp(eta)).astype(float),
                                      kind="count", covariates=c)
                    fit = fit_one(trait, s_raw)
                    assert fit.converged and fit.flag is None, (b0, bc)
                    se = np.sqrt(fit.sigma_beta_hat[0, 0])
                    z_scores.append((fit.beta_hat[0] - beta) / se)
        # 3 SE is crossed by chance in 0.27% of fits (0.32 of these 120),
        # 4 SE in 0.006%; the z-scores' spread checks the standard errors
        z_scores = np.array(z_scores)
        assert np.abs(z_scores).max() < 4.0
        assert (np.abs(z_scores) > 3.0).sum() <= 1
        assert 0.8 < z_scores.std() < 1.2


class TestTraitValidation:
    def test_binary_values_checked(self):
        with pytest.raises(ValueError):
            TraitData(y=np.array([0.0, 2.0]), kind="binary")

    def test_count_values_checked(self):
        with pytest.raises(ValueError):
            TraitData(y=np.array([1.0, -2.0]), kind="count")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraitData(y=np.zeros(3), kind="ordinal")


def batch_trait(rng, kind, causal):
    n = causal.shape[0]
    cov = rng.standard_normal((n, 2))
    eta = 1.2 * (causal - causal.mean()) + 0.5 * cov[:, 0]
    if kind == "continuous":
        y = eta + rng.standard_normal(n)
    elif kind == "binary":
        y = (rng.random(n) < expit(eta)).astype(float)
    else:
        y = rng.poisson(np.exp(0.3 + eta)).astype(float)
    return TraitData(y=y, kind=kind, covariates=cov)


class TestBatchedFits:
    """A batch of designs gives each fit what its design alone gives."""

    @pytest.mark.parametrize("kind", ["continuous", "binary", "count"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_batch_matches_batch_of_one(self, kind, p):
        rng = np.random.default_rng(40 + p)
        n, n_fits = 250, 9
        raw = rng.integers(0, 3, size=(n_fits, n, p))
        # fit b shares a fraction b / n_fits of its first column with the
        # causal one, so the fits need different numbers of Newton steps
        shared = rng.random((n_fits, n)) < np.linspace(0.0, 1.0, n_fits)[:, None]
        raw[:, :, 0] = np.where(shared, raw[-1, :, 0], raw[:, :, 0])
        trait = batch_trait(rng, kind, raw[-1, :, 0])
        batch = fit_glm(trait, center_ancestries(raw.transpose(0, 2, 1), [list(range(p))] * n_fits))
        bfs = bf_for_fit(batch, n)
        assert batch.flag == [None] * n_fits
        assert list(bfs.flag) == [None] * n_fits
        for b in range(n_fits):
            one = fit_one(trait, raw[b])
            assert one.converged and batch.converged[b]
            np.testing.assert_allclose(batch.beta_hat[b], one.beta_hat, rtol=0, atol=1e-10)
            np.testing.assert_allclose(batch.sigma_beta_hat[b], one.sigma_beta_hat,
                                       rtol=0, atol=1e-10)
            assert abs(bfs.log10_bf[b] - bf_one(one, n).log10_bf) <= 1e-10

    @pytest.mark.parametrize("kind", ["binary", "count"])
    def test_batch_with_every_fit_flagged_fits_none(self, kind):
        rng = np.random.default_rng(3)
        y = (rng.random(50) < 0.5).astype(float) + (kind == "count")
        fit = fit_glm(TraitData(y=y, kind=kind),
                      center_ancestries(np.ones((3, 1, 50), dtype=int), [[7]] * 3))
        assert fit.flag == ["ancestry column 7 is constant"] * 3
        assert np.isnan(fit.beta_hat).all() and not fit.converged.any()

    def test_flagged_fits_keep_their_reasons_and_spare_their_neighbours(self):
        rng = np.random.default_rng(7)
        n = 300
        cov = rng.standard_normal((n, 1))
        y = (rng.random(n) < expit(0.5 * cov[:, 0])).astype(float)
        trait = TraitData(y=y, kind="binary", covariates=cov)
        ordinary = rng.integers(0, 3, size=(3, n, 2))
        constant = ordinary[0].copy()
        constant[:, 1] = 1
        duplicate = ordinary[1].copy()
        duplicate[:, 1] = duplicate[:, 0]
        separated = ordinary[2].copy()
        separated[:, 0] = 2 * y
        raw = np.stack([ordinary[0], constant, ordinary[1], duplicate, separated, ordinary[2]])
        ids = [[10 + 2 * b, 11 + 2 * b] for b in range(6)]
        bfs = bf_for_fit(fit_glm(trait, center_ancestries(raw.transpose(0, 2, 1), ids)), n)
        assert list(bfs.flag) == [
            None,
            "ancestry column 13 is constant",
            None,
            "4x4 matrix is not positive definite",
            "separation",
            None,
        ]
        assert np.isnan(bfs.log10_bf[[1, 3, 4]]).all()
        # the texts a design fitted alone gives
        assert center_one(constant, [12, 13]).flags == ["ancestry column 13 is constant"]
        assert fit_one(trait, duplicate).flag == "4x4 matrix is not positive definite"
        assert fit_one(trait, separated).flag == "separation"
        # the ordinary fits score as they do in a batch of their own
        alone = fit_glm(trait, center_ancestries(ordinary.transpose(0, 2, 1), ids[:3]))
        alone = bf_for_fit(alone, n)
        np.testing.assert_allclose(bfs.log10_bf[[0, 2, 5]], alone.log10_bf, rtol=0, atol=1e-10)


def per_fit_newton(y, base, s, kind):
    """Newton's method with the information built one column at a time.

    The loop the batched ``glm._newton`` replaced: the binary terms go
    through ``log(mu)`` and ``log1p(-mu)``, every iteration copies the
    running fits' designs and terms, and the information is summed one
    column per coefficient.  Start, iterates, convergence test, step
    halving and clip bounds are the package's.  Besides the coefficients,
    the information and which fits converged, it returns per fit the
    iterations run and whether a step was halved.
    """
    r = len(base)

    def eta_of(coef, s):
        return coef[:, :r] @ base + np.einsum("bpn,bp->bn", s, coef[:, r:])

    def sums(v, s):
        return np.concatenate([v @ base.T, np.einsum("bpn,bn->bp", s, v)], axis=1)

    def information(w, s):
        return np.stack([sums(w * z, s) for z in [*base, *s.transpose(1, 0, 2)]], axis=2)

    log_y_fact = sum(map(math.lgamma, (y + 1.0).tolist())) if kind == "count" else 0.0

    def terms(coef, rows):
        eta = eta_of(coef, s[rows])
        if kind == "binary":
            mu = np.clip(expit(eta), 1e-12, 1.0 - 1e-12)
            loglik = np.log(mu) @ y + np.log1p(-mu) @ (1.0 - y)
            return mu, np.maximum(mu * (1.0 - mu), 1e-10), loglik
        mu = np.clip(np.exp(np.clip(eta, -500, 30)), 1e-12, None)
        return mu, mu, np.log(mu) @ y - mu.sum(axis=1) - log_y_fact

    ybar = y.mean()
    coef = np.zeros((len(s), r + s.shape[1]))
    coef[:, 0] = math.log(ybar / (1.0 - ybar)) if kind == "binary" else math.log(ybar)
    converged, singular, halved = np.zeros((3, len(s)), dtype=bool)
    iterations = np.zeros(len(s), dtype=int)
    rows = np.arange(len(s))
    mu, w, loglik = terms(coef, rows)
    for _ in range(glm._IRLS_MAX_ITER):
        iterations[rows] += 1
        score = sums(y - mu[rows], s[rows])
        step, solved = solve_spd_stack(information(w[rows], s[rows]), score)
        step[~solved] = 0.0
        conv = solved & (np.einsum("bk,bk->b", score, step)
                         <= 2.0 * glm._IRLS_TOL * np.maximum(1.0, np.abs(loglik[rows])))
        trial = coef[rows] + step
        t_mu, t_w, t_loglik = terms(trial, rows)
        worse = solved & ~conv & (t_loglik < loglik[rows])
        for _ in range(glm._MAX_HALVINGS - 1):
            if not worse.any():
                break
            i = np.flatnonzero(worse)
            halved[rows[i]] = True
            step[i] /= 2.0
            trial[i] = coef[rows[i]] + step[i]
            t_mu[i], t_w[i], t_loglik[i] = terms(trial[i], rows[i])
            worse[i] = t_loglik[i] < loglik[rows[i]]
        take = solved & ~worse
        for whole, new in ((coef, trial), (mu, t_mu), (w, t_w), (loglik, t_loglik)):
            whole[rows[take]] = new[take]
        converged[rows], singular[rows] = conv, ~solved
        rows = rows[take & ~conv]
        if not rows.size:
            break
    info = information(w, s)
    info[singular] = np.nan
    return coef, info, converged, iterations, halved


def newton_batch(kind, p, seed, n=300):
    """Trait, shared rows and a (7, p, n) batch of designs for ``glm._newton``.

    Fits 0-3 take a growing share of the causal column, so they stop at
    different iterations; fit 4 follows the trait through a heavy-tailed
    column, so its first steps overshoot and are halved; fit 5 separates
    the trait; fit 6 is singular.
    """
    rng = np.random.default_rng(seed)
    cov = rng.standard_normal((n, 2))
    raw = rng.integers(0, 3, size=(7, n, p)).astype(float)
    causal = raw[3, :, 0]
    shared = rng.random((3, n)) < np.array([[0.0], [0.4], [0.8]])
    raw[:3, :, 0] = np.where(shared, causal, raw[:3, :, 0])
    eta = 0.6 * (causal - causal.mean()) + 0.5 * cov[:, 0]
    if kind == "binary":   # rare cases: the weights grow away from the start
        y = (rng.random(n) < expit(eta - 4.0)).astype(float)
        raw[4, :, 0] = rng.lognormal(0.0, 1.0, n) * (1.0 + 5.0 * y)
        raw[5, :, 0] = y
    else:
        y = rng.poisson(np.exp(0.3 + eta)).astype(float)
        raw[4, :, 0] = y + 0.3 * rng.standard_normal(n)
        raw[5, :, 0] = y == 0      # no events where the column is 1
    if p == 1:
        raw[6] = 0.0
    else:
        raw[6, :, 1] = raw[6, :, 0]
    s = raw - raw.mean(axis=1, keepdims=True)
    return y, np.vstack([np.ones(n), cov.T]), np.ascontiguousarray(s.transpose(0, 2, 1))


def newton_flags(coef, info, converged, r):
    """Each fit's flag by the rule ``fit_glm`` applies to a Newton result."""
    separated = (np.abs(coef[:, r:]) > glm._SEPARATION_LIMIT).any(axis=1)
    return ["singular" if np.isnan(i).any() else None if not c else "separation" if sep else "ok"
            for i, c, sep in zip(info, converged, separated)]


class TestBatchedNewton:
    """The batched Newton against the loop it replaced, fit by fit."""

    @pytest.mark.parametrize("kind", ["binary", "count"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_per_fit_newton(self, kind, p):
        y, base, s = newton_batch(kind, p, seed=0)
        r, k = len(base), len(base) + p
        coef, info, converged = glm._newton(y, base, s, kind)
        want_coef, want_info, want_converged, iterations, halved = per_fit_newton(
            y, base, s, kind)
        # a halved fit, and the running fits shrink: the singular fit stops
        # first, the separated one last
        assert halved[4] and len(set(iterations.tolist())) >= 3
        trait = TraitData(y=y, kind=kind, covariates=base[1:].T)
        design = glm.AncestryDesign(s=s, locus_ids=[[*range(p)]] * len(s))
        assert fit_glm(trait, design).flag == [None] * 5 + [
            "separation", f"{k}x{k} matrix is not positive definite"]
        assert np.array_equal(converged, want_converged)
        assert newton_flags(coef, info, converged, r) == newton_flags(
            want_coef, want_info, want_converged, r) == ["ok"] * 5 + ["separation", "singular"]
        # the separated fit ends on weights at their floor, and the singular
        # one can step along a rounding-level pivot before its solve fails:
        # rounding decides their coefficients, so only their flags are compared
        for b in range(5):
            np.testing.assert_array_less(np.abs(coef[b] - want_coef[b]),
                                         1e-12 * np.abs(want_coef[b]).max())
            np.testing.assert_array_less(np.abs(info[b] - want_info[b]),
                                         1e-12 * np.abs(want_info[b]).max())
