import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import beta, binom

from admixscan import kernels, sampler
from admixscan.hmm import (
    FREQ_CLAMP,
    AimPanel,
    GenotypeMatrix,
    MISSING,
    TAU_RANGE,
    observation_rows,
    transition_kernels,
)
from admixscan.sampler import (
    DerivedPriors,
    FreqPrior,
    HmmHyperparams,
    HmmState,
    _beta_loglik,
    _fast_loglik,
    allele_freq_posterior_params,
    derive_priors,
    impute_missing_genotypes,
    initial_state,
    run_mcmc,
    slice_step_tau,
    sweep,
    update_allele_freqs,
    update_gamma,
    update_rho,
)
from admixscan.simulate import sample_genotypes_from_ancestry
from conftest import simulate_chain_ancestry, trans_prob, validate_ranges


def rows_of(state):
    return observation_rows(state.p_a, state.p_b)


def missing_at(mask):
    """The one prior the imputation step reads: the cells of ``mask``."""
    return SimpleNamespace(missing_cells=np.nonzero(mask))


def freq_priors(n_loc):
    """``DerivedPriors`` fields for the frequency priors of ``blank_state``."""
    return {"prior_a": FreqPrior.of(np.full(n_loc, 0.8)),
            "prior_b": FreqPrior.of(np.full(n_loc, 0.2))}


def small_panel(n_loci=4, chrom=None):
    chrom = chrom if chrom is not None else [1] * n_loci
    return AimPanel(
        marker_ids=[f"m{j}" for j in range(n_loci)],
        chrom=chrom,
        position=np.linspace(0.0, 0.05 * (n_loci - 1), n_loci),
        p_a0=np.full(n_loci, 0.8),
        p_b0=np.full(n_loci, 0.2),
    )


def blank_state(n_sub, n_loc, rho=0.8, gamma=0.2):
    return HmmState(
        s=np.zeros((n_sub, n_loc), dtype=np.int8),
        r=np.zeros((n_sub, n_loc), dtype=np.int8),
        x_imp=np.zeros((n_sub, n_loc), dtype=np.int8),
        p_a=np.full(n_loc, 0.8),
        p_b=np.full(n_loc, 0.2),
        gamma=np.full(n_loc, gamma),
        rho=np.full(n_sub, rho),
        tau_a=300.0,
        tau_b=300.0,
    )


class TestImputation:
    def test_degenerate_frequencies_are_deterministic(self, rng):
        state = blank_state(500, 2)
        state.s[:, 0] = 2
        state.p_a[:] = 1.0 - 1e-12
        state.p_b[:] = 1e-12
        missing = np.zeros((500, 2), dtype=bool)
        missing[:, 0] = True
        impute_missing_genotypes(state, missing_at(missing), rows_of(state), rng)
        assert (state.x_imp[:, 0] == 2).all()
        # state 0 with p_b ~ 0 always imputes genotype 0
        state.s[:, 1] = 0
        missing = np.zeros((500, 2), dtype=bool)
        missing[:, 1] = True
        impute_missing_genotypes(state, missing_at(missing), rows_of(state), rng)
        assert (state.x_imp[:, 1] == 0).all()

    def test_heterozygous_state_empirical_row(self, rng):
        n = 100000
        state = blank_state(n, 1)
        state.s[:, 0] = 1
        missing = np.ones((n, 1), dtype=bool)
        impute_missing_genotypes(state, missing_at(missing), rows_of(state), rng)
        freqs = [(state.x_imp[:, 0] == k).mean() for k in range(3)]
        assert np.allclose(freqs, [0.16, 0.68, 0.16], atol=0.01)

    def test_observed_cells_untouched(self, rng):
        state = blank_state(10, 3)
        state.x_imp[:] = 2
        missing = np.zeros((10, 3), dtype=bool)
        impute_missing_genotypes(state, missing_at(missing), rows_of(state), rng)
        assert (state.x_imp == 2).all()

    def test_draws_one_uniform_per_missing_cell(self, rng):
        state = blank_state(40, 7)
        state.s[:] = rng.integers(0, 3, state.s.shape)
        missing = rng.random(state.s.shape) < 0.2
        observed = state.x_imp[~missing].copy()
        gen, twin = np.random.default_rng(5), np.random.default_rng(5)
        impute_missing_genotypes(state, missing_at(missing), rows_of(state), gen)
        twin.random(int(missing.sum()))
        assert gen.random() == twin.random()
        assert np.array_equal(state.x_imp[~missing], observed)


class TestRecombinationCounts:
    def test_double_jump_requires_two_events(self, rng):
        # a 0 -> 2 transition has zero probability under 0 or 1 recombination
        s = np.array([[0, 2]], dtype=np.int8)
        u = rng.random((1, 2))
        r = kernels.recombination_counts(
            s, np.array([1.0, 0.3]), transition_kernels(np.array([0.5])), u
        )
        assert r[0, 1] == 2

    def test_gamma_near_one_forces_two_events(self, rng):
        n = 2000
        s = np.ones((n, 2), dtype=np.int8)
        u = rng.random((n, 2))
        r = kernels.recombination_counts(
            s, np.array([1.0, 1.0 - 1e-12]), transition_kernels(np.full(n, 0.5)), u
        )
        assert (r[:, 1] == 2).all()

    def test_empirical_pmf_matches_direct_formula(self, rng):
        n = 100000
        m = sval = 0
        gamma, rho = 0.5, 0.5
        s = np.zeros((n, 2), dtype=np.int8)
        u = rng.random((n, 2))
        r = kernels.recombination_counts(
            s, np.array([1.0, gamma]), transition_kernels(np.full(n, rho)), u
        )
        w = np.array(
            [
                trans_prob(rho, k, m, sval) * binom.pmf(k, 2, gamma)
                for k in range(3)
            ]
        )
        w /= w.sum()
        emp = [(r[:, 1] == k).mean() for k in range(3)]
        assert np.allclose(emp, w, atol=0.01)

    def test_chromosome_start_interval_carries_two_recombinations(self, rng):
        s = np.array([[1, 2, 0, 1]], dtype=np.int8)
        u = rng.random((1, 4))
        r = kernels.recombination_counts(
            s, np.array([1.0, 0.9, 1.0, 0.9]), transition_kernels(np.array([0.5])), u
        )
        assert r[0, 0] == 2 and r[0, 2] == 2


class TestGammaUpdate:
    def make_derived(self, n_sub, n_loc, tau_gamma, gamma0):
        return DerivedPriors(
            gamma0=np.full(n_loc, gamma0),
            tau_gamma=np.full(n_loc, tau_gamma),
            gamma_mask=np.array([False] + [True] * (n_loc - 1)),
            rho0=np.full(n_sub, 0.8),
            tau_rho=15.0,
            **freq_priors(n_loc),
            missing_cells=np.nonzero(np.zeros((n_sub, n_loc), dtype=bool)),
        )

    def test_no_events_gives_prior_with_failure_mass(self, rng):
        n_sub, n_loc = 50, 2
        state = blank_state(n_sub, n_loc)
        derived = self.make_derived(n_sub, n_loc, tau_gamma=9.0, gamma0=0.1)
        draws = []
        for _ in range(20000):
            update_gamma(state, derived, rng)
            draws.append(state.gamma[1])
        expected = 0.9 / (9.0 + 2 * n_sub)
        assert np.mean(draws) == pytest.approx(expected, abs=0.002)

    def test_prior_dominates_for_huge_concentration(self, rng):
        n_sub, n_loc = 10, 2
        state = blank_state(n_sub, n_loc)
        derived = self.make_derived(n_sub, n_loc, tau_gamma=1e8, gamma0=0.1)
        update_gamma(state, derived, rng)
        assert state.gamma[1] == pytest.approx(0.1, abs=0.005)

    def test_beta_mean_oracle(self, rng):
        # 100 subjects, 40 events: mean (0.9 + 40) / (9 + 200)
        n_sub, n_loc = 100, 2
        state = blank_state(n_sub, n_loc)
        state.r[:20, 1] = 2
        derived = self.make_derived(n_sub, n_loc, tau_gamma=9.0, gamma0=0.1)
        draws = np.empty(100000)
        for k in range(draws.size):
            update_gamma(state, derived, rng)
            draws[k] = state.gamma[1]
        assert draws.mean() == pytest.approx(40.9 / 209.0, abs=0.005)

    def test_chromosome_start_entry_untouched(self, rng):
        state = blank_state(5, 3, gamma=0.123)
        derived = self.make_derived(5, 3, tau_gamma=5.0, gamma0=0.2)
        update_gamma(state, derived, rng)
        assert state.gamma[0] == 0.123


class TestRhoUpdate:
    def make_derived(self, n_sub, n_loc, tau_rho=16.0, rho0=0.8):
        return DerivedPriors(
            gamma0=np.full(n_loc, 0.2),
            tau_gamma=np.full(n_loc, 9.0),
            gamma_mask=np.array([False] + [True] * (n_loc - 1)),
            rho0=np.full(n_sub, rho0),
            tau_rho=tau_rho,
            **freq_priors(n_loc),
            missing_cells=np.nonzero(np.zeros((n_sub, n_loc), dtype=bool)),
        )

    def test_double_recombination_everywhere_counts_two_per_locus(self, rng):
        # all arrivals in state 2 contribute 2 successes per locus,
        # including the chromosome start: success total tau*rho0 + 2J
        n_sub, n_loc = 1, 6
        s = np.full((n_sub, n_loc), 2, dtype=np.int8)
        r = np.full((n_sub, n_loc), 2, dtype=np.int8)
        a, b = kernels.ancestry_count_stats(s, r)
        assert a[0] == 2 * n_loc
        assert b[0] == 0

    def test_count_tabulation_oracle(self, rng):
        # hand-built path exercising every informative transition type
        s = np.array([[1, 2, 2, 1, 0, 0]], dtype=np.int8)
        r = np.array([[2, 1, 2, 2, 1, 0]], dtype=np.int8)
        # start state 1: one success, one failure
        # r=1, 1->2: success; r=2 arrive 2: two successes
        # r=2 arrive 1: one of each; r=1, 1->0: failure; r=0: nothing
        a, b = kernels.ancestry_count_stats(s, r)
        assert (a[0], b[0]) == (5.0, 3.0)

        n_sub = 1
        derived = self.make_derived(n_sub, 6, tau_rho=16.0, rho0=0.8)
        state = blank_state(n_sub, 6)
        state.s = s.copy()
        state.r = r.copy()
        draws = np.empty(100000)
        for k in range(draws.size):
            update_rho(state, derived, rng)
            draws[k] = state.rho[0]
            state.rho[:] = 0.8  # keep the conditional fixed
        expected = (16.0 * 0.8 + 5.0) / (16.0 + 8.0)
        assert draws.mean() == pytest.approx(expected, abs=0.005)

    def test_uninformative_heterozygous_transition_ignored(self):
        s = np.array([[1, 1]], dtype=np.int8)
        r = np.array([[2, 1]], dtype=np.int8)
        a, b = kernels.ancestry_count_stats(s, r)
        # only the start state contributes: one success, one failure
        assert (a[0], b[0]) == (1.0, 1.0)


class TestAlleleFreqUpdate:
    def test_posterior_params_match_spelled_out_counts(self):
        counts = np.zeros((1, 3, 3), dtype=np.int64)
        counts[0, 2, 1] = 5
        counts[0, 2, 2] = 10
        counts[0, 1, 1] = 4
        counts[0, 2, 0] = 1
        (a_a, b_a), _ = allele_freq_posterior_params(
            counts, np.array([2]), np.array([0.8]), np.array([0.2]), 100.0, 100.0
        )
        assert a_a[0] == pytest.approx(80 + 5 + 20 + 2)
        assert b_a[0] == pytest.approx(20 + 5 + 2 + 2)

    def test_beta_mean_oracle(self, rng):
        a, b = 107.0, 29.0
        draws = rng.beta(a, b, size=100000)
        assert draws.mean() == pytest.approx(a / (a + b), abs=0.005)

    def test_unambiguous_heterozygous_cells_enter_both_updates(self):
        counts = np.zeros((1, 3, 3), dtype=np.int64)
        counts[0, 1, 2] = 3   # ancestry 1, genotype 2: variant on both lineages
        counts[0, 1, 0] = 2   # ancestry 1, genotype 0: neither lineage variant
        (a_a, b_a), (a_b, b_b) = allele_freq_posterior_params(
            counts, np.array([0]), np.array([0.5]), np.array([0.5]), 10.0, 10.0
        )
        assert (a_a[0], b_a[0]) == (5 + 3, 5 + 2)
        assert (a_b[0], b_b[0]) == (5 + 3, 5 + 2)

    def test_no_heterozygous_cells_means_zero_latent_split(self, rng):
        state = blank_state(20, 2)
        state.s[:] = 2
        state.x_imp[:] = 1
        update_allele_freqs(state, SimpleNamespace(**freq_priors(2)), rng)
        assert 0.0 < state.p_a.min() and state.p_a.max() < 1.0

    def test_equal_frequencies_split_latent_half_half(self, rng):
        n = 100000
        n11 = np.full(1, n, dtype=np.int64)
        w = 0.5
        draws = rng.binomial(n11, w)
        assert draws[0] / n == pytest.approx(0.5, abs=0.01)


class TestTauSlice:
    @pytest.mark.parametrize("n_loci", [1, 4, 800])
    def test_log_density_matches_scipy(self, rng, n_loci):
        means = rng.uniform(0.05, 0.95, n_loci)
        freqs = rng.beta(200.0 * means, 200.0 * (1.0 - means))
        for tau in np.linspace(*TAU_RANGE, 25):
            expected = beta.logpdf(freqs, tau * means, tau * (1.0 - means)).sum()
            assert _beta_loglik(tau, freqs, means) == pytest.approx(expected, rel=1e-9)

    def test_bracket_shrinks_from_the_support_towards_tau(self, rng):
        # 200 frequencies at concentration 200 make the slice a narrow band
        # round tau, so the scripted proposals below are rejected first
        means = np.full(200, 0.8)
        freqs = rng.beta(200.0 * 0.8, 200.0 * 0.2, size=200)
        tau = 200.0

        class ScriptedStep:
            """Proposes at scripted fractions of the bracket, then halves it."""

            def __init__(self):
                self.fracs = iter([0.99, 0.01, 0.9, 0.05])
                self.brackets, self.proposals = [], []

            def random(self):
                return 0.5

            def uniform(self, lo, hi):
                assert len(self.brackets) < 200, "slice step did not end"
                self.brackets.append((lo, hi))
                self.proposals.append(lo + next(self.fracs, 0.5) * (hi - lo))
                return self.proposals[-1]

        stub = ScriptedStep()
        out = slice_step_tau(tau, freqs, FreqPrior.of(means), stub)

        level = _beta_loglik(tau, freqs, means) + math.log1p(-0.5)
        clears = [_beta_loglik(p, freqs, means) >= level for p in stub.proposals]
        assert stub.brackets[0] == TAU_RANGE
        assert len(stub.brackets) > 4
        assert all(lo < tau < hi for lo, hi in stub.brackets)
        for (lo0, hi0), (lo1, hi1) in zip(stub.brackets, stub.brackets[1:]):
            assert lo0 <= lo1 and hi1 <= hi0 and (lo0, hi0) != (lo1, hi1)
        assert clears[-1] and not any(clears[:-1])
        assert out == stub.proposals[-1]

    def test_posterior_mode_matches_grid(self, rng):
        # 50 frequencies drawn at concentration 200: the slice chain
        # should land where the gridded posterior does
        tau_true = 200.0
        freqs = rng.beta(tau_true * 0.8, tau_true * 0.2, size=50)
        means = np.full(50, 0.8)

        grid = np.linspace(TAU_RANGE[0] + 1e-6, TAU_RANGE[1] - 1e-6, 4000)
        logp = np.array([_beta_loglik(t, freqs, means) for t in grid])
        post = np.exp(logp - logp.max())
        post /= post.sum()
        grid_mean = float(grid @ post)
        grid_mode = float(grid[np.argmax(post)])

        tau = 500.0
        chain = np.empty(30000)
        prior = FreqPrior.of(means)
        for k in range(chain.size):
            tau = slice_step_tau(tau, freqs, prior, rng)
            chain[k] = tau
        chain = chain[5000:]
        assert 100.0 <= grid_mode <= 400.0
        assert chain.mean() == pytest.approx(grid_mean, abs=0.05 * grid_mean)


def force_exact(monkeypatch):
    """Give every moment density an infinite bound: each comparison goes exact."""
    fast = sampler._fast_loglik
    monkeypatch.setattr(sampler, "_fast_loglik", lambda *args: (fast(*args)[0], math.inf))


def count_exact(monkeypatch):
    """Count the exact density evaluations of the slice steps."""
    calls = []
    exact = sampler._beta_loglik
    monkeypatch.setattr(sampler, "_beta_loglik", lambda *args: calls.append(0) or exact(*args))
    return calls


def reference_slice_step(tau, freqs, means, rng):
    """The slice step with every density exact, as written before moments."""
    level = _beta_loglik(tau, freqs, means) + math.log1p(-rng.random())
    lo, hi = TAU_RANGE
    while True:
        prop = rng.uniform(lo, hi)
        if _beta_loglik(prop, freqs, means) >= level:
            return prop
        lo, hi = (prop, hi) if prop < tau else (lo, prop)


def data_sums(freqs, prior):
    logs = np.concatenate((np.log(freqs), np.log1p(-freqs)))
    return (prior.weights @ logs).tolist()


# taus at and next to both edges of the support, and inside it
TAU_GRID = [TAU_RANGE[0], math.nextafter(TAU_RANGE[0], math.inf), 50.5, 61.7, 137.0,
            300.0, 512.25, 999.0, math.nextafter(TAU_RANGE[1], 0.0), TAU_RANGE[1]]


class TestTauMoments:
    def chain(self, freqs, prior, seed, steps, step=slice_step_tau):
        rng = np.random.default_rng(seed)
        tau, taus = 500.0, []
        for _ in range(steps):
            tau = step(tau, freqs, prior, rng)
            taus.append(tau)
        return taus

    def reference_chain(self, freqs, means, seed, steps):
        return self.chain(freqs, FreqPrior.of(means), seed, steps,
                          lambda tau, freqs, prior, rng: reference_slice_step(tau, freqs, prior.means, rng))

    def test_fast_chain_equals_the_exact_chain(self, monkeypatch):
        rng = np.random.default_rng(31)
        means = rng.uniform(0.05, 0.95, 800)
        freqs = rng.beta(300.0 * means, 300.0 * (1.0 - means))
        prior = FreqPrior.of(means)
        calls = count_exact(monkeypatch)
        fast = self.chain(freqs, prior, 5, 200)
        n_fast = len(calls)
        force_exact(monkeypatch)
        exact = self.chain(freqs, prior, 5, 200)
        assert fast == exact == self.reference_chain(freqs, means, 5, 200)
        # two exact evaluations at least per exact step, and no fast decision
        assert len(calls) - n_fast >= 400
        assert n_fast <= 10
        # the chain moved over its posterior, not one value
        assert len(set(fast)) == 200

    def test_fast_run_equals_the_exact_run(self, monkeypatch):
        rng = np.random.default_rng(37)
        n_sub, n_loc = 20, 30
        panel = AimPanel(
            marker_ids=[f"m{j}" for j in range(n_loc)],
            chrom=[1] * n_loc,
            position=np.arange(n_loc) * 0.01,
            p_a0=rng.uniform(0.55, 0.95, n_loc),
            p_b0=rng.uniform(0.05, 0.45, n_loc),
        )
        s = simulate_chain_ancestry(rng, n_sub, panel.gamma0(6.0), 0.8)
        x = sample_genotypes_from_ancestry(s, panel.p_a0, panel.p_b0, rng, missing_rate=0.1)
        g = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(n_sub)])
        hyper = HmmHyperparams(burn_in=20, n_draws=20, thin=1, seed=4)
        calls = count_exact(monkeypatch)
        fast = run_mcmc(g, panel, hyper)
        assert len(calls) <= 5
        force_exact(monkeypatch)
        exact = run_mcmc(g, panel, hyper)
        assert len(calls) >= 4 * 40
        assert fast.draws.tobytes() == exact.draws.tobytes()
        for key in fast.traces:
            assert fast.traces[key].tobytes() == exact.traces[key].tobytes(), key

    def test_a_near_tie_goes_exact(self, monkeypatch):
        # levels one step of the uniform either side of the exact density at
        # the proposal: the moment density cannot tell them apart, the
        # exact one can
        rng = np.random.default_rng(47)
        means = rng.uniform(0.05, 0.95, 800)
        freqs = rng.beta(300.0 * means, 300.0 * (1.0 - means))
        tau, prop = 300.0, 420.0
        at_tau, at_prop = _beta_loglik(tau, freqs, means), _beta_loglik(prop, freqs, means)

        def clears(u):
            return at_prop >= at_tau + math.log1p(-u)

        below = above = -math.expm1(at_prop - at_tau)
        while clears(below):
            below = math.nextafter(below, 0.0)
        while not clears(above):
            above = math.nextafter(above, 1.0)
        while math.nextafter(below, 1.0) < above:
            mid = 0.5 * (below + above)
            below, above = (below, mid) if clears(mid) else (mid, above)

        class Scripted:
            def __init__(self, u):
                self.u, self.proposals = u, iter([prop, tau])

            def random(self):
                return self.u

            def uniform(self, lo, hi):
                return next(self.proposals)

        calls = count_exact(monkeypatch)
        prior = FreqPrior.of(means)
        assert slice_step_tau(tau, freqs, prior, Scripted(above)) == prop
        assert slice_step_tau(tau, freqs, prior, Scripted(below)) == tau
        assert len(calls) == 4

    @pytest.mark.parametrize("kind", ["common", "near_0", "near_1", "clamped", "mixed"])
    def test_bound_covers_the_exact_density(self, kind):
        rng = np.random.default_rng(41)
        common = rng.uniform(0.05, 0.95, 200)
        means = {
            "common": common,
            "near_0": rng.uniform(0.0, 1e-6, 200) + 1e-9,
            "near_1": 1.0 - rng.uniform(0.0, 1e-6, 200) - 1e-9,
            "clamped": np.tile([FREQ_CLAMP, 1.0 - FREQ_CLAMP], 100),
            "mixed": np.concatenate((common[:100], [1e-6, 1.0 - 1e-6, FREQ_CLAMP])),
        }[kind]
        n = means.size
        prior = FreqPrior.of(means)
        freqs = np.clip(rng.beta(200.0 * means + 0.5, 200.0 * (1.0 - means) + 0.5), 1e-12, 1 - 1e-12)
        a_sum, b_sum = data_sums(freqs, prior)
        for tau in TAU_GRID:
            lgammas = (math.fsum(map(math.lgamma, (tau * means).tolist()))
                       + math.fsum(map(math.lgamma, (tau * (1.0 - means)).tolist())))
            value, bound = _fast_loglik(tau, prior, 0.0, 0.0)
            assert abs(value - (n * math.lgamma(tau) - lgammas)) <= bound, tau
            value, bound = _fast_loglik(tau, prior, a_sum, b_sum)
            assert abs(value - _beta_loglik(tau, freqs, means)) <= bound, tau
            if kind == "common":
                # tight enough to decide nearly every comparison
                assert bound < 1e-4
            else:
                # hopeless for Stirling's series: the exact path decides
                assert bound > 1.0

    @pytest.mark.parametrize("tiny", [1e-30, 1e-200])
    def test_inf_or_nan_bounds_fall_back_without_warnings(self, monkeypatch, tiny):
        # q**-11 overflows at 1e-30 (an inf bound); at 1e-200 the series
        # itself is inf - inf (a NaN density)
        rng = np.random.default_rng(43)
        means = np.concatenate(([tiny], rng.uniform(0.2, 0.8, 30)))
        freqs = rng.uniform(0.2, 0.8, means.size)
        calls = count_exact(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prior = FreqPrior.of(means)
            value, bound = _fast_loglik(300.0, prior, *data_sums(freqs, prior))
            assert bound == math.inf
            assert math.isnan(value) == (tiny == 1e-200)
            fast = self.chain(freqs, prior, 6, 20)
            n_fast = len(calls)
            force_exact(monkeypatch)
            exact = self.chain(freqs, prior, 6, 20)
        assert fast == exact == self.reference_chain(freqs, means, 6, 20)
        assert n_fast == len(calls) - n_fast >= 40

    def test_a_zero_mean_gives_nan_moments_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prior = FreqPrior.of(np.array([0.0, 0.5]))
        assert math.isnan(prior.qlnq) and prior.inv[5] == math.inf

    def test_a_run_reads_moments_of_its_panel(self):
        panel = small_panel(5)
        g = GenotypeMatrix(x=np.zeros((2, 5), dtype=np.int8), subject_ids=["a", "b"])
        derived = derive_priors(g, panel, HmmHyperparams())
        for got, means in ((derived.prior_a, panel.p_a0), (derived.prior_b, panel.p_b0)):
            want = FreqPrior.of(means)
            assert np.array_equal(got.means, means)
            assert got.inv == want.inv and got.qlnq == want.qlnq
            assert np.array_equal(got.weights, want.weights)


class TestDerivedPriors:
    def test_mu0_bound_enforced(self):
        panel = small_panel(3)
        g = GenotypeMatrix(
            x=np.zeros((2, 3), dtype=np.int8), subject_ids=["a", "b"]
        )
        with pytest.raises(ValueError, match="mu0"):
            derive_priors(g, panel, HmmHyperparams(mu0=0.9))

    @pytest.mark.parametrize("given, message", [
        ({"rho0": 1.0}, "rho0 must lie strictly inside"),
        ({"rho0": 0.0}, "rho0 must lie strictly inside"),
        ({"rho0": 0.5, "nu0": 0.25}, r"nu0 must be smaller than rho0\*\(1-rho0\)"),
    ])
    def test_admixture_prior_refused_on_construction(self, given, message):
        with pytest.raises(ValueError, match=message):
            HmmHyperparams(**given)

    @pytest.mark.parametrize("given, message", [
        ({"lam": 0.0}, "^lam must be positive$"),
        ({"mu0": -1e-4}, "^mu0 and nu0 must be positive$"),
        ({"nu0": 0.0}, "^mu0 and nu0 must be positive$"),
        ({"burn_in": 0}, "^burn_in and n_draws must be at least 1$"),
        ({"n_draws": 0, "thin": 1}, "^burn_in and n_draws must be at least 1$"),
        ({"thin": 0}, r"^thin must lie in \[1, n_draws\]$"),
        ({"n_draws": 5, "thin": 6}, r"^thin must lie in \[1, n_draws\]$"),
    ])
    def test_schedule_and_rate_refused_on_construction(self, given, message):
        with pytest.raises(ValueError, match=message):
            HmmHyperparams(**given)

    def test_tau_gamma_floor(self):
        panel = small_panel(3)
        g = GenotypeMatrix(x=np.zeros((2, 3), dtype=np.int8), subject_ids=["a", "b"])
        derived = derive_priors(g, panel, HmmHyperparams(mu0=0.02))
        assert (derived.tau_gamma >= 1.0).all()

    def test_initial_state_within_support(self, rng):
        panel = small_panel(4)
        x = np.array([[0, 1, MISSING, 2]] * 3, dtype=np.int8)
        g = GenotypeMatrix(x=x, subject_ids=["a", "b", "c"])
        hyper = HmmHyperparams()
        derived = derive_priors(g, panel, hyper)
        state = initial_state(g, derived, rng)
        validate_ranges(state, panel.chrom_start)


class TestChromosomeStartInvariant:
    """A chromosome start is an interval on which both lineages recombine."""

    def three_chromosomes(self, rng):
        panel = small_panel(9, chrom=[1] * 3 + [2] * 4 + [3] * 2)
        x = rng.integers(0, 3, size=(30, 9)).astype(np.int8)
        x[rng.random(x.shape) < 0.1] = MISSING
        g = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(30)])
        return panel, g, derive_priors(g, panel, HmmHyperparams(mu0=1e-3))

    def test_initial_state_and_one_sweep_keep_two_recombinations_at_starts(self, rng):
        panel, g, derived = self.three_chromosomes(rng)
        start = panel.chrom_start
        state = initial_state(g, derived, rng)
        validate_ranges(state, start)
        sweep(state, derived, rng)
        validate_ranges(state, start)
        assert (state.gamma[start] == 1.0).all()
        assert (state.r[:, start] == 2).all()

    def test_validate_ranges_refuses_no_recombination_at_a_start(self, rng):
        panel, _, _ = self.three_chromosomes(rng)
        state = blank_state(30, 9)
        state.gamma[panel.chrom_start] = 1.0
        state.r[:, panel.chrom_start] = 2
        validate_ranges(state, panel.chrom_start)
        state.r[4, 3] = 0   # marker 3 starts chromosome 2
        with pytest.raises(ValueError, match="two recombinations"):
            validate_ranges(state, panel.chrom_start)

    def test_validate_ranges_refuses_gamma_below_one_at_a_start(self, rng):
        panel, _, _ = self.three_chromosomes(rng)
        state = blank_state(30, 9)
        state.r[:, panel.chrom_start] = 2
        with pytest.raises(ValueError, match="gamma = 1"):
            validate_ranges(state, panel.chrom_start)
