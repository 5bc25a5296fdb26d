"""Synthetic-data generators for the simulation studies.

Covers the null model, the single-locus alternative (effect size = c times
the locus's high-risk ancestry proportion), the two-locus artificial
chromosome with correlated ancestry blocks, and the latent-Gaussian
construction used to make correlated ancestry pairs.  All generators are
deterministic given a seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .glm import TraitData
from .hmm import MISSING

# Default effect multipliers: the single-locus power grid and the multilocus
# c, by trait kind.
CONTINUOUS_C_VALUES = (0.2, 0.25, 0.3, 0.35, 0.4)
BINARY_C_VALUES = (0.4, 0.5, 0.6, 0.7, 0.8)
MULTILOCUS_C = {"continuous": 0.7, "binary": 0.35}

# Artificial chromosome layout: two independent segments, a causal locus in
# the middle of each, flanking loci correlated with it through a damped
# AR(1) latent factor.  (phi, kappa) below are calibrated so the ancestry
# correlation with the causal locus starts near 0.20 at the nearest
# neighbour and crosses the 0.12 region boundary about 21 loci out on the
# first segment and 17-18 loci out on the second, giving region sizes of
# roughly 42 and 35.
SEGMENT_LENGTH_MB = (139.50, 114.88)
SEGMENT_N_LOCI = 51
REGION_CORR_THRESHOLD = 0.12
CAUSAL_PAAP = 0.88
_SEGMENT_DECAY = ((0.9855, 0.3045), (0.9765, 0.3072))


def expit(eta):
    """Logistic function, computed without overflow for either sign."""
    e = np.exp(-np.abs(eta))
    # 1 where eta >= 0, else e (e <= 1): np.where, without its slow scalar path
    return np.maximum(e, eta >= 0) / (1.0 + e)


def sample_ancestry_hwe(paap, n_subjects, rng):
    """Independent ancestry counts under Hardy-Weinberg at each locus."""
    paap = np.atleast_1d(np.asarray(paap, dtype=np.float64))
    if np.any((paap <= 0.0) | (paap >= 1.0)):
        raise ValueError("ancestry proportions must lie strictly inside (0, 1)")
    u = rng.random((n_subjects, paap.shape[0]))
    t0 = (1.0 - paap) ** 2
    t1 = 1.0 - paap ** 2
    return ((u >= t0).astype(np.int8) + (u >= t1).astype(np.int8))


def sample_correlated_ancestry(p_a, rho_latent, n_subjects, rng):
    """Ancestry pairs coupled through correlated standard-normal latents.

    Each latent is cut at the standard-normal quantiles of ``(1-p_a)^2`` and
    ``1-p_a^2`` so the marginals stay exactly Hardy-Weinberg whatever the
    latent correlation.
    """
    if not (0.0 <= rho_latent < 1.0):
        raise ValueError("latent correlation must lie in [0, 1)")
    z1 = rng.standard_normal(n_subjects)
    z2 = rho_latent * z1 + np.sqrt(1.0 - rho_latent ** 2) * rng.standard_normal(n_subjects)
    return _threshold_to_counts(np.column_stack([z1, z2]), [p_a, p_a])


def simulate_traits(s_causal, trait_kind, alpha, c, paap_causal, rng) -> TraitData:
    """Trait vector given causal ancestry columns (or none, for the null).

    The causal effect is ``c * paap_causal`` per column.  The covariate and
    noise streams are drawn before the effect is added, so c = 0 reproduces
    the null generator draw-for-draw under the same seed.
    """
    if s_causal is None:
        s_causal = np.empty((0, 0))
    s_causal = np.asarray(s_causal, dtype=np.float64)
    if s_causal.ndim == 1:
        s_causal = s_causal[:, None]
    n = s_causal.shape[0]
    if n == 0:
        raise ValueError("need the subject count; pass an (n, 0) array for the null")
    paap_causal = np.atleast_1d(np.asarray(paap_causal, dtype=np.float64))
    if s_causal.shape[1] and paap_causal.shape[0] != s_causal.shape[1]:
        raise ValueError("one ancestry proportion per causal column")
    beta = c * paap_causal if s_causal.shape[1] else np.empty(0)

    e = rng.standard_normal(n)
    linear = alpha * e + (s_causal @ beta if s_causal.shape[1] else 0.0)
    if trait_kind == "continuous":
        y = linear + rng.standard_normal(n)
    elif trait_kind == "binary":
        y = (rng.random(n) < expit(linear)).astype(np.float64)
    else:
        raise ValueError("simulated traits are continuous or binary")
    return TraitData(y=y, kind=trait_kind, covariates=e[:, None],
                     covariate_names=["e"])


def sample_genotypes_from_ancestry(s, p_a, p_b, rng, missing_rate=0.0):
    """Observed minor-allele counts given ancestry and panel frequencies."""
    s = np.asarray(s, dtype=np.int8)
    n_sub, n_loc = s.shape
    p_a = np.asarray(p_a, dtype=np.float64)
    p_b = np.asarray(p_b, dtype=np.float64)
    u1 = rng.random((n_sub, n_loc))
    u2 = rng.random((n_sub, n_loc))
    # allele 1 comes from the high-risk lineage iff s == 2, or half of s == 1
    pa = p_a[None, :]
    pb = p_b[None, :]
    first = np.where(s >= 1, pa, pb)
    second = np.where(s == 2, pa, pb)
    x = (u1 < first).astype(np.int8) + (u2 < second).astype(np.int8)
    if missing_rate > 0.0:
        drop = rng.random((n_sub, n_loc)) < missing_rate
        x[drop] = MISSING
    return x


@dataclass
class ArtificialChromosome:
    """Two-segment benchmark with known causal loci and region labels."""

    s: np.ndarray              # (n_subjects, 102) ancestry counts
    paap: np.ndarray           # per-locus ancestry proportion
    position_mb: np.ndarray
    chrom: np.ndarray
    causal: tuple              # indices of the two causal loci
    regions: np.ndarray        # per-locus labels: L1, L2, REG1, REG2, REG3

    @property
    def n_loci(self):
        return self.s.shape[1]


def _segment_latents(n_subjects, n_loci, phi, kappa, rng):
    factor = np.empty((n_subjects, n_loci))
    factor[:, 0] = rng.standard_normal(n_subjects)
    innov = rng.standard_normal((n_subjects, n_loci - 1))
    scale = np.sqrt(1.0 - phi ** 2)
    for j in range(1, n_loci):
        factor[:, j] = phi * factor[:, j - 1] + scale * innov[:, j - 1]
    noise = rng.standard_normal((n_subjects, n_loci))
    return np.sqrt(kappa) * factor + np.sqrt(1.0 - kappa) * noise


def _threshold_to_counts(z, paap):
    """Cut standard-normal latents into Hardy-Weinberg ancestry counts."""
    inv_cdf = NormalDist().inv_cdf
    c0 = np.array([inv_cdf((1.0 - p) ** 2) for p in paap])
    c1 = np.array([inv_cdf(1.0 - p ** 2) for p in paap])
    return (z > c0).astype(np.int8) + (z > c1).astype(np.int8)


def label_regions(s, causal, threshold=REGION_CORR_THRESHOLD):
    """Recompute region labels from realised ancestry correlations."""
    n_loci = s.shape[1]
    sf = s.astype(np.float64)
    labels = np.array(["REG3"] * n_loci, dtype=object)
    labels[causal[0]] = "L1"
    labels[causal[1]] = "L2"
    corr = np.corrcoef(sf, rowvar=False)
    r1 = np.abs(corr[:, causal[0]])
    r2 = np.abs(corr[:, causal[1]])
    for j in range(n_loci):
        if j in causal:
            continue
        if r1[j] > threshold and r1[j] >= r2[j]:
            labels[j] = "REG1"
        elif r2[j] > threshold:
            labels[j] = "REG2"
    return labels


def build_artificial_chromosome(n_subjects, rng, source=None) -> ArtificialChromosome:
    """Assemble the two-segment benchmark chromosome.

    ``source`` may supply user ancestry draws (n_subjects, >= 102) instead
    of the built-in latent-Gaussian generator; its first 102 columns are
    split into the two segments.
    """
    total = 2 * SEGMENT_N_LOCI
    if source is not None:
        source = np.asarray(source, dtype=np.int8)
        if source.shape[0] < 2 or source.shape[1] < total:
            raise ValueError(
                f"ancestry source needs at least 2 rows and {total} columns"
            )
        s = source[:, :total].copy()
        paap = (s.astype(np.float64).mean(axis=0) / 2.0).clip(0.05, 0.95)
    else:
        cols = []
        paaps = []
        for (phi, kappa) in _SEGMENT_DECAY:
            paap = rng.uniform(0.78, 0.88, size=SEGMENT_N_LOCI)
            paap[SEGMENT_N_LOCI // 2] = CAUSAL_PAAP
            z = _segment_latents(n_subjects, SEGMENT_N_LOCI, phi, kappa, rng)
            cols.append(_threshold_to_counts(z, paap))
            paaps.append(paap)
        s = np.concatenate(cols, axis=1)
        paap = np.concatenate(paaps)

    causal = (SEGMENT_N_LOCI // 2, SEGMENT_N_LOCI + SEGMENT_N_LOCI // 2)
    position = np.concatenate(
        [
            np.linspace(0.0, SEGMENT_LENGTH_MB[0], SEGMENT_N_LOCI),
            np.linspace(0.0, SEGMENT_LENGTH_MB[1], SEGMENT_N_LOCI),
        ]
    )
    chrom = np.repeat([1, 2], SEGMENT_N_LOCI)
    labels = label_regions(s, causal)
    return ArtificialChromosome(
        s=s,
        paap=paap,
        position_mb=position,
        chrom=chrom,
        causal=causal,
        regions=labels,
    )
