"""Two-population admixture HMM: data containers and probability matrices.

Latent local ancestry at a marker is the count (0, 1 or 2) of alleles
inherited from the high-risk ancestral population.  Genotypes are observed
minor-allele counts.  Between neighbouring markers the ancestry chain moves
through a mixture of three conditional kernels indexed by the number of
recombination events on the connecting interval; at each chromosome start
the chain restarts from the Hardy-Weinberg vector implied by the subject's
genome-wide admixture proportion.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MISSING = -1          # sentinel for unobserved genotypes in int8 arrays
FREQ_CLAMP = 1e-4     # reference allele frequencies kept inside [eps, 1-eps]
GAMMA_CLAMP = 1e-6    # recombination prior means kept off exact 0/1
TAU_RANGE = (50.0, 1000.0)   # support of the dispersion parameters tau_a/tau_b


def _vector(x, name, n=None):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {n}")
    return arr


@dataclass
class AimPanel:
    """Ordered panel of ancestry-informative markers.

    ``position`` is the genetic position in Morgans.  Reference variant
    frequencies in the high-risk (``p_a0``) and low-risk (``p_b0``)
    populations are clamped into ``[FREQ_CLAMP, 1 - FREQ_CLAMP]``: reference
    panels routinely contain fixed alleles and an exact 0 or 1 would lock
    the likelihood.

    Derived on construction:

    chrom_start
        boolean mask, True where a new chromosome begins; the ancestry chain
        restarts there and the interval has no recombination parameter.
    d
        genetic distance to the previous marker on the same chromosome
        (Morgans); 0.0 at chromosome starts, where it is unused.
    """

    marker_ids: list
    chrom: np.ndarray
    position: np.ndarray
    p_a0: np.ndarray
    p_b0: np.ndarray
    chrom_start: np.ndarray = field(init=False)
    d: np.ndarray = field(init=False)

    def __post_init__(self):
        self.marker_ids = list(self.marker_ids)
        n = len(self.marker_ids)
        if n < 1:
            raise ValueError("panel needs at least one marker")
        self.chrom = np.asarray(self.chrom, dtype=np.int64)
        if self.chrom.shape != (n,):
            raise ValueError("chrom length does not match marker_ids")
        self.position = _vector(self.position, "position", n)
        self.p_a0 = _vector(self.p_a0, "p_a0", n)
        self.p_b0 = _vector(self.p_b0, "p_b0", n)
        for name in ("position", "p_a0", "p_b0"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if bad.size:
                raise ValueError(
                    f"{name} is not finite at marker {self.marker_ids[bad[0]]!r}"
                )
        for name, arr in (("p_a0", self.p_a0), ("p_b0", self.p_b0)):
            if np.any((arr < 0.0) | (arr > 1.0)):
                raise ValueError(f"{name} has entries outside [0, 1]")
        np.clip(self.p_a0, FREQ_CLAMP, 1.0 - FREQ_CLAMP, out=self.p_a0)
        np.clip(self.p_b0, FREQ_CLAMP, 1.0 - FREQ_CLAMP, out=self.p_b0)

        start = np.empty(n, dtype=bool)
        start[0] = True
        start[1:] = self.chrom[1:] != self.chrom[:-1]
        d = np.zeros(n)
        inner = np.flatnonzero(~start)
        d[inner] = self.position[inner] - self.position[inner - 1]
        if np.any(d < 0.0):
            bad = int(np.flatnonzero(d < 0.0)[0])
            raise ValueError(
                f"position decreases within a chromosome at marker "
                f"{self.marker_ids[bad]!r}"
            )
        self.chrom_start = start
        self.d = d

    @property
    def n_loci(self):
        return len(self.marker_ids)

    def gamma0(self, lam):
        """Prior mean recombination probabilities, 1 - exp(-lam * d)."""
        g = 1.0 - np.exp(-lam * self.d)
        return np.clip(g, GAMMA_CLAMP, 1.0 - GAMMA_CLAMP)


@dataclass
class GenotypeMatrix:
    """Observed minor-allele counts, subjects by markers.

    Entries are 0, 1, 2 or :data:`MISSING`.
    """

    x: np.ndarray
    subject_ids: list

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.int8)
        if self.x.ndim != 2:
            raise ValueError("genotype matrix must be two-dimensional")
        self.subject_ids = list(self.subject_ids)
        if len(self.subject_ids) != self.x.shape[0]:
            raise ValueError("subject_ids length does not match genotype rows")
        ok = (self.x == MISSING) | ((self.x >= 0) & (self.x <= 2))
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise ValueError(
                f"genotype value {int(self.x[i, j])} at subject {i}, "
                f"marker {j} is not in {{0, 1, 2, MISSING}}"
            )

    @property
    def n_subjects(self):
        return self.x.shape[0]

    @property
    def n_loci(self):
        return self.x.shape[1]

    @property
    def missing_mask(self):
        return self.x == MISSING


@dataclass
class AncestryDraws:
    """Retained posterior draws of the local-ancestry matrix.

    ``draws`` has shape (m, n_subjects, n_loci) with entries in {0, 1, 2}.
    ``traces`` optionally carries per-draw parameter values (gamma, rho,
    p_a, p_b, tau_a, tau_b).  Marker/subject metadata ride along so scan
    outputs can be labelled without re-reading the panel.
    """

    draws: np.ndarray
    sweep_index: np.ndarray
    traces: dict = field(default_factory=dict)
    subject_ids: list | None = None
    marker_ids: list | None = None
    chrom: np.ndarray | None = None
    position: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        self.draws = np.asarray(self.draws, dtype=np.int8)
        if self.draws.ndim != 3:
            raise ValueError("draws must have shape (m, n_subjects, n_loci)")
        if self.draws.shape[0] < 1:
            raise ValueError("at least one retained draw is required")
        if np.any((self.draws < 0) | (self.draws > 2)):
            raise ValueError("ancestry draws must take values in {0, 1, 2}")
        self.sweep_index = np.asarray(self.sweep_index, dtype=np.int64)
        if self.sweep_index.shape != (self.draws.shape[0],):
            raise ValueError("sweep_index length does not match draws")
        self.check_ids()

    def check_ids(self):
        """Refuse a subject or marker id that appears twice, naming it."""
        for ids, what in ((self.subject_ids, "subject"), (self.marker_ids, "marker")):
            seen = set()
            for name in ids or ():
                if name in seen:
                    raise ValueError(f"duplicate {what} id {name!r}")
                seen.add(name)

    @property
    def m(self):
        return self.draws.shape[0]

    @property
    def n_subjects(self):
        return self.draws.shape[1]

    @property
    def n_loci(self):
        return self.draws.shape[2]


def observation_rows(p_a, p_b):
    """Unvalidated core of :func:`build_observation_matrix`.

    Broadcasts over array arguments: the result has shape ``(3, 3) +
    broadcast(p_a, p_b).shape``, indexed (ancestry count, genotype, ...).
    Frequencies of exactly 0 or 1 pass through, which is what lets the
    sampler report a locus where the forward pass loses all mass.
    """
    p_a = np.asarray(p_a, dtype=np.float64)
    p_b = np.asarray(p_b, dtype=np.float64)
    qa = 1.0 - p_a
    qb = 1.0 - p_b
    return np.array(
        [
            [qb * qb, 2.0 * p_b * qb, p_b * p_b],
            [qa * qb, p_a * qb + p_b * qa, p_a * p_b],
            [qa * qa, 2.0 * p_a * qa, p_a * p_a],
        ]
    )


def build_observation_matrix(p_a, p_b):
    """Genotype probabilities given local ancestry.

    Rows index the ancestry count 0/1/2, columns the observed minor-allele
    count 0/1/2; each row sums to one.
    """
    p_a = float(p_a)
    p_b = float(p_b)
    if not (0.0 < p_a < 1.0) or not (0.0 < p_b < 1.0):
        raise ValueError("allele frequencies must lie strictly inside (0, 1)")
    return observation_rows(p_a, p_b)


def hwe_rows(rho):
    """Unvalidated core of :func:`initial_state_vector`; shape ``(3,) + rho.shape``."""
    return np.array([(1.0 - rho) * (1.0 - rho), 2.0 * rho * (1.0 - rho), rho * rho])


def initial_state_vector(rho):
    """Hardy-Weinberg ancestry distribution for admixture proportion rho."""
    rho = float(rho)
    if not (0.0 <= rho <= 1.0):
        raise ValueError("rho must lie in [0, 1]")
    return hwe_rows(rho)


def transition_kernels(rho):
    """Unvalidated core of :func:`conditional_transition_matrices`.

    Broadcasts over an array of admixture proportions: the result has shape
    ``(3, 3, 3) + rho.shape``, indexed (recombination count, from-state,
    to-state, ...).
    """
    rho = np.asarray(rho, dtype=np.float64)
    zero = np.zeros_like(rho)
    one = zero + 1.0
    hwe = hwe_rows(rho)
    return np.array(
        [
            [[one, zero, zero], [zero, one, zero], [zero, zero, one]],
            [
                [1.0 - rho, rho, zero],
                [0.5 * (1.0 - rho), zero + 0.5, 0.5 * rho],
                [zero, 1.0 - rho, rho],
            ],
            [hwe, hwe, hwe],
        ]
    )


def conditional_transition_matrices(rho):
    """Stack of ancestry transition kernels given 0, 1 or 2 recombinations.

    Returns an array of shape (3, 3, 3): the leading axis is the
    recombination count on the interval, then (from-state, to-state).  With
    no recombination the ancestry is copied; with one, a single lineage is
    redrawn from the admixture proportion; with two, both are.
    """
    rho = float(rho)
    if not (0.0 <= rho <= 1.0):
        raise ValueError("rho must lie in [0, 1]")
    return transition_kernels(rho)


def build_transition_matrix(rho, gamma):
    """Marginal ancestry transition matrix for one marker interval.

    Closed form of the binomial mixture
    ``sum_r Q^(r) * C(2, r) * gamma^r * (1 - gamma)^(2 - r)``.
    """
    rho = float(rho)
    gamma = float(gamma)
    if not (0.0 <= rho <= 1.0) or not (0.0 <= gamma <= 1.0):
        raise ValueError("rho and gamma must lie in [0, 1]")
    a = gamma * rho                # a lineage recombines into ancestry A
    b = gamma * (1.0 - rho)        # a lineage recombines into ancestry B
    return np.array(
        [
            [(1.0 - a) ** 2, 2.0 * a * (1.0 - a), a * a],
            [b * (1.0 - a), (1.0 - b) * (1.0 - a) + a * b, a * (1.0 - b)],
            [b * b, 2.0 * b * (1.0 - b), (1.0 - b) ** 2],
        ]
    )
