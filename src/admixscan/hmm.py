"""Two-population admixture HMM: data containers and probability matrices.

Latent local ancestry at a marker is the count (0, 1 or 2) of alleles
inherited from the high-risk ancestral population.  Genotypes are observed
minor-allele counts.  Between neighbouring markers the ancestry chain moves
through a mixture of three conditional kernels indexed by the number of
recombination events on the connecting interval; at each chromosome start
the chain restarts from the Hardy-Weinberg vector implied by the subject's
genome-wide admixture proportion.

What a sampler run derives from these inputs and holds fixed, such as the
prior means' moments, is ``sampler.DerivedPriors``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MISSING = -1          # sentinel for unobserved genotypes in int8 arrays
FREQ_CLAMP = 1e-4     # reference allele frequencies kept inside [eps, 1-eps]
GAMMA_CLAMP = 1e-6    # prior means inside a chromosome kept off exact 0/1
TAU_RANGE = (50.0, 1000.0)   # support of the dispersion parameters tau_a/tau_b


def _int8_codes(values, lo, hi, message):
    """``values`` as int8, once each is found an integer in [lo, hi] on its own dtype.

    A cast first would wrap 257 to 1.  Integer input takes one min and one
    max, which make no full-size temporary.  The first value that fails
    raises ValueError with ``message.format(value, *index)``.
    """
    a = np.asarray(values)
    if not (a.dtype.kind in "biu" and (a.size == 0 or (a.min() >= lo and a.max() <= hi))):
        bad = (a < lo) | (a > hi) | (a != np.floor(a))   # a fraction, or NaN
        if bad.any():
            index = tuple(int(k) for k in np.argwhere(bad)[0])
            raise ValueError(message.format(a[index], *index))
    return a.astype(np.int8, copy=False)


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
    the likelihood.  Both are copies, read-only once clamped, so the priors
    a sampler run derives from them once (``sampler.derive_priors``) cannot
    go stale.

    Derived on construction:

    chrom_start
        boolean mask, True where a new chromosome begins; the ancestry chain
        restarts there, which is an interval on which both lineages
        recombine.  Each chromosome's markers must be contiguous.
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
        self.p_a0 = _vector(self.p_a0, "p_a0", n).copy()
        self.p_b0 = _vector(self.p_b0, "p_b0", n).copy()
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
        self.p_a0.flags.writeable = False
        self.p_b0.flags.writeable = False

        start = np.empty(n, dtype=bool)
        start[0] = True
        start[1:] = self.chrom[1:] != self.chrom[:-1]
        seen = set()
        for j in np.flatnonzero(start):
            c = int(self.chrom[j])
            if c in seen:
                raise ValueError(
                    f"chromosome {c} resumes at marker {self.marker_ids[j]!r} "
                    "after another chromosome; a chromosome's markers must be "
                    "contiguous"
                )
            seen.add(c)
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
        """Prior mean recombination probabilities: 1 - exp(-lam * d), 1 at starts."""
        g = np.clip(1.0 - np.exp(-lam * self.d), GAMMA_CLAMP, 1.0 - GAMMA_CLAMP)
        return np.where(self.chrom_start, 1.0, g)


@dataclass
class GenotypeMatrix:
    """Observed minor-allele counts, subjects by markers.

    Entries are 0, 1, 2 or :data:`MISSING`.
    """

    x: np.ndarray
    subject_ids: list

    def __post_init__(self):
        self.x = np.asarray(self.x)
        if self.x.ndim != 2:
            raise ValueError("genotype matrix must be two-dimensional")
        self.subject_ids = list(self.subject_ids)
        if len(self.subject_ids) != self.x.shape[0]:
            raise ValueError("subject_ids length does not match genotype rows")
        # MISSING is -1, so the valid values are exactly the integers in [-1, 2]
        self.x = _int8_codes(self.x, MISSING, 2, "genotype value {} at subject {}, marker {} "
                                                 "is not in {{0, 1, 2, MISSING}}")

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
    outputs can be labelled without re-reading the panel, and phenotype rows
    paired by subject id; :meth:`check_metadata` states what they must fit.
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
        self.draws = np.asarray(self.draws)
        if self.draws.ndim != 3:
            raise ValueError("draws must have shape (m, n_subjects, n_loci)")
        if self.draws.shape[0] < 1:
            raise ValueError("at least one retained draw is required")
        self.draws = _int8_codes(self.draws, 0, 2,
                                 "ancestry value {} in draw {}, subject {}, locus {}")
        self.sweep_index = np.asarray(self.sweep_index, dtype=np.int64)
        if self.sweep_index.shape != (self.draws.shape[0],):
            raise ValueError("sweep_index length does not match draws")
        self.check_metadata(*self.draws.shape[1:], self.subject_ids, self.marker_ids,
                            self.chrom, self.position)

    @staticmethod
    def check_metadata(n_subjects, n_loci, subject_ids, marker_ids, chrom, position):
        """Refuse metadata unfit for ``n_subjects`` x ``n_loci`` draws, naming the counts.

        One distinct id per subject or marker; chrom and position together, one per marker.
        """
        for ids, n, what in ((subject_ids, n_subjects, "subject"), (marker_ids, n_loci, "marker")):
            if ids is not None and len(ids) != n:
                raise ValueError(f"{len(ids)} {what} ids for {n} {what}s")
            seen = set()
            for name in ids or ():
                if name in seen:
                    raise ValueError(f"duplicate {what} id {name!r}")
                seen.add(name)
        if (chrom is None) != (position is None):
            raise ValueError("chrom and position must be given together")
        for name, values in (("chrom", chrom), ("position", position)):
            if values is not None and np.shape(values) != (n_loci,):
                raise ValueError(f"{name} of shape {np.shape(values)} for {n_loci} markers")

    @property
    def m(self):
        return self.draws.shape[0]

    @property
    def n_subjects(self):
        return self.draws.shape[1]

    @property
    def n_loci(self):
        return self.draws.shape[2]


def two_lineages(p, q):
    """Law of the count of 1s among two independent 0/1 lineages.

    One lineage is 1 with probability ``p``, the other with probability
    ``q``.  Every three-state distribution of the HMM is this law: the
    emission rows, the Hardy-Weinberg start vector and the recombination
    kernels.  Broadcasts over its arguments: the result has shape
    ``(3,) + broadcast(p, q).shape``, indexed (count, ...).
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    pc = 1.0 - p
    qc = 1.0 - q
    return np.array([pc * qc, p * qc + q * pc, p * q])


def observation_rows(p_a, p_b):
    """Genotype probabilities given local ancestry.

    ``p_a`` and ``p_b`` share one shape; the result has shape ``(3, 3) +
    p_a.shape``, indexed (ancestry count, genotype, ...), and each row sums
    to one.  Ancestry count k carries k alleles drawn at ``p_a`` and 2 - k
    at ``p_b``.  Frequencies of exactly 0 or 1 pass through, which is what
    lets the sampler report a locus where the forward pass loses all mass.
    """
    return two_lineages((p_b, p_a, p_a), (p_b, p_b, p_a)).swapaxes(0, 1)


def hwe_rows(rho):
    """Hardy-Weinberg ancestry distribution; shape ``(3,) + rho.shape``."""
    return two_lineages(rho, rho)


_KEPT_HIGH_RISK = np.array([0.0, 0.5, 1.0])   # the kept lineage, by from-state
_IDENTITY = np.eye(3)


def transition_kernels(rho):
    """Ancestry transition kernels given 0, 1 or 2 recombinations.

    Broadcasts over an array of admixture proportions: the result has shape
    ``(3, 3, 3) + rho.shape``, indexed (recombination count, from-state,
    to-state, ...).  With no recombination the ancestry is copied.  With
    one, a lineage is kept (high-risk with probability from-state / 2) and
    the other is redrawn from rho; with two, both are redrawn, which is the
    Hardy-Weinberg row.
    """
    rho = np.asarray(rho, dtype=np.float64)
    column = (3,) + (1,) * rho.ndim
    # P(high-risk) of each lineage.  Rows 0-2: the lineage kept from
    # from-state 0, 1, 2, and a redrawn one; row 3: two redrawn lineages.
    # Spelled out at full shape: broadcasting rho here costs more than it saves.
    hi = np.empty((2, 4) + rho.shape)
    hi[0, :3] = _KEPT_HIGH_RISK.reshape(column)
    hi[0, 3] = rho
    hi[1] = rho
    rows = two_lineages(hi[0], hi[1])    # (to-state, row, ...)
    kern = np.empty((3, 3, 3) + rho.shape)
    kern[0] = _IDENTITY.reshape((3,) + column)
    kern[1] = rows[:, :3].swapaxes(0, 1)
    kern[2] = rows[:, 3]
    return kern
