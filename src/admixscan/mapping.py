"""Two-stage association scan over imputed ancestry draws.

Stage 1 fits one locus at a time, averages the Bayes factor over the
retained imputations, and selects loci whose averaged log10 Bayes factor
clears the threshold.  Stage 2 refits every subset of the selected loci
jointly and ranks the subsets.

Both stages fit in blocks, in a fixed order: consecutive locus sets of one
size, every imputation of each, go to the GLM and the Bayes factor as one
batch of about ``BLOCK_CELLS`` subject x fit cells, so a block holds as many
fits whatever the set size.  The block size changes no result beyond
rounding, and repeated runs give identical results.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateDesignError
from .glm import TraitData, center_ancestries, fit_glm
from .qnm import average_bf, bf_for_fit

DEFAULT_DELTA = 2.0
SUBSET_CAP = 4096     # stage-2 subsets refit at most; more is refused before any fit
BLOCK_CELLS = 50_000  # subject x fit cells a block: ~4 MiB of working arrays per locus of a set


@dataclass
class LocusScan:
    locus_id: str
    index: int
    log10_bf: float
    selected: bool
    n_imputations_used: int
    flag: str | None = None


@dataclass
class SubsetScan:
    indices: tuple
    locus_ids: tuple
    log10_bf: float
    rank: int


@dataclass
class ScanResult:
    stage1: list
    delta: float
    m: int
    stage2: list | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def selected_indices(self):
        return [r.index for r in self.stage1 if r.selected]


def _locus_label(draws, j):
    if draws.marker_ids is not None:
        return str(draws.marker_ids[j])
    return str(j)


def _bf_over_imputations(draws, trait, sets):
    """Averaged Bayes factor of each locus set across all imputations.

    ``sets`` is an (S, k) array of column indices.  Returns per set, in
    order, the averaged log10 Bayes factor, its flag and the imputations used.
    """
    m, n = draws.m, trait.n_subjects
    per_block = max(1, BLOCK_CELLS // (m * n))
    scores = []
    for start in range(0, len(sets), per_block):
        block = sets[start:start + per_block]
        # the fit of set i on imputation r is row i * m + r of the batch; its
        # columns are copied subject-last, the layout the fits sum along
        raw = draws.draws[:, :, block].transpose(2, 0, 3, 1).reshape(-1, block.shape[1], n)
        design = center_ancestries(raw, np.repeat(block, m, axis=0).tolist())
        values = bf_for_fit(fit_glm(trait, design), n).reshape(len(block), m)
        avg, n_used = average_bf(values), (values.flag == None).sum(axis=1)  # noqa: E711
        scores += zip(avg.log10_bf.tolist(), avg.flag, n_used.tolist())
    return scores


def _check_covariate_rank(trait: TraitData):
    """Name the first covariate that is constant or collinear with those before it."""
    z = np.column_stack([np.ones(trait.n_subjects), trait.covariates])
    # a column within rounding of the span of the columns before it
    pivots = np.abs(np.diag(np.linalg.qr(z, mode="r")))
    tol = max(z.shape) * np.finfo(np.float64).eps * np.linalg.norm(z, axis=0)
    bad = [*np.flatnonzero(pivots <= tol[:pivots.size]), *range(pivots.size, z.shape[1])]
    if bad:
        j = int(bad[0]) - 1
        name = repr(trait.covariate_names[j]) if trait.covariate_names else j + 1
        raise DegenerateDesignError(
            f"covariate {name} is constant or collinear with the covariates before it"
        )


def stage1_scan(draws, trait: TraitData, delta=DEFAULT_DELTA) -> ScanResult:
    """Marginal scan: one Bayes factor per locus, averaged over imputations."""
    if not math.isfinite(delta):   # NaN or inf would select no locus, -inf every one
        raise ValueError(f"delta must be finite, got {delta!r}")
    if draws.n_subjects != trait.n_subjects:
        raise ValueError(
            f"draws cover {draws.n_subjects} subjects, trait has {trait.n_subjects}"
        )
    _check_covariate_rank(trait)

    scores = _bf_over_imputations(draws, trait, np.arange(draws.n_loci)[:, None])
    stage1 = [
        LocusScan(
            locus_id=_locus_label(draws, j),
            index=j,
            log10_bf=log10_bf,
            selected=flag is None and log10_bf > delta,
            n_imputations_used=n_used,
            flag=flag,
        )
        for j, (log10_bf, flag, n_used) in enumerate(scores)
    ]
    skipped = [r.locus_id for r in stage1 if r.flag is not None]
    return ScanResult(
        stage1=stage1,
        delta=delta,
        m=draws.m,
        diagnostics={"skipped_loci": skipped},
    )


def _count_subsets(n, max_cardinality):
    return sum(math.comb(n, k) for k in range(1, max_cardinality + 1))


def stage2_joint(stage1_result: ScanResult, draws, trait: TraitData,
                 max_cardinality=None) -> ScanResult:
    """Joint refits over all subsets of the stage-1 selections, ranked.

    A singleton is its own stage-1 fit, so it keeps its stage-1 Bayes factor.
    """
    if max_cardinality is not None and max_cardinality < 1:
        raise ValueError(f"max_cardinality must be at least 1, got {max_cardinality}")
    selected = stage1_result.selected_indices
    result = replace(stage1_result, diagnostics=dict(stage1_result.diagnostics))
    k_max = len(selected) if max_cardinality is None else min(max_cardinality, len(selected))
    n_subsets = _count_subsets(len(selected), k_max)
    if n_subsets > SUBSET_CAP:
        raise ValueError(
            f"{n_subsets} candidate subsets exceed the cap of {SUBSET_CAP}; "
            "raise delta or lower max_cardinality"
        )
    # a singleton's joint fit is its stage-1 fit: keep that Bayes factor
    scored = [((r.index,), r.log10_bf, r.flag) for r in stage1_result.stage1 if r.selected]
    for k in range(2, k_max + 1):
        subsets = list(itertools.combinations(sorted(selected), k))
        scores = _bf_over_imputations(draws, trait, np.array(subsets))
        scored += [(combo, bf, flag) for combo, (bf, flag, _) in zip(subsets, scores)]
    usable = [(combo, bf) for combo, bf, flag in scored if flag is None]
    dropped = [
        {"subset": list(combo), "flag": flag}
        for combo, _, flag in scored
        if flag is not None
    ]
    usable.sort(key=lambda item: (-item[1], item[0]))
    result.stage2 = [
        SubsetScan(
            indices=combo,
            locus_ids=tuple(_locus_label(draws, j) for j in combo),
            log10_bf=bf,
            rank=rank,
        )
        for rank, (combo, bf) in enumerate(usable, start=1)
    ]
    if dropped:
        result.diagnostics["skipped_subsets"] = dropped
    return result


def reported_subsets(result: ScanResult, delta=None):
    """Subsets above the threshold that beat every subset they overlap.

    A subset is reported when it clears the threshold and no higher-ranked
    subset shares a locus with it: a weak singleton never surfaces if some
    stronger combination containing it exists.  This is the reporting rule
    used to score the multilocus benchmark.
    """
    if result.stage2 is None:
        raise ValueError("run stage 2 before asking for reported subsets")
    delta = result.delta if delta is None else delta
    dominated = set()
    out = []
    for entry in result.stage2:
        if not dominated.intersection(entry.indices) and entry.log10_bf > delta:
            out.append(entry)
        dominated.update(entry.indices)
    return out


def ald_correlation(draws):
    """Locus-by-locus ancestry correlation, pooling subjects over imputations.

    Constant loci get a zero row/column and are listed in the returned
    flags; the diagonal is exactly one.
    """
    m, n_sub, n_loc = draws.draws.shape
    if m * n_sub < 2:
        raise ValueError("need at least two pooled rows to correlate")
    # one float64 copy of the pooled draws, centred in place
    pooled = draws.draws.reshape(m * n_sub, n_loc).astype(np.float64)
    pooled -= pooled.mean(axis=0)
    corr = pooled.T @ pooled
    sd = np.sqrt(np.diag(corr))
    constant = np.flatnonzero(sd == 0.0)
    sd[constant] = 1.0   # a centred constant column is exactly zero
    corr /= np.outer(sd, sd)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr, list(constant)
