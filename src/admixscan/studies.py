"""Replicated simulation studies: type-I error, power, multilocus resolution.

Each study runs the generator and scan path the command line uses on true
local ancestries (one imputation per replicate), so the sampling noise
under study is in the traits.  Each returns a ``StudyResult``: ``rows``,
one dict per replicate (``replicates.tsv``); ``summary``, the rate or power
dicts (``summary.tsv``); and ``dataset``, replicate 0 as ``(AncestryDraws,
TraitData)`` with subject ids ``S00000...`` and marker ids ``L000...``,
which ``admixscan simulate`` writes as its dataset files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hmm import AncestryDraws
from .mapping import reported_subsets, stage1_scan, stage2_joint
from .simulate import (
    CAUSAL_PAAP,
    build_artificial_chromosome,
    sample_ancestry_hwe,
    simulate_traits,
)


@dataclass
class StudyResult:
    rows: list
    summary: list
    dataset: tuple


def _check_study_args(counts, c_values=(), alpha=0.0):
    """Counts must be at least 1, alpha finite, effect multipliers finite and nonnegative."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if not math.isfinite(alpha):
        raise ValueError(f"covariate effect alpha must be finite, got {alpha}")
    for c in c_values:
        if not math.isfinite(c):
            raise ValueError(f"effect multiplier c must be finite, got {c}")
        if c < 0.0:
            raise ValueError(f"effect multiplier c must be nonnegative, got {c}")


def _draws(s):
    """One replicate's true ancestry as a single-imputation draws object."""
    n_sub, n_loc = s.shape
    return AncestryDraws(
        draws=np.asarray(s, dtype=np.int8)[None, :, :],
        sweep_index=np.zeros(1, dtype=np.int64),
        subject_ids=[f"S{i:05d}" for i in range(n_sub)],
        marker_ids=[f"L{j:03d}" for j in range(n_loc)],
    )


def null_study(n_subjects, n_loci, n_replicates, trait_kind, alpha, delta,
               seed) -> StudyResult:
    """Per-locus false-selection rates under the no-association model."""
    _check_study_args({"n_subjects": n_subjects, "n_loci": n_loci,
                       "n_replicates": n_replicates}, alpha=alpha)
    rng = np.random.default_rng(seed)
    rows = []
    for rep in range(n_replicates):
        paap = rng.uniform(0.5, 0.95, size=n_loci)
        draws = _draws(sample_ancestry_hwe(paap, n_subjects, rng))
        trait = simulate_traits(
            np.empty((n_subjects, 0)), trait_kind, alpha, 0.0, np.empty(0), rng
        )
        result = stage1_scan(draws, trait, delta=delta)
        hits = sum(r.selected for r in result.stage1)
        rows.append({"replicate": rep, "hits": hits, "rate": hits / n_loci})
        if rep == 0:
            dataset = (draws, trait)
    rates = np.array([row["rate"] for row in rows])
    summary = [{"aggregate_rate": float(rates.mean()),
                "median_rate": float(np.median(rates)),
                "max_rate": float(rates.max()),
                "delta": delta}]
    return StudyResult(rows, summary, dataset)


def power_study(n_subjects, c_values, n_replicates, trait_kind, alpha, delta,
                seed) -> StudyResult:
    """Detection frequency of a single causal locus across effect sizes.

    ``dataset`` is the first replicate at the first c value.
    """
    c_values = tuple(c_values)
    _check_study_args({"n_subjects": n_subjects, "n_replicates": n_replicates,
                       "number of c values": len(c_values)}, c_values, alpha)
    rng = np.random.default_rng(seed)
    rows = []
    summary = []
    for ci, c in enumerate(c_values):
        hits = 0
        for rep in range(n_replicates):
            s = sample_ancestry_hwe([CAUSAL_PAAP], n_subjects, rng)
            trait = simulate_traits(s, trait_kind, alpha, c, [CAUSAL_PAAP], rng)
            draws = _draws(s)
            [locus] = stage1_scan(draws, trait, delta=delta).stage1
            hits += int(locus.selected)
            rows.append({"c": c, "replicate": rep, "log10_bf": locus.log10_bf,
                         "selected": int(locus.selected)})
            if ci == rep == 0:
                dataset = (draws, trait)
        summary.append({"c": c, "power": hits / n_replicates, "delta": delta})
    return StudyResult(rows, summary, dataset)


def multilocus_study(n_subjects, n_replicates, trait_kind, c, delta, seed,
                     max_cardinality) -> StudyResult:
    """Two-causal-locus benchmark scored by region, before and after stage 2.

    Per replicate, ``tally`` holds the REG1+REG2 and REG3 sizes, then the
    loci of each that stage 1 selects, then those in a reported stage-2
    subset.
    """
    _check_study_args({"n_subjects": n_subjects, "n_replicates": n_replicates}, (c,))
    rng = np.random.default_rng(seed)
    tally = np.zeros((n_replicates, 6), dtype=np.int64)
    rows = []
    for rep in range(n_replicates):
        chromo = build_artificial_chromosome(n_subjects, rng)
        causal = list(chromo.causal)
        trait = simulate_traits(chromo.s[:, causal], trait_kind, 1.0, c,
                                chromo.paap[causal], rng)
        draws = _draws(chromo.s)
        if rep == 0:
            dataset = (draws, trait)
        result = stage2_joint(stage1_scan(draws, trait, delta=delta), draws, trait,
                              max_cardinality=max_cardinality)
        loci = np.arange(chromo.n_loci)
        selected = np.isin(loci, result.selected_indices)
        reported = np.isin(loci, [j for entry in reported_subsets(result)
                                  for j in entry.indices])
        regions = np.array([np.isin(chromo.regions, ("REG1", "REG2")),
                            chromo.regions == "REG3"])
        tally[rep] = [(mask & region).sum() for mask in (True, selected, reported)
                      for region in regions]
        top = result.stage2[0].indices if result.stage2 else ()
        rows.append({"replicate": rep, "n_selected": int(selected.sum()),
                     "pair_top": int(top == chromo.causal),
                     "pair_covered": int(set(causal).issubset(top)),
                     "stage1_region_hits": int(tally[rep, 2]),
                     "stage2_region_hits": int(tally[rep, 4])})
    (n_region, n_reg3), stage1, stage2 = tally.sum(axis=0).reshape(3, 2).tolist()
    summary = [{
        "stage1_region_rate": stage1[0] / max(n_region, 1),
        "stage2_region_rate": stage2[0] / max(n_region, 1),
        "stage1_reg3_rate": stage1[1] / max(n_reg3, 1),
        "stage2_reg3_rate": stage2[1] / max(n_reg3, 1),
        "pair_top_rate": sum(row["pair_top"] for row in rows) / n_replicates,
        "pair_covered_rate": sum(row["pair_covered"] for row in rows) / n_replicates,
    }]
    return StudyResult(rows, summary, dataset)
