"""Replicated simulation studies: type-I error, power, multilocus resolution.

Each study wraps the same generator + scan path the command line uses, so
the summary tables it produces exercise the full pipeline.  True local
ancestries are taken as given (each replicate is scanned as a single
imputation); the sampling noise under study is in the traits.  Every study
also keeps its first replicate's data as ``dataset``, ``(AncestryDraws,
TraitData)`` with subject ids ``S00000...`` and marker ids ``L000...``, the
dataset ``admixscan simulate`` writes.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .hmm import AncestryDraws
from .mapping import reported_subsets, stage1_scan, stage2_joint
from .simulate import (
    CAUSAL_PAAP,
    build_artificial_chromosome,
    sample_ancestry_hwe,
    simulate_traits,
)


def _check_study_args(counts, c_values):
    """Counts must be at least 1 and effect multipliers nonnegative."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    for c in c_values:
        if not c >= 0.0:
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


@dataclass
class NullStudyResult:
    rates: np.ndarray          # per-replicate fraction of loci above delta
    n_loci: int
    delta: float
    rows: list = field(default_factory=list)
    dataset: tuple | None = None

    @property
    def aggregate_rate(self):
        return float(self.rates.mean())

    @property
    def median_rate(self):
        return float(np.median(self.rates))

    @property
    def summary(self):
        return [{"aggregate_rate": self.aggregate_rate,
                 "median_rate": self.median_rate,
                 "max_rate": float(self.rates.max()),
                 "delta": self.delta}]


def null_study(n_subjects, n_loci, n_replicates, trait_kind, alpha, delta,
               seed) -> NullStudyResult:
    """Per-locus false-selection rates under the no-association model."""
    _check_study_args({"n_subjects": n_subjects, "n_loci": n_loci,
                       "n_replicates": n_replicates}, ())
    rng = np.random.default_rng(seed)
    rates = np.empty(n_replicates)
    rows = []
    for rep in range(n_replicates):
        paap = rng.uniform(0.5, 0.95, size=n_loci)
        draws = _draws(sample_ancestry_hwe(paap, n_subjects, rng))
        trait = simulate_traits(
            np.empty((n_subjects, 0)), trait_kind, alpha, 0.0, np.empty(0), rng
        )
        result = stage1_scan(draws, trait, delta=delta)
        hits = sum(r.selected for r in result.stage1)
        rates[rep] = hits / n_loci
        rows.append({"replicate": rep, "hits": hits, "rate": rates[rep]})
        if rep == 0:
            dataset = (draws, trait)
    return NullStudyResult(rates=rates, n_loci=n_loci, delta=delta, rows=rows,
                           dataset=dataset)


@dataclass
class PowerStudyResult:
    c_values: tuple
    power: np.ndarray
    delta: float
    rows: list = field(default_factory=list)
    dataset: tuple | None = None

    @property
    def summary(self):
        return [{"c": c, "power": p, "delta": self.delta}
                for c, p in zip(self.c_values, self.power)]


def power_study(n_subjects, c_values, n_replicates, trait_kind, alpha, delta,
                seed) -> PowerStudyResult:
    """Detection frequency of a single causal locus across effect sizes.

    ``dataset`` is the first replicate at the first c value.
    """
    c_values = tuple(c_values)
    _check_study_args({"n_subjects": n_subjects, "n_replicates": n_replicates,
                       "number of c values": len(c_values)}, c_values)
    rng = np.random.default_rng(seed)
    power = np.empty(len(c_values))
    rows = []
    for ci, c in enumerate(c_values):
        hits = 0
        for rep in range(n_replicates):
            s = sample_ancestry_hwe([CAUSAL_PAAP], n_subjects, rng)
            trait = simulate_traits(s, trait_kind, alpha, c, [CAUSAL_PAAP], rng)
            draws = _draws(s)
            result = stage1_scan(draws, trait, delta=delta)
            hits += int(result.stage1[0].selected)
            rows.append(
                {
                    "c": c,
                    "replicate": rep,
                    "log10_bf": result.stage1[0].log10_bf,
                    "selected": int(result.stage1[0].selected),
                }
            )
            if ci == rep == 0:
                dataset = (draws, trait)
        power[ci] = hits / n_replicates
    return PowerStudyResult(c_values=c_values, power=power, delta=delta, rows=rows,
                            dataset=dataset)


@dataclass
class MultilocusStudyResult:
    stage1_region_rate: float      # REG1+REG2 selection rate, stage 1
    stage2_region_rate: float      # REG1+REG2 reported rate, stage 2
    stage1_reg3_rate: float
    stage2_reg3_rate: float
    pair_top_rate: float           # replicates where {L1, L2} ranks first
    pair_covered_rate: float       # replicates whose top subset holds both
    rows: list = field(default_factory=list)
    dataset: tuple | None = None

    @property
    def summary(self):
        return [{f.name: getattr(self, f.name) for f in fields(self) if f.name.endswith("_rate")}]


def multilocus_study(n_subjects, n_replicates, trait_kind, c, delta, seed,
                     max_cardinality) -> MultilocusStudyResult:
    """Two-causal-locus benchmark scored by region, before and after stage 2."""
    _check_study_args({"n_subjects": n_subjects, "n_replicates": n_replicates}, (c,))
    rng = np.random.default_rng(seed)
    sel_region = rep_region = 0
    sel_reg3 = rep_reg3 = 0
    n_region = n_reg3 = 0
    pair_top = pair_covered = 0
    rows = []
    for rep in range(n_replicates):
        chromo = build_artificial_chromosome(n_subjects, rng)
        causal = list(chromo.causal)
        trait = simulate_traits(
            chromo.s[:, causal], trait_kind, 1.0, c, chromo.paap[causal], rng
        )
        draws = _draws(chromo.s)
        if rep == 0:
            dataset = (draws, trait)
        result = stage2_joint(
            stage1_scan(draws, trait, delta=delta),
            draws,
            trait,
            max_cardinality=max_cardinality,
        )
        in_region = np.isin(chromo.regions, ("REG1", "REG2"))
        in_reg3 = chromo.regions == "REG3"
        n_region += int(in_region.sum())
        n_reg3 += int(in_reg3.sum())

        stage1_sel = np.zeros(chromo.n_loci, dtype=bool)
        for r in result.stage1:
            stage1_sel[r.index] = r.selected
        sel_region += int((stage1_sel & in_region).sum())
        sel_reg3 += int((stage1_sel & in_reg3).sum())

        reported = reported_subsets(result)
        reported_loci = np.zeros(chromo.n_loci, dtype=bool)
        for entry in reported:
            for j in entry.indices:
                reported_loci[j] = True
        rep_region += int((reported_loci & in_region).sum())
        rep_reg3 += int((reported_loci & in_reg3).sum())

        top = (
            result.stage2[0].indices == tuple(causal)
            if result.stage2
            else False
        )
        covered = (
            set(causal).issubset(result.stage2[0].indices)
            if result.stage2
            else False
        )
        pair_top += int(top)
        pair_covered += int(covered)
        rows.append(
            {
                "replicate": rep,
                "n_selected": int(stage1_sel.sum()),
                "pair_top": int(top),
                "pair_covered": int(covered),
                "stage1_region_hits": int((stage1_sel & in_region).sum()),
                "stage2_region_hits": int((reported_loci & in_region).sum()),
            }
        )
    return MultilocusStudyResult(
        stage1_region_rate=sel_region / max(n_region, 1),
        stage2_region_rate=rep_region / max(n_region, 1),
        stage1_reg3_rate=sel_reg3 / max(n_reg3, 1),
        stage2_reg3_rate=rep_reg3 / max(n_reg3, 1),
        pair_top_rate=pair_top / n_replicates,
        pair_covered_rate=pair_covered / n_replicates,
        rows=rows,
        dataset=dataset,
    )
