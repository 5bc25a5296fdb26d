"""The benchmark's three workloads: input generators, command lines and checks.

Every generator writes its inputs from a seed alone, so one seed always gives
the same files.  The program sees only those files; the truth each check
needs (simulated ancestry, causal loci, the trait) stays in memory here.
"""
from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from admixscan import fileio
from admixscan.glm import TraitData
from admixscan.hmm import AimPanel, AncestryDraws, GenotypeMatrix
from admixscan.simulate import (
    build_artificial_chromosome,
    sample_ancestry_hwe,
    sample_genotypes_from_ancestry,
    simulate_traits,
)

from oracle import marginal_log10_bfs, oracle_log10_bf

BF_TOL = 1e-6   # log10 BF agreement between the program and the oracle


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _round6(values):
    """Values that survive the program's ``%.10g`` text round trip exactly."""
    return np.round(np.asarray(values, dtype=np.float64), 6)


def simulate_chain(rng, gamma0, chrom_start, rho):
    """Forward-simulate ancestry paths from the two-lineage chain.

    ``rho`` holds one admixture proportion per subject.  Each chromosome
    starts from the subject's Hardy-Weinberg vector; on every interval each
    lineage recombines with probability ``gamma0`` and then redraws its
    population of origin from ``rho``.
    """
    n_sub, n_loc = rho.shape[0], gamma0.shape[0]
    s = np.empty((n_sub, n_loc), dtype=np.int8)
    for j in range(n_loc):
        if chrom_start[j]:
            u = rng.random(n_sub)
            s[:, j] = (u >= (1.0 - rho) ** 2).astype(np.int8) + (u >= 1.0 - rho ** 2)
            continue
        r = rng.binomial(2, gamma0[j], size=n_sub)
        redraw = (rng.random((n_sub, 2)) < rho[:, None]).astype(np.int8)
        prev = s[:, j - 1]
        # pick the lineage a single recombination hits at random
        keep_first = (rng.random(n_sub) < 0.5).astype(np.int8)
        lin1 = np.where(prev == 2, 1, np.where(prev == 0, 0, keep_first))
        lin2 = prev - lin1
        lin1 = np.where(r >= 1, redraw[:, 0], lin1)
        lin2 = np.where(r == 2, redraw[:, 1], lin2)
        s[:, j] = lin1 + lin2
    return s


def redrawn_imputations(rng, truth, paap, m, frac):
    """``m`` noisy copies of the true ancestry, ``frac`` of cells redrawn.

    Redrawn cells come from the locus's Hardy-Weinberg law, which stands in
    for the posterior uncertainty of a real imputation.
    """
    draws = np.repeat(truth[None], m, axis=0)
    for k in range(m):
        hit = rng.random(truth.shape) < frac
        fresh = sample_ancestry_hwe(paap, truth.shape[0], rng)
        draws[k][hit] = fresh[hit]
    return draws


def write_draws_file(path, draws, subject_ids, marker_ids, chrom, position, seed):
    fileio.save_draws(
        AncestryDraws(
            draws=draws,
            sweep_index=np.arange(draws.shape[0]),
            subject_ids=subject_ids,
            marker_ids=marker_ids,
            chrom=chrom,
            position=position,
            seed=seed,
        ),
        path,
    )


def read_table(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        return [dict(zip(header, line.rstrip("\n").split("\t"))) for line in fh]


@dataclass
class Dataset:
    """Files the command reads, plus the truth only the checks see."""

    files: dict
    truth: dict = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    spans = ()      # spans the traced run must record on this workload
    outputs = ()    # result files whose bytes must repeat across commands

    def generate(self, directory: Path, seed: int) -> Dataset:
        raise NotImplementedError

    def argv(self, data: Dataset, out: Path, seed: int):
        raise NotImplementedError

    def check(self, data: Dataset, out: Path):
        """Verify one command's outputs in depth; returns (problems, facts)."""
        raise NotImplementedError

    def work_units(self, facts):
        raise NotImplementedError

    def fingerprint(self, out: Path):
        return {name: _sha256(out / name) for name in self.outputs}


class ImputeCohort(Workload):
    name = "impute_cohort"
    why = ("impute on 500 x 800 AIMs forward-simulated from the chain: "
           "sampler and kernels do nearly all the work, the scan layers none")
    n_subjects = 500
    n_chrom = 4
    loci_per_chrom = 200
    missing_rate = 0.05
    burn_in = 10
    n_draws = 5
    thin = 1
    # posterior-mean accuracy floor, below every seed measured when the
    # benchmark was defined (0.917-0.925 with 12-18 sweeps)
    acc_floor = 0.90
    spans = (
        "fileio.read_panel",
        "fileio.read_genotypes",
        "sampler.run_mcmc",
        "sampler.impute_missing_genotypes",
        "sampler.sample_ancestry_paths",
        "sampler.sample_recombination_counts",
        "sampler.update_gamma",
        "sampler.update_rho",
        "sampler.update_allele_freqs",
        "sampler.update_tau_mh",
        "kernels.ffbs_paths",
        "kernels.recombination_counts",
        "kernels.impute_genotypes",
        "kernels.genotype_state_counts",
        "kernels.ancestry_count_stats",
        "fileio.save_draws",
    )
    outputs = ("draws.adx",)

    @property
    def sweeps(self):
        return self.burn_in + self.n_draws

    def generate(self, directory, seed):
        rng = _rng(seed, 1)
        n_loc = self.n_chrom * self.loci_per_chrom
        chrom = np.repeat(np.arange(1, self.n_chrom + 1), self.loci_per_chrom)
        steps = rng.uniform(0.002, 0.008, n_loc)
        position = np.concatenate([
            np.cumsum(part) - part[0]
            for part in np.split(steps, self.n_chrom)
        ])
        panel = AimPanel(
            marker_ids=[f"m{j:04d}" for j in range(n_loc)],
            chrom=chrom,
            position=_round6(position),
            p_a0=_round6(rng.uniform(0.55, 0.95, n_loc)),
            p_b0=_round6(rng.uniform(0.05, 0.45, n_loc)),
        )
        rho = rng.beta(16.0, 4.0, self.n_subjects)
        # 6 recombinations per Morgan, the CLI's --lam default
        truth = simulate_chain(rng, panel.gamma0(6.0), panel.chrom_start, rho)
        x = sample_genotypes_from_ancestry(
            truth, panel.p_a0, panel.p_b0, rng, missing_rate=self.missing_rate
        )
        genotypes = GenotypeMatrix(
            x=x, subject_ids=[f"s{i:04d}" for i in range(self.n_subjects)]
        )
        files = {
            "panel": directory / "panel.tsv",
            "genotypes": directory / "genotypes.tsv",
        }
        fileio.write_panel(panel, files["panel"])
        fileio.write_genotypes(genotypes, panel.marker_ids, files["genotypes"])
        return Dataset(files=files, truth={"s": truth})

    def argv(self, data, out, seed):
        return [
            "impute",
            "--panel", str(data.files["panel"]),
            "--genotypes", str(data.files["genotypes"]),
            "--burn-in", str(self.burn_in),
            "--n-draws", str(self.n_draws),
            "--thin", str(self.thin),
            "--seed", str(seed),
            "--out-dir", str(out),
        ]

    def check(self, data, out):
        problems = []
        path = out / "draws.adx"
        draws = fileio.load_draws(path)   # verifies the CRC
        truth = data.truth["s"]
        want = (self.n_draws // self.thin,) + truth.shape
        if draws.draws.shape != want:
            problems.append(f"draws shape {draws.draws.shape}, expected {want}")
            return problems, {}
        mean = draws.draws.astype(np.float64).mean(axis=0)
        acc = float((np.rint(mean) == truth).mean())
        if not acc >= self.acc_floor:
            problems.append(f"ancestry_acc {acc:.4f} below floor {self.acc_floor}")
        return problems, {"ancestry_acc": acc}

    def work_units(self, facts):
        n_loc = self.n_chrom * self.loci_per_chrom
        return float(self.n_subjects * n_loc * self.sweeps)


def _scan_spans(stage2):
    spans = [
        "fileio.load_draws",
        "fileio.read_phenotypes",
        "mapping.stage1_scan",
        "glm.center_ancestries",
        "glm.fit_glm",
        "qnm.bf_for_fit",
        "qnm.average_bf",
        "fileio.write_stage1_table",
    ]
    if stage2:
        spans += ["mapping.stage2_joint", "fileio.write_stage2_table"]
    return tuple(spans)


def _stage1_facts(rows):
    selected = [int(r["index"]) for r in rows if r["selected"] == "1"]
    flagged = sum(1 for r in rows if r["flag"])
    return selected, flagged / len(rows)


class ScanBinary(Workload):
    name = "scan_binary"
    why = ("binary stage-1 scan of 1000 x 200 x 10 draws: IRLS fits and the "
           "tau search at p = 1 do the work, the sampler none")
    n_subjects = 1000
    n_loci = 200
    m = 10
    redraw_frac = 0.05
    causal = 100
    # log-odds per high-risk allele: the causal locus's log10 BF stayed above
    # 3.3 over seeds 0-99, while at 0.6 it missed the threshold on 12 of them
    effect = 1.0
    checked = (0, 57, 99, 100, 101, 199)
    spans = _scan_spans(stage2=False)
    outputs = ("stage1.tsv",)

    def generate(self, directory, seed):
        rng = _rng(seed, 2)
        paap = rng.uniform(0.6, 0.9, self.n_loci)
        truth = sample_ancestry_hwe(paap, self.n_subjects, rng)
        draws = redrawn_imputations(rng, truth, paap, self.m, self.redraw_frac)
        cov = _round6(rng.standard_normal((self.n_subjects, 2)))
        s_c = truth[:, self.causal].astype(np.float64)
        eta = -0.3 + cov @ np.array([0.5, -0.5]) + self.effect * (s_c - s_c.mean())
        y = (rng.random(self.n_subjects) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        trait = TraitData(y=y, kind="binary", covariates=cov,
                          covariate_names=["e1", "e2"])
        subject_ids = [f"s{i:04d}" for i in range(self.n_subjects)]
        files = {
            "draws": directory / "draws.adx",
            "phenotype": directory / "phenotype.tsv",
        }
        write_draws_file(
            files["draws"], draws, subject_ids,
            [f"L{j:03d}" for j in range(self.n_loci)],
            np.ones(self.n_loci, dtype=np.int64),
            np.arange(self.n_loci, dtype=np.float64) * 0.01,
            seed,
        )
        fileio.write_phenotypes(subject_ids, trait, files["phenotype"])
        return Dataset(files=files, truth={"draws": draws, "trait": trait})

    def argv(self, data, out, seed):
        return [
            "scan",
            "--draws", str(data.files["draws"]),
            "--phenotype", str(data.files["phenotype"]),
            "--trait-kind", "binary",
            "--out-dir", str(out),
        ]

    def check(self, data, out):
        problems = []
        rows = read_table(out / "stage1.tsv")
        if len(rows) != self.n_loci:
            return [f"stage1.tsv has {len(rows)} rows, expected {self.n_loci}"], {}
        for j in self.checked:
            want = oracle_log10_bf(data.truth["draws"], data.truth["trait"], [j])
            got = float(rows[j]["log10_bf"])
            if not abs(got - want) <= BF_TOL:
                problems.append(
                    f"locus {j}: log10 BF {got!r} differs from oracle {want!r}"
                )
        selected, flagged_frac = _stage1_facts(rows)
        if self.causal not in selected:
            problems.append(f"causal locus {self.causal} not selected")
        facts = {
            "n_loci": self.n_loci,
            "selected": len(selected),
            "flagged_frac": flagged_frac,
            "subsets": 0,
        }
        return problems, facts

    def work_units(self, facts):
        return float((facts["n_loci"] + facts["subsets"]) * self.m)


class MapCorrelated(Workload):
    name = "map_correlated"
    why = ("two-stage map on the correlated two-segment chromosome, "
           "OLS joint refits of p = 1-3 dominate; bypasses the binary IRLS path")
    n_subjects = 1000
    m = 10
    redraw_frac = 0.05
    c = 1.0
    max_cardinality = 3
    # Stage-2 work grows with the cube of the stage-1 selection, which swings
    # from 2 to 13 loci across seeds at the default threshold.  Each input
    # therefore gets the threshold that selects this many loci, so every seed
    # refits the same 377 subsets.
    n_selected = 13
    # log10 BF margin on each side of the threshold; the program and the
    # oracle agree to ~1e-9
    min_gap = 1e-5
    spans = _scan_spans(stage2=True)
    outputs = ("stage1.tsv", "stage2.tsv")

    def generate(self, directory, seed):
        rng = _rng(seed, 3)
        chromo = build_artificial_chromosome(self.n_subjects, rng)
        causal = list(chromo.causal)
        trait = simulate_traits(
            chromo.s[:, causal], "continuous", 1.0, self.c,
            chromo.paap[causal], rng,
        )
        trait = TraitData(y=_round6(trait.y), kind="continuous",
                          covariates=_round6(trait.covariates),
                          covariate_names=["e"])
        draws = redrawn_imputations(
            rng, chromo.s, chromo.paap, self.m, self.redraw_frac
        )
        n_selected, delta = self.threshold(marginal_log10_bfs(draws, trait))
        n_loc = chromo.n_loci
        subject_ids = [f"s{i:04d}" for i in range(self.n_subjects)]
        files = {
            "draws": directory / "draws.adx",
            "phenotype": directory / "phenotype.tsv",
        }
        write_draws_file(
            files["draws"], draws, subject_ids,
            [f"L{j:03d}" for j in range(n_loc)],
            chromo.chrom.astype(np.int64),
            chromo.position_mb,
            seed,
        )
        fileio.write_phenotypes(subject_ids, trait, files["phenotype"])
        return Dataset(
            files=files,
            truth={"draws": draws, "trait": trait, "causal": causal,
                   "n_loci": n_loc, "n_selected": n_selected, "delta": delta},
        )

    def threshold(self, log10_bfs):
        """(k, delta) with k nearest the target and a clear gap at delta."""
        ranked = np.sort(log10_bfs)[::-1]
        for k in sorted(range(2, len(ranked)),
                        key=lambda k: (abs(k - self.n_selected), k)):
            if ranked[k - 1] - ranked[k] >= 2 * self.min_gap:
                return k, float((ranked[k - 1] + ranked[k]) / 2.0)
        raise ValueError("no stage-1 threshold leaves a clear gap")

    def argv(self, data, out, seed):
        return [
            "map",
            "--draws", str(data.files["draws"]),
            "--phenotype", str(data.files["phenotype"]),
            "--trait-kind", "continuous",
            "--max-cardinality", str(self.max_cardinality),
            "--delta", repr(data.truth["delta"]),
            "--out-dir", str(out),
        ]

    def check(self, data, out):
        problems = []
        rows = read_table(out / "stage1.tsv")
        n_loc = data.truth["n_loci"]
        if len(rows) != n_loc:
            return [f"stage1.tsv has {len(rows)} rows, expected {n_loc}"], {}
        selected, flagged_frac = _stage1_facts(rows)
        subsets = read_table(out / "stage2.tsv")
        if not subsets:
            return ["stage2.tsv is empty"], {}
        top = subsets[0]
        ids = top["locus_ids"].split(",")
        index = {r["locus_id"]: int(r["index"]) for r in rows}
        columns = [index[i] for i in ids]
        causal = data.truth["causal"]
        if not set(causal) <= set(columns):
            problems.append(f"top subset {ids} misses a causal locus {causal}")
        want = oracle_log10_bf(data.truth["draws"], data.truth["trait"], columns)
        got = float(top["log10_bf"])
        if not abs(got - want) <= BF_TOL:
            problems.append(
                f"top subset {ids}: log10 BF {got!r} differs from oracle {want!r}"
            )
        k = len(selected)
        if k != data.truth["n_selected"]:
            problems.append(
                f"stage 1 selected {k} loci, the oracle {data.truth['n_selected']}"
            )
        expected = sum(
            math.comb(k, r) for r in range(1, min(self.max_cardinality, k) + 1)
        )
        if len(subsets) > expected:
            problems.append(f"{len(subsets)} stage-2 rows for {k} selected loci")
        facts = {
            "n_loci": n_loc,
            "selected": k,
            "flagged_frac": flagged_frac,
            "subsets": expected,
        }
        return problems, facts

    def work_units(self, facts):
        return float((facts["n_loci"] + facts["subsets"]) * self.m)


WORKLOADS = {w.name: w for w in (ImputeCohort(), ScanBinary(), MapCorrelated())}


def fresh_dir(path: Path):
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
