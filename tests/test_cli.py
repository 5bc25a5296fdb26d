import json
from pathlib import Path

import numpy as np
import pytest

from admixscan import fileio
from admixscan.cli import main
from admixscan.hmm import AimPanel, GenotypeMatrix
from admixscan.simulate import (
    sample_genotypes_from_ancestry,
    simulate_traits,
)
from conftest import simulate_chain_ancestry


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(8)
    n_sub, n_loc = 120, 16
    panel = AimPanel(
        marker_ids=[f"rs{j:02d}" for j in range(n_loc)],
        chrom=np.repeat([1, 2], 8),
        position=np.concatenate(
            [np.cumsum(rng.uniform(0.2, 0.3, 8))] * 2
        ),
        p_a0=rng.uniform(0.75, 0.95, n_loc),
        p_b0=rng.uniform(0.05, 0.25, n_loc),
    )
    s = simulate_chain_ancestry(
        rng, n_sub, panel.gamma0(6.0), 0.8, chrom_start=panel.chrom_start
    )
    x = sample_genotypes_from_ancestry(s, panel.p_a0, panel.p_b0, rng,
                                       missing_rate=0.05)
    g = GenotypeMatrix(x=x, subject_ids=[f"S{i:03d}" for i in range(n_sub)])
    trait = simulate_traits(s[:, [4]], "continuous", 1.0, 1.8, [0.8], rng)
    paths = {
        "panel": tmp_path / "panel.tsv",
        "geno": tmp_path / "geno.tsv",
        "pheno": tmp_path / "pheno.tsv",
    }
    fileio.write_panel(panel, paths["panel"])
    fileio.write_genotypes(g, panel.marker_ids, paths["geno"])
    fileio.write_phenotypes(g.subject_ids, trait, paths["pheno"])
    return tmp_path, paths


def impute_args(paths, out, seed="3"):
    return [
        "impute",
        "--panel", str(paths["panel"]),
        "--genotypes", str(paths["geno"]),
        "--out-dir", str(out),
        "--burn-in", "50",
        "--n-draws", "40",
        "--thin", "10",
        "--seed", seed,
    ]


def read_bytes(path):
    return path.read_bytes()


class TestPipeline:
    def test_impute_then_map_finds_causal_locus(self, dataset):
        tmp, paths = dataset
        assert main(impute_args(paths, tmp / "imp")) == 0
        draws = fileio.load_draws(tmp / "imp" / "draws.adx")
        assert draws.m == 4
        assert main(
            [
                "map",
                "--draws", str(tmp / "imp" / "draws.adx"),
                "--phenotype", str(paths["pheno"]),
                "--out-dir", str(tmp / "map"),
                "--delta", "1.0",
            ]
        ) == 0
        lines = (tmp / "map" / "stage1.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        rows = [dict(zip(header, l.split("\t"))) for l in lines[1:]]
        best = max(rows, key=lambda r: float(r["log10_bf"]))
        assert best["locus_id"] == "rs04"
        assert (tmp / "map" / "stage2.tsv").exists()
        manifest = json.loads((tmp / "map" / "manifest.json").read_text())
        assert manifest["command"] == "map"

    def test_scan_with_infinite_threshold_selects_nothing(self, dataset):
        tmp, paths = dataset
        main(impute_args(paths, tmp / "imp"))
        assert main(
            [
                "scan",
                "--draws", str(tmp / "imp" / "draws.adx"),
                "--phenotype", str(paths["pheno"]),
                "--out-dir", str(tmp / "scan"),
                "--delta", "inf",
            ]
        ) == 0
        lines = (tmp / "scan" / "stage1.tsv").read_text().splitlines()[1:]
        assert lines
        assert all(line.split("\t")[5] == "0" for line in lines)

    def test_ald_output_square(self, dataset):
        tmp, paths = dataset
        main(impute_args(paths, tmp / "imp"))
        assert main(
            ["ald", "--draws", str(tmp / "imp" / "draws.adx"),
             "--out-dir", str(tmp / "ald")]
        ) == 0
        lines = (tmp / "ald" / "ald.tsv").read_text().splitlines()
        assert len(lines) == 17
        first = lines[1].split("\t")
        assert first[0] == "rs00"
        assert float(first[1]) == 1.0


class TestDeterminism:
    def test_identical_runs_byte_identical(self, dataset):
        tmp, paths = dataset
        main(impute_args(paths, tmp / "a"))
        main(impute_args(paths, tmp / "b"))
        assert read_bytes(tmp / "a" / "draws.adx") == read_bytes(
            tmp / "b" / "draws.adx"
        )

    def test_seed_changes_output(self, dataset):
        tmp, paths = dataset
        main(impute_args(paths, tmp / "a"))
        main(impute_args(paths, tmp / "c", seed="4"))
        assert read_bytes(tmp / "a" / "draws.adx") != read_bytes(
            tmp / "c" / "draws.adx"
        )

    def test_repeated_scan_byte_identical(self, dataset):
        tmp, paths = dataset
        main(impute_args(paths, tmp / "imp"))
        for out in ("s1", "s2"):
            assert main(
                [
                    "scan",
                    "--draws", str(tmp / "imp" / "draws.adx"),
                    "--phenotype", str(paths["pheno"]),
                    "--out-dir", str(tmp / out),
                ]
            ) == 0
        assert read_bytes(tmp / "s1" / "stage1.tsv") == read_bytes(
            tmp / "s2" / "stage1.tsv"
        )

    def test_rerun_from_manifest_reproduces_outputs(self, dataset):
        tmp, paths = dataset
        main(impute_args(paths, tmp / "imp"))
        assert main(
            ["rerun", str(tmp / "imp" / "manifest.json"),
             "--out-dir", str(tmp / "imp2")]
        ) == 0
        assert read_bytes(tmp / "imp" / "draws.adx") == read_bytes(
            tmp / "imp2" / "draws.adx"
        )

    def test_rerun_from_another_directory(self, dataset, monkeypatch):
        tmp, paths = dataset
        main(impute_args(paths, tmp / "imp"))
        (tmp / "a").mkdir()
        (tmp / "b").mkdir()
        monkeypatch.chdir(tmp / "a")
        assert main(
            [
                "scan",
                "--draws", "../imp/draws.adx",
                "--phenotype", "../pheno.tsv",
                "--out-dir", "scan",
            ]
        ) == 0
        monkeypatch.chdir(tmp / "b")
        assert main(
            ["rerun", "../a/scan/manifest.json", "--out-dir", "replay"]
        ) == 0
        assert read_bytes(tmp / "b" / "replay" / "stage1.tsv") == read_bytes(
            tmp / "a" / "scan" / "stage1.tsv"
        )
        record = json.loads((tmp / "a" / "scan" / "manifest.json").read_text())
        for key in ("draws", "phenotype", "out_dir"):
            assert Path(record["config"][key]).is_absolute()


class TestSimulateCommand:
    def test_null_scenario_outputs(self, tmp_path):
        assert main(
            [
                "simulate",
                "--scenario", "null",
                "--n-subjects", "60",
                "--n-loci", "30",
                "--replicates", "3",
                "--out-dir", str(tmp_path / "sim"),
                "--seed", "5",
            ]
        ) == 0
        out = tmp_path / "sim"
        for name in ("scenario.json", "replicates.tsv", "summary.tsv",
                     "manifest.json", "dataset_draws.adx",
                     "dataset_phenotype.tsv"):
            assert (out / name).exists()
        summary = (out / "summary.tsv").read_text().splitlines()
        assert summary[0].split("\t")[0] == "aggregate_rate"

    def test_single_locus_scenario_power_table(self, tmp_path):
        assert main(
            [
                "simulate",
                "--scenario", "single_locus",
                "--n-subjects", "150",
                "--replicates", "4",
                "--c-values", "0.2,0.4",
                "--delta", "1.0",
                "--out-dir", str(tmp_path / "sim"),
                "--seed", "5",
            ]
        ) == 0
        lines = (tmp_path / "sim" / "summary.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["c", "power", "delta"]
        assert len(lines) == 3

    def test_emitted_dataset_feeds_scan(self, tmp_path):
        main(
            [
                "simulate",
                "--scenario", "single_locus",
                "--n-subjects", "200",
                "--n-loci", "12",
                "--replicates", "2",
                "--c-values", "0.4",
                "--out-dir", str(tmp_path / "sim"),
                "--seed", "5",
            ]
        )
        assert main(
            [
                "scan",
                "--draws", str(tmp_path / "sim" / "dataset_draws.adx"),
                "--phenotype", str(tmp_path / "sim" / "dataset_phenotype.tsv"),
                "--out-dir", str(tmp_path / "scan"),
            ]
        ) == 0


class TestErrorSurface:
    def test_missing_file_yields_json_error(self, tmp_path, capsys):
        code = main(
            ["ald", "--draws", str(tmp_path / "nope.adx"),
             "--out-dir", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert "error" in record and "message" in record

    def test_bad_genotype_cell_reported(self, dataset, capsys):
        tmp, paths = dataset
        bad = tmp / "bad.tsv"
        bad.write_text("subject_id\trs00\nS000\t7\n")
        code = main(
            [
                "impute",
                "--panel", str(paths["panel"]),
                "--genotypes", str(bad),
                "--out-dir", str(tmp / "out"),
            ]
        )
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert "'7'" in record["message"]

    def test_rerun_rejects_unknown_manifest_key(self, tmp_path, capsys):
        # a manifest recorded with an option the command no longer accepts
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "tool": "admixscan",
            "version": "0.1.0",
            "command": "scan",
            "config": {
                "draws": str(tmp_path / "draws.adx"),
                "phenotype": str(tmp_path / "pheno.tsv"),
                "out_dir": str(tmp_path / "out"),
                "workers": 2,
            },
        }))
        assert main(["rerun", str(manifest)]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert "--workers" in record["message"]
        assert str(manifest) in record["message"]
