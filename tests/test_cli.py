import dataclasses
import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import admixscan
from admixscan import cli, fileio
from admixscan.cli import main
from admixscan.glm import TraitData
from admixscan.hmm import AimPanel, AncestryDraws, GenotypeMatrix
from admixscan.sampler import HmmHyperparams
from admixscan.simulate import (
    sample_genotypes_from_ancestry,
    simulate_traits,
)
from conftest import fail_ffbs_at_sweep, simulate_chain_ancestry


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


def read_rows(path):
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split("\t"), line.split("\t"))) for line in lines]


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
        assert "subset_cap" not in manifest["config"]

    def test_scan_with_largest_finite_threshold_selects_nothing(self, dataset):
        tmp, paths = dataset
        main(impute_args(paths, tmp / "imp"))
        assert main(
            [
                "scan",
                "--draws", str(tmp / "imp" / "draws.adx"),
                "--phenotype", str(paths["pheno"]),
                "--out-dir", str(tmp / "scan"),
                "--delta", repr(sys.float_info.max),
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


@pytest.mark.parametrize("command", ["scan", "map"])
def test_dropped_phenotype_rows_are_logged(tmp_path, caplog, command):
    rng = np.random.default_rng(12)
    ids = [f"S{i:02d}" for i in range(40)]
    fileio.save_draws(
        AncestryDraws(draws=rng.integers(0, 3, size=(2, 40, 3)),
                      sweep_index=np.arange(2), subject_ids=ids,
                      marker_ids=["a", "b", "c"]),
        tmp_path / "draws.adx",
    )
    y = [f"{v:.6f}" for v in rng.standard_normal(40)]
    for i in (3, 17, 30):
        y[i] = "NA"
    rows = "".join(f"{sid}\t{v}\n" for sid, v in zip(ids, y))
    (tmp_path / "pheno.tsv").write_text("subject_id\ttrait\n" + rows)
    caplog.set_level(logging.INFO)
    assert main([command, "--draws", str(tmp_path / "draws.adx"),
                 "--phenotype", str(tmp_path / "pheno.tsv"),
                 "--out-dir", str(tmp_path / "out")]) == 0
    dropped = [r for r in caplog.records if "phenotype rows" in r.getMessage()]
    assert [(r.levelno, r.getMessage()) for r in dropped] == [
        (logging.INFO, "dropped 3 phenotype rows with missing values")]
    assert len(read_rows(tmp_path / "out" / "stage1.tsv")) == 3


def save_random_draws(path, rng, n_sub, n_loc=3):
    ids = [f"S{i:02d}" for i in range(n_sub)]
    draws = AncestryDraws(draws=rng.integers(0, 3, size=(2, n_sub, n_loc)),
                          sweep_index=np.arange(2), subject_ids=ids,
                          marker_ids=[f"m{j}" for j in range(n_loc)])
    fileio.save_draws(draws, path)
    return draws


def test_empty_covariates_option_selects_no_covariate(tmp_path):
    # an empty --covariates used to be read as absent, so every column was fitted
    rng = np.random.default_rng(13)
    draws = save_random_draws(tmp_path / "draws.adx", rng, 40)
    y, e1 = rng.standard_normal((2, 40))
    fileio.write_phenotypes(draws.subject_ids, TraitData(
        y=y, kind="continuous", covariates=e1[:, None], covariate_names=["e1"]),
        tmp_path / "with_e1.tsv")
    fileio.write_phenotypes(draws.subject_ids, TraitData(y=y, kind="continuous"),
                            tmp_path / "without_e1.tsv")

    def scan(pheno, out, *extra):
        assert main(["scan", "--draws", str(tmp_path / "draws.adx"),
                     "--phenotype", str(tmp_path / pheno),
                     "--out-dir", str(tmp_path / out), *extra]) == 0
        return read_bytes(tmp_path / out / "stage1.tsv")

    no_covariate = scan("without_e1.tsv", "none")
    assert scan("with_e1.tsv", "empty", "--covariates", "") == no_covariate
    assert scan("with_e1.tsv", "all") != no_covariate
    # a manifest recording the empty option replays without covariates
    manifest = tmp_path / "empty" / "manifest.json"
    assert json.loads(manifest.read_text())["config"]["covariates"] == ""
    assert main(["rerun", str(manifest), "--out-dir", str(tmp_path / "replay")]) == 0
    assert read_bytes(tmp_path / "replay" / "stage1.tsv") == no_covariate


@pytest.mark.parametrize("command,delta", [
    ("scan", "nan"), ("scan", "inf"), ("map", "inf"), ("map", "-inf"), ("simulate", "nan"),
])
def test_non_finite_delta_refused(tmp_path, capsys, command, delta):
    # each used to exit 0: scan selecting no locus, map writing an empty
    # stage2.tsv (or refitting every subset at -inf), simulate reporting rate 0
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "--scenario", "null", "--n-subjects", "50", "--n-loci", "5",
                "--replicates", "1"]
    else:
        rng = np.random.default_rng(5)
        draws = save_random_draws(tmp_path / "draws.adx", rng, 40)
        fileio.write_phenotypes(draws.subject_ids, TraitData(
            y=rng.standard_normal(40), kind="continuous"), tmp_path / "pheno.tsv")
        argv = [command, "--draws", str(tmp_path / "draws.adx"),
                "--phenotype", str(tmp_path / "pheno.tsv")]
    assert main([*argv, f"--delta={delta}", "--out-dir", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "ValueError",
                      "message": f"delta must be finite, got {float(delta)!r}"}
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("option", ["lam", "mu0", "nu0", "rho0"])
def test_non_finite_hyperparameter_refused(dataset, capsys, option, value):
    # --mu0 nan ended in an uncaught RuntimeError, --rho0 nan and --nu0 nan in
    # a ForwardUnderflowError, --lam nan in numpy's "p contains NaNs"
    tmp, paths = dataset
    out = tmp / "out"
    assert main([*impute_args(paths, out), f"--{option}={value}"]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "ValueError",
                      "message": f"{option} must be finite, got {float(value)!r}"}
    assert not out.exists()


def test_rerun_replays_a_value_that_starts_with_a_dash(tmp_path):
    # the replay passed "--covariates -bmi", and argparse took -bmi for an option
    rng = np.random.default_rng(19)
    draws = save_random_draws(tmp_path / "draws.adx", rng, 40)
    y, bmi = rng.standard_normal((2, 40))
    fileio.write_phenotypes(draws.subject_ids, TraitData(
        y=y, kind="continuous", covariates=bmi[:, None], covariate_names=["-bmi"]),
        tmp_path / "pheno.tsv")
    assert main(["scan", "--draws", str(tmp_path / "draws.adx"),
                 "--phenotype", str(tmp_path / "pheno.tsv"), "--covariates=-bmi",
                 "--out-dir", str(tmp_path / "scan")]) == 0
    assert main(["rerun", str(tmp_path / "scan" / "manifest.json"),
                 "--out-dir", str(tmp_path / "replay")]) == 0
    assert read_bytes(tmp_path / "replay" / "stage1.tsv") == read_bytes(
        tmp_path / "scan" / "stage1.tsv")


def test_covariate_that_starts_with_a_dash_may_follow_its_option(tmp_path):
    # "--covariates -bmi" written apart scans as "--covariates=-bmi" does
    rng = np.random.default_rng(19)
    draws = save_random_draws(tmp_path / "draws.adx", rng, 40)
    y, bmi = rng.standard_normal((2, 40))
    fileio.write_phenotypes(draws.subject_ids, TraitData(
        y=y, kind="continuous", covariates=bmi[:, None], covariate_names=["-bmi"]),
        tmp_path / "pheno.tsv")
    argv = ["scan", "--draws", str(tmp_path / "draws.adx"),
            "--phenotype", str(tmp_path / "pheno.tsv")]
    assert main([*argv, "--covariates=-bmi", "--out-dir", str(tmp_path / "joined")]) == 0
    assert main([*argv, "--covariates", "-bmi", "--out-dir", str(tmp_path / "apart")]) == 0
    assert read_bytes(tmp_path / "apart" / "stage1.tsv") == read_bytes(
        tmp_path / "joined" / "stage1.tsv")


@pytest.mark.parametrize("option,value,message", [
    ("--c-values", "-0.1,0.2", "effect multiplier c must be nonnegative, got -0.1"),
    ("--alpha", "-inf", "covariate effect alpha must be finite, got -inf"),
], ids=["c_values", "alpha"])
def test_value_that_starts_with_a_dash_reaches_the_checks(tmp_path, capsys, option,
                                                          value, message):
    # written apart from its option, argparse took the value for an option
    # and exited 2 with a usage message
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", "single_locus", option, value,
                 "--n-subjects", "50", "--out-dir", str(out)])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "ValueError", "message": message}
    assert not out.exists()


def test_option_with_no_value_is_a_usage_error(tmp_path, capsys):
    # the token after --c-values is an option of the command, not its value
    out = tmp_path / "sim"
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--scenario", "single_locus", "--c-values", "--seed", "3",
              "--out-dir", str(out)])
    assert exit_info.value.code == 2
    assert "argument --c-values: expected one argument" in capsys.readouterr().err
    assert not out.exists()


class TestCountTrait:
    @pytest.fixture
    def count_inputs(self, tmp_path):
        rng = np.random.default_rng(21)
        draws = save_random_draws(tmp_path / "draws.adx", rng, 150, n_loc=4)
        e1 = rng.standard_normal(150)
        y = rng.poisson(np.exp(0.2 + 0.6 * draws.draws[0, :, 1] + 0.3 * e1))
        fileio.write_phenotypes(draws.subject_ids, TraitData(
            y=y, kind="count", covariates=e1[:, None], covariate_names=["e1"]),
            tmp_path / "pheno.tsv")
        return tmp_path

    @pytest.mark.parametrize("command,tables", [
        ("scan", ["stage1.tsv"]),
        ("map", ["stage1.tsv", "stage2.tsv"]),
    ])
    def test_tables_written_and_replayed_byte_for_byte(self, count_inputs,
                                                       command, tables):
        tmp = count_inputs
        assert main([command, "--draws", str(tmp / "draws.adx"),
                     "--phenotype", str(tmp / "pheno.tsv"), "--trait-kind", "count",
                     "--out-dir", str(tmp / "run")]) == 0
        rows = read_rows(tmp / "run" / "stage1.tsv")
        assert [r["locus_id"] for r in rows] == ["m0", "m1", "m2", "m3"]
        assert all(r["flag"] == "" for r in rows)
        assert rows[1]["selected"] == "1"
        if command == "map":
            assert "m1" in read_rows(tmp / "run" / "stage2.tsv")[0]["locus_ids"]
        assert main(["rerun", str(tmp / "run" / "manifest.json"),
                     "--out-dir", str(tmp / "replay")]) == 0
        for name in tables:
            assert read_bytes(tmp / "replay" / name) == read_bytes(tmp / "run" / name)

    def test_non_integer_count_names_the_file(self, count_inputs, capsys):
        tmp = count_inputs
        bad = tmp / "bad.tsv"
        bad.write_text("subject_id\ttrait\nS00\t2\nS01\t1.5\n")
        assert main(["scan", "--draws", str(tmp / "draws.adx"),
                     "--phenotype", str(bad), "--trait-kind", "count",
                     "--out-dir", str(tmp / "run")]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert record["message"] == (
            f"{bad}: count trait must hold nonnegative integers")
        assert not (tmp / "run" / "stage1.tsv").exists()


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
        manifest = tmp / "imp" / "manifest.json"
        record = json.loads(manifest.read_text())
        assert record["numpy"] == np.__version__
        # manifests written before the numpy version was recorded replay too
        del record["numpy"]
        manifest.write_text(json.dumps(record))
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
        assert sorted(p.name for p in out.iterdir()) == [
            "dataset_draws.adx", "dataset_phenotype.tsv", "manifest.json",
            "replicates.tsv", "summary.tsv",
        ]
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


# (simulate options, scan options) per scenario; each dataset yields hits
SCENARIOS = {
    "null": (["--trait-kind", "binary", "--n-subjects", "80", "--n-loci", "30",
              "--delta", "0", "--seed", "2"],
             ["--trait-kind", "binary", "--delta", "0"]),
    "single_locus": (["--n-subjects", "200", "--c-values", "0.4,0.1",
                      "--seed", "5"], []),
    "multilocus": (["--n-subjects", "120", "--delta", "1", "--seed", "4"],
                   ["--delta", "1"]),
}


def simulate(scenario, out):
    return main(["simulate", "--scenario", scenario, "--replicates", "2",
                 "--out-dir", str(out), *SCENARIOS[scenario][0]])


class TestSimulatedDataset:
    """The dataset ``simulate`` writes is the study's replicate 0."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_dataset_reproduces_replicate_zero(self, tmp_path, scenario):
        sim, scan = tmp_path / "sim", tmp_path / "scan"
        assert simulate(scenario, sim) == 0
        assert main(["scan", "--draws", str(sim / "dataset_draws.adx"),
                     "--phenotype", str(sim / "dataset_phenotype.tsv"),
                     "--out-dir", str(scan), *SCENARIOS[scenario][1]]) == 0
        first = read_rows(sim / "replicates.tsv")[0]
        loci = read_rows(scan / "stage1.tsv")
        selected = sum(int(r["selected"]) for r in loci)
        if scenario == "single_locus":
            [locus] = loci
            assert locus["locus_id"] == "L000"
            assert float(locus["log10_bf"]) == pytest.approx(
                float(first["log10_bf"]), abs=1e-6)
        elif scenario == "null":
            assert selected == int(first["hits"]) > 0
        else:
            assert len(loci) == 102
            assert selected == int(first["n_selected"]) > 0

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_rerun_byte_identical(self, tmp_path, scenario):
        assert simulate(scenario, tmp_path / "a") == 0
        assert main(["rerun", str(tmp_path / "a" / "manifest.json"),
                     "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("replicates.tsv", "summary.tsv", "dataset_draws.adx",
                     "dataset_phenotype.tsv"):
            assert read_bytes(tmp_path / "a" / name) == read_bytes(
                tmp_path / "b" / name
            )

    @pytest.mark.parametrize("option,value,message", [
        ("--replicates", "0", "n_replicates must be at least 1, got 0"),
        ("--c-values", "-0.1", "effect multiplier c must be nonnegative, got -0.1"),
        # a non-finite effect is refused before any replicate is drawn
        ("--c-values", "0.2,inf", "effect multiplier c must be finite, got inf"),
        ("--c-values", ",", "--c-values must be comma-separated numbers, got ','"),
        ("--alpha", "inf", "covariate effect alpha must be finite, got inf"),
        ("--alpha", "nan", "covariate effect alpha must be finite, got nan"),
        ("--c", "inf", "effect multiplier c must be finite, got inf"),
        ("--c", "nan", "effect multiplier c must be finite, got nan"),
    ], ids=["replicates", "c_values", "c_values_inf", "c_values_empty", "alpha_inf",
            "alpha_nan", "c_inf", "c_nan"])
    def test_out_of_range_option_rejected(self, tmp_path, capsys, option, value,
                                          message):
        scenario = "multilocus" if option == "--c" else "single_locus"
        code = main(["simulate", "--scenario", scenario, option, value,
                     "--n-subjects", "50", "--out-dir", str(tmp_path / "sim")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "ValueError", "message": message}
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("scenario,option,value", [
        ("null", "--c", "0.5"),
        ("single_locus", "--n-loci", "12"),
        ("multilocus", "--alpha", "3"),
    ], ids=["null", "single_locus", "multilocus"])
    def test_option_the_scenario_does_not_read_rejected(self, tmp_path, capsys,
                                                        scenario, option, value):
        # each used to be accepted, recorded in the manifest and ignored
        code = main(["simulate", "--scenario", scenario, option, value,
                     "--out-dir", str(tmp_path / "sim")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "ValueError",
                          "message": f"{option} is not read by --scenario {scenario}"}
        assert not (tmp_path / "sim").exists()

    def test_manifest_records_resolved_scenario_options(self, tmp_path):
        expected = {
            "null": {"n_loci": 30, "alpha": 0.0},
            "single_locus": {"alpha": 0.0, "c_values": "0.4,0.1"},
            "multilocus": {"c": 0.7, "max_cardinality": 2},
        }
        scenario_only = ("n_loci", "alpha", "c_values", "c", "max_cardinality")
        for scenario, resolved in expected.items():
            assert simulate(scenario, tmp_path / scenario) == 0
            config = json.loads(
                (tmp_path / scenario / "manifest.json").read_text())["config"]
            assert {k: config[k] for k in scenario_only if k in config} == resolved


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

    @pytest.mark.parametrize("genotypes", ["missing", "malformed"])
    def test_refused_impute_makes_no_out_dir(self, dataset, capsys, genotypes):
        # the output directory is made only once the draws are in hand
        tmp, paths = dataset
        bad = tmp / "bad.tsv"
        if genotypes == "malformed":
            bad.write_text("subject_id\trs00\nS000\t7\n")
        assert main(impute_args({**paths, "geno": bad}, tmp / "out")) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert str(bad) in record["message"]
        assert not (tmp / "out").exists()

    def test_lost_forward_mass_fails_naming_the_sweep(self, dataset, capsys, monkeypatch):
        tmp, paths = dataset
        fail_ffbs_at_sweep(monkeypatch, 3)
        assert main(impute_args(paths, tmp / "out")) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "ForwardUnderflowError",
                          "message": "sweep 3: zero forward mass at subject 4, locus 7"}
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize("command", ["scan", "map"])
    def test_draws_without_subject_ids_refused(self, tmp_path, capsys, command):
        # phenotype rows are paired with draws rows by subject id alone; the
        # row counts match here, which once paired them by position
        rng = np.random.default_rng(17)
        fileio.save_draws(AncestryDraws(draws=rng.integers(0, 3, size=(2, 30, 3)),
                                        sweep_index=np.arange(2)), tmp_path / "draws.adx")
        fileio.write_phenotypes([f"S{i:02d}" for i in range(30)],
                                TraitData(y=rng.standard_normal(30), kind="continuous"),
                                tmp_path / "pheno.tsv")
        assert main([command, "--draws", str(tmp_path / "draws.adx"),
                     "--phenotype", str(tmp_path / "pheno.tsv"),
                     "--out-dir", str(tmp_path / "out")]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "AlignmentError"
        assert record["message"] == "draws carry no subject ids to pair phenotype rows with"
        assert not (tmp_path / "out").exists()

    def test_rerun_refuses_changed_input(self, dataset, capsys):
        tmp, paths = dataset
        main(impute_args(paths, tmp / "imp"))
        assert main(["scan", "--draws", str(tmp / "imp" / "draws.adx"),
                     "--phenotype", str(paths["pheno"]),
                     "--out-dir", str(tmp / "scan")]) == 0
        manifest = tmp / "scan" / "manifest.json"
        record = json.loads(manifest.read_text())
        assert record["inputs"] == {
            key: hashlib.sha256(Path(record["config"][key]).read_bytes()).hexdigest()
            for key in ("draws", "phenotype")
        }
        header, first, *rest = paths["pheno"].read_text().splitlines()
        cells = first.split("\t")
        cells[1] += "9"   # one more digit in the first subject's trait
        paths["pheno"].write_text("\n".join([header, "\t".join(cells), *rest]) + "\n")
        capsys.readouterr()
        assert main(["rerun", str(manifest), "--out-dir", str(tmp / "replay")]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DataFormatError"
        assert f"input --phenotype {paths['pheno']} changed" in record["message"]
        assert not (tmp / "replay").exists()

    def test_manifest_hashes_inputs_before_they_are_read(self, dataset,
                                                         monkeypatch):
        tmp, paths = dataset
        main(impute_args(paths, tmp / "imp"))
        original = hashlib.sha256(paths["pheno"].read_bytes()).hexdigest()
        real_scan = cli.stage1_scan

        def scan_then_edit(*args, **kwargs):
            # the phenotype file changes after the run has read it
            with open(paths["pheno"], "a") as fh:
                fh.write("S999\t1.0\n")
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(cli, "stage1_scan", scan_then_edit)
        assert main(["scan", "--draws", str(tmp / "imp" / "draws.adx"),
                     "--phenotype", str(paths["pheno"]),
                     "--out-dir", str(tmp / "scan")]) == 0
        record = json.loads((tmp / "scan" / "manifest.json").read_text())
        assert record["inputs"]["phenotype"] == original

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.pop("inputs"), "records no input hashes"),
        (lambda r: r["inputs"].pop("phenotype"), "--phenotype has a path but no hash"),
    ], ids=["no-inputs-key", "entry-removed"])
    def test_rerun_refuses_manifest_without_hashes(self, dataset, capsys,
                                                   edit, message):
        tmp, paths = dataset
        main(impute_args(paths, tmp / "imp"))
        assert main(["scan", "--draws", str(tmp / "imp" / "draws.adx"),
                     "--phenotype", str(paths["pheno"]),
                     "--out-dir", str(tmp / "scan")]) == 0
        manifest = tmp / "scan" / "manifest.json"
        record = json.loads(manifest.read_text())
        edit(record)
        manifest.write_text(json.dumps(record))
        capsys.readouterr()
        assert main(["rerun", str(manifest), "--out-dir", str(tmp / "replay")]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "DataFormatError"
        assert message in error["message"]
        assert not (tmp / "replay").exists()

    @pytest.mark.parametrize("columns, names", [
        (lambda e: [np.ones_like(e)], ["site"]),
        (lambda e: [e, e], ["e", "e_copy"]),
    ], ids=["constant", "duplicate"])
    def test_unfittable_covariate_fails_by_name(self, dataset, capsys, columns,
                                                names):
        # such a design used to flag every locus "not positive definite" or
        # escape as a bare LinAlgError, as rounding fell
        tmp, paths = dataset
        main(impute_args(paths, tmp / "imp"))
        ids, trait, _ = fileio.read_phenotypes(paths["pheno"], "continuous")
        bad = TraitData(y=trait.y, kind="continuous",
                        covariates=np.column_stack(columns(trait.covariates[:, 0])),
                        covariate_names=names)
        fileio.write_phenotypes(ids, bad, tmp / "bad.tsv")
        capsys.readouterr()
        assert main(["scan", "--draws", str(tmp / "imp" / "draws.adx"),
                     "--phenotype", str(tmp / "bad.tsv"),
                     "--out-dir", str(tmp / "scan")]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DegenerateDesignError"
        assert f"covariate {names[-1]!r} is constant or collinear" in record["message"]
        assert not (tmp / "scan" / "stage1.tsv").exists()

    @pytest.mark.parametrize("command", ["scan", "map", "ald"])
    def test_seed_is_not_an_option_of_commands_that_draw_nothing(
            self, dataset, capsys, command):
        tmp, paths = dataset
        main(impute_args(paths, tmp / "imp"))
        argv = [command, "--draws", str(tmp / "imp" / "draws.adx"),
                "--out-dir", str(tmp / command)]
        if command != "ald":
            argv += ["--phenotype", str(paths["pheno"])]
        with pytest.raises(SystemExit):
            main([*argv, "--seed", "1"])
        # a manifest written when the option was accepted is refused by name
        assert main(argv) == 0
        manifest = tmp / command / "manifest.json"
        record = json.loads(manifest.read_text())
        assert "seed" not in record["config"]
        record["config"]["seed"] = 0
        manifest.write_text(json.dumps(record))
        capsys.readouterr()
        assert main(["rerun", str(manifest), "--out-dir", str(tmp / "replay")]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "DataFormatError"
        assert "--seed" in error["message"]
        assert not (tmp / "replay").exists()

    def test_mh_sigma_is_gone(self, dataset, capsys):
        # tau takes a slice step, which has no step size to set
        tmp, paths = dataset
        argv = impute_args(paths, tmp / "imp")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--mh-sigma", "50"])
        assert exc.value.code == 2
        # a manifest written when the option was accepted is refused by name
        assert main(argv) == 0
        manifest = tmp / "imp" / "manifest.json"
        record = json.loads(manifest.read_text())
        assert "mh_sigma" not in record["config"]
        record["config"]["mh_sigma"] = 50.0
        manifest.write_text(json.dumps(record))
        capsys.readouterr()
        assert main(["rerun", str(manifest), "--out-dir", str(tmp / "replay")]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "DataFormatError"
        assert "--mh-sigma" in error["message"]
        assert not (tmp / "replay").exists()

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


def test_impute_defaults_are_the_hyperparameter_defaults():
    # every field is an impute option; seed alone has a default of its own
    parser = cli.build_parser()
    base = ["impute", "--panel", "p.tsv", "--genotypes", "g.tsv", "--out-dir", "o"]
    args = parser.parse_args(base)
    for f in dataclasses.fields(HmmHyperparams):
        assert getattr(args, f.name) == (0 if f.name == "seed" else f.default), f.name
        given = parser.parse_args([*base, "--" + f.name.replace("_", "-"), "3"])
        assert getattr(given, f.name) == 3, f.name


def test_impute_hands_every_option_to_the_sampler(dataset, monkeypatch):
    tmp, paths = dataset
    given = {"lam": 5.0, "mu0": 2e-4, "rho0": 0.7, "nu0": 0.02,
             "burn_in": 7, "n_draws": 9, "thin": 3, "seed": 11}
    assert set(given) == {f.name for f in dataclasses.fields(HmmHyperparams)}
    seen = []

    def fake_run_mcmc(genotypes, panel, hyper):
        seen.append(hyper)
        return AncestryDraws(draws=np.zeros((1, genotypes.n_subjects, panel.n_loci)),
                             sweep_index=[0])

    monkeypatch.setattr(cli, "run_mcmc", fake_run_mcmc)
    argv = ["impute", "--panel", str(paths["panel"]), "--genotypes", str(paths["geno"]),
            "--out-dir", str(tmp / "imp")]
    for name, value in given.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    assert main(argv) == 0
    assert seen == [HmmHyperparams(**given)]


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy, hypothesis and the
    # references under tests/ serve the tests alone, so importing every
    # module of the package loads none of them
    src = Path(admixscan.__file__).resolve().parents[1]
    code = ("import importlib, pkgutil, sys, admixscan\n"
            "for m in pkgutil.walk_packages(admixscan.__path__, 'admixscan.'):\n"
            "    importlib.import_module(m.name)\n"
            "test_only = {'scipy', 'hypothesis', 'tests', 'conftest', 'qnm_helpers'}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in test_only))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_study_generators():
    # scan, map and impute never read simulate or studies; only the
    # simulate command imports them
    src = Path(admixscan.__file__).resolve().parents[1]
    code = ("import admixscan.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m in ('admixscan.simulate', 'admixscan.studies')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_binary_scan_and_map_load_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, 13-20 ms of a binary scan or map; the
    # single-class check of a binary trait needs none of it
    rng = np.random.default_rng(4)
    draws = save_random_draws(tmp_path / "draws.adx", rng, 60)
    fileio.write_phenotypes(draws.subject_ids,
                            TraitData(y=rng.integers(0, 2, 60), kind="binary"),
                            tmp_path / "pheno.tsv")
    src = Path(admixscan.__file__).resolve().parents[1]
    code = ("import sys\n"
            "from admixscan.cli import main\n"
            "for command in ('scan', 'map'):\n"
            "    assert main([command, '--draws', 'draws.adx', '--phenotype', 'pheno.tsv',\n"
            "                 '--trait-kind', 'binary', '--out-dir', command]) == 0\n"
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"
