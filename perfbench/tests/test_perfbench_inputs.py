"""Generators are seeded and write files the program's readers accept."""
import numpy as np

from admixscan import fileio
from admixscan.mapping import stage1_scan, stage2_joint
from admixscan.hmm import AncestryDraws

from conftest import tiny
from oracle import marginal_log10_bfs, oracle_log10_bf


def _file_bytes(data):
    return {key: path.read_bytes() for key, path in data.files.items()}


def test_same_seed_same_files_other_seed_other_files(workload, tmp_path):
    for name in "abc":
        (tmp_path / name).mkdir()
    first = workload.generate(tmp_path / "a", 7)
    again = workload.generate(tmp_path / "b", 7)
    other = workload.generate(tmp_path / "c", 8)
    assert _file_bytes(first) == _file_bytes(again)
    assert _file_bytes(first) != _file_bytes(other)


def test_readers_accept_generated_files(workload, tmp_path):
    data = workload.generate(tmp_path, 3)
    files = data.files
    if "panel" in files:
        panel = fileio.read_panel(files["panel"])
        genotypes, markers = fileio.read_genotypes(files["genotypes"])
        genotypes = fileio.align_genotypes_to_panel(genotypes, markers, panel)
        assert genotypes.x.shape == data.truth["s"].shape
        assert genotypes.missing_mask.any()
    else:
        draws = fileio.load_draws(files["draws"])
        ids, trait, dropped = fileio.read_phenotypes(
            files["phenotype"], data.truth["trait"].kind)
        draws, trait = fileio.align_trait_to_draws(draws, ids, trait)
        assert dropped == 0
        np.testing.assert_array_equal(draws.draws, data.truth["draws"])
        # the in-memory trait the oracle uses is exactly what the program reads
        np.testing.assert_array_equal(trait.y, data.truth["trait"].y)
        np.testing.assert_array_equal(
            trait.covariates, data.truth["trait"].covariates)


def _program_stage1(data, **kwargs):
    draws = AncestryDraws(draws=data.truth["draws"],
                          sweep_index=np.arange(len(data.truth["draws"])))
    return draws, stage1_scan(draws, data.truth["trait"], **kwargs)


def test_oracle_equals_stage1_scan(tmp_path):
    data = tiny("scan_binary").generate(tmp_path, 5)
    _, result = _program_stage1(data)
    for row in result.stage1:
        want = oracle_log10_bf(data.truth["draws"], data.truth["trait"], [row.index])
        assert abs(row.log10_bf - want) <= 1e-6


def test_oracle_equals_joint_fits_and_closed_form_marginals(tmp_path):
    w = tiny("map_correlated")
    data = w.generate(tmp_path, 5)
    draws, stage1 = _program_stage1(data, delta=data.truth["delta"])
    closed = marginal_log10_bfs(data.truth["draws"], data.truth["trait"])
    program = np.array([r.log10_bf for r in stage1.stage1])
    np.testing.assert_allclose(closed, program, rtol=0, atol=1e-6)
    assert len(stage1.selected_indices) == data.truth["n_selected"]
    joint = stage2_joint(stage1, draws, data.truth["trait"], max_cardinality=3)
    for entry in joint.stage2[:3]:
        want = oracle_log10_bf(data.truth["draws"], data.truth["trait"],
                               list(entry.indices))
        assert abs(entry.log10_bf - want) <= 1e-6
