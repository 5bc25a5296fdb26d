"""The names the benchmark under ``perfbench/`` imports and wraps still exist.

The benchmark imports the package from ``src/`` and wraps functions at the
module attributes its callers look them up by.  Deleting or renaming one of
those names fails every benchmark command while the rest of this suite
passes, so these tests put ``perfbench/`` on ``sys.path`` (without changing
anything in it) and check what the benchmark needs.
"""
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from admixscan import cli, kernels
from admixscan.hmm import AncestryDraws
from admixscan.mapping import stage1_scan, stage2_joint
from admixscan.simulate import sample_ancestry_hwe, simulate_traits

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``spans``, ``oracle`` and ``workloads`` modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name)
               for name in ("spans", "oracle", "workloads")}
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_target_resolves_to_a_callable(bench):
    missing = []
    for module, attr, span in bench["spans"].TARGETS:
        target = getattr(importlib.import_module(module), attr, None)
        if not callable(target):
            missing.append(f"{module}.{attr} ({span})")
    assert not missing, f"benchmark spans wrap missing names: {missing}"


def test_runner_entry_points_exist(bench):
    assert callable(cli.main)
    assert callable(kernels.active_backend)
    assert bench["workloads"].WORKLOADS


@pytest.mark.parametrize("kind", ["binary", "continuous"])
def test_oracle_matches_both_stages(bench, rng, kind):
    # the scan checks: the oracle fits one (n, p) design at a time, reads
    # FitResult.converged, beta_hat and sigma_beta_hat, and must agree with
    # stage 1 (scan_binary) and with the 2- and 3-locus subsets of stage 2
    # (map_correlated) within its tolerance
    n_sub, m = 200, 2
    draws = np.stack(
        [sample_ancestry_hwe([0.8, 0.7, 0.75], n_sub, rng) for _ in range(m)]
    )
    trait = simulate_traits(draws[0][:, [1]], kind, 0.0, 0.8, [0.7], rng)
    anc = AncestryDraws(draws=draws, sweep_index=np.arange(m))
    scan = stage2_joint(stage1_scan(anc, trait, delta=-1.0), anc, trait)
    assert [len(s.indices) for s in scan.stage2].count(1) == 3
    for row in scan.stage1:
        want = bench["oracle"].oracle_log10_bf(draws, trait, [row.index])
        assert abs(row.log10_bf - want) <= 1e-6, (row.index, row.log10_bf, want)
    joint = [s for s in scan.stage2 if len(s.indices) > 1]
    assert sorted(len(s.indices) for s in joint) == [2, 2, 2, 3]
    for subset in joint:
        want = bench["oracle"].oracle_log10_bf(draws, trait, list(subset.indices))
        assert abs(subset.log10_bf - want) <= 1e-6, (subset.indices, subset.log10_bf, want)
