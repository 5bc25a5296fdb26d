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
from admixscan.mapping import stage1_scan
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


def test_oracle_matches_stage1_on_a_binary_scan(bench, rng):
    # the scan_binary check: the oracle reads FitResult.converged, beta_hat
    # and sigma_beta_hat, and must agree with stage 1 within its tolerance
    n_sub, m = 200, 2
    draws = np.stack(
        [sample_ancestry_hwe([0.8, 0.7, 0.75], n_sub, rng) for _ in range(m)]
    )
    trait = simulate_traits(draws[0][:, [1]], "binary", 0.0, 0.8, [0.7], rng)
    scan = stage1_scan(AncestryDraws(draws=draws, sweep_index=np.arange(m)), trait)
    for row in scan.stage1:
        want = bench["oracle"].oracle_log10_bf(draws, trait, [row.index])
        assert abs(row.log10_bf - want) <= 1e-6, (row.index, row.log10_bf, want)
