"""Small instances of the benchmark's workloads for its own tests.

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench/tests``.
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import ImputeCohort, MapCorrelated, ScanBinary  # noqa: E402


def tiny(name):
    """The named workload shrunk so a command takes about a second."""
    if name == "impute_cohort":
        w = ImputeCohort()
        w.n_subjects, w.n_chrom, w.loci_per_chrom = 40, 2, 30
        w.burn_in, w.n_draws, w.acc_floor = 3, 2, 0.5
    elif name == "scan_binary":
        w = ScanBinary()
        w.n_loci, w.m, w.causal, w.checked = 8, 2, 4, (0, 4, 7)
    else:
        w = MapCorrelated()
        w.m, w.n_selected = 2, 4
    return w


@pytest.fixture(params=["impute_cohort", "scan_binary", "map_correlated"])
def workload(request):
    return tiny(request.param)
