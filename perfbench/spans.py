"""Timing spans recorded from outside the program, and the per-layer metrics.

The tracer replaces functions at the module attributes their callers look
them up by, records one span per call (name, start, end, enclosing span) in
memory, and puts every original back when it exits.  Nothing under ``src/``
changes.  A layer's self time is its span minus the spans directly inside it.
"""
from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

SAMPLER_STEPS = (
    "impute_missing_genotypes",
    "sample_ancestry_paths",
    "sample_recombination_counts",
    "update_gamma",
    "update_rho",
    "update_allele_freqs",
    "update_tau_mh",
)
KERNELS = (
    "ffbs_paths",
    "recombination_counts",
    "impute_genotypes",
    "genotype_state_counts",
    "ancestry_count_stats",
)
FILEIO = (
    "read_panel",
    "read_genotypes",
    "save_draws",
    "load_draws",
    "read_phenotypes",
    "write_stage1_table",
    "write_stage2_table",
)

# (module, attribute the caller looks up, span name).  ``mapping`` calls
# the GLM and Bayes-factor functions through its own imported names, and
# ``cli`` calls the sampler and both stages through its own, so those are
# the attributes wrapped.
TARGETS = (
    [
        ("admixscan.cli", "run_mcmc", "sampler.run_mcmc"),
        ("admixscan.cli", "stage1_scan", "mapping.stage1_scan"),
        ("admixscan.cli", "stage2_joint", "mapping.stage2_joint"),
        ("admixscan.mapping", "center_ancestries", "glm.center_ancestries"),
        ("admixscan.mapping", "fit_glm", "glm.fit_glm"),
        ("admixscan.mapping", "bf_for_fit", "qnm.bf_for_fit"),
        ("admixscan.mapping", "average_bf", "qnm.average_bf"),
    ]
    + [("admixscan.sampler", s, f"sampler.{s}") for s in SAMPLER_STEPS]
    + [("admixscan.kernels", k, f"kernels.{k}") for k in KERNELS]
    + [("admixscan.fileio", f, f"fileio.{f}") for f in FILEIO]
)

SWEEP = "sampler.sweep"            # first step start to last step end
SWEEP_SELF = "sampler.sweep_self"  # steps minus their kernel children


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None at top level

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Context manager that wraps ``targets`` and records spans.

    The first call's arguments of each name in ``keep_args`` are kept so a
    call can be replayed after the run, for example under ``tracemalloc``.
    """

    def __init__(self, targets=TARGETS, keep_args=()):
        self.targets = list(targets)
        self.keep_args = set(keep_args)
        self.spans = []
        self.first_args = {}
        self._stack = []
        self._saved = []

    def __enter__(self):
        try:
            for module_name, attr, name in self.targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        spans, stack, first_args = self.spans, self._stack, self.first_args
        keep = name in self.keep_args

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keep and name not in first_args:
                first_args[name] = (args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent)

        return wrapper

    def to_json(self):
        return [asdict(s) for s in self.spans]


def self_seconds(spans):
    """Per-span duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def series(spans):
    """Per-call durations and self times by span name, plus derived sweeps."""
    own = self_seconds(spans)
    durations, selfs = defaultdict(list), defaultdict(list)
    for s, t in zip(spans, own):
        durations[s.name].append(s.seconds)
        selfs[s.name].append(t)
    first = [s for s in spans if s.name == f"sampler.{SAMPLER_STEPS[0]}"]
    last = [s for s in spans if s.name == f"sampler.{SAMPLER_STEPS[-1]}"]
    if first and len(first) == len(last):
        durations[SWEEP] = [b.end - a.start for a, b in zip(first, last)]
        steps = [selfs[f"sampler.{s}"] for s in SAMPLER_STEPS]
        if all(len(x) == len(first) for x in steps):
            durations[SWEEP_SELF] = [sum(v) for v in zip(*steps)]
    return durations, selfs


def tail_level(n):
    """Highest quantile with at least ten samples beyond it (median if none)."""
    return max(0.5, 1.0 - 10.0 / n) if n else math.nan


def summarize(values):
    """Median, tail quantile, its level and the count of per-call times."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if not n:
        return {"n": 0}
    level = tail_level(n)
    return {
        "n": int(n),
        "median": float(np.median(values)),
        "tail": float(np.quantile(values, level)),
        "tail_level": level,
        "total": float(values.sum()),
    }


# (metric, unit, source series, statistic).  A series is a span name or
# one of the derived sweep series; "self" sums self time over calls.
SPAN_METRICS = (
    [
        ("sampler.sweep_ms", "ms", SWEEP, "median"),
        ("sampler.sweep_ms_tail", "ms", SWEEP, "tail"),
        ("sampler.sweeps", "count", SWEEP, "n"),
    ]
    + [(f"sampler.{s}_ms", "ms", f"sampler.{s}", "median") for s in SAMPLER_STEPS]
    + [
        ("sampler.self_ms", "ms", SWEEP_SELF, "median"),
        ("sampler.run_mcmc_s", "s", "sampler.run_mcmc", "total"),
    ]
    + [(f"kernels.{k}_ms", "ms", f"kernels.{k}", "median") for k in KERNELS]
    + [
        ("kernels.ffbs_paths_ms_tail", "ms", "kernels.ffbs_paths", "tail"),
        ("glm.fit_glm_ms", "ms", "glm.fit_glm", "median"),
        ("glm.fit_glm_ms_tail", "ms", "glm.fit_glm", "tail"),
        ("glm.fit_glm_calls", "count", "glm.fit_glm", "n"),
        ("glm.center_ancestries_ms", "ms", "glm.center_ancestries", "median"),
        ("qnm.bf_for_fit_ms", "ms", "qnm.bf_for_fit", "median"),
        ("qnm.bf_for_fit_ms_tail", "ms", "qnm.bf_for_fit", "tail"),
        ("qnm.bf_for_fit_calls", "count", "qnm.bf_for_fit", "n"),
        ("qnm.average_bf_ms", "ms", "qnm.average_bf", "median"),
        ("mapping.stage1_scan_s", "s", "mapping.stage1_scan", "total"),
        ("mapping.stage1_self_s", "s", "mapping.stage1_scan", "self"),
        ("mapping.stage2_joint_s", "s", "mapping.stage2_joint", "total"),
        ("mapping.stage2_self_s", "s", "mapping.stage2_joint", "self"),
    ]
    + [(f"fileio.{f}_ms", "ms", f"fileio.{f}", "total") for f in FILEIO]
)

_SCALE = {"ms": 1e3, "s": 1.0, "count": 1.0}


def expected_series(expected_spans):
    expected = set(expected_spans)
    if f"sampler.{SAMPLER_STEPS[-1]}" in expected:
        expected |= {SWEEP, SWEEP_SELF}
    return expected


def span_metrics(spans, expected_spans):
    """Per-layer metrics from spans, and the expected series never recorded.

    A series the workload expects but the trace lacks is left out of the
    metrics and named in the returned list; a series the workload does not
    expect reads zero.
    """
    durations, selfs = series(spans)
    expected = expected_series(expected_spans)
    missing = sorted(name for name in expected if not durations.get(name))
    metrics, summaries = {}, {}
    for metric, unit, source, stat in SPAN_METRICS:
        values = durations.get(source, [])
        if not values:
            if source in missing:
                continue
            metrics[metric] = {"value": 0, "unit": unit}
            continue
        if stat == "self":
            value = float(sum(selfs[source]))
        else:
            summary = summaries.setdefault(source, summarize(values))
            value = summary[stat]
        if stat != "n":
            value *= _SCALE[unit]
        metrics[metric] = {"value": value, "unit": unit}
    for source, values in durations.items():
        summaries.setdefault(source, summarize(values))
    return metrics, missing, summaries


def top_level_seconds(spans):
    return sum(s.seconds for s in spans if s.parent is None)
