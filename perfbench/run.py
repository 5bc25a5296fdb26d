"""End-to-end and per-layer benchmark of the admixscan CLI.

    python3 perfbench/run.py --workload scan_binary --seed 3 --seconds 50 --trace 0
    python3 perfbench/run.py --compare BENCH_base.json BENCH_new.json

Each run generates its workload's inputs from ``--seed`` (at least five
times and for at least two seconds, to time set-up), then runs the
workload's CLI command as a subprocess, one at a time in a closed loop, for
``--seconds`` seconds.  Every command's outputs are checked.  A fixed
reference job (``reference.py``) is timed before and after every command,
and command times are reported as multiples of it.  ``--trace 0`` reports
the end-to-end metrics.  ``--trace 1`` also makes one traced in-process run
of ``admixscan.cli.main`` with the same arguments and reports the per-layer
metrics.  The last line of standard output is the result as one JSON
object; ``--out FILE`` also merges the run's metrics into FILE, which
``--compare`` reads.

Run it from the repository root.  It imports the package from ``src/`` next
to this directory and exits with an error if that is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"

# The program runs single-threaded: BLAS pools are pinned to one thread and
# the package's own worker and backend switches are cleared, in this process
# and in every child, before numpy is first imported.
BLAS_THREADS = "1"
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
DROPPED_VARS = ("ADMIXSCAN_WORKERS", "ADMIXSCAN_NUMBA")

# Inputs are generated at least SETUP_REPEATS times and for at least
# SETUP_SECONDS.  With five generations, the median (~40 ms on scan_binary,
# ~0.2 s on impute_cohort) spread by ~35% between runs of the same code.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
IMPORT_REPEATS = 5
TIME_LIMIT = 170.0     # seconds from a run's start by which every child ends
RESERVE = 40.0         # kept back from TIME_LIMIT when starting a command


def pinned_env():
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_VARS}
    env.update({k: BLAS_THREADS for k in BLAS_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "admixscan" / "__init__.py").is_file():
    _fail(f"no package source at {SRC}; run from a full checkout")
for _var in DROPPED_VARS:
    os.environ.pop(_var, None)
os.environ.update({k: BLAS_THREADS for k in BLAS_VARS})
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import admixscan  # noqa: E402
from admixscan import cli, kernels  # noqa: E402

if not Path(admixscan.__file__).resolve().is_relative_to(SRC.resolve()):
    _fail(f"admixscan imported from {admixscan.__file__}, not from {SRC}")

import reference  # noqa: E402
import spans as tracing  # noqa: E402
from workloads import WORKLOADS, fresh_dir  # noqa: E402


class Child(NamedTuple):
    """One finished subprocess with its resource usage."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def _vm_hwm_mib(pid):
    """Peak resident set of ``pid``'s current image, or None once it exits."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0   # kB
    except OSError:
        pass
    return None


def run_child(args, log_path, deadline):
    """Run ``python -m admixscan.cli args``; kill it at ``deadline``.

    A watcher thread reads the child's VmHWM every 10 ms while it runs and
    keeps the last value as its peak RSS.  The child's ``ru_maxrss`` would
    not do: the kernel carries the high-water mark of the address space
    before ``exec`` (this process's, which spawns it) into the child's.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "admixscan.cli", *args],
            stdout=log, stderr=subprocess.STDOUT, env=pinned_env(), cwd=ROOT,
        )
    kill_at = max(deadline, start + 1.0)
    peak_mb = [0.0]
    stop = threading.Event()

    def watch():
        while not stop.wait(0.01):
            if time.perf_counter() > kill_at:
                proc.kill()
            hwm = _vm_hwm_mib(proc.pid)
            if hwm is not None:
                peak_mb[0] = max(peak_mb[0], hwm)

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        stop.set()
        watcher.join()
    wall = time.perf_counter() - start
    # wait4 reaped the child; record its code so Popen does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=peak_mb[0],
    )


def environment_record():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh
                 if ln.startswith("model name")),
                None,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = done.stdout.strip() or None
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "admixscan": admixscan.__version__,
        "backend": kernels.active_backend(),
        "numba_importable": has_numba,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload, seed, directory=None):
        self.w = workload
        self.seed = seed
        self.dir = fresh_dir(directory or WORK / workload.name)
        self.deadline = time.perf_counter() + TIME_LIMIT
        self.attempted = 0
        self.failures = []
        self.reference = None    # output fingerprint of the first command
        self.facts = None        # what the first command's deep check found

    def setup(self):
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            start = time.perf_counter()
            data = self.w.generate(fresh_dir(self.dir / "inputs"), self.seed)
            times.append(time.perf_counter() - start)
        self.data = data
        return statistics.median(times)

    def verify(self, label, out, code):
        """Check one command's outputs; the first is checked in depth."""
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            try:
                prints = self.w.fingerprint(out)
                if self.reference is None:
                    problems, self.facts = self.w.check(self.data, out)
                    self.reference = prints
                elif prints != self.reference:
                    problems.append("outputs differ from the first command's")
            except Exception as exc:   # a broken output is a failed command
                problems.append(f"{type(exc).__name__}: {exc}")
        if problems:
            self.failures.append({"command": label, "problems": problems})
        return not problems

    def loop(self, seconds):
        """Closed loop of CLI subprocesses for ``seconds`` seconds.

        Returns the commands and the (wall, cpu) times of the reference job,
        which runs before the first command and after each one.
        """
        children = []
        reference.timed()   # warm-up
        refs = [reference.timed()]
        begin = time.perf_counter()
        while not children or time.perf_counter() - begin < seconds:
            now = time.perf_counter()
            if children and now + children[-1].wall_s > self.deadline - RESERVE:
                break
            k = len(children)
            out = self.dir / f"cmd{k}"
            child = self.child(self.w.argv(self.data, out, self.seed), f"cmd{k}")
            ok = self.verify(f"cmd{k}", out, child.code)
            children.append(child)
            refs.append(reference.timed())
            if not ok:
                break
        return children, refs

    def child(self, args, label):
        return run_child(args, self.dir / f"{label}.log", self.deadline)

    def import_seconds(self):
        times = [self.child(["--version"], "version").wall_s
                 for _ in range(IMPORT_REPEATS)]
        return statistics.median(times)

    def traced(self):
        """One in-process run of ``cli.main`` under the span tracer."""
        out = self.dir / "traced"
        argv = self.w.argv(self.data, out, self.seed)
        with tracing.Tracer(keep_args={"kernels.ffbs_paths"}) as tracer:
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:   # counted as a failed command
                print(f"perfbench: traced run raised {exc!r}", file=sys.stderr)
                code = 1
            total = time.perf_counter() - start
        self.verify("traced", out, code)
        peak_mb = None
        if "kernels.ffbs_paths" in tracer.first_args:
            args, kwargs = tracer.first_args.pop("kernels.ffbs_paths")
            tracemalloc.start()
            try:
                kernels.ffbs_paths(*args, **kwargs)
                peak_mb = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
            finally:
                tracemalloc.stop()
        with open(self.dir / "spans.json", "w") as fh:
            json.dump(tracer.to_json(), fh)
        return tracer.spans, total, peak_mb


def end_to_end(run, setup_s, children, refs):
    # Each command's time is divided by the mean of the reference jobs run
    # just before and just after it, and the run reports the median ratio.
    around = [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
              for a, b in zip(refs, refs[1:])]
    wall = statistics.median(c.wall_s / r[0] for c, r in zip(children, around))
    cpu = statistics.median(c.cpu_s / r[1] for c, r in zip(children, around))
    facts = run.facts or {}
    work = run.w.work_units(facts) if facts else 0.0
    ok = run.attempted - len(run.failures)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "wall_ref": _metric(wall, "ref"),
        "cpu_ref": _metric(cpu, "ref"),
        "peak_rss_mb": _metric(
            statistics.median(c.peak_rss_mb for c in children), "MiB"),
        "work_per_ref": _metric(work / wall, "1/ref"),
        "ok_frac": _metric(ok / run.attempted, "frac"),
    }
    return metrics


def per_layer(run, children, import_s, spans, total, peak_mb):
    metrics, missing, summaries = tracing.span_metrics(spans, run.w.spans)
    facts = run.facts or {}
    if peak_mb is not None:
        metrics["kernels.ffbs_paths_peak_mb"] = _metric(peak_mb, "MiB")
    elif "kernels.ffbs_paths" not in run.w.spans:
        metrics["kernels.ffbs_paths_peak_mb"] = _metric(0, "MiB")
    metrics["mapping.stage2_subsets"] = _metric(facts.get("subsets", 0), "count")
    metrics["mapping.selected_loci"] = _metric(facts.get("selected", 0), "count")
    metrics["mapping.flagged_frac"] = _metric(facts.get("flagged_frac", 0), "frac")
    draws = run.data.files.get("draws", run.dir / "traced" / "draws.adx")
    metrics["fileio.draws_bytes"] = _metric(
        os.path.getsize(draws) if Path(draws).exists() else 0, "bytes")
    wall = statistics.median(c.wall_s for c in children)
    metrics["cli.import_s"] = _metric(import_s, "s")
    metrics["cli.other_s"] = _metric(total - tracing.top_level_seconds(spans), "s")
    metrics["trace.overhead_frac"] = _metric(total / (wall - import_s) - 1.0, "frac")
    return metrics, missing, summaries


def measure(run, seconds, trace):
    """Set up, loop for ``seconds`` and, with ``trace``, make the traced run.

    Returns the detail record and the result record of the run.
    """
    setup_s = run.setup()
    run.child(["--version"], "version")   # warm the byte-code cache
    children, refs = run.loop(seconds)
    detail = {
        "workload": run.w.name,
        "seed": run.seed,
        "env": environment_record(),
        "commands": len(children),
        "walls_s": [c.wall_s for c in children],
        "cpus_s": [c.cpu_s for c in children],
        "refs_s": [r[0] for r in refs],
        "wall_median_s": statistics.median(c.wall_s for c in children),
        "ref_median_s": statistics.median(r[0] for r in refs),
        "facts": run.facts,
    }
    if trace:
        import_s = run.import_seconds()
        spans, total, peak_mb = run.traced()
        metrics, missing, summaries = per_layer(
            run, children, import_s, spans, total, peak_mb)
        detail.update(traced_total_s=total, missing_spans=missing,
                      per_call=summaries)
        if missing:
            print(f"perfbench: spans never recorded: {', '.join(missing)}",
                  file=sys.stderr)
    else:
        metrics = end_to_end(run, setup_s, children, refs)
    detail["failures"] = run.failures
    record = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    return detail, record


def merge_into(path, workload, record):
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {}
    entry = data.setdefault(workload, {"metrics": {}})
    entry["metrics"].update(record["metrics"])
    entry["env"] = record["env"]
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def compare(base_path, new_path):
    """One row per workload and metric: base, new and new/base."""
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    print(f"{'workload':16s} {'metric':34s} {'base':>14s} {'new':>14s} "
          f"{'new/base':>9s}  unit")
    for workload in sorted(set(base) | set(new)):
        b = base.get(workload, {}).get("metrics", {})
        n = new.get(workload, {}).get("metrics", {})
        for name in sorted(set(b) | set(n)):
            bv = b.get(name, {}).get("value")
            nv = n.get(name, {}).get("value")
            unit = (b.get(name) or n.get(name))["unit"]
            ratio = (f"{nv / bv:9.3f}" if bv not in (None, 0) and nv is not None
                     else f"{'-':>9s}")
            fmt = lambda v: f"{'-':>14s}" if v is None else f"{v:14.6g}"  # noqa: E731
            print(f"{workload:16s} {name:34s} {fmt(bv)} {fmt(nv)} {ratio}  {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge this run's metrics into FILE")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    # A terminated run unwinds through run_child, which kills and reaps the
    # command in flight, and prints no result.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")

    run = Run(WORKLOADS[args.workload], args.seed)
    detail, record = measure(run, args.seconds, args.trace)
    with open(run.dir / f"result_trace{args.trace}.json", "w") as fh:
        json.dump({**detail, **record}, fh, indent=1)
    if args.out:
        merge_into(args.out, run.w.name, {**record, "env": detail["env"]})
    for failure in run.failures:
        print(f"perfbench: {failure['command']}: {'; '.join(failure['problems'])}",
              file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
