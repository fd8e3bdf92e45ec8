"""End-to-end and per-layer benchmark of the mvnsdde simulator.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as a fresh single-threaded child process (``child.py``) in
a closed loop: one child at a time, the next spawned when the previous one has
exited.  One untimed warm-up child per workload comes first; with several
workloads the measured children then go round-robin, so drifts in host speed
hit every workload alike.  Each measured child is preceded by set-up probes,
children that only import and parse, so set-up time is a median over many
fresh interpreters.  Every CSV a child writes is checked (see
``workloads.py``); a non-zero exit or a failed check counts as a failed
operation.  With ``--trace 1`` one traced child per workload follows the
measured loop and gives the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from workloads import WORKLOADS, band_failures

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CHILD = os.path.join(BENCH_DIR, "child.py")

MIN_CHILDREN = 3  # measured children per workload, if started within --seconds
SETUP_PROBES = 2  # set-up probes before each measured child
# A child takes 2-6 s and a probe under 1 s.  A hung program still ends a
# run within 180 s: warm-up, two probes and one child time out, then the
# traced child.
CHILD_TIMEOUT_S = 45.0
PROBE_TIMEOUT_S = 15.0

# Single-threaded children: every BLAS / OpenMP pool pinned to one thread.
# Bytecode caching stays on, as for an installed package, whatever the
# caller's environment says, so set-up time does not depend on it.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV.update(
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    VECLIB_MAXIMUM_THREADS="1",
    NUMEXPR_NUM_THREADS="1",
    PYTHONHASHSEED="0",
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "work_per_s": "1/s",
}

PER_LAYER = {
    "noise.generate.s": "s",
    "noise.generate.draws_per_s": "1/s",
    "noise.generate.bytes": "bytes",
    "noise.coarsen.s": "s",
    "noise.coarsen.bytes": "bytes",
    "scheme.run.s": "s",
    "scheme.run.particle_steps": "count",
    "scheme.run.self_s": "s",
    "scheme.em_step.calls": "count",
    "scheme.em_step.us_p50": "us",
    "scheme.em_step.us_p99": "us",
    "scheme.tame_drift.s": "s",
    "scheme.export.s": "s",
    "scheme.export.bytes": "bytes",
    "scheme.export.rows_per_s": "1/s",
    "model.drift.s": "s",
    "model.diffusion.s": "s",
    "model.neutral.s": "s",
    "model.validate.s": "s",
    "measure.empirical.s": "s",
    "measure.w2_assignment.s": "s",
    "measure.w2_assignment.calls": "count",
    "measure.w2_normal_1d.s": "s",
    "experiments.self_s": "s",
    "experiments.write.s": "s",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
}


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass
class ChildRun:
    workload: str
    ok: bool
    reason: str = ""
    wall_s: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    import_s: float = 0.0
    work_units: int = 0
    trace: dict | None = None
    digests: dict = field(default_factory=dict)
    texts: dict = field(default_factory=dict)
    csv_rows: int = 0
    probe: bool = False

    @property
    def work_per_s(self) -> float:
        return self.work_units / (self.wall_s - self.setup_s)


def spawn(workload: str, seed: int, trace: bool = False, probe: bool = False) -> ChildRun:
    """Run one child to completion and collect its timings and outputs.

    A ``probe`` child only imports and parses: it gives a set-up time and
    writes no CSV.
    """
    wdir = os.path.join(BUILD_DIR, workload)
    outdir = os.path.join(wdir, "out")
    result_path = os.path.join(wdir, "result.json")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    if os.path.exists(result_path):
        os.remove(result_path)
    spec = {
        "root": ROOT,
        "workload": workload,
        "seed": seed,
        "outdir": outdir,
        "result": result_path,
        "trace": trace,
        "setup_only": probe,
    }
    with open(os.path.join(wdir, "child.log"), "wb") as log:
        t_spawn = _now()
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(spec)],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=CHILD_ENV,
            cwd=ROOT,
        )
        timer = threading.Timer(PROBE_TIMEOUT_S if probe else CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own rusage, not the cumulative
            # RUSAGE_CHILDREN of every child reaped so far
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t_exit = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(os.path.join(wdir, "child.log"), "rb") as fh:
            tail = fh.read()[-400:].decode(errors="replace").strip()
        return ChildRun(workload, False, f"exit status {proc.returncode}: {tail}", probe=probe)
    run = ChildRun(workload=workload, ok=True, wall_s=(t_exit - t_spawn) * 1e-9, probe=probe)
    run.rss_mb = usage.ru_maxrss / 1024.0
    run.cpu_s = usage.ru_utime + usage.ru_stime
    try:
        with open(result_path) as fh:
            res = json.load(fh)
        for rel in () if probe else WORKLOADS[workload].csvs:
            with open(os.path.join(outdir, rel), "rb") as fh:
                run.texts[rel] = fh.read()
    except (OSError, ValueError) as exc:
        return ChildRun(workload, False, f"unreadable output: {exc}", probe=probe)
    run.setup_s = (res["ready_ns"] - t_spawn) * 1e-9
    run.import_s = res["import_s"]
    run.work_units = res["work_units"]
    run.trace = res.get("trace")
    for rel, data in run.texts.items():
        run.digests[rel] = hashlib.sha256(data).hexdigest()
        run.csv_rows += data.count(b"\n") - 1  # minus the header
    return run


class Gate:
    """Output check of one workload at one seed.

    At seed 0 every CSV must match its pinned sha256.  At any other seed the
    first child's CSVs must lie in the acceptance-test bands, and every later
    child must reproduce them byte for byte.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.reference = None
        if seed == 0:
            with open(os.path.join(BENCH_DIR, "digests.json")) as fh:
                self.reference = json.load(fh)[workload]

    def check(self, run: ChildRun) -> None:
        if run.ok and not run.probe:
            run.reason = self._failure(run)
            run.ok = not run.reason
        run.texts = {}

    def _failure(self, run: ChildRun) -> str:
        if self.reference is None:
            try:
                texts = {k: v.decode() for k, v in run.texts.items()}
                bands = band_failures(self.workload, texts)
            except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
                return f"malformed CSV: {exc!r}"
            if bands:
                return "; ".join(bands)
            self.reference = dict(run.digests)
        bad = [k for k, v in self.reference.items() if run.digests.get(k) != v]
        if bad:
            return "sha256 mismatch: " + ", ".join(bad)
        if self.workload == "grid_export" and run.csv_rows != run.work_units:
            return f"{run.csv_rows} CSV rows written, config gives {run.work_units}"
        return ""


def _stats(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(runs: list[ChildRun], probes: list[ChildRun]) -> dict:
    return {
        "wall_s": _stats([r.wall_s for r in runs]),
        "setup_s": _stats([r.setup_s for r in runs + probes]),
        "peak_rss_mb": _stats([r.rss_mb for r in runs]),
        "work_per_s": _stats([r.work_per_s for r in runs]),
    }


def per_layer(
    traced: ChildRun, untraced: list[ChildRun], probes: list[ChildRun]
) -> tuple[dict, str]:
    """Per-layer metrics of one traced child, and a work mismatch (or "")."""
    from spans import quantile_ns

    calls = traced.trace["calls"]
    counts = traced.trace["counts"]
    hist = {k: v for k, v in traced.trace["em_hist"]}

    def total_s(name):
        return calls.get(name, [0, 0, 0])[1] * 1e-9

    def n_calls(name):
        return calls.get(name, [0, 0, 0])[0]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    gen_s, export_s = total_s("noise.generate"), total_s("scheme.export")
    studies = [k for k in calls if k.startswith("experiments.") and k != "experiments.write"]
    m = {
        "noise.generate.s": gen_s,
        "noise.generate.draws_per_s": rate(counts.get("noise.generate.draws", 0), gen_s),
        "noise.generate.bytes": counts.get("noise.generate.bytes", 0),
        "noise.coarsen.s": total_s("noise.coarsen"),
        "noise.coarsen.bytes": counts.get("noise.coarsen.bytes", 0),
        "scheme.run.s": total_s("scheme.run"),
        "scheme.run.particle_steps": counts.get("scheme.run.particle_steps", 0),
        # loop bookkeeping: the run minus its steps and its validation
        "scheme.run.self_s": total_s("scheme.run")
        - total_s("scheme.em_step")
        - total_s("model.validate"),
        "scheme.em_step.calls": n_calls("scheme.em_step"),
        "scheme.em_step.us_p50": quantile_ns(hist, 0.50) * 1e-3 if hist else 0.0,
        "scheme.em_step.us_p99": quantile_ns(hist, 0.99) * 1e-3 if hist else 0.0,
        "scheme.tame_drift.s": total_s("scheme.tame_drift"),
        "scheme.export.s": export_s,
        "scheme.export.bytes": counts.get("scheme.export.bytes", 0),
        "scheme.export.rows_per_s": rate(counts.get("scheme.export.rows", 0), export_s),
        "model.drift.s": total_s("model.drift"),
        "model.diffusion.s": total_s("model.diffusion"),
        "model.neutral.s": total_s("model.neutral"),
        "model.validate.s": total_s("model.validate"),
        "measure.empirical.s": total_s("measure.empirical"),
        "measure.w2_assignment.s": total_s("measure.w2_assignment"),
        "measure.w2_assignment.calls": n_calls("measure.w2_assignment"),
        "measure.w2_normal_1d.s": total_s("measure.w2_normal_1d"),
        "experiments.self_s": (calls["cli.dispatch"][2] + sum(calls[k][2] for k in studies))
        * 1e-9,
        "experiments.write.s": total_s("experiments.write"),
        "setup.import_s": statistics.median(
            [r.import_s for r in untraced + probes + [traced]]
        ),
        "trace.overhead_s": traced.wall_s - statistics.median([r.wall_s for r in untraced]),
    }
    if traced.workload == "grid_export":
        observed = counts.get("scheme.export.rows", 0)
    elif traced.workload == "w2_rates":
        observed = n_calls("measure.w2_assignment") + n_calls("measure.w2_normal_1d")
    else:
        observed = counts.get("scheme.run.particle_steps", 0)
    mismatch = ""
    if observed != traced.work_units:
        mismatch = f"traced run observed {observed} work units, config gives {traced.work_units}"
    return m, mismatch


def host_probe_ms() -> float:
    """Fixed pure-Python kernel, median of five timings: a host-speed gauge."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def machine_facts() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "loadavg": os.getloadavg(),
    }


def check_checkout() -> str:
    """Why this directory cannot be benchmarked, or "" when it can."""
    for rel in ["src/mvnsdde/cli.py"] + [
        "configs/" + r.config for w in WORKLOADS.values() for r in w.runs
    ]:
        if not os.path.isfile(os.path.join(ROOT, rel)):
            return f"missing {rel}: run from the root of an mvnsdde checkout"
    return ""


def run_benchmark(names: list[str], seed: int, seconds: float, trace: bool) -> int:
    problem = check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    for name in names:
        os.makedirs(os.path.join(BUILD_DIR, name), exist_ok=True)
    probe_start = host_probe_ms()
    gates = {name: Gate(name, seed) for name in names}
    children: list[ChildRun] = []
    measured = {name: [] for name in names}
    probes = {name: [] for name in names}

    def attempt(name, traced=False, probe=False):
        run = spawn(name, seed, traced, probe)
        gates[name].check(run)
        children.append(run)
        if not run.ok:
            print(f"FAILED {name}: {run.reason}", file=sys.stderr)
        return run

    for name in names:  # warm-up: fills the page and bytecode caches
        attempt(name)

    budget = seconds * len(names)
    t0 = time.perf_counter()
    round_s = []
    while True:
        r0 = time.perf_counter()
        for name in names:
            for _ in range(SETUP_PROBES):
                run = attempt(name, probe=True)
                if run.ok:
                    probes[name].append(run)
            run = attempt(name)
            if run.ok:
                measured[name].append(run)
        round_s.append(time.perf_counter() - r0)
        elapsed = time.perf_counter() - t0
        enough = all(len(measured[n]) >= MIN_CHILDREN for n in names)
        if elapsed >= budget or (enough and elapsed + statistics.median(round_s) > budget):
            break

    results = {}
    for name in names:
        if measured[name]:
            results[name] = {
                "end_to_end": end_to_end(measured[name], probes[name]),
                # per child: wall_s, setup_s, peak_rss_mb, CPU seconds
                "children": [[r.wall_s, r.setup_s, r.rss_mb, r.cpu_s] for r in measured[name]],
                "probe_setup_s": [r.setup_s for r in probes[name]],
            }
    if trace:
        for name in names:
            run = attempt(name, traced=True)
            if run.ok and measured[name]:
                layers, mismatch = per_layer(run, measured[name], probes[name])
                results[name]["per_layer"] = layers
                with open(os.path.join(BUILD_DIR, name, "trace.json"), "w") as fh:
                    json.dump(run.trace, fh)
                if mismatch:
                    run.ok, run.reason = False, mismatch
                    print(f"FAILED {name}: {mismatch}", file=sys.stderr)

    failed = sum(not r.ok for r in children)
    correct = failed == 0 and len(results) == len(names)
    report = {
        "machine": machine_facts(),
        "host_probe_ms": {"start": probe_start, "end": host_probe_ms()},
        "seed": seed,
        "seconds": seconds,
        "workloads": results,
        "failures": [f"{r.workload}: {r.reason}" for r in children if not r.ok],
    }
    with open(os.path.join(BUILD_DIR, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)

    print(json.dumps({k: report[k] for k in ("machine", "host_probe_ms")}))
    metrics = {}
    for name, res in results.items():
        unit_work = WORKLOADS[name].unit
        for metric, st in res["end_to_end"].items():
            extra = f" ({unit_work})" if metric == "work_per_s" else ""
            print(
                f"{name:15s} {metric:30s} {st['median']:14.6g} {END_TO_END[metric]:6s}"
                f" q1 {st['q1']:.6g} q3 {st['q3']:.6g} n {st['n']}{extra}"
            )
            metrics[(name, metric)] = {"value": st["median"], "unit": END_TO_END[metric]}
        for metric, value in res.get("per_layer", {}).items():
            print(f"{name:15s} {metric:30s} {value:14.6g} {PER_LAYER[metric]}")
            metrics[(name, metric)] = {"value": value, "unit": PER_LAYER[metric]}

    wanted = PER_LAYER if trace else END_TO_END
    if len(names) == 1:
        out = {m: v for (_, m), v in metrics.items() if m in wanted}
    else:
        out = {f"{n}.{m}": v for (n, m), v in metrics.items()}
    print(
        json.dumps(
            {"correct": correct, "attempted": len(children), "failed": failed, "metrics": out}
        )
    )
    return 0 if correct else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn(), which kills the child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return run_benchmark(names, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
