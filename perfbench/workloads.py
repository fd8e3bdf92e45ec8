"""Workload table shared by ``run.py`` and its child process.

Each workload runs one or more shipped configs from ``configs/`` with
size overrides, in one fresh child process.  Seed ``s`` of the benchmark
runs every config at its shipped seed plus ``s``, so seed 0 reproduces the
shipped seeds and its CSV bytes are pinned in ``digests.json``.  Every
other seed is checked against the acceptance-test bands instead.

This module imports nothing outside the standard library, so ``run.py``
never loads the package it measures.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Run:
    """One config run inside a workload child; outputs go to ``<outdir>/<name>``."""

    name: str
    config: str
    overrides: dict


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one work unit is, for ``work_per_s``
    runs: tuple[Run, ...]
    csvs: tuple[str, ...]  # every CSV the child writes, relative to its outdir


def _steps(horizon: float, delta: float) -> int:
    return int(round(horizon / delta))


# What each workload stresses and why its sizes: README.md, "Workloads".
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dt_study",
            unit="particle-steps",
            runs=(
                Run(
                    "figure1",
                    "figure1.cfg",
                    {
                        "delta_ref": 2.0**-13,
                        "deltas": ",".join(repr(2.0**-k) for k in (12, 11, 10, 9, 8)),
                        "replicates": 2,
                    },
                ),
            ),
            csvs=("figure1/convergence_dt.csv",),
        ),
        Workload(
            name="particle_sweep",
            unit="particle-steps",
            runs=(Run("chaos", "chaos.cfg", {"replicates": 16}),),
            csvs=("chaos/convergence_particles.csv",),
        ),
        Workload(
            name="grid_export",
            unit="rows",
            runs=(Run("oracle", "meanfield_oracle.cfg", {"particles": 500}),),
            csvs=("oracle/grid.csv",),
        ),
        Workload(
            name="w2_rates",
            unit="W2-evaluations",
            runs=(
                Run(
                    "rate_d5",
                    "empirical_rate_d5.cfg",
                    {"xis": "16,32,64,128,256,512"},
                ),
                Run("rate_d1", "empirical_rate_d1.cfg", {}),
            ),
            csvs=("rate_d5/empirical_rate.csv", "rate_d1/empirical_rate.csv"),
        ),
    )
}


def work_units(workload: str, cfgs) -> int:
    """Work units of one child, computed from its parsed configs."""
    if workload == "dt_study":
        (c,) = cfgs
        steps = _steps(c.horizon, c.delta_ref) + sum(
            _steps(c.horizon, d) for d in c.deltas
        )
        return c.replicates * c.particles * steps
    if workload == "particle_sweep":
        (c,) = cfgs
        # the largest system is the reference run; each smaller one runs once
        per_seed = _steps(c.horizon, c.delta) * (c.xis[-1] + sum(c.xis[:-1]))
        return c.replicates * per_seed
    if workload == "grid_export":
        (c,) = cfgs
        rows = _steps(c.tau, c.delta) + _steps(c.horizon, c.delta) + 1
        return rows * c.particles
    if workload == "w2_rates":
        return sum(len(c.xis) * c.mc_reps for c in cfgs)
    raise KeyError(workload)


def _table(text: str) -> list[tuple[float, float]]:
    rows = csv.DictReader(io.StringIO(text))
    return [(float(r["resolution"]), float(r["rms_error"])) for r in rows]


def _slope(points) -> float:
    """Least-squares slope of log2(error) on log2(resolution)."""
    xs = [math.log2(r) for r, _ in points]
    ys = [math.log2(e) for _, e in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _positive_slope(text: str) -> float:
    return _slope([p for p in _table(text) if p[1] > 0.0])


def _oracle_band(text: str) -> str | None:
    """Criterion 3's oracle check: terminal sample mean near exp(-1/2).

    The band is widened from 3 to 5 sample standard errors because it runs
    on every seed, and a 3-sigma band failed 4 of 200 seeds at 500 particles
    and 4 of 200 at 125 (none at 5 sigma).  Two systematic effects cause
    this.  The sample standard error treats the particles as independent,
    but the mean-field term couples them, so the true spread of their mean
    is about 1.2x larger at any particle count.  Taming at delta 2^-10 also shifts the mean up by
    about 0.004, which weighs more as the particle count grows.  So no
    particle count makes a 3-sigma band hold on every seed.
    """
    terminal = []
    t_end = None
    for line in reversed(text.rstrip("\n").split("\n")):
        t, _, value = line.split(",")
        if t_end is None:
            t_end = t
        if t != t_end:
            break
        terminal.append(float(value))
    n = len(terminal)
    mean = sum(terminal) / n
    var = sum((x - mean) ** 2 for x in terminal) / (n - 1)
    tol = max(5.0 * math.sqrt(var / n), 5e-3)
    diff = abs(mean - math.exp(-0.5))
    if diff > tol:
        return f"terminal mean {mean:.6f} is {diff:.2e} from exp(-1/2) > {tol:.2e}"
    return None


def band_failures(workload: str, texts: dict[str, str]) -> list[str]:
    """Acceptance-test band violations of one child's CSVs (empty if none)."""
    bad = []
    if workload == "dt_study":
        s = _positive_slope(texts["figure1/convergence_dt.csv"])
        if not 0.35 <= s <= 0.75:
            bad.append(f"dt slope {s:.4f} outside [0.35, 0.75]")
    elif workload == "particle_sweep":
        s = _positive_slope(texts["chaos/convergence_particles.csv"])
        if not s < 0.0:
            bad.append(f"chaos slope {s:.4f} is not negative")
    elif workload == "grid_export":
        msg = _oracle_band(texts["oracle/grid.csv"])
        if msg:
            bad.append(msg)
    elif workload == "w2_rates":
        s5 = _slope(_table(texts["rate_d5/empirical_rate.csv"]))
        s1 = _slope(_table(texts["rate_d1/empirical_rate.csv"]))
        if not s1 <= -0.45:
            bad.append(f"dim-1 rate slope {s1:.3f} > -0.45")
        if not s5 <= -0.30:
            bad.append(f"dim-5 rate slope {s5:.3f} > -0.30")
    return bad
