"""Acceptance suite: one test per criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Seeds are pinned to the shipped configs; tolerances are
stated inline next to each check.
"""

import math
import time
from pathlib import Path

import numpy as np

from mvnsdde import (
    Grid,
    chaos_error_vs_particles,
    cubic_no_mf,
    empirical_measure_rate,
    example51,
    fit_loglog_slope,
    linear_meanfield,
    moment_bound_vs_dt,
    simulate_terminal,
    strong_error_vs_dt,
    tame_drift,
    taming_comparison,
    w2_assignment,
)
from mvnsdde import noise
from mvnsdde.cli import main as cli_main
from mvnsdde.noise import derived_generator
from oracles import linear_meanfield_mean, w2_1d

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SEED_FIGURE1 = 1906
SEED_MEANFIELD = 915
SEED_MOMENT = 99
SEED_TAMING = 2
SEED_CHAOS = 7
SEED_RATE = 555
SEED_SUITE = 20250809


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _monotone_with_one_tolerated_inversion(errs, ses) -> tuple[bool, int]:
    """Nondecreasing errors, allowing one inversion within 2 stderr."""
    inversions = 0
    ok = True
    for i in range(len(errs) - 1):
        if errs[i + 1] >= errs[i]:
            continue
        inversions += 1
        combined = math.hypot(ses[i], ses[i + 1])
        if errs[i] - errs[i + 1] >= 2.0 * combined:
            ok = False
    return ok and inversions <= 1, inversions


def test_criterion_1_strong_convergence_rate():
    """Coupled rms error vs step size: slope in [0.35, 0.75], monotone,
    within the stated five-minute budget."""
    t0 = time.perf_counter()
    table = strong_error_vs_dt(
        example51(),
        particles=1000,
        delta_ref=2.0**-16,
        deltas=[2.0**-15, 2.0**-14, 2.0**-13, 2.0**-12, 2.0**-11],
        tau=2.0**-5,
        alpha=0.5,
        horizon=1.0,
        seed=SEED_FIGURE1,
    )
    runtime = time.perf_counter() - t0
    slope, _ = fit_loglog_slope(table)
    monotone, inversions = _monotone_with_one_tolerated_inversion(
        table.errors(), np.array([r.stderr for r in table.rows])
    )
    ok = 0.35 <= slope <= 0.75 and monotone and runtime < 300.0
    _verdict(
        1,
        ok,
        f"slope {slope:.4f} in [0.35, 0.75], {inversions} inversion(s) "
        f"within 2 stderr, runtime {runtime:.0f}s < 300s",
    )


def test_criterion_2_taming_bound_suite():
    """1e5 (v, delta, alpha) triples: cap, direction, and consistency
    bounds hold with zero violations.

    Sampling keeps delta^alpha * |v| >= 1e-6 so the bounds' real-arithmetic
    margins dominate float rounding and exact comparisons are sound.
    """
    rng = derived_generator(SEED_SUITE, 2)
    groups, per_group = 1000, 100
    cap_bad = dir_bad = sine_bad = consist_bad = 0
    total = 0
    for g in range(groups):
        delta = 10.0 ** rng.uniform(-6.0, math.log10(0.99))
        alpha = rng.uniform(1e-3, 0.5)
        dim = int(rng.integers(1, 4))
        v = rng.normal(size=(per_group, dim))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        mags = 10.0 ** rng.uniform(-3.0, 10.0, size=(per_group, 1))
        v = v / norms * mags
        out = tame_drift(v, delta, alpha)

        out_norm = np.linalg.norm(out, axis=1)
        v_norm = np.linalg.norm(v, axis=1)
        bound = np.minimum(delta**-alpha, v_norm)
        cap_bad += int(np.sum(out_norm > bound))

        sign_ok = (np.sign(out) == np.sign(v)) | (v == 0.0)
        dot = np.sum(out * v, axis=1)
        dir_bad += int(np.sum(~sign_ok.all(axis=1) | (dot < 0.0)))

        proj = (dot / v_norm**2)[:, None] * v
        residual = np.linalg.norm(out - proj, axis=1)
        with np.errstate(invalid="ignore"):
            sine = np.where(out_norm > 0, residual / np.maximum(out_norm, 1e-300), 0.0)
        sine_bad += int(np.sum(sine > 1e-15))

        consist_bad += int(
            np.sum(np.linalg.norm(out - v, axis=1) > delta**alpha * v_norm**2)
        )
        total += per_group

    zero_out = tame_drift(np.zeros(3), 0.25, 0.5)
    cap_bad += int(np.any(zero_out != 0.0))

    ok = cap_bad == dir_bad == sine_bad == consist_bad == 0
    _verdict(
        2,
        ok,
        f"{total} triples: cap {cap_bad}, direction {dir_bad}, "
        f"collinearity {sine_bad}, small-step consistency {consist_bad} "
        f"violations",
    )


def test_criterion_3_meanfield_oracle():
    """Sample mean of U(1) against the closed-form ODE mean."""
    t0 = time.perf_counter()
    model = linear_meanfield(a_coef=-1.0, b_coef=0.5, sigma0=0.2, x0=1.0)
    params = Grid(delta=2.0**-10, tau=2.0**-5, alpha=0.5, horizon=1.0)
    terminal = simulate_terminal(model, params, SEED_MEANFIELD, 2000)[:, 0]
    est = float(terminal.mean())
    stderr = float(terminal.std(ddof=1) / math.sqrt(terminal.size))
    target = linear_meanfield_mean(1.0, a_coef=-1.0, b_coef=0.5, x0=1.0)
    runtime = time.perf_counter() - t0
    tol = max(3.0 * stderr, 5e-3)
    diff = abs(est - target)
    _verdict(
        3,
        diff <= tol and runtime < 30.0,
        f"mean {est:.6f} vs exp(-1/2) = {target:.6f}, |diff| {diff:.2e} "
        f"<= tol {tol:.2e}, runtime {runtime:.1f}s < 30s",
    )


def test_criterion_4_moment_boundedness():
    """p=4 monitor finite for every step size, max/min ratio below 3."""
    rows = moment_bound_vs_dt(
        example51(),
        particles=500,
        deltas=[2.0**-k for k in range(6, 12)],
        tau=2.0**-5,
        alpha=0.5,
        horizon=1.0,
        seed=SEED_MOMENT,
        p=4,
    )
    values = [value for _, value, _ in rows]
    finite = all(np.isfinite(v) for v in values)
    ratio = max(values) / min(values)
    _verdict(
        4,
        finite and ratio < 3.0,
        f"monitors finite over 6 step sizes, max/min ratio {ratio:.2f} < 3",
    )


def test_criterion_5_taming_necessity():
    """Untamed cubic from x0=5 diverges; tamed stays bounded."""
    t0 = time.perf_counter()
    report = taming_comparison(
        cubic_no_mf(x0=5.0), delta=2.0**-2, particles=200, tau=0.5,
        horizon=1.0, seed=SEED_TAMING,
    )
    runtime = time.perf_counter() - t0
    ok = (
        report.untamed_divergence_fraction >= 0.99
        and report.tamed_max_moment < 1e2
        and runtime < 5.0
    )
    _verdict(
        5,
        ok,
        f"untamed divergence fraction {report.untamed_divergence_fraction:.3f}"
        f" >= 0.99, tamed p=2 monitor {report.tamed_max_moment:.1f} < 100, "
        f"runtime {runtime:.1f}s < 5s",
    )


def test_criterion_6_propagation_of_chaos_direction():
    """Coupled errors decrease in the particle count; exact zeros without
    measure coupling."""
    table = chaos_error_vs_particles(
        example51(), xis=[16, 64, 256, 1024], delta=2.0**-9, tau=2.0**-5,
        alpha=0.5, horizon=1.0, seed=SEED_CHAOS,
    )
    errs = table.errors()[:-1]  # last row is the reference (exact zero)
    ses = np.array([r.stderr for r in table.rows])[:-1]
    positive = bool(np.all(errs > 0.0))
    decreasing = all(
        errs[i + 1] < errs[i] + 2.0 * math.hypot(ses[i], ses[i + 1])
        for i in range(len(errs) - 1)
    )
    control = chaos_error_vs_particles(
        cubic_no_mf(x0=1.0), xis=[16, 64, 256, 1024], delta=2.0**-9,
        tau=2.0**-5, alpha=0.5, horizon=1.0, seed=SEED_CHAOS,
    )
    zeros = all(r.rms_error == 0.0 for r in control.rows)
    _verdict(
        6,
        positive and decreasing and zeros,
        f"errors {[f'{e:.2e}' for e in errs]} decreasing within 2 stderr; "
        f"measure-independent model exact zeros: {zeros}",
    )


def test_criterion_7_empirical_measure_rates():
    """Mean squared W2 decay slopes: <= -0.45 (dim 1), <= -0.30 (dim 5)."""
    t0 = time.perf_counter()
    t1 = empirical_measure_rate(
        dim=1, xis=[16, 32, 64, 128, 256, 512], mc_reps=200, seed=SEED_RATE
    )
    slope1, _ = fit_loglog_slope(t1)
    t5 = empirical_measure_rate(
        dim=5, xis=[16, 32, 64, 128, 256], mc_reps=50, seed=SEED_RATE
    )
    slope5, _ = fit_loglog_slope(t5)
    runtime = time.perf_counter() - t0
    ok = slope1 <= -0.45 and slope5 <= -0.30 and runtime < 180.0
    _verdict(
        7,
        ok,
        f"dim-1 slope {slope1:.3f} <= -0.45, dim-5 slope {slope5:.3f} "
        f"<= -0.30, runtime {runtime:.1f}s < 180s",
    )


def test_criterion_8_oracle_equivalence_and_metric_axioms():
    """Assignment distance matches the order-statistics oracle; W2 is a
    metric on random triples."""
    rng = derived_generator(SEED_SUITE, 8)
    worst_rel = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 65))
        scale = 10.0 ** rng.uniform(-2, 2)
        mu = rng.normal(size=size) * scale
        nu = rng.normal(size=size) * scale
        a = w2_assignment(mu, nu)
        b = w2_1d(mu, nu)
        if max(a, b) > 0:
            worst_rel = max(worst_rel, abs(a - b) / max(a, b))
    equiv_ok = worst_rel <= 1e-12

    axiom_ok = True
    for _ in range(1000):
        size = int(rng.integers(1, 40))
        mu, nu, rho = (rng.normal(size=size) * 3.0 for _ in range(3))
        dmn = w2_1d(mu, nu)
        axiom_ok &= dmn == w2_1d(nu, mu)
        axiom_ok &= w2_1d(mu, mu) == 0.0
        axiom_ok &= dmn > 0.0  # continuous samples almost surely differ
        axiom_ok &= w2_1d(mu, rho) <= dmn + w2_1d(nu, rho) + 1e-12
    _verdict(
        8,
        equiv_ok and bool(axiom_ok),
        f"assignment vs sorted oracle worst relative gap {worst_rel:.2e} "
        f"<= 1e-12; metric axioms hold on 1000 triples",
    )


def test_criterion_9_schedule_determinism(tmp_path, monkeypatch):
    """Every schedule of the coupled passes gives byte-identical CSV outputs.

    The noise budget sets the schedule of chaos.cfg at 2 replicates: 2**10
    numbers run each replicate seed in its own pass with one-step blocks,
    the default pairs the seeds with 64-step blocks, and 2**22 runs both
    seeds in one block that spans the whole horizon.
    """
    chaos_bytes = []
    grid_bytes = []
    schedules = []
    for budget in (2**10, noise._CHUNK_ELEMENTS, 2**22):
        monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", budget)
        seeds = noise.seeds_per_block(1024, 1)
        schedules.append((seeds, min(noise.chunk_steps(seeds * 1024, 1), 512)))
        out = tmp_path / f"chaos-{budget}"
        rc = cli_main(
            [
                "--config", str(CONFIGS / "chaos.cfg"),
                "--replicates", "2", "--outdir", str(out),
            ]
        )
        assert rc == 0
        chaos_bytes.append((out / "convergence_particles.csv").read_bytes())

        out = tmp_path / f"sim-{budget}"
        rc = cli_main(
            [
                "--config", str(CONFIGS / "simulate_small.cfg"),
                "--outdir", str(out),
            ]
        )
        assert rc == 0
        grid_bytes.append((out / "grid.csv").read_bytes())
    ok = (
        schedules == [(1, 1), (2, 64), (2, 512)]
        and chaos_bytes.count(chaos_bytes[0]) == 3
        and grid_bytes.count(grid_bytes[0]) == 3
    )
    _verdict(
        9,
        ok,
        "convergence_particles.csv and grid.csv byte-identical for one seed "
        f"per pass and both seeds per pass, (seeds, block steps) = {schedules}",
    )
