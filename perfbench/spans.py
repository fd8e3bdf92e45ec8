"""Opt-in tracer for a benchmark child: wraps public functions of mvnsdde.

Nothing under ``src/`` is edited.  The tracer rebinds the names through which
the package calls its own layers (for example ``experiments.generate`` and
``scheme.em_step``) to timing wrappers, and wraps the model callbacks of the
spec that ``cli.build_model`` returns.

Coarse calls (one per study, run, grid or file) are stored as individual
spans ``[name, start_ns, end_ns, parent_span]``.  Per-step calls are only
aggregated: calls, total and self nanoseconds per name, plus a fixed-bucket
histogram of ``em_step`` durations, so tracing stays cheap.  Self time is a
call's duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import dataclasses
import os
import time

_clock = time.perf_counter_ns

# em_step histogram: 32 linear sub-buckets per power of two of nanoseconds
_SUB_BITS = 5


def bucket_of(ns: int) -> int:
    bits = ns.bit_length()
    if bits <= _SUB_BITS:
        return ns
    return (bits << _SUB_BITS) | ((ns >> (bits - _SUB_BITS - 1)) & ((1 << _SUB_BITS) - 1))


def bucket_bounds(key: int) -> tuple[float, float]:
    """[lower, upper) nanoseconds covered by a histogram bucket."""
    if key < (1 << _SUB_BITS):
        return float(key), float(key + 1)
    bits, sub = key >> _SUB_BITS, key & ((1 << _SUB_BITS) - 1)
    width = 1 << (bits - _SUB_BITS - 1)
    lower = ((1 << _SUB_BITS) + sub) * width
    return float(lower), float(lower + width)


def quantile_ns(hist: dict, q: float) -> float:
    """Quantile of a bucket histogram, interpolated by rank inside its bucket."""
    total = sum(hist.values())
    rank = q * total
    seen = 0
    for key in sorted(hist):
        count = hist[key]
        if seen + count >= rank:
            lower, upper = bucket_bounds(key)
            return lower + (upper - lower) * (rank - seen) / count
        seen += count
    return bucket_bounds(max(hist))[1]


class Tracer:
    def __init__(self):
        self.stack = [[0, -1]]  # frames: [child_ns, span index or -1]
        self.calls = {}  # name -> [calls, total_ns, self_ns]
        self.spans = []
        self.counts = {}
        self.em_hist = {}

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def wrap(self, name, fn, coarse=False, after=None):
        """Timing wrapper of ``fn``; ``after(args, result, ns)`` runs untimed."""
        rec = self.calls.setdefault(name, [0, 0, 0])
        stack, spans, clock = self.stack, self.spans, _clock
        push, pop = stack.append, stack.pop

        def timed(*args, **kwargs):
            frame = [0, -1]
            if coarse:
                frame[1] = len(spans)
                spans.append([name, 0, 0, stack[-1][1]])
            push(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                pop()
                stack[-1][0] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if coarse:
                    spans[frame[1]][1:3] = [t0, t0 + dt]
            if after is not None:
                after(args, result, dt)
            return result

        return timed

    def install(self, cli) -> None:
        """Rebind the package's internal call sites to timing wrappers."""
        from mvnsdde import experiments, model, noise, scheme

        wrap = self.wrap

        def after_generate(args, grid, ns):
            self.count("noise.generate.draws", grid.increments.size)
            self.count("noise.generate.bytes", grid.increments.nbytes)

        def after_coarsen(args, grid, ns):
            if grid is not args[0]:  # factor 1 returns the input unchanged
                self.count("noise.coarsen.bytes", grid.increments.nbytes)

        hist, counts = self.em_hist, self.counts
        counts["scheme.run.particle_steps"] = 0

        def after_em_step(args, new, ns):
            counts["scheme.run.particle_steps"] += len(args[0])
            key = bucket_of(ns)
            hist[key] = hist.get(key, 0) + 1

        def after_export(args, result, ns):
            grid, path = args[0], args[1]
            self.count("scheme.export.rows", grid.states.shape[0] * grid.states.shape[1])
            self.count("scheme.export.bytes", os.path.getsize(path))

        generate = wrap("noise.generate", noise.generate, True, after_generate)
        cli.generate = experiments.generate = generate
        noise.coarsen = wrap("noise.coarsen", noise.coarsen, True, after_coarsen)

        cli.simulate = experiments.simulate = wrap("scheme.run", scheme.simulate, True)
        experiments.simulate_terminal = wrap("scheme.run", scheme.simulate_terminal, True)
        scheme.validate = wrap("model.validate", model.validate, True)
        scheme.em_step = wrap("scheme.em_step", scheme.em_step, after=after_em_step)
        scheme.tame_drift = wrap("scheme.tame_drift", scheme.tame_drift)
        scheme.ParticleGrid.to_csv = wrap(
            "scheme.export", scheme.ParticleGrid.to_csv, True, after_export
        )

        empirical = wrap("measure.empirical", scheme.EmpiricalMeasure)
        scheme.EmpiricalMeasure = experiments.EmpiricalMeasure = empirical
        experiments.w2_assignment = wrap("measure.w2_assignment", experiments.w2_assignment)
        experiments.w2sq_to_standard_normal_1d = wrap(
            "measure.w2_normal_1d", experiments.w2sq_to_standard_normal_1d
        )

        experiments.ExperimentReport.write = wrap(
            "experiments.write", experiments.ExperimentReport.write, True
        )
        for study in ("strong_error_vs_dt", "chaos_error_vs_particles", "empirical_measure_rate"):
            setattr(cli, study, wrap("experiments." + study, getattr(cli, study), True))

        build_model = cli.build_model

        def traced_build_model(*args, **kwargs):
            spec = build_model(*args, **kwargs)
            return dataclasses.replace(
                spec,
                drift=wrap("model.drift", spec.drift),
                diffusion=wrap("model.diffusion", spec.diffusion),
                neutral=wrap("model.neutral", spec.neutral),
            )

        cli.build_model = traced_build_model
        cli.dispatch = wrap("cli.dispatch", cli.dispatch, True)

    def dump(self) -> dict:
        return {
            "calls": self.calls,
            "counts": self.counts,
            "spans": self.spans,
            "em_hist": [[k, v] for k, v in sorted(self.em_hist.items())],
        }
