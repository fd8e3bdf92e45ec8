"""Command-line front end: flat config files, subcommands, exit codes.

Config files are flat ``key = value`` text (``#`` comments, lists as
comma-separated values); command-line flags override file values, and the
fully resolved config is echoed to ``<outdir>/config.echo`` in the same
format, so an echo file reruns the exact same job.  The seed is mandatory
and never defaulted from the clock.  Exit status: 0 success, 2 validation
failure, 3 overflow abort, 1 anything else.

The ``--workers`` flag is accepted and echoed for config compatibility; the
numerical backend is vectorized single-process numpy, whose results are
schedule-independent, so the worker count cannot change any output byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    ConfigError,
    DegenerateFitError,
    MvnsddeError,
    OverflowAbort,
    ValidationFailure,
)
from .experiments import (
    D5_PROXY_NOTE,
    Stopwatch,
    build_report,
    chaos_error_vs_particles,
    empirical_measure_rate,
    strong_error_vs_dt,
    taming_comparison,
)
from .model import MODEL_NAMES, SchemeParams, build_model, validate
from .noise import generate
from .scheme import simulate

SUBCOMMANDS = (
    "simulate",
    "convergence-dt",
    "convergence-particles",
    "taming-compare",
    "empirical-rate",
    "validate",
)

OUTDIR_ENV = "MVNSDDE_OUTDIR"

_STDERR_NOTE = (
    "stderr is the particle-sample standard error of the rms from one "
    "coupled run; particles are weakly correlated through the empirical "
    "measure, so it understates the replication spread (see 'replicates')"
)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    model: str
    a_coef: float
    b_coef: float
    sigma0: float
    x0: float
    delta: float
    delta_ref: float
    deltas: tuple[float, ...]
    tau: float
    alpha: float
    particles: int
    xis: tuple[int, ...]
    horizon: float
    seed: int
    taming: bool
    moment_order_p: int
    mc_reps: int
    replicates: int
    dim: int
    outdir: str
    workers: int


_KINDS = {
    "subcommand": "str",
    "model": "str",
    "a_coef": "float",
    "b_coef": "float",
    "sigma0": "float",
    "x0": "float",
    "delta": "float",
    "delta_ref": "float",
    "deltas": "float_list",
    "tau": "float",
    "alpha": "float",
    "particles": "int",
    "xis": "int_list",
    "horizon": "float",
    "seed": "int",
    "taming": "bool",
    "moment_order_p": "int",
    "mc_reps": "int",
    "replicates": "int",
    "dim": "int",
    "outdir": "str",
    "workers": "int",
}

_DEFAULTS = {
    "subcommand": None,
    "model": "example51",
    "a_coef": -1.0,
    "b_coef": 0.5,
    "sigma0": 0.2,
    "x0": 0.0,
    "delta": 2.0**-11,
    "delta_ref": 2.0**-16,
    "deltas": (2.0**-15, 2.0**-14, 2.0**-13, 2.0**-12, 2.0**-11),
    "tau": 2.0**-5,
    "alpha": 0.5,
    "particles": 1000,
    "xis": (16, 64, 256, 1024),
    "horizon": 1.0,
    "seed": None,
    "taming": True,
    "moment_order_p": 12,
    "mc_reps": 200,
    "replicates": 1,
    "dim": 1,
    "outdir": None,
    "workers": 1,
}

_TRUE_WORDS = {"true", "1", "yes", "on"}
_FALSE_WORDS = {"false", "0", "no", "off"}


def _coerce(key: str, raw):
    """Coerce a raw (string or already typed) value to its config type."""
    kind = _KINDS[key]
    try:
        if kind == "str":
            return str(raw)
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(str(raw), 10)
        if kind == "bool":
            if isinstance(raw, bool):
                return raw
            word = str(raw).strip().lower()
            if word in _TRUE_WORDS:
                return True
            if word in _FALSE_WORDS:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        items = [s for s in str(raw).split(",") if s.strip() != ""]
        if kind == "float_list":
            return tuple(float(s) for s in items)
        if kind == "int_list":
            return tuple(int(s.strip(), 10) for s in items)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None
    raise AssertionError(f"unhandled kind {kind}")


def _format(key: str, value) -> str:
    kind = _KINDS[key]
    if kind == "bool":
        return "true" if value else "false"
    if kind in ("float_list", "int_list"):
        return ",".join(repr(v) if kind == "float_list" else str(v) for v in value)
    if kind == "float":
        return repr(float(value))
    return str(value)


def echo_text(cfg: RunConfig) -> str:
    """Render the effective config in the flat file format (reparseable)."""
    lines = ["# effective configuration (reparseable)"]
    for f in dataclasses.fields(RunConfig):
        lines.append(f"{f.name} = {_format(f.name, getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def _read_config_file(path) -> dict:
    values = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}"
            )
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KINDS:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                + ", ".join(sorted(_KINDS))
            )
        values[key] = _coerce(key, raw)
    return values


def parse(
    config_path=None, overrides: dict | None = None, subcommand: str | None = None
) -> RunConfig:
    """Resolve defaults, config file, and command-line overrides (in that
    order of increasing precedence) into a fully explicit RunConfig."""
    values = dict(_DEFAULTS)
    if config_path is not None:
        values.update(_read_config_file(config_path))
    for key, raw in (overrides or {}).items():
        if key not in _KINDS:
            raise ConfigError(
                f"unknown config key {key!r}; valid keys: "
                + ", ".join(sorted(_KINDS))
            )
        values[key] = _coerce(key, raw)
    if subcommand is not None:
        values["subcommand"] = subcommand

    if values["subcommand"] is None:
        raise ConfigError(
            "no subcommand given (positional argument or 'subcommand' key); "
            "one of: " + ", ".join(SUBCOMMANDS)
        )
    if values["subcommand"] not in SUBCOMMANDS:
        raise ConfigError(
            f"unknown subcommand {values['subcommand']!r}; valid: "
            + ", ".join(SUBCOMMANDS)
        )
    if values["seed"] is None:
        raise ConfigError("missing seed: every run must set one explicitly")
    if not 0 <= values["seed"] < 2**64:
        raise ConfigError(
            f"seed must be a 64-bit unsigned integer, got {values['seed']}"
        )
    if values["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {values['workers']}")
    if values["replicates"] < 1:
        raise ConfigError(
            f"replicates must be >= 1, got {values['replicates']}"
        )
    if values["outdir"] is None:
        values["outdir"] = os.environ.get(OUTDIR_ENV, "out")
    return RunConfig(**values)


def _scheme_params(cfg: RunConfig, delta: float | None = None) -> SchemeParams:
    return SchemeParams(
        delta=cfg.delta if delta is None else delta,
        tau=cfg.tau,
        alpha=cfg.alpha,
        particles=cfg.particles,
        horizon=cfg.horizon,
        seed=cfg.seed,
        taming_enabled=cfg.taming,
        moment_order_p=cfg.moment_order_p,
    )


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_report(
    name, config_echo, table, sw, outdir, reference_slope, notes, degenerate
) -> int:
    """Write a study's report files; a degenerate slope fit exits 1."""
    report = build_report(
        name, config_echo, table, sw.seconds, reference_slope=reference_slope,
        notes=notes, peak_rss_mb=sw.peak_rss_mb,
    )
    report.write(outdir)
    if report.slope is None:
        print(f"degenerate fit: {degenerate}", file=sys.stderr)
        return 1
    print(f"slope = {report.slope:.4f} ({outdir / (name + '.csv')})")
    return 0


def dispatch(cfg: RunConfig) -> int:
    """Run one subcommand; outputs land in the config's output directory."""
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.echo").write_text(echo_text(cfg))
    config_echo = dataclasses.asdict(cfg)

    model = build_model(
        cfg.model, a_coef=cfg.a_coef, b_coef=cfg.b_coef, sigma0=cfg.sigma0,
        x0=cfg.x0,
    )

    if cfg.subcommand == "validate":
        report = validate(model, _scheme_params(cfg))
        print(report)
        return 0 if report.ok else 2

    if cfg.subcommand == "simulate":
        params = _scheme_params(cfg)
        noise = generate(
            cfg.seed, cfg.particles, model.bm_dim, cfg.delta, cfg.horizon
        )
        try:
            grid = simulate(model, params, noise)
        except OverflowAbort as abort:
            if abort.prefix is not None:
                abort.prefix.to_csv(outdir / "grid.partial.csv")
                print(
                    f"wrote finite prefix to {outdir / 'grid.partial.csv'}",
                    file=sys.stderr,
                )
            raise
        grid.to_csv(outdir / "grid.csv")
        print(f"wrote {outdir / 'grid.csv'}")
        return 0

    if cfg.subcommand == "convergence-dt":
        with Stopwatch() as sw:
            table = strong_error_vs_dt(
                model,
                particles=cfg.particles,
                delta_ref=cfg.delta_ref,
                deltas=list(cfg.deltas),
                tau=cfg.tau,
                alpha=cfg.alpha,
                horizon=cfg.horizon,
                seed=cfg.seed,
                taming=cfg.taming,
                replicates=cfg.replicates,
            )
        return _write_report(
            "convergence_dt", config_echo, table, sw, outdir, 0.5,
            {"stderr": _STDERR_NOTE},
            "fewer than 2 positive-error rows (drop self-comparison step sizes)",
        )

    if cfg.subcommand == "convergence-particles":
        with Stopwatch() as sw:
            table = chaos_error_vs_particles(
                model,
                xis=list(cfg.xis),
                delta=cfg.delta,
                tau=cfg.tau,
                alpha=cfg.alpha,
                horizon=cfg.horizon,
                seed=cfg.seed,
                taming=cfg.taming,
                replicates=cfg.replicates,
            )
        return _write_report(
            "convergence_particles", config_echo, table, sw, outdir, -0.5,
            {"stderr": _STDERR_NOTE},
            "fewer than 2 positive-error rows "
            "(measure-independent models give exact zeros)",
        )

    if cfg.subcommand == "taming-compare":
        if cfg.model != "cubic_no_mf":
            raise ConfigError(
                "taming-compare runs only model cubic_no_mf, "
                f"got {cfg.model!r}"
            )
        with Stopwatch() as sw:
            rep = taming_comparison(
                x0=cfg.x0,
                delta_coarse=cfg.delta,
                particles=cfg.particles,
                tau=cfg.tau,
                horizon=cfg.horizon,
                seed=cfg.seed,
                alpha=cfg.alpha,
            )
        _write_json(
            outdir / "taming_compare.summary.json",
            {
                "experiment": "taming_compare",
                "config": config_echo,
                "report": rep.as_dict(),
                "runtime_seconds": sw.seconds,
                "peak_rss_mb": sw.peak_rss_mb,
            },
        )
        print(
            f"untamed divergence fraction = "
            f"{rep.untamed_divergence_fraction:.4f}, tamed max p2 moment = "
            f"{rep.tamed_max_moment:.6g}"
        )
        return 0

    if cfg.subcommand == "empirical-rate":
        with Stopwatch() as sw:
            table = empirical_measure_rate(
                dim=cfg.dim,
                xis=list(cfg.xis),
                mc_reps=cfg.mc_reps,
                seed=cfg.seed,
            )
        notes = {"proxy": D5_PROXY_NOTE} if cfg.dim == 5 else {}
        return _write_report(
            "empirical_rate", config_echo, table, sw, outdir, -0.5, notes,
            "need at least 2 rows",
        )

    raise ConfigError(f"unhandled subcommand {cfg.subcommand!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse errors onto exit status 1
        raise ConfigError(message)


def _build_argparser() -> _Parser:
    p = _Parser(
        prog="mvnsdde",
        description=(
            "Tamed explicit particle simulator for mean-field neutral "
            "stochastic delay equations"
        ),
    )
    p.add_argument("subcommand", nargs="?", choices=SUBCOMMANDS)
    p.add_argument("--config", help="flat 'key = value' config file")
    p.add_argument("--model", choices=MODEL_NAMES)
    p.add_argument("--a-coef", dest="a_coef", type=float)
    p.add_argument("--b-coef", dest="b_coef", type=float)
    p.add_argument("--sigma0", type=float)
    p.add_argument("--x0", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--delta-ref", dest="delta_ref", type=float)
    p.add_argument("--deltas", help="comma-separated step sizes")
    p.add_argument("--tau", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--particles", type=int)
    p.add_argument("--xis", help="comma-separated particle counts")
    p.add_argument("--horizon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--taming", action=argparse.BooleanOptionalAction)
    p.add_argument("--moment-order-p", dest="moment_order_p", type=int)
    p.add_argument("--mc-reps", dest="mc_reps", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--outdir")
    p.add_argument("--workers", type=int)
    return p


def main(argv=None) -> int:
    parser = _build_argparser()
    try:
        args = parser.parse_args(argv)
        overrides = {
            key: value
            for key, value in vars(args).items()
            if key in _KINDS and value is not None and key != "subcommand"
        }
        cfg = parse(args.config, overrides, subcommand=args.subcommand)
        return dispatch(cfg)
    except ValidationFailure as exc:
        for violation in exc.violations:
            print(f"violation: {violation}", file=sys.stderr)
        return 2
    except OverflowAbort as exc:
        print(f"overflow abort: {exc}", file=sys.stderr)
        return 3
    except DegenerateFitError as exc:
        print(f"degenerate fit: {exc}", file=sys.stderr)
        return 1
    except (MvnsddeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
