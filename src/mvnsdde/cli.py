"""Command-line front end: flat config files, subcommands, exit codes.

:class:`RunConfig` lists every config key with its type and default; the
file parser, the ``--flags`` and the echo are derived from its fields.
``READS``, the keys each subcommand reads, are the parameters of the
function it runs (``RUNS``); any other key must keep its default.
:func:`parse` refuses every unusable key or value before anything is written.
Config files are flat ``key = value`` text (``#`` comments, lists as
comma-separated values), flags override file values, and the resolved
config is echoed to ``<outdir>/config.echo``, which reruns the same job.
The seed is mandatory and never defaulted from the clock.  Exit status: 0
success, 2 validation failure, 3 overflow abort, 1 anything else.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, MvnsddeError, OverflowAbort, ValidationFailure
from .experiments import (
    D5_PROXY_NOTE,
    W2SQ_RATE,
    ExperimentReport,
    chaos_error_vs_particles,
    check_at_least,
    check_rate_sizes,
    check_sizes,
    empirical_measure_rate,
    peak_rss_mb,
    strong_error_vs_dt,
    taming_comparison,
    write_summary,
)
from .model import MODELS, Grid, build_model, model_keys, validate
from .noise import check_seed
from .scheme import simulate

OUTDIR_ENV = "MVNSDDE_OUTDIR"

_STDERR_NOTE = (
    "stderr is the particle-sample standard error of the rms from one "
    "coupled run; particles are weakly correlated through the empirical "
    "measure, so it understates the replication spread (see 'replicates')"
)


@dataclass(frozen=True)
class RunConfig:
    """Every config key, its type and its default, in echo order; ``None``
    marks a required key (``subcommand``, ``seed``) or one with a fallback
    (``outdir``: ``$MVNSDDE_OUTDIR``, then ``out``)."""

    subcommand: str | None = None
    model: str = "example51"
    a_coef: float = -1.0
    b_coef: float = 0.5
    sigma0: float = 0.2
    x0: float = 0.0
    delta: float = 2.0**-11
    delta_ref: float = 2.0**-16
    deltas: tuple[float, ...] = tuple(2.0**-k for k in (15, 14, 13, 12, 11))
    tau: float = 2.0**-5
    alpha: float = 0.5
    particles: int = 1000
    xis: tuple[int, ...] = (16, 64, 256, 1024)
    horizon: float = 1.0
    seed: int | None = None
    taming: bool = True
    mc_reps: int = 200
    replicates: int = 1
    dim: int = 1
    outdir: str | None = None


GRID_KEYS = tuple(f.name for f in dataclasses.fields(Grid))

# The function each subcommand runs.  Its parameters, read at import before
# any caller rebinds a name, are the keys the run reads (``READS``): ``grid``
# and ``grids`` (validate's one) stand for the Grid keys, ``segments`` for seed
# and particles, ``model`` for the model and its factory's keys
# (``model_keys``).  validate accepts every key: it checks any subcommand's.
RUNS = {
    "simulate": simulate,
    "convergence-dt": strong_error_vs_dt,
    "convergence-particles": chaos_error_vs_particles,
    "taming-compare": taming_comparison,
    "empirical-rate": empirical_measure_rate,
    "validate": validate,
}
SUBCOMMANDS = tuple(RUNS)
_STANDS_FOR = {"grid": GRID_KEYS, "grids": GRID_KEYS, "segments": ("seed", "particles")}
READS = {
    sub: tuple(key for name in inspect.signature(run).parameters
               for key in _STANDS_FOR.get(name, (name,)))
    for sub, run in RUNS.items()
}


def _int(raw) -> int:
    return int(str(raw), 10)


def _bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    word = str(raw).strip().lower()
    if word in ("true", "1", "yes", "on"):
        return True
    if word in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _items(item):
    """Parser of a list of ``item`` values: a sequence, or comma-separated text."""

    def parse_list(raw):
        if isinstance(raw, (list, tuple)):
            return tuple(item(v) for v in raw)
        return tuple(item(s) for s in str(raw).split(",") if s.strip())

    return parse_list


# Per field annotation (its text, ``| None`` dropped): parse a file, flag or
# override value; format it for the echo; the flag's metavar.
_TYPES = {
    "str": (str, str, "TEXT"),
    "int": (_int, str, "INT"),
    "float": (float, lambda v: repr(float(v)), "FLOAT"),
    "bool": (_bool, lambda v: "true" if v else "false", None),
    "tuple[int, ...]": (_items(_int), lambda v: ",".join(map(str, v)), "INT,..."),
    "tuple[float, ...]": (_items(float), lambda v: ",".join(map(repr, v)), "FLOAT,..."),
}
_FIELDS = {
    f.name: _TYPES[f.type.removesuffix(" | None")]
    for f in dataclasses.fields(RunConfig)
}
_VALID_KEYS = "valid keys: " + ", ".join(sorted(_FIELDS))


def _coerce(key: str, raw):
    """Coerce a raw (string or already typed) value to its config type."""
    try:
        return _FIELDS[key][0](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def echo_text(cfg: RunConfig) -> str:
    """Render the effective config in the flat file format (reparseable)."""
    lines = ["# effective configuration (reparseable)"]
    for key, (_, fmt, _) in _FIELDS.items():
        lines.append(f"{key} = {fmt(getattr(cfg, key))}")
    return "\n".join(lines) + "\n"


def _read_config_file(path) -> dict:
    values, seen = {}, {}
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
        if key not in _FIELDS:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r}; {_VALID_KEYS}"
            )
        if key in seen:
            raise ConfigError(
                f"{path}:{lineno}: key {key!r} already set on line {seen[key]}"
            )
        seen[key] = lineno
        values[key] = _coerce(key, raw)
    return values


def parse(
    config_path=None, overrides: dict | None = None, subcommand: str | None = None
) -> RunConfig:
    """Resolve defaults, config file, and command-line overrides (in that
    order of increasing precedence) into a fully explicit RunConfig, or
    refuse a key the run does not read or a value no run can use."""
    values = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    if config_path is not None:
        values.update(_read_config_file(config_path))
    for key, raw in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}; {_VALID_KEYS}")
        values[key] = _coerce(key, raw)
    if subcommand is not None:
        values["subcommand"] = subcommand

    if values["subcommand"] is None:
        raise ConfigError(
            "no subcommand given (positional argument or 'subcommand' key); "
            "one of: " + ", ".join(SUBCOMMANDS)
        )
    for key, valid in (("subcommand", SUBCOMMANDS), ("model", MODELS)):
        if values[key] not in valid:
            raise ConfigError(
                f"unknown {key} {values[key]!r}; valid: " + ", ".join(valid)
            )
    if values["seed"] is None:
        raise ConfigError("missing seed: every run must set one explicitly")
    subcommand = values["subcommand"]
    if subcommand == "taming-compare" and values["model"] != "cubic_no_mf":
        raise ConfigError(
            f"taming-compare runs only model cubic_no_mf, got {values['model']!r}"
        )
    reads = READS[subcommand]
    if "model" in reads:
        reads += model_keys(values["model"])
    for f in dataclasses.fields(RunConfig):
        value = values[f.name]
        unread = f.name not in reads + ("subcommand", "outdir")
        if unread and value != f.default and subcommand != "validate":
            raise ConfigError(
                f"{subcommand} does not read key {f.name!r} (set to "
                f"{value!r}); it reads: {', '.join(reads)}"
            )
    check_seed(values["seed"])
    check_at_least("particles", values["particles"], 1)
    check_sizes("delta_ref", [values["delta_ref"]])
    for key in ("deltas", "xis"):
        check_sizes(key, values[key])
    check_at_least("replicates", values["replicates"], 1)
    check_at_least("mc_reps", values["mc_reps"], 0)
    check_rate_sizes(values["dim"], values["xis"])
    if values["outdir"] is None:
        values["outdir"] = os.environ.get(OUTDIR_ENV, "out")
    return RunConfig(**values)


def _argument(cfg: RunConfig, name: str):
    """The value of a run function's parameter ``name``: the config key of
    that name, or the object built from the keys it stands for."""
    if name == "model":
        keys = model_keys(cfg.model)
        return build_model(cfg.model, **{key: getattr(cfg, key) for key in keys})
    if name in ("grid", "grids"):
        grid = Grid(**{key: getattr(cfg, key) for key in GRID_KEYS})
        return grid if name == "grid" else [grid]
    if name == "segments":
        return [(cfg.seed, cfg.particles)]
    return getattr(cfg, name)


def dispatch(cfg: RunConfig) -> int:
    """Run the subcommand of ``cfg``, a config from :func:`parse`; outputs,
    ``config.echo`` first, land in the config's output directory.  A
    ``validate`` judges before it writes, so a refused config leaves no
    file, as a parse error does.

    The run calls the function bound at its module-level name when it
    starts, so a rebinding of that name (a tracer's) takes effect.
    """
    run = RUNS[cfg.subcommand]
    args = {name: _argument(cfg, name) for name in inspect.signature(run).parameters}
    if cfg.subcommand == "validate":
        violations = globals()[run.__name__](**args)
        print("\n".join(f"violation: {v}" for v in violations) or "ok")
        if violations:
            return 2
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.echo").write_text(echo_text(cfg))
    if cfg.subcommand == "validate":
        return 0

    t0 = time.perf_counter()
    try:
        result = globals()[run.__name__](**args)
    except OverflowAbort as abort:
        if abort.prefix is not None:
            abort.prefix.to_csv(outdir / "grid.partial.csv")
            print(
                f"wrote finite prefix to {outdir / 'grid.partial.csv'}",
                file=sys.stderr,
            )
        raise
    seconds, peak_mb = time.perf_counter() - t0, peak_rss_mb()

    if cfg.subcommand == "simulate":
        result.to_csv(outdir / "grid.csv")
        print(f"wrote {outdir / 'grid.csv'}")
        return 0
    name = cfg.subcommand.replace("-", "_")
    if cfg.subcommand == "taming-compare":
        write_summary(
            outdir / f"{name}.summary.json", name, dataclasses.asdict(cfg),
            seconds, peak_mb, report=dataclasses.asdict(result),
        )
        print(
            f"untamed divergence fraction = "
            f"{result.untamed_divergence_fraction:.4f}, tamed max p2 moment = "
            f"{result.tamed_max_moment:.6g}"
        )
        return 0

    # the error-table studies: reference slope, notes, and the sizes whose
    # rows the fit can use; the reference's own row is an exact zero
    stderr = {"stderr": _STDERR_NOTE}
    reference_slope, notes, reference, sizes = {
        "convergence-dt": (0.5, stderr, cfg.delta_ref, "step sizes besides delta_ref"),
        "convergence-particles": (
            -0.5, stderr, max(cfg.xis), "particle counts below the largest",
        ),
        "empirical-rate": (
            W2SQ_RATE[cfg.dim], {"proxy": D5_PROXY_NOTE} if cfg.dim == 5 else {},
            None, "sample sizes",
        ),
    }[cfg.subcommand]
    report = ExperimentReport(
        name, dataclasses.asdict(cfg), result, seconds,
        reference_slope=reference_slope, notes=notes, peak_rss_mb=peak_mb,
    )
    report.write(outdir)
    if report.slope is None:
        errors = [r.rms_error for r in result.rows if r.resolution != reference]
        if cfg.mc_reps == 0:  # read by empirical-rate only
            why = "mc_reps = 0 draws no samples"
        elif len(errors) < 2:
            why = f"give at least 2 {sizes}, got {len(errors)}"
        else:
            why = f"{errors.count(0.0)} of the {len(errors)} {sizes} have zero error"
        print(
            f"degenerate fit: fewer than 2 positive-error rows ({why})",
            file=sys.stderr,
        )
        return 1
    print(f"slope = {report.slope:.4f} ({outdir / (name + '.csv')})")
    return 0


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
    for key, (parse_value, _, metavar) in _FIELDS.items():
        if key == "subcommand":  # the positional argument above
            continue
        # a bool key gets --key and --no-key
        action = argparse.BooleanOptionalAction if parse_value is _bool else "store"
        p.add_argument("--" + key.replace("_", "-"), action=action, metavar=metavar)
    return p


def main(argv=None) -> int:
    parser = _build_argparser()
    try:
        args = vars(parser.parse_args(argv))
        config, subcommand = args.pop("config"), args.pop("subcommand")
        overrides = {key: value for key, value in args.items() if value is not None}
        cfg = parse(config, overrides, subcommand=subcommand)
        return dispatch(cfg)
    except ValidationFailure as exc:
        for violation in exc.violations:
            print(f"violation: {violation}", file=sys.stderr)
        return 2
    except OverflowAbort as exc:
        print(f"overflow abort: {exc}", file=sys.stderr)
        return 3
    except (MvnsddeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
