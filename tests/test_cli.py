"""CLI parsing, dispatch, exit codes, and output determinism."""

import dataclasses
import hashlib
import inspect
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from mvnsdde import (
    cubic_no_mf, example51, experiments, moment_bound_vs_dt, noise, scheme,
    taming_comparison,
)
from mvnsdde import cli
from mvnsdde.cli import RunConfig, echo_text, main, parse
from mvnsdde.errors import ConfigError
from mvnsdde.model import MODELS, Grid, model_keys

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the flags that name a shipped config, for validate to judge its run
FIGURE1, CHAOS, RATE_D1 = (
    ("--config", str(CONFIGS / name))
    for name in ("figure1.cfg", "chaos.cfg", "empirical_rate_d1.cfg")
)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


SMALL_SIM = """
subcommand = simulate
model = example51
delta = 0.00390625
tau = 0.03125
particles = 8
horizon = 0.25
seed = 42
"""


class TestParse:
    def test_defaults_filled_in(self, tmp_path):
        cfg = parse(
            write_cfg(tmp_path, "seed = 5\n"), subcommand="validate"
        )
        assert cfg.model == "example51"
        assert cfg.alpha == 0.5
        assert cfg.taming is True
        assert cfg.seed == 5

    def test_flag_overrides_file(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 5\ndelta = 0.0009765625\n")
        cfg = parse(path, {"delta": "0.00048828125"}, subcommand="simulate")
        assert cfg.delta == 2.0**-11

    def test_missing_seed_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "model = example51\n")
        with pytest.raises(Exception, match="seed"):
            parse(path, subcommand="simulate")

    def test_unknown_key_lists_valid(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 1\nstepsize = 0.5\n")
        with pytest.raises(Exception, match="valid keys"):
            parse(path, subcommand="simulate")

    def test_unknown_override_lists_valid(self):
        match = r"^unknown config key 'nope'; valid keys: a_coef, alpha, "
        with pytest.raises(ConfigError, match=match):
            parse(None, {"nope": 1}, "simulate")

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 1\n# later\nseed = 2\n")
        with pytest.raises(ConfigError, match=r":3: key 'seed' already set on line 1"):
            parse(path, subcommand="validate")

    def test_typed_list_overrides(self):
        # each list through a run that reads it: no run reads both
        cfg = parse(None, {"xis": (2, 4), "seed": 1}, "convergence-particles")
        assert cfg.xis == (2, 4)
        text = {"xis": "2,4", "seed": "1"}
        assert parse(None, text, "convergence-particles") == cfg
        cfg = parse(None, {"deltas": [0.5, 0.25], "seed": 1}, "convergence-dt")
        assert cfg.deltas == (0.5, 0.25)
        text = {"deltas": "0.5, 0.25", "seed": "1"}
        assert parse(None, text, "convergence-dt") == cfg

    def test_workers_is_an_unknown_key(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 1\nworkers = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'workers'"):
            parse(path, subcommand="validate")
        assert main(["validate", "--seed", "1", "--workers", "2"]) == 1

    def test_moment_order_p_is_an_unknown_key(self, tmp_path):
        # the studies never read it, so it was a key that did nothing
        path = write_cfg(tmp_path, "seed = 1\nmoment_order_p = 4\n")
        with pytest.raises(ConfigError, match="unknown key 'moment_order_p'"):
            parse(path, subcommand="validate")
        argv = ["convergence-dt", "--seed", "1", "--moment-order-p", "4"]
        assert main(argv + ["--outdir", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_cfg(tmp_path, "# a comment\n\nseed = 9  # trailing\n")
        cfg = parse(path, subcommand="validate")
        assert cfg.seed == 9

    def test_subcommand_from_file(self, tmp_path):
        path = write_cfg(tmp_path, "subcommand = convergence-dt\nseed = 1\n")
        assert parse(path).subcommand == "convergence-dt"
        # validate judges the run its config names, so the config keeps it
        assert parse(path, subcommand="validate").subcommand == "convergence-dt"
        # a config names a run; validate is not one
        path = write_cfg(tmp_path, "subcommand = validate\nseed = 1\n")
        with pytest.raises(ConfigError, match="unknown subcommand 'validate'"):
            parse(path)

    def test_missing_subcommand(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 1\n")
        with pytest.raises(Exception, match="subcommand"):
            parse(path)

    def test_list_parsing(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 1\nxis = 2,4, 8\n")
        cfg = parse(path, subcommand="convergence-particles")
        assert cfg.xis == (2, 4, 8)

    def test_outdir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MVNSDDE_OUTDIR", str(tmp_path / "envout"))
        cfg = parse(None, {"seed": 1}, subcommand="validate")
        assert cfg.outdir == str(tmp_path / "envout")


class TestExitCodes:
    def test_validate_ok(self, tmp_path, capsys):
        rc = main(
            ["validate", "--seed", "3", "--outdir", str(tmp_path / "o")]
        )
        assert rc == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_shipped_configs(self, tmp_path):
        paths = sorted(CONFIGS.glob("*.cfg"))
        assert len(paths) >= 7
        for path in paths:
            rc = main(
                [
                    "validate", "--config", str(path),
                    "--outdir", str(tmp_path / path.name),
                ]
            )
            assert rc == 0, path.name

    def test_validation_failure_is_2(self, tmp_path):
        rc = main(
            [
                "validate", "--seed", "3", "--tau", "0.03",
                "--outdir", str(tmp_path / "o"),
            ]
        )
        assert rc == 2

    def test_simulate_bad_grid_is_2(self, tmp_path):
        rc = main(
            [
                "simulate", "--seed", "3", "--tau", "0.03",
                "--outdir", str(tmp_path / "o"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("subcommand", ["validate", "simulate"])
    @pytest.mark.parametrize(
        "keys, ratio",
        [
            # a horizon shorter than one step: horizon/delta rounds to 0
            (
                ["--delta", "0.00048828125", "--tau", "0.0009765625",
                 "--horizon", "1e-13"],
                "horizon/delta",
            ),
            (["--horizon", "inf"], "horizon/delta"),
            (["--tau", "inf"], "tau/delta"),
        ],
    )
    def test_ratio_not_a_positive_integer_is_2(
        self, tmp_path, capsys, subcommand, keys, ratio
    ):
        argv = [subcommand, "--seed", "1", *keys, "--outdir", str(tmp_path / "o")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"violation: {ratio} = " in captured.out + captured.err
        assert "is not a positive integer" in captured.out + captured.err

    def test_missing_seed_is_1(self, tmp_path):
        rc = main(["simulate", "--outdir", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--seed", "-1"], "seed must be a 64-bit unsigned"),
            (["validate", *FIGURE1, "--replicates", "0"], "replicates must"),
            (["validate", *RATE_D1, "--dim", "3"], "supported dims are"),
            (["convergence-dt", "--seed", "1", "--deltas", "inf"], "deltas must"),
            (["convergence-dt", "--seed", "1", "--deltas", "nan"], "deltas must"),
            (["convergence-dt", "--seed", "1", "--deltas", "0"], "deltas must"),
            (["convergence-dt", "--seed", "1", "--delta-ref", "-1"], "delta_ref must"),
            (["validate", *CHAOS, "--xis", "0,4"], "sizes must be >= 1, got 0"),
            (["validate", *CHAOS, "--xis=-3"], "sizes must be >= 1, got -3"),
            (["validate", *CHAOS, "--xis", "4,4"], "sizes must be distinct"),
            (["validate", *RATE_D1, "--mc-reps=-5"], "mc_reps must be >= 0"),
            (
                ["convergence-dt", "--seed", "1", "--replicates", "0"],
                "replicates must be >= 1, got 0",
            ),
            (
                ["convergence-particles", "--seed", "1", "--replicates", "0"],
                "replicates must be >= 1, got 0",
            ),
            (["empirical-rate", "--seed", "1", "--mc-reps=-1"], "mc_reps must be >= 0, got -1"),
            (["empirical-rate", "--seed", "1", "--dim", "3"], "supported dims are 1 and 5, got 3"),
            (
                ["empirical-rate", "--seed", "1", "--dim", "5", "--xis", "16,1024"],
                "size 1024 exceeds assignment cap 512",
            ),
            (
                ["validate", *RATE_D1, "--dim", "5", "--xis", "16,1024"],
                "size 1024 exceeds assignment cap 512",
            ),
        ],
    )
    def test_refused_before_echo(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main([*argv, "--outdir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("taming = maybe", "bad value for 'taming': not a boolean: 'maybe'"),
            (
                "particles = many",
                "bad value for 'particles': invalid literal for int() with base 10",
            ),
            ("just text", "{path}:3: expected 'key = value', got 'just text'"),
        ],
        ids=["boolean", "integer", "no_key"],
    )
    def test_bad_config_line_refused_before_echo(
        self, tmp_path, capsys, line, message
    ):
        path = write_cfg(tmp_path, f"subcommand = simulate\nseed = 1\n{line}\n")
        out = tmp_path / "o"
        assert main(["--config", str(path), "--outdir", str(out)]) == 1
        assert f"error: {message.format(path=path)}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_mc_reps_writes_no_table(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["empirical-rate", "--seed", "1", "--mc-reps=-5", "--outdir", str(out)]
        assert main(argv) == 1
        assert "mc_reps must be >= 0, got -5" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "keys", [[*CHAOS, "--xis", "64,16"], [*RATE_D1, "--mc-reps", "0"]]
    )
    def test_validate_takes_what_a_study_takes(self, tmp_path, capsys, keys):
        argv = ["validate", "--seed", "1", *keys, "--outdir", str(tmp_path / "o")]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_refused_validate_is_2_and_writes_nothing(self, tmp_path, capsys):
        # the echo was once written before the config was judged; a refusal
        # goes to stderr, as the run's own does
        out = tmp_path / "o"
        assert main(["validate", "--seed", "1", "--tau=-0.5", "--outdir", str(out)]) == 2
        assert "violation: tau must be positive, got -0.5" in capsys.readouterr().err
        assert not out.exists()
        assert main(["validate", "--seed", "1", "--outdir", str(out)]) == 0
        want = parse(None, {"seed": 1, "outdir": str(out)}, subcommand="validate")
        # the echo holds the run it judged, simulate, and reruns that run
        assert parse(out / "config.echo") == want
        assert want.subcommand == "simulate"

    def test_unknown_flag_is_1(self):
        assert main(["simulate", "--frobnicate", "1"]) == 1

    def test_unknown_subcommand_is_1(self):
        assert main(["meditate", "--seed", "1"]) == 1

    def test_bad_model_flag_is_1_before_echo(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(
            ["validate", "--seed", "1", "--model", "nope", "--outdir", str(out)]
        )
        assert rc == 1
        assert "unknown model 'nope'" in capsys.readouterr().err
        assert not (out / "config.echo").exists()

    def test_bad_model_key_is_1_before_echo(self, tmp_path, capsys):
        out = tmp_path / "o"
        path = write_cfg(tmp_path, "seed = 1\nmodel = nope\n")
        rc = main(["validate", "--config", str(path), "--outdir", str(out)])
        assert rc == 1
        assert "unknown model 'nope'" in capsys.readouterr().err
        assert not (out / "config.echo").exists()

    def test_untamed_overflow_is_3(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "simulate", "--model", "cubic_no_mf", "--x0", "5.0",
                "--delta", "0.25", "--tau", "0.5", "--horizon", "4.0",
                "--particles", "10", "--seed", "11", "--no-taming",
                "--outdir", str(out),
            ]
        )
        assert rc == 3
        assert (out / "grid.partial.csv").exists()

    def test_overflow_names_its_grid(self, tmp_path, capsys):
        # step 7 exists on the 0.0625 and 0.125 grids; the message says which
        rc = main(
            [
                "convergence-dt", "--model", "cubic_no_mf", "--x0", "5",
                "--no-taming", "--delta-ref", "0.0625", "--deltas", "0.125,0.25",
                "--tau", "0.5", "--particles", "10", "--seed", "1",
                "--outdir", str(tmp_path / "o"),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "non-finite state at step 7 of the delta 0.125 grid, t = 0.875 (seed 1," in err

    def test_taming_compare_other_model_is_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(
            [
                "taming-compare", "--config", str(CONFIGS / "taming.cfg"),
                "--model", "example51", "--outdir", str(out),
            ]
        )
        assert rc == 1
        assert "cubic_no_mf" in capsys.readouterr().err
        assert not (out / "taming_compare.summary.json").exists()

    def test_taming_compare_divergence_is_0(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "taming-compare", "--config", str(CONFIGS / "taming.cfg"),
                "--particles", "50", "--outdir", str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "taming_compare.summary.json").read_text())
        assert report["report"]["untamed_divergence_fraction"] >= 0.99
        assert report["peak_rss_mb"] > 0.0
        # the report block's bytes, pinned from the hand-listed report dict
        assert (
            '  "report": {\n'
            '    "divergence_threshold": 10000000000.0,\n'
            '    "first_divergence_step": 3,\n'
            '    "particles": 50,\n'
            '    "tamed_argmax_index": 3,\n'
            '    "tamed_max_moment": 60.03540081705514,\n'
            '    "untamed_diverged_count": 50,\n'
            '    "untamed_divergence_fraction": 1.0\n'
            '  },\n'
        ) in (out / "taming_compare.summary.json").read_text()

    def test_degenerate_fit_is_1(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "convergence-dt", "--seed", "5", "--particles", "4",
                "--delta-ref", "0.0078125", "--deltas", "0.0078125",
                "--horizon", "0.25", "--outdir", str(out),
            ]
        )
        assert rc == 1
        # outputs still written for inspection
        assert (out / "convergence_dt.csv").exists()
        summary = json.loads((out / "convergence_dt.summary.json").read_text())
        assert summary["slope"] is None

    def test_zero_mc_reps_is_1_and_named(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["empirical-rate", "--seed", "1", "--mc-reps", "0", "--outdir", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "(mc_reps = 0 draws no samples)" in err
        assert "sample sizes" not in err
        header = "resolution,rms_error,stderr,samples\n"
        assert (out / "empirical_rate.csv").read_text() == header

    def test_measure_independent_chaos_is_degenerate(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "convergence-particles", "--model", "cubic_no_mf", "--x0",
                "1.0", "--seed", "5", "--xis", "4,8", "--delta", "0.0078125",
                "--horizon", "0.25", "--outdir", str(out),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "flags, why",
        [
            (["--xis", "16,64"], "give at least 2 particle counts below the largest, got 1"),
            (["--xis", "64"], "give at least 2 particle counts below the largest, got 0"),
            (
                ["--model", "cubic_no_mf", "--x0", "1.0", "--xis", "4,8,16"],
                "2 of the 2 particle counts below the largest have zero error",
            ),
        ],
    )
    def test_degenerate_fit_names_its_cause(self, tmp_path, capsys, flags, why):
        # --xis 16,64: an error of 3.2e-5 at 16 particles, then the reference
        argv = ["convergence-particles", "--seed", "1", "--horizon", "0.0625"]
        assert main([*argv, *flags, "--outdir", str(tmp_path / "o")]) == 1
        assert f"degenerate fit: fewer than 2 positive-error rows ({why})\n" == (
            capsys.readouterr().err
        )


class TestOneListRule:
    """Every subcommand that reads ``xis`` or ``deltas``, and validate of
    such a run, takes and refuses the same lists with the same exit code and
    message."""

    RUNS = {
        "convergence-dt": ["--particles", "4", "--delta-ref", "0.00390625",
                           "--horizon", "0.25"],
        "convergence-particles": ["--delta", "0.0078125", "--horizon", "0.25"],
        "empirical-rate": ["--mc-reps", "2"],
    }
    # the run validate judges per key: one that reads it
    JUDGED = {"deltas": "convergence-dt", "xis": "convergence-particles"}
    # per key and case: the list, then the refusal's message (None: it runs)
    LISTS = {
        "deltas": {
            "empty": ("", "deltas is empty: give at least one step size"),
            "repeated": (
                "0.015625,0.015625", "deltas must be distinct: [0.015625, 0.015625]",
            ),
            "zero": ("0,0.015625", "deltas must be positive and finite, got 0.0"),
            "unsorted": ("0.015625,0.0078125", None),
        },
        "xis": {
            "empty": ("", "xis is empty: give at least one sample size"),
            "repeated": ("8,8", "sample sizes must be distinct: [8, 8]"),
            "zero": ("0,8", "sample sizes must be >= 1, got 0"),
            "unsorted": ("16,4,8", None),
        },
    }

    def run(self, tmp_path, capsys, subcommand, key, value, name):
        out = tmp_path / name
        flags = self.RUNS.get(subcommand, [])
        if subcommand == "validate":
            judged = self.JUDGED[key]
            path = write_cfg(tmp_path, f"subcommand = {judged}\n", "judged.cfg")
            flags = ["--config", str(path), *self.RUNS[judged]]
        argv = [subcommand, "--seed", "1", *flags,
                f"--{key}={value}", "--outdir", str(out)]
        rc = main(argv)
        return rc, capsys.readouterr().err, out

    @pytest.mark.parametrize("case", ["empty", "repeated", "zero", "unsorted"])
    @pytest.mark.parametrize(
        "subcommand, key",
        [
            ("convergence-dt", "deltas"),
            ("convergence-particles", "xis"),
            ("empirical-rate", "xis"),
            ("validate", "deltas"),
            ("validate", "xis"),
        ],
    )
    def test_one_rule(self, tmp_path, capsys, subcommand, key, case):
        value, message = self.LISTS[key][case]
        rc, err, out = self.run(tmp_path, capsys, subcommand, key, value, "o")
        if message is not None:
            assert (rc, err) == (1, f"error: {message}\n")
            assert not out.exists()
            return
        assert (rc, err) == (0, "")
        if subcommand == "validate":
            assert (out / "config.echo").exists()
            return
        # the study sorts the list: the same table as the ascending one
        ascending = ",".join(sorted(value.split(","), key=float))
        rc, err, sorted_out = self.run(
            tmp_path, capsys, subcommand, key, ascending, "sorted"
        )
        assert (rc, err) == (0, "")
        name = subcommand.replace("-", "_") + ".csv"
        assert (out / name).read_bytes() == (sorted_out / name).read_bytes()


class TestUnreadKeys:
    # small grids, so that a key the check misses runs quickly
    BASE = {
        "simulate": ["--delta", "0.0078125", "--particles", "4",
                     "--horizon", "0.25"],
        "convergence-dt": ["--particles", "4", "--delta-ref", "0.0078125",
                           "--deltas", "0.015625", "--horizon", "0.25"],
        "convergence-particles": ["--xis", "4,8", "--delta", "0.0078125",
                                  "--horizon", "0.25"],
        "taming-compare": ["--config", str(CONFIGS / "taming.cfg")],
        "empirical-rate": ["--xis", "8,16", "--mc-reps", "2"],
    }

    @pytest.mark.parametrize(
        "subcommand, flags, key",
        [
            ("simulate", ["--x0", "7"], "x0"),
            ("simulate", ["--a-coef", "3"], "a_coef"),
            ("simulate", ["--sigma0", "9"], "sigma0"),
            ("simulate", ["--replicates", "9"], "replicates"),
            ("simulate", ["--replicates", "0"], "replicates"),
            ("simulate", ["--xis", "5,6"], "xis"),
            ("simulate", ["--dim", "5"], "dim"),
            ("simulate", ["--model", "cubic_no_mf", "--a-coef", "3"], "a_coef"),
            ("taming-compare", ["--no-taming"], "taming"),
            ("convergence-dt", ["--delta", "0.125"], "delta"),
            ("convergence-dt", ["--xis", "5,6"], "xis"),
            ("convergence-particles", ["--particles", "9"], "particles"),
            ("convergence-particles", ["--delta-ref", "0.25"], "delta_ref"),
            ("convergence-particles", ["--deltas", "0.25"], "deltas"),
            ("empirical-rate", ["--model", "linear_meanfield"], "model"),
            ("empirical-rate", ["--delta", "0.125"], "delta"),
            ("empirical-rate", ["--tau", "0.25"], "tau"),
            ("empirical-rate", ["--alpha", "0.25"], "alpha"),
            ("empirical-rate", ["--particles", "9"], "particles"),
            ("empirical-rate", ["--horizon", "2.0"], "horizon"),
            ("empirical-rate", ["--no-taming"], "taming"),
        ],
    )
    def test_unread_key_is_1_before_echo(
        self, tmp_path, capsys, subcommand, flags, key
    ):
        out = tmp_path / "o"
        argv = [subcommand, "--seed", "1", *self.BASE[subcommand], *flags]
        assert main(argv + ["--outdir", str(out)]) == 1
        assert f"does not read key {key!r}" in capsys.readouterr().err
        assert not (out / "config.echo").exists()

    def test_shipped_config_echo_replays(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        path = CONFIGS / "taming.cfg"
        assert main(["--config", str(path), "--outdir", str(out1)]) == 0
        echo = out1 / "config.echo"
        assert main(["--config", str(echo), "--outdir", str(out2)]) == 0
        reports = [
            json.loads((out / "taming_compare.summary.json").read_text())
            for out in (out1, out2)
        ]
        assert reports[0]["report"] == reports[1]["report"]


class TestRunDeclaration:
    """Each subcommand is declared once, by the function it runs: its keys
    are that function's parameters, and dispatch calls it by name."""

    def test_reads_are_the_run_parameters(self):
        grid = ("delta", "tau", "alpha", "horizon", "taming")
        assert cli.READS == {
            "simulate": ("model", *grid, "seed", "particles"),
            "convergence-dt": (
                "model", "particles", "delta_ref", "deltas", "tau", "alpha",
                "horizon", "seed", "taming", "replicates",
            ),
            "convergence-particles": (
                "model", "xis", "delta", "tau", "alpha", "horizon", "seed",
                "taming", "replicates",
            ),
            "taming-compare": (
                "model", "delta", "particles", "tau", "horizon", "seed", "alpha",
            ),
            "empirical-rate": ("dim", "xis", "mc_reps", "seed"),
        }
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert {key for keys in cli.READS.values() for key in keys} <= fields
        # validate is a subcommand that judges a run, not a run
        assert cli.SUBCOMMANDS == (*cli.RUNS, "validate")

    def test_each_run_has_a_plan_on_keys_it_reads(self):
        assert list(cli.PLANS) == list(cli.RUNS)
        for sub, plan in cli.PLANS.items():
            parameters = inspect.signature(plan).parameters
            keys = [
                key for name in parameters
                for key in (cli.GRID_KEYS if name == "grid" else (name,))
            ]
            assert set(keys) <= set(cli.READS[sub]) - {"model"}, sub

    def test_each_default_is_the_configs(self):
        # a library call of a run and a CLI run default alike
        defaults, checked = RunConfig(), set()
        for fn in [*cli.RUNS.values(), *cli.PLANS.values()]:
            for key, parameter in inspect.signature(fn).parameters.items():
                if parameter.default is not parameter.empty:
                    assert parameter.default == getattr(defaults, key), (fn, key)
                    checked.add(key)
        assert checked == {"taming", "replicates", "alpha"}
        # a plan is called with every argument: no second copy of a default
        for plan in cli.PLANS.values():
            parameters = inspect.signature(plan).parameters.values()
            assert all(p.default is p.empty for p in parameters), plan

    def test_readme_lists_each_runs_reads(self):
        readme = (CONFIGS.parent / "README.md").read_text()
        header = r"^\| subcommand +\| reads \|\n\|[-| ]+\|\n((?:\|.*\|\n)+)"
        rows = {}
        for line in re.search(header, readme, flags=re.M)[1].splitlines():
            sub, reads = line.strip("|").split("|")
            rows[sub.strip(" `")] = tuple(re.findall(r"`(\w+)`", reads))
        # README leaves out the seed, which every run reads
        assert rows == {
            sub: tuple(key for key in reads if key != "seed")
            for sub, reads in cli.READS.items()
        }

    def test_model_keys_are_the_factory_parameters(self):
        assert [model_keys(name) for name in MODELS] == [
            (), ("a_coef", "b_coef", "sigma0", "x0"), ("x0",),
        ]
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert {key for name in MODELS for key in model_keys(name)} <= fields

    def test_each_model_key_has_one_default(self):
        # the library's factory and the CLI's config start a model alike
        defaults = RunConfig()
        for name, factory in MODELS.items():
            for key, parameter in inspect.signature(factory).parameters.items():
                assert parameter.default == getattr(defaults, key), (name, key)

    @pytest.mark.parametrize(
        "subcommand, name, parameters",
        [
            ("simulate", "simulate", ["model", "grid", "seed", "particles"]),
            (
                "convergence-dt", "strong_error_vs_dt",
                ["model", "particles", "delta_ref", "deltas", "tau", "alpha",
                 "horizon", "seed", "taming", "replicates"],
            ),
            (
                "convergence-particles", "chaos_error_vs_particles",
                ["model", "xis", "delta", "tau", "alpha", "horizon", "seed",
                 "taming", "replicates"],
            ),
            (
                "taming-compare", "taming_comparison",
                ["model", "delta", "particles", "tau", "horizon", "seed", "alpha"],
            ),
            ("empirical-rate", "empirical_measure_rate", ["dim", "xis", "mc_reps", "seed"]),
            # validate judges simulate's plan when the config names no run
            ("validate", "validate", ["model", "grids", "segments"]),
        ],
    )
    def test_dispatch_calls_the_name_bound_at_run_time(
        self, tmp_path, monkeypatch, subcommand, name, parameters
    ):
        calls = []

        class Called(Exception):
            pass

        bind = inspect.signature(getattr(cli, name)).bind

        def recorder(*args, **kwargs):
            calls.append(bind(*args, **kwargs).arguments)
            raise Called

        monkeypatch.setattr(cli, name, recorder)
        model = "cubic_no_mf" if subcommand == "taming-compare" else "example51"
        overrides = {"seed": 9, "model": model, "outdir": str(tmp_path)}
        run = cli.judge if subcommand == "validate" else cli.dispatch
        with pytest.raises(Called):
            run(parse(None, overrides, subcommand))
        assert [list(kwargs) for kwargs in calls] == [parameters]
        args = calls[0]
        if "model" in args:
            assert args["model"].name == model
        if "grid" in args:
            assert args["grid"] == Grid(2.0**-11, 2.0**-5, 0.5, 1.0, True)
        if "grids" in args:
            assert args["grids"] == [Grid(2.0**-11, 2.0**-5, 0.5, 1.0, True)]
        if "segments" in args:
            assert args["segments"] == [(9, 1000)]


class TestValidateJudgesTheRun:
    """validate judges the run its config names, as that run judges itself:
    the same keys, the same plan, the same verdict."""

    def test_judges_what_each_shipped_run_validates(self, tmp_path, monkeypatch):
        judged, ran = [], []

        class Stop(Exception):
            pass

        def recorder(seen, verdict):
            def record(model, grids, segments):
                seen.append((model.name, list(grids), list(segments)))
                return verdict()

            return record

        def stop(*args, **kwargs):
            raise Stop  # before the run draws anything

        monkeypatch.setattr(cli, "validate", recorder(judged, list))
        monkeypatch.setattr(scheme, "validate", recorder(ran, stop))
        monkeypatch.setattr(experiments, "derived_generator", stop)
        paths = sorted(CONFIGS.glob("*.cfg"))
        assert len(paths) == 7
        for path in paths:
            del judged[:], ran[:]
            out = tmp_path / path.stem
            assert main(["validate", "--config", str(path), "--outdir", str(out)]) == 0
            with pytest.raises(Stop):
                cli.dispatch(parse(path, {"outdir": str(out)}))
            # one study, one validate call; the rate study runs no pass
            assert judged == ran, path.name
            assert len(ran) == (not path.name.startswith("empirical_rate")), path.name

    def test_refuses_the_study_the_run_refuses(self, tmp_path, capsys):
        # a 0.0234375 step divides neither tau nor the horizon: validate once
        # judged the delta grid alone and printed ok
        flags = [*FIGURE1, "--deltas", "0.0234375"]
        assert main(["convergence-dt", *flags, "--outdir", str(tmp_path / "r")]) == 2
        refused = capsys.readouterr()
        out = tmp_path / "v"
        assert main(["validate", *flags, "--outdir", str(out)]) == 2
        assert capsys.readouterr() == refused
        assert refused.out == "" and refused.err == (
            "violation: tau/delta = 1.3333333333333333 is not a positive integer\n"
            "violation: horizon/delta = 42.666666666666664 is not a positive integer\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--model", "cubic_no_mf"], ["--x0", "3"]])
    def test_refuses_a_key_the_run_does_not_read(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        path = CONFIGS / "empirical_rate_d5.cfg"
        argv = ["validate", "--config", str(path), *flags, "--outdir", str(out)]
        assert main(argv) == 1
        key = flags[0].removeprefix("--")
        assert f"empirical-rate does not read key {key!r}" in capsys.readouterr().err
        assert not out.exists()


class TestRefusedInAFreshProcess:
    """Inputs that once crashed or hung a run: each exits with its code and
    message well before the timeout, and writes no CSV; one refused with
    exit 1 writes no config echo either."""

    @pytest.mark.parametrize(
        "argv, rc, message",
        [
            (
                ["convergence-dt", "--particles", "0", "--delta-ref", "0.125",
                 "--deltas", "0.25", "--tau", "0.5"],
                1, "particles must be >= 1, got 0",
            ),
            (
                ["convergence-dt", "--particles=-5", "--delta-ref", "0.125",
                 "--deltas", "0.25", "--tau", "0.5"],
                1, "particles must be >= 1, got -5",
            ),
            (["convergence-particles", "--xis=0"], 1, "sample sizes must be >= 1, got 0"),
            (["convergence-particles", "--xis=-5"], 1, "sample sizes must be >= 1, got -5"),
            (["empirical-rate", "--xis=-3,4"], 1, "sample sizes must be >= 1, got -3"),
            (["empirical-rate", "--xis", "0,4"], 1, "sample sizes must be >= 1, got 0"),
            (["validate", "--tau", "1e6"], 2, "exceeds the cap of 1048576 steps"),
            (
                ["convergence-dt", "--delta-ref", "1e-300"],
                2, "exceeds the cap of 1048576 steps",
            ),
            (["simulate", "--particles", "0"], 1, "particles must be >= 1, got 0"),
            (
                ["taming-compare", "--model", "cubic_no_mf", "--particles", "0"],
                1, "particles must be >= 1, got 0",
            ),
            (["validate", "--particles", "0"], 1, "particles must be >= 1, got 0"),
            # tau <= 0 is false for nan: simulate died in Grid.delay_steps
            (
                ["simulate", "--tau", "nan", "--particles", "3"],
                2, "violation: tau must be positive, got nan",
            ),
            (["validate", "--tau", "nan"], 2, "violation: tau must be positive, got nan"),
            # a non-finite model parameter once ran into an overflow abort
            # (exit 3, with a prefix of nan rows) or validated as ok
            (
                ["simulate", "--model", "cubic_no_mf", "--x0", "nan", "--particles", "2"],
                1, "x0 must be a finite real number, got nan",
            ),
            (
                ["validate", "--model", "linear_meanfield", "--b-coef", "inf"],
                1, "b_coef must be a finite real number, got inf",
            ),
        ],
    )
    def test_exits_before_the_timeout(self, tmp_path, argv, rc, message):
        root = Path(__file__).resolve().parent.parent
        paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        out = tmp_path / "o"
        done = subprocess.run(
            [sys.executable, "-m", "mvnsdde", *argv, "--seed", "1",
             "--outdir", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == rc, done.stderr
        assert message in done.stdout + done.stderr
        assert not list(out.glob("*.csv"))
        if rc == 1:  # refused while parsing, before the echo
            assert not (out / "config.echo").exists()


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["mvnsdde", "mvnsdde.cli"])
    def test_python_m_runs_the_cli(self, tmp_path, module):
        root = Path(__file__).resolve().parent.parent
        paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        argv = [sys.executable, "-m", module, "validate", "--seed", "3"]
        done = subprocess.run(
            argv + ["--outdir", str(tmp_path / "o")], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"
        done = subprocess.run(
            argv + ["--frobnicate", "1"], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 1
        assert "frobnicate" in done.stderr


class TestOutputs:
    def test_simulate_writes_grid(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, SMALL_SIM)
        rc = main(["--config", str(cfg), "--outdir", str(out)])
        assert rc == 0
        lines = (out / "grid.csv").read_text().strip().split("\n")
        assert lines[0] == "t,particle,comp0"
        assert len(lines) == 1 + 8 * (8 + 64 + 1)

    def test_config_echo_reruns_identically(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_cfg(tmp_path, SMALL_SIM)
        assert main(["--config", str(cfg), "--outdir", str(out1)]) == 0
        assert (
            main(
                [
                    "--config", str(out1 / "config.echo"),
                    "--outdir", str(out2),
                ]
            )
            == 0
        )
        assert (out1 / "grid.csv").read_bytes() == (out2 / "grid.csv").read_bytes()
        echo1 = (out1 / "config.echo").read_text()
        echo2 = (out2 / "config.echo").read_text()
        assert [
            line for line in echo1.splitlines() if not line.startswith("outdir")
        ] == [line for line in echo2.splitlines() if not line.startswith("outdir")]

    def test_echo_contains_every_key(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, SMALL_SIM)
        main(["--config", str(cfg), "--outdir", str(out)])
        echo = (out / "config.echo").read_text()
        for key in (
            "subcommand", "model", "delta", "deltas", "xis", "seed",
            "taming", "outdir", "mc_reps",
        ):
            assert f"{key} = " in echo

    def test_noise_budget_does_not_change_outputs(self, tmp_path, monkeypatch):
        # 16 numbers a block draw the 64 steps of 8 particles 2 at a time;
        # the default draws them in one block
        outs = []
        cfg = write_cfg(tmp_path, SMALL_SIM)
        for budget in (2**4, noise._CHUNK_ELEMENTS):
            monkeypatch.setattr(noise, "_CHUNK_ELEMENTS", budget)
            out = tmp_path / f"b{budget}"
            rc = main(["--config", str(cfg), "--outdir", str(out)])
            assert rc == 0
            outs.append((out / "grid.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_convergence_dt_outputs(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "convergence-dt", "--seed", "77", "--particles", "30",
                "--delta-ref", "0.001953125",
                "--deltas", "0.00390625,0.0078125",
                "--horizon", "0.25", "--outdir", str(out),
            ]
        )
        assert rc == 0
        for suffix in (".csv", ".summary.json", ".gp"):
            assert (out / f"convergence_dt{suffix}").exists()
        summary = json.loads((out / "convergence_dt.summary.json").read_text())
        assert summary["config"]["seed"] == 77
        assert isinstance(summary["slope"], float)
        assert summary["peak_rss_mb"] > 0.0

    def test_empirical_rate_outputs(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "empirical-rate", "--seed", "3", "--dim", "1",
                "--xis", "8,32", "--mc-reps", "10", "--outdir", str(out),
            ]
        )
        assert rc == 0
        table = (out / "empirical_rate.csv").read_text().strip().split("\n")
        assert len(table) == 3
        # the column holds E W2^2, which falls like 1/n in dim 1
        gp = (out / "empirical_rate.gp").read_text()
        assert "with a slope -1.0 reference line" in gp
        assert " * x**(-1.0)" in gp

    def test_empirical_rate_d5_records_proxy(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "empirical-rate", "--seed", "3", "--dim", "5",
                "--xis", "8,16", "--mc-reps", "4", "--outdir", str(out),
            ]
        )
        assert rc == 0
        summary = json.loads((out / "empirical_rate.summary.json").read_text())
        assert "proxy" in summary["notes"]
        # and like n^(-2/5) in dim 5
        assert " * x**(-0.4)" in (out / "empirical_rate.gp").read_text()

    def test_peak_rss_is_the_runs_own(self, tmp_path):
        # on Linux a process started by vfork+exec inherits its parent's
        # ru_maxrss, so run the CLI from a parent that holds about 200 MiB
        root = Path(__file__).resolve().parent.parent
        paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        parent = (
            "import subprocess, sys\n"
            "held = b'x' * (200 * 2**20)\n"
            "argv = [sys.executable, '-m', 'mvnsdde', *sys.argv[1:]]\n"
            "sys.exit(subprocess.run(argv).returncode)\n"
        )
        out = tmp_path / "o"
        done = subprocess.run(
            [sys.executable, "-c", parent, "empirical-rate", "--seed", "1",
             "--xis", "4,8", "--mc-reps", "2", "--outdir", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        summary = json.loads((out / "empirical_rate.summary.json").read_text())
        assert 0.0 < summary["peak_rss_mb"] < 150.0

    def test_peak_rss_without_proc_reads_rusage(self, monkeypatch):
        def no_proc(*args, **kwargs):
            raise FileNotFoundError("no /proc")

        monkeypatch.setattr(experiments, "open", no_proc, raising=False)
        peak_rss_mb = experiments.peak_rss_mb()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert peak_rss_mb == peak

    def test_outdir_env_fallback_run(self, tmp_path, monkeypatch):
        envdir = tmp_path / "from-env"
        monkeypatch.setenv("MVNSDDE_OUTDIR", str(envdir))
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, SMALL_SIM)
        assert main(["--config", str(cfg)]) == 0
        assert (envdir / "grid.csv").exists()


class TestConfigEcho:
    # sha256 of echo_text(parse(<config>, {"outdir": "out"})), computed
    # before the keys, defaults and flags were derived from RunConfig, when
    # the echo still held a ``moment_order_p = 12`` line after ``taming`` and
    # ended in the line of ``workers``; both keys were removed since.
    ECHO_SHA256 = {
        "chaos.cfg": "98b54c6451cd029317180bfbf511a52d0f6e0047bea4aa287bf077c00454669d",
        "empirical_rate_d1.cfg": "1c01b04257b34f550c99442440e0c0948aceab86ce46534e74dd4b673bb477a2",
        "empirical_rate_d5.cfg": "3831012ab9b95ddba64a0f5ccbd81e8a7267281a69f99f778fc270144eb77c03",
        "figure1.cfg": "61a368f10be2a7128fbff48f0ec723d34827523643374ee2e6fb91c547fb3b4c",
        "meanfield_oracle.cfg": "f618a8af61a697380427f954561e17c69b5ef9d94e08f8fd103e0a60c861e60b",
        "simulate_small.cfg": "bfb4310d04fc0b796271d21fb6279f41f32489e2df55e594d12c832a72c844d9",
        "taming.cfg": "ee5a902a7cc0dcc0192b9ca7477419521d754526246681164e5ca611861937ce",
    }

    # one non-default value per key, as a flag value; taming goes by --no-taming
    FLAG_VALUES = {
        "model": "linear_meanfield",
        "a_coef": "-2.5",
        "b_coef": "0.75",
        "sigma0": "0.1",
        "x0": "1.25",
        "delta": "0.125",
        "delta_ref": "0.03125",
        "deltas": "0.0625, 0.125",
        "tau": "0.25",
        "alpha": "0.25",
        "particles": "3",
        "xis": "2,4,8",
        "horizon": "0.5",
        "seed": str(2**64 - 1),
        "mc_reps": "7",
        "replicates": "2",
        "dim": "5",
    }

    def test_echo_bytes_of_shipped_configs(self, monkeypatch):
        monkeypatch.delenv("MVNSDDE_OUTDIR", raising=False)
        paths = sorted(CONFIGS.glob("*.cfg"))
        assert [p.name for p in paths] == sorted(self.ECHO_SHA256)
        for path in paths:
            text = echo_text(parse(path, {"outdir": "out"}))
            assert "workers" not in text and "moment_order_p" not in text
            text = re.sub(
                r"^(taming = \w+\n)", r"\1moment_order_p = 12\n", text, flags=re.M
            )
            digest = hashlib.sha256((text + "workers = 1\n").encode()).hexdigest()
            assert digest == self.ECHO_SHA256[path.name], path.name

    # runs that together read every key, model keys at linear_meanfield's
    ROUND_TRIPS = (
        "simulate", "convergence-dt", "convergence-particles", "empirical-rate",
    )

    def test_every_key_round_trips_through_its_flag(self, tmp_path):
        fields = dataclasses.fields(RunConfig)
        flagged = set(self.FLAG_VALUES) | {"subcommand", "taming", "outdir"}
        assert flagged == {f.name for f in fields}
        tripped = {"subcommand", "outdir"}
        for sub in self.ROUND_TRIPS:
            reads = cli.READS[sub]
            if "model" in reads:
                reads += model_keys(self.FLAG_VALUES["model"])
            out = tmp_path / sub
            path = write_cfg(tmp_path, f"subcommand = {sub}\n", f"{sub}.cfg")
            argv = ["validate", "--config", str(path), "--outdir", str(out)]
            overrides = {"outdir": str(out)}
            for key in reads:
                if key == "taming":
                    argv.append("--no-taming")
                    overrides[key] = False
                else:
                    argv += ["--" + key.replace("_", "-"), self.FLAG_VALUES[key]]
                    overrides[key] = self.FLAG_VALUES[key]
            # only an accepted validate writes config.echo
            assert main(argv) == 0, sub
            cfg = parse(out / "config.echo")
            assert all(getattr(cfg, key) != getattr(RunConfig(), key) for key in reads)
            assert cfg == parse(path, overrides, subcommand="validate")
            assert parse(write_cfg(tmp_path, echo_text(cfg), "again.cfg")) == cfg
            tripped |= set(reads)
        assert tripped == {f.name for f in fields}


class TestGoldenBytes:
    """sha256 of grid exports pinned from the line-by-line f-string export.

    A rerun comparison cannot see a format change that both runs share;
    these digests can.
    """

    @staticmethod
    def _sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_simulate_small_grid(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "--config", str(CONFIGS / "simulate_small.cfg"),
                "--outdir", str(out),
            ]
        )
        assert rc == 0
        assert self._sha256(out / "grid.csv") == (
            "b21a398de3c521dce0189fa94dca9b72e4b81eb99393ecc0eab472a08614997c"
        )

    def test_overflow_partial_grid(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "simulate", "--model", "cubic_no_mf", "--x0", "5.0",
                "--delta", "0.25", "--tau", "0.5", "--horizon", "4.0",
                "--particles", "10", "--seed", "11", "--no-taming",
                "--outdir", str(out),
            ]
        )
        assert rc == 3
        assert self._sha256(out / "grid.partial.csv") == (
            "2cec85fdedb1b0f1909ad7df4e6b2eb28560fad3e4ac462de8051e6e5e683a17"
        )


class TestStudyGoldenBytes:
    """Study outputs pinned from earlier implementations.

    The step-size, particle, moment and taming outputs were computed with
    the materialize-then-coarsen implementation, before the studies
    streamed their noise and advanced every coupled run in one pass.  The
    ``empirical-rate`` digests were computed with the assignment solver
    started from zero duals, before it got reduced costs.
    """

    def test_convergence_dt_csv(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "--config", str(CONFIGS / "figure1.cfg"),
                "--delta-ref", repr(2.0**-10),
                "--deltas", ",".join(repr(2.0**-k) for k in (9, 8, 7, 6)),
                "--particles", "100", "--replicates", "2",
                "--outdir", str(out),
            ]
        )
        assert rc == 0
        assert TestGoldenBytes._sha256(out / "convergence_dt.csv") == (
            "b57d4b214b6cad1a3e3396678554b0b30bb8a6fc48fe9d5ae442daa44d5e29bb"
        )

    def test_convergence_particles_csv(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "--config", str(CONFIGS / "chaos.cfg"),
                "--xis", "8,32,128", "--delta", repr(2.0**-7),
                "--replicates", "2", "--outdir", str(out),
            ]
        )
        assert rc == 0
        assert TestGoldenBytes._sha256(out / "convergence_particles.csv") == (
            "8d108eeca8088c140a15c9ec1c07f66aee642fb4b449abfc816961bc55a5209e"
        )

    @pytest.mark.parametrize(
        "dim, xis, digest",
        [
            (1, "16,64",
             "714f7d51bdd0be146a6a25c4fa8b2ea7cc08a1e49b4cae0011ac5a5598a8019f"),
            (5, "16,64,128",
             "a940fef124a5963ff04b9fe2c125f42dc21d7b30587853cc1ce5ed30ec7523fb"),
        ],
    )
    def test_empirical_rate_csv(self, tmp_path, dim, xis, digest):
        out = tmp_path / "o"
        rc = main(
            [
                "--config", str(CONFIGS / f"empirical_rate_d{dim}.cfg"),
                "--xis", xis, "--mc-reps", "5", "--outdir", str(out),
            ]
        )
        assert rc == 0
        assert TestGoldenBytes._sha256(out / "empirical_rate.csv") == digest

    def test_moment_bound_rows(self):
        rows = moment_bound_vs_dt(
            example51(), particles=50, deltas=[2.0**-k for k in (6, 7, 8, 9)],
            tau=2.0**-5, alpha=0.5, horizon=1.0, seed=31, p=4,
        )
        assert repr(rows) == (
            "[(0.001953125, 0.0006626606234367835, 468), "
            "(0.00390625, 0.0006012203398980252, 234), "
            "(0.0078125, 0.0006134922833398621, 117), "
            "(0.015625, 0.0004500041681994178, 58)]"
        )

    def test_taming_report(self):
        rep = taming_comparison(
            cubic_no_mf(x0=5.0), delta=0.25, particles=200, tau=0.5,
            horizon=1.0, seed=2,
        )
        assert repr(rep) == (
            "TamingReport(tamed_max_moment=62.630200909875875, "
            "tamed_argmax_index=4, untamed_divergence_fraction=1.0, "
            "untamed_diverged_count=200, first_divergence_step=3, "
            "particles=200, divergence_threshold=10000000000.0)"
        )


class TestReplicatesFlag:
    def test_forwarded_to_experiment(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "convergence-dt", "--seed", "77", "--particles", "10",
                "--delta-ref", "0.001953125", "--deltas", "0.0078125,0.015625",
                "--horizon", "0.25", "--replicates", "2",
                "--outdir", str(out),
            ]
        )
        assert rc == 0
        rows = (out / "convergence_dt.csv").read_text().strip().split("\n")[1:]
        assert all(row.endswith(",20") for row in rows)

    def test_zero_rejected(self, tmp_path):
        rc = main(
            [
                "convergence-dt", "--seed", "1", "--replicates", "0",
                "--outdir", str(tmp_path / "o"),
            ]
        )
        assert rc == 1


class TestBenchmarkTracer:
    """perfbench/spans.py rebinds package names by hand; a renamed or
    deleted name must fail here, not only under ``run.py --trace 1``."""

    def _traced(self, argv):
        """The exit status, counts and call counts of a traced CLI run."""
        root = Path(__file__).resolve().parent.parent
        code = (
            "import json, sys\n"
            "sys.path.insert(0, 'perfbench')\n"
            "import mvnsdde.cli as cli\n"
            "from spans import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install(cli)\n"
            "rc = cli.main(sys.argv[1:])\n"
            "calls = {name: rec[0] for name, rec in tracer.calls.items()}\n"
            "print(json.dumps([rc, tracer.counts, calls]))\n"
        )
        paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], cwd=root, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_tracer_installs_and_counts_a_run(self, tmp_path):
        argv = [
            "simulate", "--seed", "4", "--particles", "3", "--delta", "0.25",
            "--tau", "0.5", "--horizon", "1.0", "--outdir", str(tmp_path / "o"),
        ]
        rc, counts, calls = self._traced(argv)
        assert rc == 0
        assert counts["scheme.run.particle_steps"] == 3 * 4
        assert [calls[k] for k in ("scheme.run", "scheme.em_step", "scheme.export")] == [1, 4, 1]

    def test_tracer_sees_one_validation_per_study(self, tmp_path):
        # two replicates at three step sizes: the study's one pass call
        # validates the study once, where the benchmark's span times it
        argv = [
            "convergence-dt", "--seed", "4", "--particles", "3",
            "--delta-ref", "0.0625", "--deltas", "0.125,0.25", "--tau", "0.5",
            "--horizon", "1.0", "--replicates", "2", "--outdir", str(tmp_path / "o"),
        ]
        rc, counts, calls = self._traced(argv)
        assert rc == 0
        assert calls["model.validate"] == 1
        assert counts["scheme.run.particle_steps"] == 2 * 3 * (16 + 8 + 4)

    def test_tracer_sees_the_gathered_particle_study(self, tmp_path):
        # two replicates of three nested sizes: each pass gathers every
        # system's leading streams from its seed's one draw
        argv = [
            "convergence-particles", "--seed", "4", "--xis", "2,3,5",
            "--delta", "0.0625", "--tau", "0.125", "--horizon", "1.0",
            "--replicates", "2", "--outdir", str(tmp_path / "o"),
        ]
        rc, counts, calls = self._traced(argv)
        assert rc == 0
        assert calls["model.validate"] == 1
        assert counts["scheme.run.particle_steps"] == 16 * 2 * (2 + 3 + 5)
