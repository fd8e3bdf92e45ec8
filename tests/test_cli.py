"""CLI parsing, dispatch, exit codes, and output determinism."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from mvnsdde import example51, moment_bound_vs_dt, noise, taming_comparison
from mvnsdde.cli import RunConfig, echo_text, main, parse
from mvnsdde.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 1\n# later\nseed = 2\n")
        with pytest.raises(ConfigError, match=r":3: key 'seed' already set on line 1"):
            parse(path, subcommand="validate")

    def test_typed_list_overrides(self):
        cfg = parse(
            None, {"xis": (2, 4), "deltas": [0.5, 0.25], "seed": 1},
            subcommand="validate",
        )
        assert cfg.xis == (2, 4)
        assert cfg.deltas == (0.5, 0.25)
        text = {"xis": "2,4", "deltas": "0.5, 0.25", "seed": "1"}
        assert parse(None, text, subcommand="validate") == cfg

    def test_workers_is_an_unknown_key(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 1\nworkers = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'workers'"):
            parse(path, subcommand="validate")
        assert main(["validate", "--seed", "1", "--workers", "2"]) == 1

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_cfg(tmp_path, "# a comment\n\nseed = 9  # trailing\n")
        cfg = parse(path, subcommand="validate")
        assert cfg.seed == 9

    def test_subcommand_from_file(self, tmp_path):
        path = write_cfg(tmp_path, "subcommand = validate\nseed = 1\n")
        assert parse(path).subcommand == "validate"

    def test_missing_subcommand(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 1\n")
        with pytest.raises(Exception, match="subcommand"):
            parse(path)

    def test_list_parsing(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 1\nxis = 2,4, 8\n")
        cfg = parse(path, subcommand="validate")
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

    def test_missing_seed_is_1(self, tmp_path):
        rc = main(["simulate", "--outdir", str(tmp_path / "o")])
        assert rc == 1

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
    # the echo still ended in the line of the since removed ``workers`` key.
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
        "moment_order_p": "4",
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
            assert "workers" not in text
            digest = hashlib.sha256((text + "workers = 1\n").encode()).hexdigest()
            assert digest == self.ECHO_SHA256[path.name], path.name

    def test_every_key_round_trips_through_its_flag(self, tmp_path):
        fields = dataclasses.fields(RunConfig)
        flagged = set(self.FLAG_VALUES) | {"subcommand", "taming", "outdir"}
        assert flagged == {f.name for f in fields}
        out = tmp_path / "o"
        argv = ["validate", "--no-taming", "--outdir", str(out)]
        for key, value in self.FLAG_VALUES.items():
            argv += ["--" + key.replace("_", "-"), value]
        main(argv)  # config.echo is written before the run, whatever its status
        cfg = parse(out / "config.echo")
        assert all(getattr(cfg, f.name) != f.default for f in fields)
        overrides = dict(self.FLAG_VALUES, taming=False, outdir=str(out))
        assert cfg == parse(None, overrides, subcommand="validate")
        assert parse(write_cfg(tmp_path, echo_text(cfg), "again.cfg")) == cfg


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
            x0=5.0, delta_coarse=0.25, particles=200, tau=0.5, horizon=1.0,
            seed=2,
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
