"""Command-line behaviour: exit codes, the missingness text format, and
byte-identical reruns of whole command chains."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mnar_dre import cli, dataio
from mnar_dre.model import (
    Dataset,
    LogisticScalar,
    LogLinearRatioModel,
    MissingnessFunction,
)
from mnar_dre.scenarios import SCENARIO_NAMES, generate, make_scenario

SRC = Path(cli.__file__).resolve().parents[1]


def _run_fresh(*argv: str) -> None:
    """Run the CLI in a new interpreter (addresses change between processes)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "mnar_dre.cli", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Latent, corrupted-train, calibration and test CSVs plus a fitted model."""
    d = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    n = 300

    def pair():
        return (
            Dataset(rng.normal(0.0, 1.0, size=(n, 2)), 0),
            Dataset(rng.normal(0.5, 1.0, size=(n, 2)), 1),
        )

    latent0, latent1 = pair()
    phi1 = MissingnessFunction.per_coordinate(
        [LogisticScalar(a0=-0.5, a1=1.0), LogisticScalar(a0=-1.0, a1=0.5)]
    )
    train1 = dataio.corrupt_dataset(latent1, phi1, rng)
    paths = {name: str(d / f"{name}.csv") for name in ("latent", "train", "cal", "test")}
    dataio.write_dataset_csv(paths["latent"], latent0, latent1)
    dataio.write_dataset_csv(paths["train"], latent0, train1)
    dataio.write_dataset_csv(paths["cal"], *pair())
    dataio.write_dataset_csv(paths["test"], *pair())
    paths["dir"] = d
    paths["model"] = str(d / "model.txt")
    paths["clf"] = str(d / "clf.txt")
    assert cli.main(["fit", "--mode", "kliep", "--data", paths["latent"],
                     "--out", paths["model"]]) == 0
    assert cli.main(["np-calibrate", "--model", paths["model"], "--calibration",
                     paths["cal"], "--alpha", "0.2", "--delta", "0.2",
                     "--out", paths["clf"]]) == 0
    return paths


class TestExperimentTable:
    @pytest.fixture(scope="class")
    def tables(self, tmp_path_factory):
        """One table per run: a first run, a rerun, and a rerun on 2 workers."""
        d = tmp_path_factory.mktemp("tables")
        args = ("experiment", "msd", "--scenario", "gauss5d", "--n", "200", "--reps", "3")
        out = {}
        for name, extra in (("first", ()), ("rerun", ()), ("workers2", ("--workers", "2"))):
            path = d / f"{name}.csv"
            _run_fresh(*args, *extra, "--out", str(path))
            out[name] = path.read_bytes()
        return out

    def test_rerun_in_fresh_process_is_byte_identical(self, tables):
        assert tables["first"] == tables["rerun"]

    def test_worker_count_does_not_change_table(self, tables):
        assert tables["first"] == tables["workers2"]


class TestMissingnessText:
    def test_induced_phi_round_trips_exactly(self):
        grid = np.linspace(-6.0, 6.0, 241)
        checked = 0
        for name in SCENARIO_NAMES:
            phi = make_scenario(name).induced_phi
            if phi.joint:
                continue  # only per-coordinate missingness has a text form
            text = dataio.missingness_to_text(phi)
            assert "np." not in text
            back = dataio.missingness_from_text(text)
            assert back.dim == phi.dim
            for j in range(phi.dim):
                assert np.array_equal(back.coord_prob(j, grid), phi.coord_prob(j, grid))
            checked += 1
        assert checked >= 2

    @pytest.mark.parametrize(
        "line",
        [
            "0 = logistic np.float64(0.4472135954999579) 1.0 -1",
            "0 = logistic 0.5 1.0",
            "0 = constant 1.5",
            "0 = step 0.0 0.8 sideways",
            "x = zero",
            "-1 = zero",
            "5 = zero",
            "0 =",
            "dims = 3",  # a second dims line
            "0 = zero\n00 = constant 0.5",  # coordinate 0 twice
        ],
    )
    def test_malformed_line_exits_3(self, files, line, capsys):
        bad = files["dir"] / "bad-phi.txt"
        bad.write_text(f"dims = 2\n{line}\n")
        fit = ["fit", "--mode", "mkliep", "--data", files["train"], "--phi", str(bad),
               "--out", str(files["dir"] / "unused-model.txt")]
        calibrate = ["np-calibrate", "--model", files["model"], "--calibration",
                     files["cal"], "--alpha", "0.2", "--delta", "0.2", "--phi0",
                     str(bad), "--out", str(files["dir"] / "unused-clf.txt")]
        assert cli.main(fit) == 3
        assert cli.main(calibrate) == 3
        assert "data error" in capsys.readouterr().err


class TestExitCodes:
    def test_classify_on_missing_entries_exits_3(self, files, capsys):
        out = str(files["dir"] / "labels-exit.csv")
        rc = cli.main(["classify", "--classifier", files["clf"], "--data",
                       files["train"], "--out", out])
        assert rc == 3
        assert "class 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_classifier_with_other_transform_exits_3(self, files):
        text = Path(files["clf"]).read_text()
        assert "\ntransform = log\n" in text
        other = files["dir"] / "clf-exp.txt"
        other.write_text(text.replace("\ntransform = log\n", "\ntransform = exp\n"))
        rc = cli.main(["classify", "--classifier", str(other), "--data",
                       files["test"], "--out", str(files["dir"] / "unused-labels.csv")])
        assert rc == 3

    @pytest.mark.parametrize(
        "text, row",
        [
            ('f0,f1,label\n1.0,2.0,0\n"1{big}",2.0,1\n', 3),
            ('"f{big}",f1,label\n1.0,2.0,0\n', 1),
        ],
    )
    def test_field_over_the_csv_size_limit_exits_3(self, files, text, row, capsys):
        # A quoted field of 140,000 characters is past the csv module's limit.
        bad = files["dir"] / "huge-field.csv"
        bad.write_text(text.format(big="1" * 140_000))
        rc = cli.main(["fit", "--mode", "kliep", "--data", str(bad), "--out",
                       str(files["dir"] / "unused-model.txt")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"row {row}: unreadable CSV row" in err
        assert "field larger than field limit" in err

    def test_diverged_fit_exits_4_and_writes_no_model(self, tmp_path, capsys):
        # Five coordinates, 100 points per class and classes 1.5 apart per
        # coordinate: the class-1 mean lies outside the class-0 sample's hull,
        # the complete-case fit runs theta into the hundreds, and exp
        # overflows in the normalizer.
        rng = np.random.default_rng(0)
        data, model = tmp_path / "far.csv", tmp_path / "model.txt"
        dataio.write_dataset_csv(
            data,
            Dataset(rng.normal(0.0, 1.0, size=(100, 5)), 0),
            Dataset(rng.normal(1.5, 1.0, size=(100, 5)), 1),
        )
        rc = cli.main(["fit", "--mode", "cckliep", "--data", str(data),
                       "--out", str(model)])
        assert rc == 4
        assert "normalizing constant" in capsys.readouterr().err
        assert not model.exists()

    def test_learn_phi_negative_queries_exits_3(self, files):
        rc = cli.main(["learn-phi", "--data", files["train"], "--latent",
                       files["latent"], "--queries", "-1", "--out",
                       str(files["dir"] / "unused-phi.txt")])
        assert rc == 3


def _replace_line(text: str, key: str, new_line: str | None) -> str:
    """Swap (or drop, with None) the ``key = ...`` line of a key-value file."""
    lines = text.splitlines()
    hits = [i for i, line in enumerate(lines) if line.split(" = ")[0] == key]
    assert len(hits) == 1, key
    lines[hits[0] : hits[0] + 1] = [] if new_line is None else [new_line]
    return "\n".join(lines) + "\n"


class TestMalformedModelFiles:
    @pytest.mark.parametrize(
        "key, line",
        [
            ("theta", None),
            ("theta", "theta = 0.1,abc"),
            ("theta", "theta = 0.1,0.2,0.3"),  # two features
            ("input_dim", "input_dim = two"),
            ("normalizer", "normalizer = inf"),
        ],
    )
    def test_np_calibrate_on_bad_model_exits_3(self, files, key, line, capsys):
        bad = files["dir"] / "bad-model.txt"
        bad.write_text(_replace_line(Path(files["model"]).read_text(), key, line))
        rc = cli.main(["np-calibrate", "--model", str(bad), "--calibration",
                       files["cal"], "--alpha", "0.2", "--delta", "0.2",
                       "--out", str(files["dir"] / "unused-clf.txt")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error" in err and key in err

    @pytest.mark.parametrize(
        "key, line",
        [
            ("threshold", None),
            ("threshold", "threshold = high"),
            ("alpha", "alpha = 0.2x"),
            ("degenerate", "degenerate = maybe"),
            ("model.theta", None),
            ("model.theta", "model.theta = 0.1,abc"),
            ("model.normalizer", "model.normalizer = inf"),
        ],
    )
    def test_classify_on_bad_classifier_exits_3(self, files, key, line, capsys):
        bad = files["dir"] / "bad-clf.txt"
        bad.write_text(_replace_line(Path(files["clf"]).read_text(), key, line))
        rc = cli.main(["classify", "--classifier", str(bad), "--data", files["test"],
                       "--out", str(files["dir"] / "unused-labels.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error" in err and key in err

    @pytest.mark.parametrize("kind", ["model", "clf"])
    def test_line_without_equals_exits_3(self, files, kind, capsys):
        lines = Path(files[kind]).read_text().splitlines()
        lines.insert(2, "stray words")
        bad = files["dir"] / f"no-equals-{kind}.txt"
        bad.write_text("\n".join(lines) + "\n")
        out = files["dir"] / f"no-equals-{kind}.out"
        if kind == "model":
            argv = ["np-calibrate", "--model", str(bad), "--calibration", files["cal"],
                    "--alpha", "0.2", "--delta", "0.2", "--out", str(out)]
        else:
            argv = ["classify", "--classifier", str(bad), "--data", files["test"],
                    "--out", str(out)]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "line 3: expected 'key = value', got 'stray words'" in err
        assert not out.exists()


    @pytest.mark.parametrize("kind", ["model", "clf"])
    def test_repeated_key_exits_3(self, files, kind, capsys):
        # The second line must not silently win over the fitted one.
        key = "theta" if kind == "model" else "model.theta"
        lines = Path(files[kind]).read_text().splitlines()
        first = 1 + next(i for i, line in enumerate(lines) if line.startswith(key + " "))
        lines.append(f"{key} = 5.0,5.0")
        bad = files["dir"] / f"repeated-{kind}.txt"
        bad.write_text("\n".join(lines) + "\n")
        out = files["dir"] / f"repeated-{kind}.out"
        if kind == "model":
            argv = ["np-calibrate", "--model", str(bad), "--calibration", files["cal"],
                    "--alpha", "0.2", "--delta", "0.2", "--out", str(out)]
        else:
            argv = ["classify", "--classifier", str(bad), "--data", files["test"],
                    "--out", str(out)]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert f"lines {first} and {len(lines)}: key {key!r} given twice" in err
        assert not out.exists()


@pytest.fixture(scope="module")
def command_inputs(files):
    """A valid and a malformed file for each command's "{data}" argument."""
    d = files["dir"]
    bad_csv, cfg, bad_cfg = d / "exit-bad.csv", d / "exit.cfg", d / "exit-bad.cfg"
    bad_csv.write_text("f0,f1,label\n1.0,abc,0\n2.0,3.0,1\n")
    cfg.write_text("reps = 1\n")
    bad_cfg.write_text("reps 1\n")  # no '='
    table, empty_table = d / "exit-table.csv", d / "exit-empty-table.csv"
    dataio.write_table_csv(table, [{"n": 50, "msd_mean": 0.1, "ci_half": 0.01}],
                           meta={"command": "experiment-msd"})
    empty_table.write_text("# command=experiment-msd\nn,msd_mean,ci_half\n")
    csv_input = {"fit": "latent", "np-calibrate": "cal", "classify": "test",
                 "learn-phi": "train", "corrupt": "latent", "preprocess": "latent"}
    inputs = {command: (files[key], bad_csv) for command, key in csv_input.items()}
    inputs["experiment"] = (cfg, bad_cfg)
    inputs["emit-plot-data"] = (table, empty_table)
    return {command: tuple(map(str, pair)) for command, pair in inputs.items()}


# Per command: an argv that exits 0, with "{data}" at its input file, and a
# required flag to drop.
COMMANDS = {
    "fit": (["fit", "--mode", "kliep", "--data", "{data}"], "--mode"),
    "np-calibrate": (["np-calibrate", "--model", "{model}", "--calibration", "{data}",
                      "--alpha", "0.2", "--delta", "0.2"], "--calibration"),
    "classify": (["classify", "--classifier", "{clf}", "--data", "{data}"],
                 "--classifier"),
    "learn-phi": (["learn-phi", "--data", "{data}", "--latent", "{latent}",
                   "--queries", "20"], "--queries"),
    "corrupt": (["corrupt", "--preset", "paper-rwe", "--data", "{data}"], "--data"),
    "preprocess": (["preprocess", "--normalize", "--data", "{data}"], "--data"),
    "experiment": (["experiment", "msd", "--scenario", "gauss5d", "--n", "50",
                    "--config", "{data}"], "--scenario"),
    "emit-plot-data": (["emit-plot-data", "--table", "{data}"], "--table"),
}


class TestEveryCommand:
    """The exit-code contract of each of the 8 commands: 0 ok, 2 usage, 3 data."""

    @staticmethod
    def _out(files, command):
        return files["dir"] / f"every-{command}.out"

    def _argv(self, files, command_inputs, command, bad=False, drop=None):
        template, _ = COMMANDS[command]
        paths = {"data": command_inputs[command][bad], "model": files["model"],
                 "clf": files["clf"], "latent": files["latent"]}
        argv = [arg.format(**paths) for arg in template]
        if drop is not None:
            i = argv.index(drop)
            del argv[i : i + 2]
        return argv + ["--out", str(self._out(files, command))]

    @pytest.fixture(autouse=True)
    def _no_leftover_output(self, files):
        for command in COMMANDS:
            self._out(files, command).unlink(missing_ok=True)

    def test_commands_cover_the_parser(self):
        assert sorted(COMMANDS) == sorted(
            cli.build_parser()._subparsers._group_actions[0].choices
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_complete_argv_exits_0(self, files, command_inputs, command):
        argv = self._argv(files, command_inputs, command)
        assert cli.main(argv) == 0
        assert self._out(files, command).exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_required_flag_exits_2(self, files, command_inputs, command, capsys):
        flag = COMMANDS[command][1]
        argv = self._argv(files, command_inputs, command, drop=flag)
        assert cli.main(argv) == 2
        assert f"{flag} is required" in capsys.readouterr().err
        assert not self._out(files, command).exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_data_exits_3(self, files, command_inputs, command, capsys):
        argv = self._argv(files, command_inputs, command, bad=True)
        assert cli.main(argv) == 3
        assert "data error" in capsys.readouterr().err
        assert not self._out(files, command).exists()

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("np-calibrate", ["--split", "0.5"]),
            ("np-calibrate", ["--data", "f.csv"]),
            ("np-calibrate", ["--seed", "1"]),
            ("preprocess", ["--apply-transform", "t"]),
            ("emit-plot-data", ["--missing-token", "Q"]),
            ("emit-plot-data", ["--label-column", "y"]),
        ],
    )
    def test_deleted_flag_exits_2(self, files, command_inputs, command, extra, capsys):
        argv = self._argv(files, command_inputs, command) + extra
        assert cli.main(argv) == 2
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
        assert not self._out(files, command).exists()

    @pytest.mark.parametrize(
        "command, key",
        [("np-calibrate", "split"), ("np-calibrate", "seed"), ("np-calibrate", "data"),
         ("preprocess", "apply-transform"), ("emit-plot-data", "missing-token"),
         ("emit-plot-data", "label-column")],
    )
    def test_deleted_config_key_exits_2(self, files, command_inputs, command, key, capsys):
        cfg = files["dir"] / f"deleted-{key}.cfg"
        cfg.write_text(f"{key} = 1\n")
        argv = self._argv(files, command_inputs, command) + ["--config", str(cfg)]
        assert cli.main(argv) == 2
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
        assert not self._out(files, command).exists()


# A valid value for each flag that some experiment kind refuses.
REFUSED_VALUES = {"--alpha": "0.3", "--delta": "0.1", "--n-test": "5", "--n-type1": "5",
                  "--calibration-n": "5", "--rule": "binomial", "--queries": "7",
                  "--missing-token": "ZZZ", "--label-column": "y"}
# msd fits no classifier, so it takes no level, rule, test-set or query flag;
# no experiment reads a dataset CSV.
REFUSED = [("msd", flag) for flag in REFUSED_VALUES] + [
    (kind, flag) for kind in ("power", "rho-sweep")
    for flag in ("--missing-token", "--label-column")
]


class TestExperimentKindFlags:
    """Each experiment kind refuses the flags, and config keys, of fields its
    config does not have."""

    @staticmethod
    def _argv(files, kind):
        out = files["dir"] / "refused-table.csv"
        return ["experiment", kind, "--scenario", "nb-rho", "--rho", "0.3", "--n", "50",
                "--reps", "1", "--out", str(out)], out

    @pytest.mark.parametrize("kind, flag", REFUSED)
    def test_flag_exits_2(self, files, kind, flag, capsys):
        argv, out = self._argv(files, kind)
        assert cli.main([*argv, flag, REFUSED_VALUES[flag]]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, flag", REFUSED)
    def test_config_key_exits_2(self, files, kind, flag, capsys):
        key = flag.lstrip("-")
        cfg = files["dir"] / f"refused-{kind}-{key}.cfg"
        cfg.write_text(f"{key} = {REFUSED_VALUES[flag]}\n")
        argv, out = self._argv(files, kind)
        assert cli.main([*argv, "--config", str(cfg)]) == 2
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
        assert not out.exists()


class TestExperimentConfig:
    @pytest.mark.parametrize("scenario", ["mixture2d", "gauss5d", "diff-var", "vary-misspec"])
    def test_nb_mkliep_on_whole_point_scenario_exits_2(self, files, scenario, capsys):
        out = files["dir"] / "unused-table.csv"
        rc = cli.main(["experiment", "power", "--scenario", scenario, "--n", "200",
                       "--reps", "1", "--estimators", "nb-mkliep", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'nb-mkliep'" in err and repr(scenario) in err
        assert not out.exists()

    def test_nb_mkliep_on_per_coordinate_scenario_runs(self, files):
        out = files["dir"] / "nb-rho-table.csv"
        rc = cli.main(["experiment", "power", "--scenario", "nb-rho", "--rho", "0.3",
                       "--n", "200", "--reps", "1", "--n-test", "1000", "--n-type1",
                       "1000", "--estimators", "nb-mkliep", "--out", str(out)])
        assert rc == 0
        rows, _ = dataio.read_table_csv(out)
        assert rows[0]["estimator"] == "nb-mkliep" and rows[0]["failed"] == 0

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("msd", "--scenario", "gauss5d", "--estimators", "nb-mkliep"), "'nb-mkliep'"),
            (("power", "--scenario", "bogus"), "'bogus'"),
            (("rho-sweep", "--scenario", "nb-rho", "--rho", "0.2,1.5"), "correlation"),
            (("power", "--scenario", "mixture2d", "--rule", "binomial",
              "--corrupt-class", "0"), "--rule binomial"),
            (("rho-sweep", "--scenario", "nb-rho", "--rho", "0.2", "--n", "50,60"),
             "experiment rho-sweep takes one --n value"),
        ],
    )
    def test_other_unrunnable_configs_exit_2(self, files, argv, named, capsys):
        out = files["dir"] / "unused-table.csv"
        kind, *rest = argv
        rc = cli.main(["experiment", kind, "--n", "50", "--reps", "1", *rest,
                       "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_unconverged_population_parameter_exits_4(self, files, capsys):
        # At correlation 1 - 1e-10 the optimum lies near 5e9 (1, -1), where
        # the gradient's rounding error alone exceeds optimize.GRAD_TOL.
        out = files["dir"] / "unused-table.csv"
        rc = cli.main(["experiment", "msd", "--scenario", "nb-rho", "--rho",
                       "0.9999999999", "--n", "50", "--reps", "1", "--out", str(out)])
        assert rc == 4
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, flag",
        [("msd", flag) for flag in ("--n", "--reps", "--workers")]
        + [("power", flag) for flag in ("--n", "--reps", "--n-test", "--n-type1",
                                        "--calibration-n", "--queries", "--workers")],
    )
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_count_below_one_exits_2(self, files, kind, flag, value, capsys):
        out = files["dir"] / "unused-table.csv"
        args = {"--n": "50", "--reps": "1", flag: value}
        argv = ["experiment", kind, "--scenario", "gauss5d", "--out", str(out)]
        rc = cli.main(argv + [x for item in args.items() for x in item])
        assert rc == 2
        assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()


class TestFlagValues:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("experiment", "msd", "--scenario", "gauss5d", "--n", "abc"), "--n"),
            (("experiment", "power", "--scenario", "nb-rho", "--n", "50",
              "--rho", "x"), "--rho"),
            (("corrupt", "--classes", "x"), "--classes"),
            (("corrupt", "--classes", "2"), "--classes"),
            (("corrupt", "--classes", "1,1"), "--classes"),
            (("preprocess", "--trim", "a:b:c"), "--trim"),
            (("preprocess", "--trim", "0:nan:1"), "--trim"),
            (("preprocess", "--trim", "0:1:0"), "--trim"),
            (("preprocess", "--trim", "0:-inf:1"), "--trim"),
            (("corrupt", "--target-proportion", "1.5"), "--target-proportion"),
            (("corrupt", "--target-proportion", "-0.2"), "--target-proportion"),
            (("corrupt", "--target-proportion", "nan"), "--target-proportion"),
            (("corrupt", "--target-proportion", "0.999"), "--target-proportion"),
            (("experiment", "power", "--scenario", "nb-rho", "--n", "50",
              "--rho", "0.1,0.2"), "--rho"),
        ],
    )
    def test_bad_flag_value_exits_2(self, files, argv, flag, capsys):
        out = files["dir"] / "unused-out.csv"
        rc = cli.main([*argv, "--data", files["latent"], "--out", str(out)])
        assert rc == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_trim_column_given_twice_exits_2(self, files, capsys):
        out = files["dir"] / "unused-out.csv"
        rc = cli.main(["preprocess", "--trim", "0:-1:1", "--trim", "0:none:2",
                       "--data", files["latent"], "--out", str(out)])
        assert rc == 2
        assert "--trim given twice for column 0" in capsys.readouterr().err
        assert not out.exists()


class TestLevelValues:
    """alpha and delta out of range exit 2 before any file is written."""

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--alpha", "1.5", "--delta", "0.2"], "argument --alpha"),
            (["--alpha", "0", "--delta", "0.2"], "argument --alpha"),
            (["--alpha", "0.2", "--delta", "0"], "argument --delta"),
            (["--alpha", "0.2", "--delta", "1"], "argument --delta"),
            (["--alpha", "0.2", "--delta", "nan"], "argument --delta"),
            (["--alpha", "0.2", "--delta", "0.7", "--rule", "missing"],
             "--delta must be at most 0.5"),
        ],
    )
    def test_np_calibrate_exits_2(self, files, extra, named, capsys):
        out = files["dir"] / "unused-level-clf.txt"
        rc = cli.main(["np-calibrate", "--model", files["model"], "--calibration",
                       files["cal"], *extra, "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_np_calibrate_auto_weighted_rule_delta_above_half_exits_2(self, files, capsys):
        # Class-0 missingness makes "auto" pick the weighted rule.
        phi0 = files["dir"] / "phi0-level.txt"
        phi0.write_text("dims = 2\n0 = constant 0.1\n")
        out = files["dir"] / "unused-level-clf.txt"
        argv = ["np-calibrate", "--model", files["model"], "--calibration",
                files["cal"], "--alpha", "0.2", "--phi0", str(phi0), "--out", str(out)]
        assert cli.main([*argv, "--delta", "0.7"]) == 2
        assert "--delta must be at most 0.5" in capsys.readouterr().err
        assert not out.exists()
        # The binomial rule takes a delta above 1/2.
        assert cli.main([*argv[:-4], "--delta", "0.7", "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--alpha", "2"], "argument --alpha"),
            (["--delta", "-0.1"], "argument --delta"),
            (["--rule", "missing", "--delta", "0.7"], "--delta must be at most 0.5"),
            (["--corrupt-class", "0", "--delta", "0.7"], "--delta must be at most 0.5"),
        ],
    )
    def test_experiment_exits_2(self, files, extra, named, capsys):
        out = files["dir"] / "unused-level-table.csv"
        rc = cli.main(["experiment", "power", "--scenario", "mixture2d", "--n", "50",
                       "--reps", "1", *extra, "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestDimensionMismatch:
    """Input files whose feature counts disagree exit 3, naming both counts."""

    @pytest.fixture(scope="class")
    def mismatched(self, files):
        d = files["dir"]
        rng = np.random.default_rng(5)
        wide = d / "wide.csv"
        dataio.write_dataset_csv(wide, Dataset(rng.normal(size=(50, 3)), 0),
                                 Dataset(rng.normal(size=(50, 3)), 1))
        phi = d / "phi-1dim.txt"
        phi.write_text("dims = 1\n0 = constant 0.3\n")
        return {"wide": str(wide), "phi": str(phi)}

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["classify", "--classifier", "{clf}", "--data", "{wide}"],
             "the model takes 2 features, the data has 3"),
            (["np-calibrate", "--model", "{model}", "--calibration", "{wide}",
              "--alpha", "0.2", "--delta", "0.2"],
             "the model takes 2 features, the data has 3"),
            (["fit", "--mode", "mkliep", "--per-dim", "--data", "{train}", "--phi",
              "{phi}"], "has 1 coordinates, the data has 2 features"),
            (["fit", "--mode", "mkliep", "--data", "{train}", "--phi", "{phi}"],
             "has 1 coordinates, the data has 2 features"),
            (["fit", "--mode", "mkliep", "--data", "{train}", "--phi0", "{phi}"],
             "has 1 coordinates, the data has 2 features"),
            (["corrupt", "--data", "{latent}", "--phi", "{phi}"],
             "has 1 coordinates, the data has 2 features"),
            (["np-calibrate", "--model", "{model}", "--calibration", "{cal}",
              "--alpha", "0.2", "--delta", "0.2", "--phi0", "{phi}"],
             "has 1 coordinates, the data has 2 features"),
            (["learn-phi", "--data", "{train}", "--latent", "{wide}", "--queries",
              "10"], "matching shapes, got (300, 2) and (50, 3)"),
        ],
    )
    def test_exits_3(self, files, mismatched, argv, named, capsys):
        paths = {**files, **mismatched}
        out = files["dir"] / "unused-mismatch.out"
        rc = cli.main([a.format(**paths) for a in argv] + ["--out", str(out)])
        assert rc == 3
        assert named in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["preprocess", "--normalize"], ["corrupt", "--target-proportion", "0.3"]],
)
def test_rewritten_csv_keeps_the_feature_names(tmp_path, argv):
    src, out = tmp_path / "named.csv", tmp_path / "out.csv"
    src.write_text("age,label,income\n31,0,1.5\n45,1,2.5\n27,0,0.5\n52,1,3.0\n")
    assert cli.main([*argv, "--data", str(src), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "age,income,label"


def test_corrupt_to_a_target_proportion_of_0_keeps_every_entry(files, tmp_path):
    out = tmp_path / "out.csv"
    assert cli.main(["corrupt", "--data", files["latent"], "--target-proportion", "0",
                     "--classes", "0,1", "--out", str(out)]) == 0
    class0, class1, _ = dataio.read_dataset_csv(str(out))
    assert class0.fully_observed and class1.fully_observed


class TestConfigFile:
    def _config(self, files, name, text):
        path = files["dir"] / f"{name}.cfg"
        path.write_text(text)
        return str(path)

    def test_store_true_false_leaves_the_flag_off(self, files):
        d = files["dir"]
        cfg = self._config(files, "no-normalize", "normalize = false\n")
        runs = {"config": ["--config", cfg], "plain": [], "normalized": ["--normalize"]}
        out = {}
        for name, extra in runs.items():
            path = d / f"pre-{name}.csv"
            assert cli.main(["preprocess", "--data", files["latent"], "--out",
                             str(path), *extra]) == 0
            out[name] = path.read_bytes()
        assert out["config"] == out["plain"] != out["normalized"]

    def test_store_true_true_sets_a_false_default_flag(self, files):
        d = files["dir"]
        cfg = self._config(files, "per-dim", "per-dim = true\n")
        fit = ["fit", "--mode", "kliep", "--data", files["latent"]]
        assert cli.main([*fit, "--config", cfg, "--out", str(d / "cfg-nb.txt")]) == 0
        assert cli.main([*fit, "--per-dim", "--out", str(d / "flag-nb.txt")]) == 0
        assert (d / "cfg-nb.txt").read_bytes() == (d / "flag-nb.txt").read_bytes()

    def test_config_value_does_not_leak_into_the_next_call(self, files):
        # The parser is built once per process; each call parses afresh.
        assert cli.build_parser() is cli.build_parser()
        d = files["dir"]
        cfg = d / "leak.cfg"
        cfg.write_text("normalize = true\n")
        out = {}
        for name, extra in (("before", []), ("config", ["--config", str(cfg)]),
                            ("after", [])):
            path = d / f"leak-{name}.csv"
            assert cli.main(["preprocess", "--data", files["latent"], "--out",
                             str(path), *extra]) == 0
            out[name] = path.read_bytes()
        assert out["before"] == out["after"] != out["config"]

    @pytest.mark.parametrize(
        "argv, text",
        [
            (("np-calibrate", "--alpha", "0.2", "--delta", "0.2"), "rule = bogus"),
            (("experiment", "power", "--scenario", "gauss5d", "--n", "50"),
             "rule = bogus"),
            (("experiment", "msd", "--scenario", "gauss5d"), "n = abc"),
            (("preprocess", "--data", "unused.csv"), "impute = yes"),
            (("np-calibrate", "--delta", "0.2"), "alpha = 1.5"),
            (("corrupt", "--data", "unused.csv"), "target-proportion = 1.5"),
        ],
    )
    def test_bad_config_value_exits_2(self, files, argv, text, capsys):
        # The config file is read before any input file, so the value alone
        # decides the exit code.
        cfg = self._config(files, "bad", text + "\n")
        out = files["dir"] / "unused-out.txt"
        assert cli.main([*argv, "--config", cfg, "--out", str(out)]) == 2
        assert f"config key {text.split(' = ')[0]!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_key_exits_3(self, files, capsys):
        cfg = self._config(files, "repeated", "reps = 1\n# reps again\nreps = 2\n")
        out = files["dir"] / "unused-repeated.csv"
        assert cli.main(["experiment", "msd", "--scenario", "gauss5d", "--n", "50",
                         "--config", cfg, "--out", str(out)]) == 3
        assert "lines 1 and 3: key 'reps' given twice" in capsys.readouterr().err
        assert not out.exists()


class TestStrictFlag:
    """``--strict`` belongs to ``fit``, the only command that reads it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--classifier", "c.txt", "--data", "d.csv"),
            ("experiment", "msd", "--scenario", "gauss5d", "--n", "50"),
            ("np-calibrate", "--alpha", "0.2", "--delta", "0.2"),
        ],
    )
    def test_strict_on_another_command_exits_2(self, files, argv):
        out = files["dir"] / "strict-unused.txt"
        assert cli.main([*argv, "--strict", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["classify", "np-calibrate", "experiment"])
    def test_strict_config_key_on_another_command_exits_2(self, files, command, capsys):
        cfg = files["dir"] / "strict.cfg"
        cfg.write_text("strict = true\n")
        argv = [command, "msd"] if command == "experiment" else [command]
        out = files["dir"] / "strict-unused.txt"
        assert cli.main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown config keys: ['strict']" in capsys.readouterr().err
        assert not out.exists()

    def test_strict_config_key_on_fit_is_read(self, files):
        cfg = files["dir"] / "strict-fit.cfg"
        cfg.write_text("strict = true\n")
        out = files["dir"] / "strict-fit-model.txt"
        assert cli.main(["fit", "--mode", "kliep", "--data", files["latent"],
                         "--config", str(cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize("per_dim", [False, True])
def test_classify_scores_each_point_once(files, monkeypatch, per_dim):
    d = files["dir"]
    model, clf = d / f"once-model-{per_dim}.txt", d / f"once-clf-{per_dim}.txt"
    fit = ["fit", "--mode", "kliep", "--data", files["latent"], "--out", str(model)]
    assert cli.main(fit + ["--per-dim"] * per_dim) == 0
    assert cli.main(["np-calibrate", "--model", str(model), "--calibration",
                     files["cal"], "--alpha", "0.2", "--delta", "0.2",
                     "--out", str(clf)]) == 0
    scored = []
    original = LogLinearRatioModel.log_ratio

    def counting(self, z):
        scored.append(len(z))
        return original(self, z)

    monkeypatch.setattr(LogLinearRatioModel, "log_ratio", counting)
    out = d / f"once-labels-{per_dim}.csv"
    assert cli.main(["classify", "--classifier", str(clf), "--data", files["test"],
                     "--out", str(out)]) == 0
    # 300 test points per class, scored once by each of the model's parts.
    assert sum(scored) == 600 * (2 if per_dim else 1)


def test_meta_value_with_spaces_round_trips_through_emit_plot_data(files, tmp_path):
    spaced = tmp_path / "sp ace b=1"
    spaced.mkdir()
    clf = spaced / "clf x.txt"
    clf.write_bytes(Path(files["clf"]).read_bytes())
    labels, plot = spaced / "labels x.csv", spaced / "plot.csv"
    assert cli.main(["classify", "--classifier", str(clf), "--data", files["test"],
                     "--out", str(labels)]) == 0
    assert cli.main(["emit-plot-data", "--table", str(labels), "--out", str(plot)]) == 0
    meta_line = f"# classifier={clf}\n"
    assert labels.read_text().startswith(meta_line)
    assert plot.read_text().startswith(meta_line)
    assert dataio.read_table_csv(plot)[1] == {"classifier": str(clf)}


@pytest.mark.parametrize(
    "body, message",
    [
        ("50,0.1,0.01\nabc,0.1,0.01", "table row 2: column 'n' is not a number: 'abc'"),
        ("50,x,0.01", "table row 1: column 'msd_mean' is not a number: 'x'"),
        ("50,0.1,", "table row 1: column 'ci_half' is not a number: ''"),
        ("-5,0.1,0.01", "table row 1: column 'n' must be positive, got -5"),
        ("0,0.1,0.01", "table row 1: column 'n' must be positive, got 0"),
    ],
)
def test_emit_plot_data_on_a_bad_field_exits_3(tmp_path, body, message, capsys):
    table, plot = tmp_path / "table.csv", tmp_path / "plot.csv"
    table.write_text(f"# command=experiment-msd\nn,msd_mean,ci_half\n{body}\n")
    assert cli.main(["emit-plot-data", "--table", str(table), "--out", str(plot)]) == 3
    assert f"data error: {message}" in capsys.readouterr().err
    assert not plot.exists()


def test_strict_fit_on_well_posed_data_exits_0(tmp_path):
    # A fully observed, well-posed sample: the fit must converge, so --strict
    # writes the model and exits 0.
    draw = generate(make_scenario("mixture2d"), 500, np.random.default_rng((500, 0, 7)))
    data, model = tmp_path / "latent.csv", tmp_path / "model.txt"
    dataio.write_dataset_csv(data, draw.latent0, draw.latent1)
    rc = cli.main(["fit", "--mode", "kliep", "--strict", "--data", str(data),
                   "--out", str(model)])
    assert rc == 0
    assert "converged = true" in model.read_text()


def test_np_calibrate_says_why_the_threshold_is_degenerate(files, capsys):
    # A logistic class-0 missingness has sup phi0 = 1 - 1e-3, so m_eff0 is
    # n0 / 1000 and the margin swamps alpha.
    phi0 = files["dir"] / "logistic-phi0.txt"
    phi0.write_text("dims = 2\n0 = logistic 0.0 1.0 -1\n1 = logistic 0.0 1.0 -1\n")
    out = files["dir"] / "degenerate-clf.txt"
    capsys.readouterr()
    rc = cli.main(["np-calibrate", "--model", files["model"], "--calibration",
                   files["cal"], "--alpha", "0.2", "--delta", "0.2", "--rule",
                   "missing", "--phi0", str(phi0), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "threshold inf" in printed and "degenerate True: margin " in printed
    assert ">= alpha 0.2" in printed
    assert "m_eff0 = n0 * (1 - sup phi0) = 300 * (1 - 0.999) = 0.3" in printed
    # The classifier file carries no new line.
    text = out.read_text()
    assert "m_eff0" not in text and "degenerate = true" in text


def test_fit_calibrate_classify_chain_reruns_byte_identical(files):
    d = files["dir"]
    p = {name: str(d / f"chain-{name}") for name in
         ("phi.txt", "model.txt", "model-nb.txt", "clf.txt", "clf-nb.txt",
          "labels.csv", "labels-nb.csv")}
    calibrate = ["np-calibrate", "--calibration", files["cal"], "--alpha", "0.2",
                 "--delta", "0.2"]
    chain = [
        ["learn-phi", "--data", files["train"], "--latent", files["latent"],
         "--queries", "20", "--seed", "3", "--out", p["phi.txt"]],
        ["fit", "--mode", "mkliep", "--data", files["train"], "--phi", p["phi.txt"],
         "--out", p["model.txt"]],
        ["fit", "--mode", "mkliep", "--per-dim", "--data", files["train"],
         "--phi", p["phi.txt"], "--out", p["model-nb.txt"]],
        calibrate + ["--model", p["model.txt"], "--out", p["clf.txt"]],
        calibrate + ["--model", p["model-nb.txt"], "--out", p["clf-nb.txt"]],
        ["classify", "--classifier", p["clf.txt"], "--data", files["test"],
         "--out", p["labels.csv"]],
        ["classify", "--classifier", p["clf-nb.txt"], "--data", files["test"],
         "--out", p["labels-nb.csv"]],
    ]
    outputs = []
    for _ in range(2):
        for argv in chain:
            assert cli.main(argv) == 0, argv
        outputs.append({k: Path(v).read_bytes() for k, v in p.items()})
    assert outputs[0] == outputs[1]


def test_np_calibrate_reads_a_class0_only_calibration_file(files, capsys):
    # np-calibrate uses the calibration file's class-0 rows only, so a file
    # of class-0 rows alone calibrates the same classifier as the full file.
    d = files["dir"]
    header, *rows = Path(files["cal"]).read_text().splitlines(keepends=True)
    cal0, cal1 = d / "cal0.csv", d / "cal1.csv"
    cal0.write_text(header + "".join(r for r in rows if r.rstrip().endswith(",0")))
    cal1.write_text(header + "".join(r for r in rows if r.rstrip().endswith(",1")))
    model, clf = d / "cal0-model.txt", d / "cal0-clf.txt"
    assert cli.main(["fit", "--mode", "kliep", "--data", files["latent"],
                     "--out", str(model)]) == 0
    calibrate = ["np-calibrate", "--model", str(model), "--alpha", "0.2",
                 "--delta", "0.2", "--out", str(clf), "--calibration"]
    assert cli.main(calibrate + [str(cal0)]) == 0
    assert clf.read_bytes() == Path(files["clf"]).read_bytes()
    capsys.readouterr()
    assert cli.main(calibrate + [str(cal1)]) == 3
    assert "no class-0 rows (label = 0)" in capsys.readouterr().err
