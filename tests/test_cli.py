"""Command-line behaviour: exit codes, the missingness text format, and
byte-identical reruns of whole command chains."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mnar_dre import cli, dataio
from mnar_dre.model import Dataset, LogisticScalar, MissingnessFunction
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
        ],
    )
    def test_other_unrunnable_configs_exit_2(self, files, argv, named, capsys):
        rc = cli.main(["experiment", *argv, "--n", "50", "--reps", "1",
                       "--out", str(files["dir"] / "unused-table.csv")])
        assert rc == 2
        assert named in capsys.readouterr().err

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
