"""The benchmark's workloads: their inputs, the CLI calls that make up an op,
and the checks on every op's output.

One op is one ``mnar_dre.cli.main`` call.  A round is the unit the benchmark
loop repeats: one op for the two experiment workloads, the seven-op
``learn-phi -> fit -> np-calibrate -> classify`` pass for ``csv-pipeline``.

Reference values live in ``reference/``; ``make_reference.py`` regenerates
them.  Their tolerances are sized for a parameter change of ``THETA_TOL``,
a hundred times the 1e-7 that counts as behaviour-preserving, so a solver
change that keeps theta within 1e-7 passes.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit
from scipy.stats import binom

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ALPHA = DELTA = 0.1
# The power check fails when the observed share of Type I violations has
# probability below this under Binomial(ops, DELTA), fixed before any run.
TYPE1_CHECK_LEVEL = 1e-6
THETA_TOL = 1e-5
THRESHOLD_TOL = 5e-4  # |delta threshold| <= |delta theta|_1 max|x| + |delta log N|
# A threshold or score move of THRESHOLD_TOL relabels only the test points
# whose score lies that close to the threshold: far fewer than this share.
POWER_TOL = 1e-3
# The experiment workloads cycle through a fixed pool of experiment seeds, so
# that every op has a committed reference.  msd-fit runs the pool as one
# round, so every run times the same mix of fits: their cost is heavy-tailed
# (a few take 20k objective evaluations), and runs over seed-drawn ops spread
# 17% in ops_per_s.  power-oracle ops cost about the same on every seed.
# csv-pipeline inputs likewise cycle over a pool of data seeds.
POWER_POOL = 128
MSD_POOL = 64
CSV_POOL = 64
# The warm-up op is the same on every seed, so set-up time does not depend
# on which data the seed draws.
WARMUP_SEED = 1 << 20


@dataclass(frozen=True)
class Op:
    index: int
    argv: list[str]
    out: str  # the file the op writes


def _seed_int(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def read_table(path) -> list[dict[str, str]]:
    """Rows of a table written by ``experiment`` (its ``#`` line skipped)."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / name) as fh:
        return json.load(fh)


class Workload:
    name = ""
    round_size = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate the inputs that the ops read."""

    def warmup_argv(self) -> list[str]:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op) -> str | None:
        """Reason the op's output is wrong, or None."""
        raise NotImplementedError

    def final_checks(self) -> dict[str, str | None]:
        """Checks over the whole run: name -> failure reason or None."""
        return {}

    def rerun_op(self) -> Op | None:
        """The op whose rerun in a fresh process must write identical bytes."""
        return None


class _Experiment(Workload):
    """Op i runs experiment seed (start + i) mod pool; the start derives from
    the workload seed."""

    kind = ""
    n = 0
    pool = 1

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.offset = _seed_int(seed) % self.pool

    def experiment_seed(self, i: int) -> int:
        return (self.offset + i) % self.pool

    def experiment_argv(self, seed: int, out: str) -> list[str]:
        return ["experiment", self.kind, "--scenario", "mixture2d", "--n", str(self.n),
                "--reps", "1", "--seed", str(seed), "--out", out]

    def warmup_argv(self) -> list[str]:
        out = os.path.join(self.workdir, "warmup.csv")
        return self.experiment_argv(WARMUP_SEED, out)

    def op(self, i: int) -> Op:
        out = os.path.join(self.workdir, f"op{i}.csv")
        return Op(i, self.experiment_argv(self.experiment_seed(i), out), out)

    def check(self, op: Op) -> str | None:
        rows = read_table(op.out)
        if not rows:
            return "empty table"
        if any(row["failed"] != "0" for row in rows):
            return "table reports failed replications"
        return self.check_rows(op, rows)

    def check_rows(self, op: Op, rows: list[dict[str, str]]) -> str | None:
        raise NotImplementedError

    def rerun_op(self) -> Op:
        return self.op(0)


class PowerOracle(_Experiment):
    """Paper-size power replication: oracle scoring of 2 x 100k test points."""

    name = "power-oracle"
    kind = "power"
    n = 500
    pool = POWER_POOL

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.pairs = 0
        self.violations = 0

    @functools.cached_property
    def reference(self) -> list[dict[str, dict[str, float]]]:
        return _load_reference("power_oracle.json")["rows"]

    def check_rows(self, op, rows):
        for row in rows:
            if not math.isfinite(float(row["power_mean"])):
                return f"{row['estimator']}: power is not finite"
            self.pairs += 1
            self.violations += float(row["type1_mean"]) > ALPHA
        return power_mismatch(rows, self.reference[self.experiment_seed(op.index)])

    def final_checks(self):
        # Under the binomial rule each estimator violates alpha with
        # probability at most DELTA per op.  The pooled share cannot exceed
        # the worst estimator's share, so bounding that share by a
        # Binomial(ops, DELTA) quantile is valid however the three estimators
        # of one op are correlated.
        ops = self.pairs // 3
        if ops == 0:
            return {"type1_control": "no ops"}
        allowed = int(binom.isf(TYPE1_CHECK_LEVEL, ops, DELTA)) / ops
        share = self.violations / self.pairs
        ok = share <= allowed
        return {"type1_control": None if ok else
                f"share of type1 > alpha is {share:.4f} > {allowed:.4f}"}


def power_values(rows) -> dict[str, dict[str, float]]:
    return {row["estimator"]: {"power_mean": float(row["power_mean"]),
                               "type1_mean": float(row["type1_mean"]),
                               "degenerate": int(row["degenerate"])}
            for row in rows}


def power_mismatch(rows, ref: dict[str, dict[str, float]]) -> str | None:
    """Power and Type I error within POWER_TOL of the reference, and the same
    count of degenerate thresholds."""
    got = power_values(rows)
    if set(got) != set(ref):
        return f"estimators {sorted(got)} != {sorted(ref)}"
    for est, want in ref.items():
        if got[est]["degenerate"] != want["degenerate"]:
            return (f"{est}: {got[est]['degenerate']} degenerate thresholds, "
                    f"reference has {want['degenerate']}")
        for key in ("power_mean", "type1_mean"):
            if abs(got[est][key] - want[key]) > POWER_TOL:
                return f"{est}: {key} {got[est][key]!r} differs from reference {want[key]!r}"
    return None


class MsdFit(_Experiment):
    """msd replication at n=20000: the gradient-descent solver does the work."""

    name = "msd-fit"
    kind = "msd"
    n = 20000
    pool = MSD_POOL
    round_size = MSD_POOL

    @functools.cached_property
    def reference(self) -> list[dict[str, float]]:
        return _load_reference("msd_fit.json")["msd_mean"]

    def check_rows(self, op, rows):
        ref = self.reference[self.experiment_seed(op.index)]
        return msd_mismatch(rows, ref)


def msd_values(rows) -> dict[str, float]:
    return {row["estimator"]: float(row["msd_mean"]) for row in rows}


def msd_mismatch(rows, ref: dict[str, float]) -> str | None:
    for row in rows:
        if not (math.isfinite(float(row["msd_mean"]))
                and math.isfinite(float(row["msd_median"]))):
            return f"{row['estimator']}: msd is not finite"
    got = msd_values(rows)
    if set(got) != set(ref):
        return f"estimators {sorted(got)} != {sorted(ref)}"
    for est, want in ref.items():
        # | |a + d|^2 - |a|^2 | <= 2|a||d| + |d|^2 with |d| <= THETA_TOL
        tol = 2.0 * math.sqrt(want) * THETA_TOL + THETA_TOL**2
        if abs(got[est] - want) > tol:
            return f"{est}: msd {got[est]!r} differs from reference {want!r}"
    return None


# -- csv-pipeline ------------------------------------------------------------

CSV_ROWS = 20000  # per class per file
# mixture2d-logistic: class means, and the per-coordinate logistic
# missingness of class 1, phi_j(z) = expit((z_j - mu_j) / sigma_j), with mu
# and sigma the class-1 mean and standard deviation.
_MEANS1 = np.array([[0.0, 0.0], [-1.0, 4.0]])
_MEANS0 = np.array([[1.0, 0.0], [0.0, 4.0]])
_MU1 = np.array([-0.5, 2.0])
_SIGMA1 = np.sqrt([1.25, 5.0])


def _draw(rng, means, n):
    return means[rng.integers(0, 2, n)] + rng.standard_normal((n, 2))


def _write_csv(path, z0, z1) -> None:
    with open(path, "w") as fh:
        fh.write("f0,f1,label\n")
        for label, z in ((0, z0), (1, z1)):
            fh.writelines(
                ",".join("NA" if v != v else repr(v) for v in row) + f",{label}\n"
                for row in z.tolist()
            )


def _kv(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",")]


class CsvPipeline(Workload):
    """learn-phi -> fit (joint and per-dim) -> np-calibrate -> classify on CSVs."""

    name = "csv-pipeline"
    round_size = 7

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.data_seed = seed % CSV_POOL
        self.digests: dict[str, str] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        rng = np.random.default_rng([self.data_seed, 2302])
        z0, z1 = _draw(rng, _MEANS0, CSV_ROWS), _draw(rng, _MEANS1, CSV_ROWS)
        x1 = np.where(rng.random(z1.shape) < expit((z1 - _MU1) / _SIGMA1), np.nan, z1)
        _write_csv(self.path("train.csv"), z0, x1)
        _write_csv(self.path("latent.csv"), z0, z1)
        for name in ("calibration.csv", "test.csv"):
            _write_csv(self.path(name), _draw(rng, _MEANS0, CSV_ROWS),
                       _draw(rng, _MEANS1, CSV_ROWS))

    def _pass(self) -> list[tuple[list[str], str]]:
        p = self.path
        calibrate = ["np-calibrate", "--calibration", p("calibration.csv"),
                     "--alpha", str(ALPHA), "--delta", str(DELTA)]
        return [
            (["learn-phi", "--data", p("train.csv"), "--latent", p("latent.csv"),
              "--queries", "10", "--seed", str(self.data_seed)], p("phi.txt")),
            (["fit", "--mode", "mkliep", "--data", p("train.csv"), "--phi", p("phi.txt")],
             p("model.txt")),
            (["fit", "--mode", "mkliep", "--per-dim", "--data", p("train.csv"),
              "--phi", p("phi.txt")], p("model-nb.txt")),
            (calibrate + ["--model", p("model.txt")], p("classifier.txt")),
            (calibrate + ["--model", p("model-nb.txt")], p("classifier-nb.txt")),
            (["classify", "--classifier", p("classifier.txt"), "--data", p("test.csv")],
             p("labels.csv")),
            (["classify", "--classifier", p("classifier-nb.txt"), "--data",
              p("test.csv")], p("labels-nb.csv")),
        ]

    def warmup_argv(self) -> list[str]:
        argv, out = self._pass()[0]
        return argv + ["--out", out]

    def op(self, i: int) -> Op:
        argv, out = self._pass()[i % self.round_size]
        return Op(i, argv + ["--out", out], out)

    def check(self, op: Op) -> str | None:
        with open(op.out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        first = self.digests.setdefault(op.out, digest)
        if digest != first:
            return f"{os.path.basename(op.out)} differs from the first pass"
        if op.index == self.round_size - 1:
            return self.reference_mismatch()
        return None

    def outputs(self) -> dict[str, list[float]]:
        """Learned phi coefficients, fitted theta and thresholds of one pass."""
        phi = _kv(self.path("phi.txt"))
        model_nb = _kv(self.path("model-nb.txt"))
        return {
            "phi": [float(x) for j in range(2) for x in phi[str(j)].split()[1:3]],
            "theta": _floats(_kv(self.path("model.txt"))["theta"]),
            "theta_per_dim": [v for j in range(2)
                              for v in _floats(model_nb[f"dim{j}.theta"])],
            "threshold": [float(_kv(self.path(name))["threshold"])
                          for name in ("classifier.txt", "classifier-nb.txt")],
        }

    def reference_mismatch(self) -> str | None:
        ref = _load_reference("csv_pipeline.json")["outputs"][self.data_seed]
        got = self.outputs()
        for key, want in ref.items():
            tol = THRESHOLD_TOL if key == "threshold" else THETA_TOL
            if len(got[key]) != len(want) or not np.allclose(
                got[key], want, rtol=0.0, atol=tol
            ):
                return f"{key} {got[key]} differs from reference {want}"
        return None


WORKLOADS = {w.name: w for w in (PowerOracle, MsdFit, CsvPipeline)}
