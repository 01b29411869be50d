import dataclasses
import time

import numpy as np
import pytest
from scipy.special import ndtri

from mnar_dre import cli
from mnar_dre.experiments import (
    SCORE_ESTIMATORS,
    THETA_ESTIMATORS,
    MsdConfig,
    PowerConfig,
    _draws_from_rng,
    _fit_model,
    _msd_rep,
    _power_rep,
    run_msd_experiment,
    run_msd_replications,
    run_power_experiment,
    run_power_replications,
)
from mnar_dre.model import ROW_BLOCK, ConfigError, HalfspaceIndicator, MissingnessFunction
from mnar_dre.scenarios import generate, make_scenario, population_theta

from testkit import power_rep_materialized, rep_metric, traced_peak


class TestDeterminism:
    def test_msd_rows_identical_across_runs(self):
        cfg = MsdConfig(scenario="gauss5d", ns=(100,), reps=5, seed=7)
        assert run_msd_experiment(cfg) == run_msd_experiment(cfg)

    def test_power_rows_identical_across_runs(self):
        cfg = PowerConfig(
            scenario="mixture2d", ns=(150,), reps=3, seed=9,
            estimators=("true-ratio", "mkliep"), n_test=2000, n_type1=2000,
        )
        assert run_power_experiment(cfg) == run_power_experiment(cfg)

    def test_worker_count_does_not_change_results(self):
        base = MsdConfig(scenario="gauss5d", ns=(100,), reps=6, seed=3, workers=1)
        parallel = MsdConfig(scenario="gauss5d", ns=(100,), reps=6, seed=3, workers=2)
        assert run_msd_experiment(base) == run_msd_experiment(parallel)

    def test_worker_count_does_not_change_power_rows(self):
        # The learned estimator draws its queries after the test sets.
        cfg = PowerConfig(
            scenario="mixture2d-logistic", ns=(150, 300), reps=4, seed=9,
            estimators=("true-ratio", "mkliep", "nb-mkliep-learned"),
            n_test=2000, n_type1=2000, workers=1,
        )
        parallel = dataclasses.replace(cfg, workers=2)
        assert run_power_experiment(cfg) == run_power_experiment(parallel)

    def test_worker_count_does_not_change_rho_sweep_rows(self):
        cfg = PowerConfig(
            scenario="nb-rho", ns=(200,), rhos=(0.0, 0.5, 0.9), reps=4, seed=2,
            estimators=("true-ratio", "nb-mkliep", "nb-mkliep-learned", "mkliep"),
            n_test=2000, n_type1=2000, workers=1,
        )
        parallel = dataclasses.replace(cfg, workers=2)
        assert run_power_experiment(cfg) == run_power_experiment(parallel)


class TestMsd:
    def test_smoke_runtime(self):
        start = time.monotonic()
        rows = run_msd_experiment(
            MsdConfig(scenario="gauss5d", ns=(100,), reps=5, seed=1)
        )
        assert time.monotonic() - start < 10.0
        assert {r["estimator"] for r in rows} == {"mkliep", "cckliep"}
        assert all(r["failed"] == 0 for r in rows)

    def test_cc_bias_exceeds_mkliep_at_n1500(self):
        cfg = MsdConfig(
            scenario="gauss5d", ns=(1500,), reps=30, seed=5,
            estimators=("mkliep", "cckliep"),
        )
        rows = {r["estimator"]: r for r in run_msd_experiment(cfg)}
        assert rows["cckliep"]["msd_mean"] > rows["mkliep"]["msd_mean"]

    def test_oracle_lower_bounds_mkliep_statistically(self):
        cfg = MsdConfig(
            scenario="gauss5d", ns=(500,), reps=40, seed=8,
            estimators=("mkliep", "kliep-oracle"),
        )
        res = run_msd_replications(cfg)[500]
        diff = rep_metric(res["mkliep"], "msd") - rep_metric(res["kliep-oracle"], "msd")
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        assert diff.mean() > -2 * se  # more information never hurts on average


class TestPower:
    def test_permissive_alpha_gives_positive_power_every_rep(self):
        # the weighted threshold rule at alpha=0.5, delta=0.4, n=200 is
        # non-degenerate (margin ~= 0.27), so the oracle classifier must
        # fire on some class-1 points in every replication
        cfg = PowerConfig(
            scenario="mixture2d", ns=(200,), reps=10, seed=13,
            estimators=("true-ratio",), alpha=0.5, delta=0.4,
            threshold_rule="missing", n_test=5000, n_type1=100,
        )
        res = run_power_replications(cfg)[200]["true-ratio"]
        assert np.all(rep_metric(res, "power") > 0.0)
        assert not rep_metric(res, "degenerate").any()

    def test_mixture2d_oracle_boundary_sanity(self):
        # single replication, figure-level check: the oracle classifier at
        # alpha = delta = 0.1 labels well over half of class-1 test draws 1
        cfg = PowerConfig(
            scenario="mixture2d", ns=(500,), reps=1, seed=2,
            estimators=("true-ratio",), n_test=100_000, n_type1=100,
        )
        res = run_power_replications(cfg)[500]
        assert rep_metric(res["true-ratio"], "power")[0] >= 0.25

    def test_degenerate_threshold_reported(self):
        # missing rule at alpha = delta = 0.1 with n0 = 200: margin > alpha,
        # threshold +inf, power 0
        cfg = PowerConfig(
            scenario="mixture2d", ns=(200,), reps=2, seed=4,
            estimators=("true-ratio",), alpha=0.1, delta=0.1,
            threshold_rule="missing", n_test=1000, n_type1=100,
        )
        res = run_power_replications(cfg)[200]["true-ratio"]
        assert rep_metric(res, "degenerate").all()
        assert np.all(rep_metric(res, "power") == 0.0)

    def test_sign_of_mkliep_cc_gap_stable_across_seed_blocks(self):
        for block in range(5):
            cfg = PowerConfig(
                scenario="mixture2d", ns=(1500,), reps=8, seed=1000 + block,
                estimators=("mkliep", "cckliep"), n_test=20_000, n_type1=100,
            )
            res = run_power_replications(cfg)[1500]
            power = {name: rep_metric(reps, "power").mean() for name, reps in res.items()}
            assert power["mkliep"] - power["cckliep"] > 0.0

    def test_rho_sweep_keys(self):
        cfg = PowerConfig(
            scenario="nb-rho", ns=(100,), rhos=(0.0, 0.9), reps=3, seed=6,
            estimators=("true-ratio",), n_test=2000, n_type1=100,
        )
        rows = run_power_experiment(cfg)
        assert sorted({r["rho"] for r in rows}) == [0.0, 0.9]

    def test_learned_phi_estimator_runs(self):
        cfg = PowerConfig(
            scenario="mixture2d-logistic", ns=(300,), reps=2, seed=21,
            estimators=("nb-mkliep", "nb-mkliep-learned"), queries=10,
            n_test=2000, n_type1=100,
        )
        rows = run_power_experiment(cfg)
        assert all(r["failed"] == 0 for r in rows)

    def test_type1_mean_tracks_alpha(self):
        cfg = PowerConfig(
            scenario="mixture2d", ns=(500,), reps=10, seed=33,
            estimators=("true-ratio",), alpha=0.1, delta=0.1,
            n_test=1000, n_type1=50_000,
        )
        rows = run_power_experiment(cfg)
        assert rows[0]["type1_mean"] < 0.1  # binomial rule is conservative
        assert rows[0]["type1_mean"] > 0.02


class TestEveryEstimator:
    """Each estimator name against the values its fit gave before the
    estimator names were mapped to fits in one function (``_fit_model``).
    The recorded power rows are fractions of 2000 test points, and the
    recorded theta and msd values are the fits' own floats; the tolerances
    only absorb last-digit differences between BLAS builds."""

    THETA = {
        ("gauss5d", 1, "mkliep"): [0.14109585456582452, 0.0734220619262008,
                                   0.04900927174691371, 0.061763948133582894,
                                   0.05896314615412017],
        ("gauss5d", 1, "cckliep"): [0.0943915485160011, -0.09832652408822949,
                                    -0.04922905339802761, -0.06048149413670309,
                                    -0.019436614295579142],
        ("gauss5d", 1, "kliep-oracle"): [0.11496725128093306, 0.14216240068179867,
                                         0.09584589637748239, 0.08306843412357731,
                                         0.047877577308508355],
        ("mixture2d-logistic", 1, "mkliep"): [-0.7960685863062623, 0.13291377216842323],
        ("mixture2d-logistic", 1, "cckliep"): [-1.2734547412317787, -0.2577933028307175],
        ("mixture2d-logistic", 1, "kliep-oracle"): [-0.9708905980494255,
                                                    -0.09405109984444698],
        ("mixture2d-logistic", 1, "nb-mkliep"): [-0.8668118528096725, 0.19116497021583218],
        ("mixture2d-logistic", 1, "nb-cckliep"): [-1.2701552810151675,
                                                  -0.08972280912119741],
        ("mixture2d-logistic", 1, "nb-kliep-oracle"): [-0.9025743843350921,
                                                       0.07133090040481403],
        ("mixture2d-logistic", 1, "nb-mkliep-learned"): [-1.0188051176863582,
                                                         0.07535231785591127],
        ("mixture2d-logistic", 0, "mkliep"): [-1.1046818764250896, -0.22131465190910296],
        ("mixture2d-logistic", 0, "cckliep"): [-0.6549923875222434, -0.02631787278290864],
        ("mixture2d-logistic", 0, "kliep-oracle"): [-0.9708905980494255,
                                                    -0.09405109984444698],
        ("mixture2d-logistic", 0, "nb-mkliep"): [-1.0249628816534868, 0.09381554652448199],
        ("mixture2d-logistic", 0, "nb-cckliep"): [-0.5875980671406924, 0.31259974645135363],
        ("mixture2d-logistic", 0, "nb-kliep-oracle"): [-0.9025743843350921,
                                                       0.07133090040481403],
        ("mixture2d-logistic", 0, "nb-mkliep-learned"): [-0.9930443351929312,
                                                         0.10944134543891314],
    }
    # estimator: (power_mean, type1_mean, degenerate, failed) per corrupt class
    POWER = {
        1: {
            "cckliep": (0.27575, 0.08474999999999999, 0, 0),
            "kliep-oracle": (0.308, 0.08, 0, 0),
            "mkliep": (0.22725, 0.06875, 0, 0),
            "nb-cckliep": (0.30700000000000005, 0.07925, 0, 0),
            "nb-kliep-oracle": (0.286, 0.06975, 0, 0),
            "nb-mkliep": (0.29025, 0.07225000000000001, 0, 0),
            "nb-mkliep-learned": (0.28475, 0.06875, 0, 0),
            "true-ratio": (0.31825, 0.079, 0, 0),
        },
        0: {
            "cckliep": (0.32175, 0.1515, 0, 0),
            "kliep-oracle": (0.49, 0.16599999999999998, 0, 0),
            "mkliep": (0.44125000000000003, 0.1555, 0, 0),
            "nb-cckliep": (0.27725, 0.14825, 0, 0),
            "nb-kliep-oracle": (0.45425000000000004, 0.15375, 0, 0),
            "nb-mkliep": (0.4565, 0.15575, 0, 0),
            "nb-mkliep-learned": (0.4645, 0.15575, 0, 0),
            "true-ratio": (0.49674999999999997, 0.1595, 0, 0),
        },
    }
    MSD = {
        "cckliep": 0.12362295146320273,
        "kliep-oracle": 0.07570986353319924,
        "mkliep": 0.10161580458983947,
    }

    def test_fitted_parameters(self):
        for (scenario, corrupt_class, name), want in self.THETA.items():
            draw = generate(make_scenario(scenario), 200, np.random.default_rng(3),
                            corrupt_class)
            model = _fit_model(name, draw, 10, np.random.default_rng(4))
            parts = getattr(model, "per_dim", (model,))
            got = np.concatenate([m.theta for m in parts])
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (scenario, name)
            assert model.converged

    @pytest.mark.parametrize("corrupt_class", [1, 0])
    def test_power_rows(self, corrupt_class):
        # Class-0 missingness makes every threshold the weighted rule's; its
        # margin needs alpha 0.9, delta 0.5 and 20000 calibration points to
        # leave a threshold that is not degenerate.
        extra = (
            dict(alpha=0.9, delta=0.5, calibration_n=20_000) if corrupt_class == 0 else {}
        )
        cfg = PowerConfig(
            scenario="mixture2d-logistic", ns=(150,), reps=2, seed=5,
            estimators=SCORE_ESTIMATORS, n_test=2000, n_type1=2000,
            corrupt_class=corrupt_class, **extra,
        )
        got = {
            r["estimator"]: (r["power_mean"], r["type1_mean"], r["degenerate"], r["failed"])
            for r in run_power_experiment(cfg)
        }
        want = self.POWER[corrupt_class]
        assert got.keys() == want.keys()
        for name, row in want.items():
            assert got[name] == pytest.approx(row, rel=1e-12, abs=1e-15), name

    def test_msd_rows(self):
        cfg = MsdConfig(scenario="gauss5d", ns=(200,), reps=3, seed=6,
                        estimators=THETA_ESTIMATORS)
        got = {r["estimator"]: r["msd_mean"] for r in run_msd_experiment(cfg)}
        assert got == pytest.approx(self.MSD, rel=1e-9)


@pytest.mark.parametrize(
    "extra",
    [dict(threshold_rule="missing"), dict(corrupt_class=0)],
)
def test_weighted_rule_delta_above_half_is_refused_before_any_replication(extra):
    cfg = PowerConfig(scenario="mixture2d", ns=(50,), reps=1, delta=0.7,
                      estimators=("true-ratio",), n_test=100, n_type1=100, **extra)
    with pytest.raises(ConfigError, match="--delta must be at most 0.5"):
        run_power_replications(cfg)


def test_rho_sweep_takes_one_n():
    # A sweep runs every rho at ns[0] alone; a second n would be dropped.
    with pytest.raises(ConfigError, match="experiment rho-sweep takes one --n value"):
        PowerConfig(scenario="nb-rho", ns=(60, 5000), rhos=(0.1, 0.2))
    assert PowerConfig(scenario="nb-rho", ns=(60,), rhos=(0.1, 0.2)).ns == (60,)
    assert PowerConfig(scenario="nb-rho", ns=(60, 5000)).ns == (60, 5000)


def test_binomial_rule_takes_delta_above_half():
    # Class 0 fully observed: "auto" calibrates by the binomial rule, which
    # takes any delta in (0, 1).
    cfg = PowerConfig(scenario="mixture2d", ns=(50,), reps=1, delta=0.7,
                      estimators=("true-ratio",), n_test=100, n_type1=100)
    rows = run_power_experiment(cfg)
    assert rows[0]["failed"] == 0


def _record_bits(record):
    """A record's failure, its metric names and the bytes of its values."""
    values = record.values
    return record.failure, list(values), np.array(list(values.values())).tobytes()


class TestStreamedPowerReplication:
    """``_power_rep`` draws and scores its test sets a row block at a time;
    ``testkit.power_rep_materialized`` holds them whole, as it did before."""

    @pytest.mark.parametrize(
        "scenario, estimators, corrupt_class, level",
        [
            ("mixture2d", PowerConfig.estimators, 1, 0.1),
            ("gauss5d", PowerConfig.estimators, 0, 0.3),
            ("nb-rho", ("true-ratio", "nb-mkliep-learned", "mkliep", "nb-mkliep"), 1, 0.1),
            ("gauss5d", ("nb-mkliep-learned", "cckliep", "nb-mkliep-learned"), 0, 0.3),
        ],
    )
    def test_matches_the_materialized_replication_bit_for_bit(
        self, scenario, estimators, corrupt_class, level
    ):
        # A weighted rule (class 0 corrupted) needs a looser alpha and delta
        # than 0.1 to leave a threshold that is not degenerate at n = 600.
        cfg = PowerConfig(
            scenario=scenario, estimators=estimators, corrupt_class=corrupt_class,
            alpha=level, delta=level, n_test=3 * ROW_BLOCK + 1,
            n_type1=ROW_BLOCK + 1, seed=4,
        )
        sc = make_scenario(scenario, 0.5 if scenario == "nb-rho" else 0.0)
        for rep in range(2):
            got = _power_rep((cfg, sc, 600, rep))
            want = power_rep_materialized((cfg, sc, 600, rep))
            assert list(got) == list(want)
            for name in want:
                assert _record_bits(got[name]) == _record_bits(want[name]), name
                values = got[name].values
                assert 0.0 < values["power"] < 1.0 and not values["degenerate"], name

    def test_every_estimator_whose_fit_draws_is_flagged(self):
        # _power_rep fits the flagged estimators after its test sets, so one
        # that drew unflagged would move the test points of every table.
        draw = generate(make_scenario("mixture2d-logistic"), 200,
                        np.random.default_rng(3), 1)
        for name in SCORE_ESTIMATORS:
            rng = np.random.default_rng(5)
            before = rng.bit_generator.state
            if name != "true-ratio":
                _fit_model(name, draw, 10, rng)
            assert (rng.bit_generator.state != before) == _draws_from_rng(name), name

    def test_peak_memory_does_not_hold_the_test_sets(self):
        # Bounds fixed before the first run.  At 2 x 100k mixture2d test
        # points the replication held 4.3 MB (its 3.2 MB of test points and
        # a label array per classify call); streamed, it was expected near
        # 1.2 MB.  From 2 x 50k to 2 x 200k points the peak may grow by the
        # 150k extra one-byte component labels, plus 256 KiB for the larger
        # row blocks (7,143 rows at 50k, 8,000 at 200k) and their scoring
        # temporaries.
        sc = make_scenario("mixture2d")

        def peak(n_test):
            cfg = PowerConfig(scenario="mixture2d", n_test=n_test, n_type1=n_test)
            return traced_peak(lambda: _power_rep((cfg, sc, 500, 0)))[1]

        peak(1000)  # leaves the one-time allocations of the first call untraced
        assert peak(100_000) <= 1_500_000
        assert peak(200_000) - peak(50_000) <= 150_000 + 256 * 1024


class TestFailedReplications:
    """Tables with failed replications, pinned to the bytes written before
    each replication returned a ``Replication`` record."""

    MSD_ARGS = ["msd", "--scenario", "gauss5d", "--n", "2,3", "--reps", "20", "--seed", "1"]
    MSD_TABLE = (
        b"# command=experiment-msd config_hash=df5cc94e2d8e scenario=gauss5d seed=1"
        b" version=0.1.0\n"
        b"n,estimator,msd_mean,msd_median,ci_half,reps,failed\r\n"
        b"2,cckliep,4.0491296567444195e+30,0.23304199601698464,"
        b"1.0429866823711175e+31,19,1\r\n"
        b"2,mkliep,4.0516639128214186e+30,0.1463752974869942,"
        b"1.042950620410908e+31,19,1\r\n"
        b"3,cckliep,1.566812528846402e+23,169528.46140984556,"
        b"4.0348048065512643e+23,19,1\r\n"
        b"3,mkliep,5.2514096403760126e+135,131020.30724582236,"
        b"1.3526734836619725e+136,19,1\r\n"
    )
    POWER_ESTIMATORS = "true-ratio,mkliep,cckliep,nb-mkliep,nb-cckliep,nb-mkliep-learned"
    POWER_ARGS = [
        "power", "--scenario", "mixture2d-logistic", "--n", "4,6", "--reps", "10",
        "--seed", "1", "--n-test", "500", "--n-type1", "500",
        "--estimators", POWER_ESTIMATORS,
    ]
    POWER_TABLE = (
        b"# command=experiment-power config_hash=854aa82dcd26"
        b" scenario=mixture2d-logistic seed=1 version=0.1.0\n"
        b"n,estimator,power_mean,power_ci_half,type1_mean,type1_violations,"
        b"degenerate,reps,failed\r\n"
        b"4,cckliep,0.0,0.0,0.0,0.0,8,8,2\r\n"
        b"4,mkliep,0.0,0.0,0.0,0.0,8,8,2\r\n"
        b"4,nb-cckliep,0.0,0.0,0.0,0.0,9,9,1\r\n"
        b"4,nb-mkliep,0.0,0.0,0.0,0.0,9,9,1\r\n"
        b"4,nb-mkliep-learned,nan,inf,nan,nan,0,0,10\r\n"
        b"4,true-ratio,0.0,0.0,0.0,0.0,10,10,0\r\n"
        b"6,cckliep,0.0,0.0,0.0,0.0,7,7,3\r\n"
        b"6,mkliep,0.0,0.0,0.0,0.0,7,7,3\r\n"
        b"6,nb-cckliep,0.0,0.0,0.0,0.0,10,10,0\r\n"
        b"6,nb-mkliep,0.0,0.0,0.0,0.0,10,10,0\r\n"
        b"6,nb-mkliep-learned,nan,inf,nan,nan,0,0,10\r\n"
        b"6,true-ratio,0.0,0.0,0.0,0.0,10,10,0\r\n"
    )

    # gauss5d at n = 2 and 3 has a singular class-0 second-moment matrix, which
    # kliep.fit warns about; at 2 workers it warns in the pool's processes,
    # where pytest.warns cannot see it.
    DEGENERATE = pytest.mark.filterwarnings(
        "ignore:class-0 feature second-moment matrix:RuntimeWarning"
    )

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("kind", [pytest.param("MSD", marks=DEGENERATE), "POWER"])
    def test_table_bytes(self, kind, workers, tmp_path, capsys):
        out = tmp_path / "table.csv"
        args = getattr(self, kind + "_ARGS")
        assert cli.main(["experiment", *args, "--workers", workers, "--out", str(out)]) == 0
        assert out.read_bytes() == getattr(self, kind + "_TABLE")

    def test_failure_names(self):
        with pytest.warns(RuntimeWarning, match="degenerate"):
            msd = run_msd_replications(
                MsdConfig(scenario="gauss5d", ns=(2,), reps=20, seed=1)
            )
        for name in ("mkliep", "cckliep"):
            assert [r.failure for r in msd[2][name] if r.failure] == ["NumericError"]
        cfg = PowerConfig(
            scenario="mixture2d-logistic", ns=(4,), reps=10, seed=1, n_test=500,
            n_type1=500, estimators=tuple(self.POWER_ESTIMATORS.split(",")),
        )
        learned = run_power_replications(cfg)[4]["nb-mkliep-learned"]
        assert [r.failure for r in learned] == ["DataError"] * 10
        assert all(r.values == {} for r in learned)


class TestMinimaxInMissingness:
    """M-KLIEP's MSD against the worst-case missingness p = sup phi of the
    gauss5d halfspace, at n = 2000 with 60 replications.  The paper's upper
    bound scales as 1/(n(1 - p)) and its lower bound matches it.

    Bands, fixed before the first run: every comparison allows z times the
    standard error of the difference, z = 4.89 (two-sided level 1e-6), with
    the replications of different p taken as independent.  Every p reuses
    the same replication streams, so the estimates are positively
    correlated and that standard error is an upper bound.
    - Upper bound: (1 - p) MSD(p) is at most (1 - 0.5) MSD(0.5).
    - Growth like 1/(1 - p): MSD(0.98) exceeds MSD(0.5), and MSD(p) at
      p = 0.75, 0.9 and 0.95 matches the line through those two points in
      x = 1/(1 - p).
    - kliep-oracle, which never sees the missingness, equals its MSD(0.5).
    - cckliep's MSD rises from each p to the next.
    """

    PS = (0.5, 0.75, 0.9, 0.95, 0.98)
    Z = ndtri(1 - 1e-6 / 2)

    def _mean_se(self):
        cfg = MsdConfig(scenario="gauss5d", ns=(2000,), reps=60, seed=11,
                        estimators=THETA_ESTIMATORS)
        base = make_scenario("gauss5d")
        theta_tilde = population_theta(base)
        stats = {}
        for p in self.PS:
            sc = dataclasses.replace(base, induced_phi=MissingnessFunction.whole_point(
                HalfspaceIndicator(direction=np.ones(5), level=0.0, p=p)))
            reps = [_msd_rep((cfg, sc, 2000, rep, theta_tilde)) for rep in range(cfg.reps)]
            for name in cfg.estimators:
                msd = rep_metric([r[name] for r in reps], "msd")
                assert not np.isnan(msd).any(), (p, name)
                stats[name, p] = (msd.mean(), msd.std(ddof=1) / np.sqrt(msd.size))
        return stats

    def test_msd_scales_as_one_over_one_minus_p(self):
        stats = self._mean_se()
        z, p0, p1 = self.Z, self.PS[0], self.PS[-1]

        def within(diff, *scaled_ses):
            return diff <= z * np.sqrt(sum(s * s for s in scaled_ses))

        (m0, s0), (m1, s1) = stats["mkliep", p0], stats["mkliep", p1]
        for p in self.PS:
            m, s = stats["mkliep", p]
            assert within((1 - p) * m - (1 - p0) * m0, (1 - p) * s, (1 - p0) * s0), p
        assert not within(m1 - m0, s0, s1)  # MSD(0.98) > MSD(0.5) beyond noise
        x0, x1 = 1 / (1 - p0), 1 / (1 - p1)
        for p in self.PS[1:-1]:
            t = (1 / (1 - p) - x0) / (x1 - x0)
            m, s = stats["mkliep", p]
            line = (1 - t) * m0 + t * m1
            assert within(abs(m - line), s, (1 - t) * s0, t * s1), p
        oracle0, oracle_se0 = stats["kliep-oracle", p0]
        for p in self.PS:
            m, s = stats["kliep-oracle", p]
            assert within(abs(m - oracle0), s, oracle_se0), p
        for lo, hi in zip(self.PS, self.PS[1:]):
            (m_lo, s_lo), (m_hi, s_hi) = stats["cckliep", lo], stats["cckliep", hi]
            assert not within(m_hi - m_lo, s_lo, s_hi), (lo, hi)
