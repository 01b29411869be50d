"""Tests of run.py: the rerun comparison and the tail statistic.

Run from the repository root:  python3 -m pytest -q benchmarks
"""

from run import (difference, mask_config_hash, position_quartiles, rounds_done, tail,
                 upper_quartile)

TABLE = (b"# command=experiment-power config_hash=129c345c9fbf seed=3\n"
         b"n,estimator,power_mean\n500,mkliep,0.35006\n")


def test_masked_rerun_ignores_only_config_hash():
    other_hash = TABLE.replace(b"129c345c9fbf", b"0123456789ab")
    assert difference(TABLE, other_hash) is not None
    assert difference(mask_config_hash(TABLE), mask_config_hash(other_hash)) is None
    other_power = other_hash.replace(b"0.35006", b"0.35007")
    assert difference(mask_config_hash(TABLE), mask_config_hash(other_power)) is not None


def test_tail_over_position_quartiles_does_not_depend_on_round_count():
    round_ms = [float(k) for k in range(64)]
    three = position_quartiles(round_ms * 3, 64)
    four = position_quartiles(round_ms * 4, 64)
    assert three == four == round_ms
    assert tail(three) == (100.0 * 54 / 64, 53.0, 10)
    assert tail([5.0, 1.0, 3.0]) == (100.0, 5.0, 0)


def test_run_ends_on_the_round_closest_to_the_deadline():
    # 8 s rounds against a 30 s run: 4 rounds (32 s) are closer than 3 (24 s)
    assert not rounds_done(24.0, 3, 30.0)
    assert rounds_done(32.0, 4, 30.0)
    # short rounds end once the deadline is within half a round
    assert not rounds_done(29.0, 29, 30.0)
    assert rounds_done(29.6, 30, 30.0)


def test_upper_quartile():
    assert upper_quartile([7.0]) == 7.0
    assert upper_quartile([1.0, 2.0, 3.0, 4.0, 5.0]) == 4.0
    assert upper_quartile([1.0, 2.0]) == 1.75
    ms = [10.0, 20.0, 11.0, 21.0, 12.0, 22.0, 13.0, 23.0]
    assert position_quartiles(ms, 2) == [12.25, 22.25]
