"""Regenerate the committed reference outputs of msd-fit and csv-pipeline.

Run from the repository root, only when a change is meant to alter the
program's outputs:

    python3 benchmarks/make_reference.py

power-oracle: power, Type I error and degenerate thresholds of every
estimator for each of the POWER_POOL experiment seeds.  msd-fit: the msd of
every estimator for each of the MSD_POOL experiment seeds.  csv-pipeline: learned phi, fitted theta and thresholds of one pass
for each of the CSV_POOL data seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# Single-threaded BLAS, as in run.py, so the references come from the same
# arithmetic as the benchmark's ops.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mnar_dre import cli  # noqa: E402

import workloads  # noqa: E402


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited with {rc}")


def _experiment_tables(wl, workdir: str):
    """The table of every experiment seed in the workload's pool."""
    for seed in range(wl.pool):
        _run(wl.experiment_argv(seed, f"{workdir}/table.csv"))
        yield workloads.read_table(f"{workdir}/table.csv")


def power_reference(workdir: str) -> dict:
    wl = workloads.PowerOracle(0, workdir)
    rows = [workloads.power_values(t) for t in _experiment_tables(wl, workdir)]
    return {"scenario": "mixture2d", "n": wl.n, "rows": rows}


def msd_reference(workdir: str) -> dict:
    wl = workloads.MsdFit(0, workdir)
    values = [workloads.msd_values(t) for t in _experiment_tables(wl, workdir)]
    return {"scenario": "mixture2d", "n": wl.n, "msd_mean": values}


def csv_reference(workdir: str) -> dict:
    outputs = []
    for data_seed in range(workloads.CSV_POOL):
        wl = workloads.CsvPipeline(data_seed, workdir)
        wl.setup()
        for i in range(wl.round_size):
            _run(wl.op(i).argv)
        outputs.append(wl.outputs())
    return {"rows_per_class": workloads.CSV_ROWS, "outputs": outputs}


def main() -> None:
    jobs = {"power_oracle.json": power_reference,
            "msd_fit.json": msd_reference,
            "csv_pipeline.json": csv_reference}
    for filename, build in jobs.items():
        with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
            ref = build(workdir)
        with open(workloads.REFERENCE_DIR / filename, "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        print(f"wrote {filename}")


if __name__ == "__main__":
    main()
