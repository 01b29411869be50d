"""CSV ingestion, preprocessing, MNAR corruption helpers, and the plain-text
serialization formats for models, classifiers, and missingness functions.

CSV is the single interchange format: a header row, numeric fields, a binary
label column, and a configurable token (default "NA", empty fields allowed)
for missing entries.  Floats are written with ``repr`` so round-trips are
lossless.

Config, model, classifier and missingness files are ``key = value`` lines,
read by ``_kv_from_text`` and written by ``_kv_to_text``.  A model's keys
carry a prefix: ``dimJ.`` per naive-Bayes dimension, ``model.`` inside a
classifier file.

Tables (``write_table_csv`` and the ``classify`` output of
``write_labels_csv``) are written, never parsed: ``emit-plot-data`` copies a
table's meta line and cells as text.  A table starts with a ``# `` meta line
ended by ``\\n``, whose ``key=value ...`` text ``meta_text`` builds from a
command's settings, and its header and rows are ended by ``\\r\\n``, as
``csv.writer`` ends them.  Both endings are kept so that tables stay
byte-identical to the ones written before.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import warnings

import numpy as np

from .model import (
    ConstantProb,
    Dataset,
    DataError,
    EPS_PHI,
    FeatureMap,
    HalfspaceIndicator,
    LogLinearRatioModel,
    LogisticScalar,
    MissingnessFunction,
    Zero,
)
from .naive_bayes import NaiveBayesRatioModel
from .np_classify import NpClassifier, ThresholdResult

# ---------------------------------------------------------------------------
# CSV ingestion / emission
# ---------------------------------------------------------------------------

# Fields that ``read_dataset_csv`` parses at a time in bulk, so a chunk holds
# max(1, 8192 // width) rows.  The budget counts fields, not rows, because a
# chunk's Python strings, not the parsed arrays, set the reader's peak memory.
_CSV_CHUNK_FIELDS = 8192
# Every byte but the field and row separators, to pull out a chunk's layout.
_NOT_CSV_SEPARATOR = bytes(sorted(set(range(256)) - set(b",\n")))


def _parse_field(text: str, missing_token: str, row_num: int, col: str) -> float:
    t = text.strip()
    if t in (missing_token, ""):
        return math.nan
    try:
        v = float(t)
    except ValueError:
        raise DataError(
            f"row {row_num}: field {col!r} is neither numeric nor the "
            f"missing token {missing_token!r}: {text!r}"
        ) from None
    if not math.isfinite(v):
        raise DataError(f"row {row_num}: field {col!r} must be finite, got {text!r}")
    return v


def _numbered_rows(reader, start: int):
    """(row number, fields) for each row of a ``csv.reader``, numbered from
    ``start``; a row the reader cannot split (such as a field over the csv
    module's size limit) raises a ``DataError`` that names it."""
    row_num = start
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError(f"row {row_num}: unreadable CSV row: {exc}") from None
        yield row_num, row
        row_num += 1


def _read_rows(
    reader, header: list[str], label_idx: int, missing_token: str
) -> tuple[np.ndarray, np.ndarray]:
    """Parse the rows one at a time; raise the ``DataError`` of the first bad one."""
    feature_cols = [(i, name) for i, name in enumerate(header) if i != label_idx]
    rows0, rows1 = [], []
    for row_num, row in _numbered_rows(reader, 2):
        if len(row) != len(header):
            raise DataError(
                f"row {row_num}: expected {len(header)} fields, got {len(row)}"
            )
        label_text = row[label_idx].strip()
        if label_text not in ("0", "1"):
            raise DataError(
                f"row {row_num}: label must be 0 or 1, got {label_text!r}"
            )
        values = [
            _parse_field(row[i], missing_token, row_num, name)
            for i, name in feature_cols
        ]
        (rows1 if label_text == "1" else rows0).append(values)
    return np.array(rows0, dtype=float), np.array(rows1, dtype=float)


def _read_rows_bulk(
    fh, width: int, label_idx: int, missing_token: str
) -> tuple[np.ndarray, np.ndarray] | None:
    """Parse the rows left in ``fh`` a chunk at a time, or return None at the
    first chunk not in plain form.

    Plain form: no quotes, ``\\n`` or ``\\r\\n`` line ends, ``width`` fields
    per line and labels exactly ``0`` or ``1``.  Feature fields go through
    Python's ``float``, as in ``_parse_field``.  Any field that ``_parse_field``
    would read differently is caught: a token with whitespace around it fails
    ``float`` or (for a numeric token) parses to the token's value, and a
    literal ``nan`` or ``inf`` makes more non-finite values than there are
    missing fields.
    """
    if missing_token != missing_token.strip():
        return None  # _parse_field compares stripped text, which never matches
    missing = dict.fromkeys([missing_token, ""], math.nan)
    try:
        token_value = float(missing_token)
    except ValueError:
        token_value = None
    row_separators = b"," * (width - 1) + b"\n"
    chunks0, chunks1 = [], []
    while lines := list(itertools.islice(fh, max(1, _CSV_CHUNK_FIELDS // width))):
        text = "".join(lines).replace("\r\n", "\n")
        if '"' in text or "\r" in text:
            return None
        if not text.endswith("\n"):
            text += "\n"
        separators = text.encode().translate(None, _NOT_CSV_SEPARATOR)
        if separators != row_separators * len(lines):
            return None
        fields = text[:-1].replace("\n", ",").split(",")
        labels = fields[label_idx::width]
        if not {"0", "1"}.issuperset(labels):
            return None
        del fields[label_idx::width]
        n_missing = sum(map(fields.count, missing))
        if n_missing:
            fields = list(map(missing.get, fields, fields))
        try:
            values = np.array(fields, dtype=float)
        except ValueError:
            return None
        if np.count_nonzero(~np.isfinite(values)) != n_missing or (
            token_value is not None and np.any(values == token_value)
        ):
            return None
        values = values.reshape(len(lines), width - 1)
        is1 = np.frombuffer("".join(labels).encode(), dtype=np.uint8) == ord("1")
        chunks0.append(np.compress(~is1, values, axis=0))
        chunks1.append(np.compress(is1, values, axis=0))
    empty = [np.empty((0, width - 1))]
    values0 = np.concatenate(chunks0 or empty)
    del chunks0  # class 0's chunks are freed before class 1's are joined
    return values0, np.concatenate(chunks1 or empty)


def read_dataset_csv(
    path,
    missing_token: str = "NA",
    label_column: str = "label",
    require_class1: bool = True,
) -> tuple[Dataset, Dataset | None, list[str]]:
    """Read a labelled CSV into a (class0, class1, feature names) triple.

    Both classes must have rows.  With ``require_class1=False`` only class 0
    must, and a file without class-1 rows gives None for class 1.  The
    feature names are the header's names other than ``label_column``, in
    file order, the order of the dataset columns.

    The first row is a header that names ``label_column``.  Every other row
    has one field per header name: a label ``0`` or ``1``, and feature fields
    that are finite numbers, ``missing_token`` or empty; the last two read as
    NaN.  Whitespace around a field is ignored, fields may be quoted, and
    line ends may be ``\\n``, ``\\r\\n`` or ``\\r``.

    Rows are parsed in bulk, a chunk of about 8,192 fields at a time, so the
    strings held at once stay few however wide the file.  A file with quotes,
    ``\\r`` line ends, whitespace around a label or token, or any bad row is
    read again from the start by a row-by-row loop, which returns the same
    arrays or raises the ``DataError`` that names the first bad row.
    """
    with open(path, newline="") as fh:
        first = next(_numbered_rows(csv.reader(fh), 1), None)
        if first is None:
            raise DataError("empty CSV: a header row is required")
        header = [h.strip() for h in first[1]]
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not found in header")
        label_idx = header.index(label_column)
        parts = _read_rows_bulk(fh, len(header), label_idx, missing_token)
    if parts is None:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            parts = _read_rows(reader, header, label_idx, missing_token)
    values0, values1 = parts
    if require_class1 and not (len(values0) and len(values1)):
        raise DataError("both classes must be present in the file")
    if not len(values0):
        raise DataError(f"no class-0 rows ({label_column} = 0) in the file")
    class1 = Dataset(values1, 1) if len(values1) else None
    return Dataset(values0, 0), class1, header[:label_idx] + header[label_idx + 1 :]


def write_dataset_csv(
    path,
    class0: Dataset,
    class1: Dataset,
    missing_token: str = "NA",
    feature_names: list[str] | None = None,
    label_column: str = "label",
) -> None:
    d = class0.dim
    if class1.dim != d:
        raise DataError("class dimensions differ")
    names = feature_names or [f"f{j}" for j in range(d)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + [label_column])
        for ds in (class0, class1):
            for row in ds.values:
                writer.writerow(
                    [missing_token if math.isnan(v) else repr(float(v)) for v in row]
                    + [str(ds.label)]
                )


def meta_text(meta: dict) -> str:
    """The text of a table's meta line: ``key=value`` items in key order."""
    return " ".join(f"{k}={v}" for k, v in sorted(meta.items()))


def write_table_csv(path, rows: list[dict], meta: str) -> None:
    """Write experiment rows after a ``# `` comment line holding ``meta``."""
    if not rows:
        raise DataError("no rows to write")
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        fh.write(f"# {meta}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    k: (repr(float(v)) if isinstance(v, float) else v)
                    for k, v in row.items()
                }
            )


def write_labels_csv(path, classified, meta: str) -> None:
    """Write ``classify`` output: the meta line, then one
    ``true_label,score,label`` row per point, in the bytes that
    ``write_table_csv`` writes for those rows.

    ``classified`` holds one (true label, scores, labels) triple per class.
    Rows are formatted as they are written, so no per-row object is kept.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# {meta}\n")
        fh.write("true_label,score,label\r\n")
        for truth, scores, labels in classified:
            fh.writelines(
                f"{truth},{score!r},{label}\r\n"
                for score, label in zip(scores.tolist(), labels.tolist())
            )


def config_hash(config: dict) -> str:
    """Short stable digest of a configuration mapping."""
    payload = json.dumps(
        {str(k): str(v) for k, v in config.items()}, sort_keys=True
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Preprocessing: trim -> impute -> normalize
# ---------------------------------------------------------------------------


def preprocess(
    class0: Dataset,
    class1: Dataset,
    trim: dict[int, tuple[float, float]] | None = None,
    mean_impute: bool = False,
    normalize: bool = False,
) -> tuple[Dataset, Dataset]:
    """Ordered pipeline trim -> impute -> normalize on a pair of classes.

    Means and scales are computed on the pair, pooled over both classes and
    over observed entries.  Mean imputation fills the entries missing at
    this point in the pipeline -- run it before any synthetic corruption so
    induced missing marks stay missing for the estimators.
    """
    d = class0.dim
    if class1.dim != d:
        raise DataError("class dimensions differ")
    trim = trim or {}
    for j in trim:
        if not 0 <= j < d:
            raise DataError(f"trim bound for column {j} outside dimension {d}")
    trim_lo = np.full(d, -np.inf)
    trim_hi = np.full(d, np.inf)
    for j, (lo, hi) in trim.items():
        trim_lo[j], trim_hi[j] = lo, hi
    pooled = np.clip(np.vstack([class0.values, class1.values]), trim_lo, trim_hi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        if mean_impute:
            col_means = np.nanmean(pooled, axis=0)
            if np.isnan(col_means).any():
                raise DataError("cannot mean-impute a column with no observed entries")
            pooled = np.where(np.isnan(pooled), col_means, pooled)
        if normalize:
            shift = np.nanmean(pooled, axis=0)
            scale = np.nanstd(pooled, axis=0, ddof=0)
    if normalize:
        flat = scale <= 0.0
        if flat.any():
            warnings.warn(
                f"zero-variance column(s) {np.flatnonzero(flat).tolist()} left "
                "unscaled",
                RuntimeWarning,
                stacklevel=2,
            )
            scale = np.where(flat, 1.0, scale)
        pooled = (pooled - shift) / scale
    return Dataset(pooled[: class0.n], 0), Dataset(pooled[class0.n :], 1)


# ---------------------------------------------------------------------------
# Corruption
# ---------------------------------------------------------------------------


def solve_target_proportion(column: np.ndarray, target: float) -> LogisticScalar:
    """Find the intercept a0 of the logistic missingness phi(z) =
    1 / (1 + exp(-(a0 + z))) whose expected missing fraction on the column
    matches ``target`` to within min(0.0025, 0.01 target) (by bisection):
    within 0.0025 from a target of 0.25 up, and within 1% of smaller ones.

    A target of 0 gets an a0 so low that phi is exactly 0 on every entry of
    the column, which then stays fully observed."""
    if not 0.0 <= target < 1.0 - EPS_PHI:
        raise DataError(
            f"target proportion {target} is unattainable (must be < {1 - EPS_PHI})"
        )
    column = np.asarray(column, dtype=float)
    column = column[~np.isnan(column)]
    if column.size == 0:
        raise DataError("cannot calibrate a proportion on an all-missing column")

    def realized(a0: float) -> float:
        with warnings.catch_warnings():  # a probe's clamp reaches no weight
            warnings.simplefilter("ignore", RuntimeWarning)
            return float(LogisticScalar(a0=a0, a1=1.0).prob(column).mean())

    # phi rises with a0; expand until realized(lo) <= target <= realized(hi).
    lo, hi = -1.0, 1.0
    for _ in range(200):
        f_lo, f_hi = realized(lo), realized(hi)
        if f_lo <= target <= f_hi:
            break
        lo *= 2.0
        hi *= 2.0
        if hi > 1e12:
            raise DataError("failed to bracket the target proportion")
    if f_lo == target:
        # Only a target of 0 gets here: every phi(z) has underflowed to 0.
        return LogisticScalar(a0=lo, a1=1.0)
    tol = min(0.0025, 0.01 * target)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = realized(mid)
        if abs(f_mid - target) <= tol:
            return LogisticScalar(a0=mid, a1=1.0)
        if f_mid < target:
            lo = mid
        else:
            hi = mid
    raise DataError("bisection failed to reach the target proportion")


def rwe_preset(
    dataset: Dataset, rng: np.random.Generator
) -> MissingnessFunction:
    """Per-feature logistic missingness with a random tail per iteration.

    For each feature j: tau_j uniform on {-1, +1}, intercept -mean_j/sd_j and
    slope 1/sd_j computed from the observed entries of the column, so the
    missing probability at the column mean is 1/2.
    """
    entries = []
    for j in range(dataset.dim):
        col = dataset.column(j)
        col = col[~np.isnan(col)]
        if col.size == 0:
            raise DataError(f"column {j} has no observed entries")
        mu = float(col.mean())
        sd = float(col.std(ddof=0))
        if sd <= 0.0:
            warnings.warn(
                f"column {j} has zero spread; using unit slope", RuntimeWarning
            )
            sd = 1.0
        tau = -1 if rng.random() < 0.5 else 1
        entries.append(LogisticScalar(a0=-mu / sd, a1=1.0 / sd, tau=tau))
    return MissingnessFunction.per_coordinate(entries)


# ---------------------------------------------------------------------------
# Plain-text key-value formats
# ---------------------------------------------------------------------------


def _kv_from_text(text: str) -> dict[str, str]:
    """Parse the ``key = value`` lines of a config, model, classifier or
    missingness file; ``#`` starts a comment.  A line without ``=``, or a key
    given twice, raises ``DataError`` naming the lines."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for line_num, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        k, eq, v = stripped.partition("=")
        if not eq:
            raise DataError(
                f"line {line_num}: expected 'key = value', got {stripped!r}"
            )
        k = k.strip()
        if k in line_of:
            # Keeping either value would be a guess.
            raise DataError(f"lines {line_of[k]} and {line_num}: key {k!r} given twice")
        line_of[k] = line_num
        out[k] = v.strip()
    return out


def _kv_to_text(items) -> str:
    """The ``key = value`` lines of ``items``, the form ``_kv_from_text`` reads."""
    return "".join(f"{k} = {v}\n" for k, v in items)


def read_config_file(path) -> dict[str, str]:
    with open(path) as fh:
        return _kv_from_text(fh.read())


def _fmt_floats(a) -> str:
    return ",".join(repr(float(x)) for x in np.atleast_1d(a))


def _parse_floats(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split(",")], dtype=float)


def missingness_to_text(phi: MissingnessFunction) -> str:
    if phi.joint:
        raise DataError(
            "only per-coordinate missingness functions have a text form"
        )
    items = [("dims", phi.dim)]
    for j, e in enumerate(phi.entries):
        if isinstance(e, Zero):
            items.append((j, "zero"))
        elif isinstance(e, ConstantProb):
            items.append((j, f"constant {float(e.p)!r}"))
        elif isinstance(e, LogisticScalar):
            items.append((j, f"logistic {float(e.a0)!r} {float(e.a1)!r} {e.tau}"))
        elif isinstance(e, HalfspaceIndicator) and e.direction.shape == (1,):
            side = "above" if e.direction[0] > 0 else "below"
            level = e.level / e.direction[0]
            items.append((j, f"step {float(level)!r} {float(e.p)!r} {side}"))
        else:
            raise DataError(f"entry {j} has no text form: {type(e).__name__}")
    return _kv_to_text(items)


def missingness_from_text(text: str) -> MissingnessFunction:
    """Read an optional ``dims = d`` and one ``j = entry`` line per coordinate
    ``j`` that has missingness; a coordinate without a line gets ``zero``."""
    kv = _kv_from_text(text)
    entries_by_index: dict[int, object] = {}
    key_of: dict[int, str] = {}
    for key, rest in kv.items():
        if key == "dims":
            continue
        # Any unparsable field, missing part or bad value lands in the except.
        try:
            j = int(key)
            if j < 0:
                raise ValueError("negative coordinate index")
            parts = rest.split()
            kind = parts[0]
            if kind == "zero":
                entry = Zero()
            elif kind == "constant":
                entry = ConstantProb(p=float(parts[1]))
            elif kind == "logistic":
                entry = LogisticScalar(
                    a0=float(parts[1]), a1=float(parts[2]), tau=int(parts[3])
                )
            elif kind == "step" and parts[3] in ("above", "below"):
                level, p, side = float(parts[1]), float(parts[2]), parts[3]
                direction = np.array([1.0 if side == "above" else -1.0])
                entry = HalfspaceIndicator(
                    direction=direction,
                    level=level if side == "above" else -level,
                    p=p,
                )
            else:
                raise ValueError(f"unknown missingness kind {kind!r}")
        except (ValueError, IndexError) as exc:
            raise DataError(
                f"malformed missingness entry '{key} = {rest}' ({exc})"
            ) from None
        if j in key_of:
            raise DataError(f"keys {key_of[j]!r} and {key!r} both set coordinate {j}")
        key_of[j] = key
        entries_by_index[j] = entry
    dims = _field(kv, "dims", int, max(entries_by_index, default=-1) + 1)
    if dims < 1:
        raise DataError("missingness file declares no coordinates")
    if entries_by_index and max(entries_by_index) >= dims:
        raise DataError(f"missingness entry index outside the {dims} declared dims")
    entries = [entries_by_index.get(j, Zero()) for j in range(dims)]
    return MissingnessFunction.per_coordinate(entries)


def _feature_map_from(kind: str, input_dim: int) -> FeatureMap:
    if kind == "identity":
        return FeatureMap.identity(input_dim)
    if kind == "identity-squares":
        return FeatureMap.identity_plus_squares(input_dim)
    raise DataError(f"unknown feature map kind {kind!r}")


def _log_linear_items(model: LogLinearRatioModel, prefix: str) -> list[tuple[str, str]]:
    """The mirror of ``_log_linear_from_kv``."""
    items = [
        (f"{prefix}feature_map", model.feature_map.kind),
        (f"{prefix}input_dim", str(model.feature_map.input_dim)),
        (f"{prefix}theta", _fmt_floats(model.theta)),
    ]
    if model.normalizer is not None:
        items.append((f"{prefix}normalizer", repr(float(model.normalizer))))
    items.append((f"{prefix}converged", str(model.converged).lower()))
    return items


def _model_items(model, prefix: str = "") -> list[tuple[str, str]]:
    """The mirror of ``_model_from_kv``."""
    if isinstance(model, LogLinearRatioModel):
        return [(f"{prefix}kind", "log-linear")] + _log_linear_items(model, prefix)
    if isinstance(model, NaiveBayesRatioModel):
        items = [(f"{prefix}kind", "naive-bayes"), (f"{prefix}dims", str(model.dim))]
        for j, sub in enumerate(model.per_dim):
            items += _log_linear_items(sub, f"{prefix}dim{j}.")
        return items
    raise DataError(f"cannot serialize model of type {type(model).__name__}")


def model_to_text(model) -> str:
    return _kv_to_text(_model_items(model))


_REQUIRED = object()


def _field(kv: dict[str, str], key: str, parse=str, default=_REQUIRED):
    """``kv[key]`` read by ``parse``; a missing required key or an unreadable
    value raises ``DataError`` naming the key."""
    if key not in kv:
        if default is _REQUIRED:
            raise DataError(f"missing key {key!r}")
        return default
    try:
        return parse(kv[key])
    except ValueError as exc:
        raise DataError(f"key {key!r}: cannot parse {kv[key]!r} ({exc})") from None


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError("expected true or false")
    return text == "true"


def _none_or(parse):
    return lambda text: None if text == "none" else parse(text)


def _log_linear_from_kv(kv: dict[str, str], prefix: str) -> LogLinearRatioModel:
    fmap = _feature_map_from(
        _field(kv, f"{prefix}feature_map"), _field(kv, f"{prefix}input_dim", int)
    )
    theta = _field(kv, f"{prefix}theta", _parse_floats)
    normalizer = _field(kv, f"{prefix}normalizer", float, None)
    converged = _field(kv, f"{prefix}converged", _parse_bool, True)
    try:
        return LogLinearRatioModel(
            theta=theta, feature_map=fmap, normalizer=normalizer, converged=converged
        )
    except ValueError as exc:
        raise DataError(f"{prefix}theta or {prefix}normalizer: {exc}") from None


def _model_from_kv(kv: dict[str, str], prefix: str = ""):
    kind = kv.get(f"{prefix}kind")
    if kind == "log-linear":
        return _log_linear_from_kv(kv, prefix)
    if kind == "naive-bayes":
        dims = _field(kv, f"{prefix}dims", int)
        per_dim = [_log_linear_from_kv(kv, f"{prefix}dim{j}.") for j in range(dims)]
        try:
            return NaiveBayesRatioModel(per_dim=tuple(per_dim))
        except ValueError as exc:
            raise DataError(f"{prefix}dims or {prefix}dim*.input_dim: {exc}") from None
    raise DataError(f"unknown model kind {kind!r}")


def model_from_text(text: str):
    return _model_from_kv(_kv_from_text(text))


def classifier_to_text(clf: NpClassifier) -> str:
    p = clf.provenance
    items = [
        ("kind", "np-classifier"),
        ("method", p.method),
        ("alpha", repr(float(clf.alpha))),
        ("delta", repr(float(clf.delta))),
        ("transform", "log"),  # scores are always the log ratio
        ("threshold", repr(float(clf.threshold))),
        ("i_star", "none" if p.order_index is None else str(p.order_index)),
        ("margin", "none" if p.margin is None else repr(float(p.margin))),
    ]
    if p.m_eff0 is not None:
        items.append(("m_eff0", repr(float(p.m_eff0))))
    items += [
        ("degenerate", str(p.degenerate).lower()),
        ("all_missing", str(p.all_missing).lower()),
        ("calibration_size", str(p.calibration_size)),
    ]
    return _kv_to_text(items + _model_items(clf.model, "model."))


def classifier_from_text(text: str) -> NpClassifier:
    kv = _kv_from_text(text)
    if kv.get("kind") != "np-classifier":
        raise DataError("not a classifier file")
    if kv.get("transform", "log") != "log":
        raise DataError(f"unsupported score transform {kv['transform']!r}")
    model = _model_from_kv(kv, "model.")
    threshold = _field(kv, "threshold", float)
    if math.isnan(threshold):
        # No score exceeds nan, so it would label every point 0.
        raise DataError(f"key 'threshold' must be a number or +-inf, got {kv['threshold']!r}")
    provenance = ThresholdResult(
        value=threshold,
        order_index=_field(kv, "i_star", _none_or(int)),
        degenerate=_field(kv, "degenerate", _parse_bool),
        all_missing=_field(kv, "all_missing", _parse_bool),
        margin=_field(kv, "margin", _none_or(float)),
        calibration_size=_field(kv, "calibration_size", int),
        method=_field(kv, "method"),
        m_eff0=_field(kv, "m_eff0", float, None),
    )
    return NpClassifier(
        model, _field(kv, "alpha", float), _field(kv, "delta", float), provenance
    )
