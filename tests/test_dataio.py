"""The CSV contract of ``dataio``: what ``read_dataset_csv`` accepts and the
exact ``DataError`` it raises otherwise, checked case by case and against a
``csv.reader`` oracle; and the bytes of ``classify`` output and experiment
tables, checked against a ``csv.DictWriter`` oracle."""

import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mnar_dre import cli, dataio, np_classify
from mnar_dre.model import (
    ConstantProb,
    Dataset,
    DataError,
    FeatureMap,
    HalfspaceIndicator,
    LogisticScalar,
    LogLinearRatioModel,
    MissingnessFunction,
    Zero,
)
from mnar_dre.naive_bayes import NaiveBayesRatioModel


def _csv(tmp_path, text: str, name: str = "data.csv") -> str:
    path = tmp_path / name
    path.write_bytes(text.encode())
    return str(path)


def _reads_as(pair, want0, want1) -> bool:
    """The class arrays equal the wanted rows, NaN matching NaN."""
    return all(
        np.array_equal(ds.values, np.array(want, dtype=float), equal_nan=True)
        for ds, want in zip(pair, (want0, want1))
    )


# -- refused files -----------------------------------------------------------


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b,label\n1,2,0\n3,1\n", "row 3: expected 3 fields, got 2"),
        ("a,b,label\n1,2,0\n3,4,1,5\n", "row 3: expected 3 fields, got 4"),
        ("a,label\n1,0\n\n2,1\n", "row 3: expected 2 fields, got 0"),
        ("a,label\n1,0\n2,1.0\n", "row 3: label must be 0 or 1, got '1.0'"),
        ("a,label\n1,0\n2,2\n", "row 3: label must be 0 or 1, got '2'"),
        ("a,label\n1,0\n2,\n", "row 3: label must be 0 or 1, got ''"),
        ("a,b,label\n1,2,0\n3,x,1\n",
         "row 3: field 'b' is neither numeric nor the missing token 'NA': 'x'"),
        ("a,label\n1,0\n NA x,1\n",
         "row 3: field 'a' is neither numeric nor the missing token 'NA': ' NA x'"),
        ("a,label\n1,0\nnan,1\n", "row 3: field 'a' must be finite, got 'nan'"),
        ("a,label\n1,0\n-inf,1\n", "row 3: field 'a' must be finite, got '-inf'"),
        ("a,label\n1,0\n1e500,1\n", "row 3: field 'a' must be finite, got '1e500'"),
        ("a,label\n", "both classes must be present in the file"),
        ("a,label\n1,0\n2,0\n", "both classes must be present in the file"),
        ("a,b\n1,0\n", "label column 'label' not found in header"),
        ("", "empty CSV: a header row is required"),
    ],
)
def test_refused_file_raises_its_message(tmp_path, text, message):
    with pytest.raises(DataError) as err:
        dataio.read_dataset_csv(_csv(tmp_path, text))
    assert str(err.value) == message


def test_first_bad_row_is_named(tmp_path):
    text = "a,label\n1,0\n2,1\nx,1\n3,7\n"
    with pytest.raises(DataError) as err:
        dataio.read_dataset_csv(_csv(tmp_path, text))
    assert str(err.value) == (
        "row 4: field 'a' is neither numeric nor the missing token 'NA': 'x'"
    )


def test_bad_row_after_many_good_rows_is_named(tmp_path):
    # Thousands of plain rows before the bad one: the error still names it.
    rng = np.random.default_rng(0)
    good = [f"{v!r},{i % 2}\n" for i, v in enumerate(rng.standard_normal(30000).tolist())]
    path = _csv(tmp_path, "a,label\n" + "".join(good) + "inf,1\n")
    with pytest.raises(DataError) as err:
        dataio.read_dataset_csv(path)
    assert str(err.value) == "row 30002: field 'a' must be finite, got 'inf'"


# -- accepted variants -------------------------------------------------------


def test_whitespace_around_fields_and_labels_is_ignored(tmp_path):
    text = " a , b ,label \n 1.5 ,  NA , 1 \n-2\t, 3e0 ,0\n"
    got = dataio.read_dataset_csv(_csv(tmp_path, text))
    assert _reads_as(got, [[-2.0, 3.0]], [[1.5, math.nan]])


def test_crlf_and_lf_line_ends_read_alike(tmp_path):
    lf = "a,b,label\n1,NA,0\n2.5,-1,1\n"
    crlf = lf.replace("\n", "\r\n")
    got_lf = dataio.read_dataset_csv(_csv(tmp_path, lf, "lf.csv"))
    got_crlf = dataio.read_dataset_csv(_csv(tmp_path, crlf, "crlf.csv"))
    assert _reads_as(got_lf, [[1.0, math.nan]], [[2.5, -1.0]])
    assert _reads_as(got_crlf, [[1.0, math.nan]], [[2.5, -1.0]])


def test_quoted_fields_are_read(tmp_path):
    text = '"a","b","label"\n"1.5","NA","1"\n"2",3,"0"\n'
    got = dataio.read_dataset_csv(_csv(tmp_path, text))
    assert _reads_as(got, [[2.0, 3.0]], [[1.5, math.nan]])


@pytest.mark.parametrize(
    "text",
    ["label,a,b\n0,1,2\n1,3,NA\n", "a,label,b\n1,0,2\n3,1,NA\n"],
)
def test_label_column_may_be_first_or_in_the_middle(tmp_path, text):
    got = dataio.read_dataset_csv(_csv(tmp_path, text))
    assert _reads_as(got, [[1.0, 2.0]], [[3.0, math.nan]])


def test_custom_label_column(tmp_path):
    got = dataio.read_dataset_csv(_csv(tmp_path, "y,a\n0,1\n1,2\n"), label_column="y")
    assert _reads_as(got, [[1.0]], [[2.0]])


def test_custom_token_including_a_numeric_looking_one(tmp_path):
    text = "a,b,label\n?,1,0\n2,?,1\n"
    got = dataio.read_dataset_csv(_csv(tmp_path, text), missing_token="?")
    assert _reads_as(got, [[math.nan, 1.0]], [[2.0, math.nan]])
    # With a numeric token, only the token's own text is missing: -999.0 is
    # a value, and whitespace around the token is stripped as anywhere else.
    text = "a,b,label\n-999,-999.0,0\n -999 ,1,1\n"
    got = dataio.read_dataset_csv(_csv(tmp_path, text), missing_token="-999")
    assert _reads_as(got, [[math.nan, -999.0]], [[math.nan, 1.0]])
    # The default token is then an ordinary non-numeric text.
    with pytest.raises(DataError) as err:
        dataio.read_dataset_csv(_csv(tmp_path, "a,label\n1,0\nNA,1\n"),
                                missing_token="-999")
    assert str(err.value) == (
        "row 3: field 'a' is neither numeric nor the missing token '-999': 'NA'"
    )


@pytest.mark.parametrize("token, field", [(" NA", " NA"), ('"NA"', '"NA"')])
def test_token_is_matched_after_stripping_and_unquoting(tmp_path, token, field):
    # The field is compared with the token once stripped and unquoted, so a
    # token with whitespace or quotes around it matches no field.
    path = _csv(tmp_path, f"a,label\n1,0\n{field},1\n")
    with pytest.raises(DataError) as err:
        dataio.read_dataset_csv(path, missing_token=token)
    shown = "NA" if field.startswith('"') else field
    assert str(err.value) == (
        f"row 3: field 'a' is neither numeric nor the missing token {token!r}: "
        f"{shown!r}"
    )


def test_empty_field_is_missing(tmp_path):
    path = _csv(tmp_path, "a,b,label\n,1,0\n2, ,1\n")
    got = dataio.read_dataset_csv(path)
    assert _reads_as(got, [[math.nan, 1.0]], [[2.0, math.nan]])


def test_last_row_without_a_line_end_is_read(tmp_path):
    got = dataio.read_dataset_csv(_csv(tmp_path, "a,label\n1,0\n2,1"))
    assert _reads_as(got, [[1.0]], [[2.0]])


# -- differential check against a csv.reader oracle --------------------------


def _oracle_read(path, token):
    """The reader's contract, one csv.reader row and one float at a time:
    the two class arrays and the feature names."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError("empty CSV: a header row is required")
    header = [h.strip() for h in rows[0]]
    if "label" not in header:
        raise DataError("label column 'label' not found in header")
    li = header.index("label")
    by_class: tuple[list, list] = ([], [])
    for row_num, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"row {row_num}: expected {len(header)} fields, got {len(row)}")
        label = row[li].strip()
        if label not in ("0", "1"):
            raise DataError(f"row {row_num}: label must be 0 or 1, got {label!r}")
        values = []
        for i, name in enumerate(header):
            if i == li:
                continue
            t = row[i].strip()
            if t in (token, ""):
                values.append(math.nan)
                continue
            try:
                v = float(t)
            except ValueError:
                raise DataError(
                    f"row {row_num}: field {name!r} is neither numeric nor the "
                    f"missing token {token!r}: {row[i]!r}"
                ) from None
            if not math.isfinite(v):
                raise DataError(
                    f"row {row_num}: field {name!r} must be finite, got {row[i]!r}"
                )
            values.append(v)
        by_class[label == "1"].append(values)
    if not by_class[0] or not by_class[1]:
        raise DataError("both classes must be present in the file")
    names = header[:li] + header[li + 1 :]
    return (*(np.array(rows, dtype=float) for rows in by_class), names)


# " NA" and '"NA"' are tokens that no field can match once stripped or unquoted.
TOKENS = ["NA", "-999", "?", "", " NA", '"NA"']
_PIECES = ["0", "1", "7", "2.5", "-3", ",", '"', " ", "\r", "\n", "\r\n", "nan",
           "inf", "1.0", "NA", "-999", "?"]
# Cells are mostly plain; the odd ones are valid or not depending on the token.
_PLAIN_FIELDS = ["0", "1", "2.5", "-3", "1e3", "-999.0"]
_ODD_FIELDS = ["", " ", " 4 ", '"5"', "nan", "inf", "1.0", "NA", " NA", '"NA"', "-999",
               " -999", "?", "x"]
_ODD_LABELS = [" 1", '"0"', "1.0", "2", ""]


@st.composite
def _csv_texts(draw):
    """A header then rows: either rows of mostly plain cells, or free text
    drawn from the piece alphabet."""
    names = draw(st.sampled_from([["label"], ["a", "label"], ["label", "a"],
                                  ["a", "b", "label"], ["a", "label", "b"]]))
    head = ",".join(names)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    if draw(st.integers(0, 4)) == 0:
        return head + end + "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=40)))

    def cell(name, row):
        plain = draw(st.integers(0, 14)) > 0
        if name == "label" and plain:  # the first two rows hold both classes
            return str(row) if row < 2 else draw(st.sampled_from(["0", "1"]))
        if name == "label":
            return draw(st.sampled_from(_ODD_LABELS))
        return draw(st.sampled_from(_PLAIN_FIELDS if plain else _ODD_FIELDS))

    rows = []
    for row in range(draw(st.integers(0, 10))):
        cells = [cell(name, row) for name in names]
        if draw(st.integers(0, 39)) == 0:  # a stray extra or missing field
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        odd_end = draw(st.integers(0, 39)) == 0
        rows.append(",".join(cells) + (draw(st.sampled_from(["\r", "\n\n"])) if odd_end else end))
    text = head + end + "".join(rows)
    return text[:-len(end)] if rows and draw(st.booleans()) and text.endswith(end) else text


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_texts(), token=st.sampled_from(TOKENS))
def test_reader_matches_the_csv_reader_oracle(tmp_path, text, token):
    path = _csv(tmp_path, text)
    try:
        want = _oracle_read(path, token)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            dataio.read_dataset_csv(path, token, "label")
        assert str(err.value) == str(exc)
        return
    try:
        got = dataio.read_dataset_csv(path, token, "label")
    except DataError as exc:
        # Only Dataset's own check (no feature column) may refuse it.
        with pytest.raises(DataError) as err:
            Dataset(want[0], 0), Dataset(want[1], 1)
        assert str(err.value) == str(exc)
        return
    assert got[2] == want[2]
    for ds, arr in zip(got[:2], want[:2]):
        assert ds.values.dtype == np.float64
        assert ds.values.shape == arr.shape
        assert ds.values.tobytes() == arr.tobytes()


def test_many_rows_read_bit_identical_to_the_oracle(tmp_path):
    rng = np.random.default_rng(1)
    z = rng.standard_normal((25000, 3)) * 10.0 ** rng.integers(-300, 300, (25000, 3))
    cells = [["NA" if rng.random() < 0.3 else repr(v) for v in row] for row in z.tolist()]
    text = "f0,f1,f2,label\r\n" + "".join(
        ",".join(row) + f",{i % 2}\r\n" for i, row in enumerate(cells)
    )
    path = _csv(tmp_path, text)
    got = dataio.read_dataset_csv(path)
    want = _oracle_read(path, "NA")
    assert got[2] == want[2] == ["f0", "f1", "f2"]
    for ds, arr in zip(got[:2], want[:2]):
        assert ds.values.shape == arr.shape
        assert ds.values.tobytes() == arr.tobytes()


# -- written bytes against a csv.DictWriter oracle ---------------------------


def _oracle_table(rows: list[dict], meta: dict) -> bytes:
    buf = io.StringIO(newline="")
    buf.write("# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items())) + "\n")
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v
                         for k, v in row.items()})
    return buf.getvalue().encode()


def test_table_bytes_match_the_dictwriter_oracle(tmp_path):
    rows = [
        {"estimator": 'nb, "joint"', "n": 500, "power_mean": 0.1 + 0.2,
         "ci_half": math.nan, "note": "line\nbreak"},
        {"estimator": "mkliep", "n": 20000, "power_mean": -0.0,
         "ci_half": math.inf, "note": ""},
    ]
    meta = {"scenario": "mixture2d", "seed": 3, "command": "experiment-power"}
    path = tmp_path / "table.csv"
    dataio.write_table_csv(path, rows, meta=meta)
    assert path.read_bytes() == _oracle_table(rows, meta)


def _meta_round_trip(tmp_path, meta):
    """(meta read back, whether writing it back gives the same bytes)."""
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    dataio.write_table_csv(first, [{"n": 1, "power_mean": 0.5}], meta=meta)
    rows, back = dataio.read_table_csv(first)
    dataio.write_table_csv(second, rows, meta=back)
    return back, second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "meta",
    [
        {"classifier": "sp ace/clf x.txt", "command": "two  spaces",
         "seed": 3, "tail": "ends in a space "},
        # `` b=`` inside a value: b sorts before the value's own key.
        {"classifier": "runs/a b=1/clf.txt"},
        {"classifier": "runs/a b=1/clf.txt", "seed": "x command=y"},
    ],
)
def test_meta_values_with_spaces_round_trip(tmp_path, meta):
    back, same_bytes = _meta_round_trip(tmp_path, meta)
    assert back == {k: str(v) for k, v in meta.items()}
    assert same_bytes


def test_meta_value_holding_a_later_key_keeps_its_bytes(tmp_path):
    # `` z=`` sorts after ``classifier``, so the reader cannot tell it from
    # a key of its own and reads two items; the line still goes back to the
    # same bytes.
    _, same_bytes = _meta_round_trip(tmp_path, {"classifier": "runs/a z=1"})
    assert same_bytes


def test_classify_output_matches_the_dictwriter_oracle(tmp_path):
    rng = np.random.default_rng(5)
    class0 = Dataset(rng.normal(0.0, 1.0, (300, 2)), 0)
    class1 = Dataset(rng.normal(0.7, 1.0, (200, 2)), 1)
    data = tmp_path / "test.csv"
    dataio.write_dataset_csv(data, class0, class1)
    clf_path = tmp_path / "clf.txt"
    model = LogLinearRatioModel(theta=np.array([0.8, -0.3]),
                                feature_map=FeatureMap.identity(2), normalizer=1.25)
    clf = np_classify.build_np_classifier(model, class0, 0.2, 0.2)
    clf_path.write_text(dataio.classifier_to_text(clf))
    out = tmp_path / "labels.csv"
    assert cli.main(["classify", "--classifier", str(clf_path), "--data", str(data),
                     "--out", str(out)]) == 0
    clf = dataio.classifier_from_text(clf_path.read_text())
    rows = [
        {"true_label": ds.label, "score": float(s), "label": int(lab)}
        for ds in (class0, class1)
        for s, lab in zip(clf.score_fn(ds.values), np_classify.classify(clf, ds.values))
    ]
    assert out.read_bytes() == _oracle_table(rows, {"classifier": str(clf_path)})


@pytest.mark.parametrize("sizes", [(0, 3), (4, 0), (1, 1), (0, 0)])
def test_labels_with_an_empty_class_match_the_dictwriter_oracle(tmp_path, sizes):
    rng = np.random.default_rng(sum(sizes))
    classified = []
    for truth, n in enumerate(sizes):
        scores = rng.normal(size=n)
        scores[: n // 2] = [-0.0, math.inf][: n // 2]
        classified.append((truth, scores, (scores > 0.1).astype(int)))
    out = tmp_path / "labels.csv"
    dataio.write_labels_csv(out, classified, {"classifier": "c.txt"})
    rows = [
        {"true_label": truth, "score": float(s), "label": int(lab)}
        for truth, scores, labels in classified
        for s, lab in zip(scores, labels)
    ]
    header = "# classifier=c.txt\ntrue_label,score,label\r\n"
    want = _oracle_table(rows, {"classifier": "c.txt"}) if rows else header.encode()
    assert out.read_bytes() == want


def _text_forms():
    """(text, reader, writer) for every key = value file the package writes."""
    rng = np.random.default_rng(9)
    calibration = Dataset(rng.normal(size=(300, 2)), 0)
    identity = LogLinearRatioModel(theta=np.array([0.8, -0.3]),
                                   feature_map=FeatureMap.identity(2), normalizer=1.25)
    squares = LogLinearRatioModel(theta=np.array([0.1, 0.2, -0.3, 0.4]),
                                  feature_map=FeatureMap.identity_plus_squares(2),
                                  converged=False)
    naive = NaiveBayesRatioModel(per_dim=tuple(
        LogLinearRatioModel(theta=np.array([t]), feature_map=FeatureMap.identity(1),
                            normalizer=1.0 + t)
        for t in (0.5, -0.7)
    ))
    phi = MissingnessFunction.per_coordinate([
        Zero(), ConstantProb(p=0.3), LogisticScalar(a0=-0.5, a1=1.5, tau=-1),
        HalfspaceIndicator(direction=np.array([-1.0]), level=0.5, p=0.8),
    ])
    forms = [pytest.param(dataio.missingness_to_text(phi), dataio.missingness_from_text,
                          dataio.missingness_to_text, id="missingness")]
    for name, model in (("log-linear", identity), ("squares", squares),
                        ("naive-bayes", naive)):
        clf = np_classify.build_np_classifier(model, calibration, 0.2, 0.2)
        forms += [
            pytest.param(dataio.model_to_text(model), dataio.model_from_text,
                         dataio.model_to_text, id=f"model-{name}"),
            pytest.param(dataio.classifier_to_text(clf), dataio.classifier_from_text,
                         dataio.classifier_to_text, id=f"classifier-{name}"),
        ]
    return forms


@pytest.mark.parametrize("text, read, write", _text_forms())
def test_text_forms_write_each_key_once_and_round_trip(text, read, write):
    keys = [line.partition(" = ")[0] for line in text.splitlines()]
    assert len(keys) == len(set(keys)) > 1
    assert write(read(text)) == text


def test_repeated_key_names_both_lines():
    with pytest.raises(DataError, match="lines 1 and 4: key 'a' given twice"):
        dataio._kv_from_text("a = 1\nb = 2\n# a = 3\na = 3\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("dims = 2\n0 = zero\ndims = 2\n", "lines 1 and 3: key 'dims' given twice"),
        ("dims = 2\n1 = zero\n01 = constant 0.5\n",
         "keys '1' and '01' both set coordinate 1"),
    ],
)
def test_missingness_repeat_names_both_lines(text, message):
    with pytest.raises(DataError, match=message):
        dataio.missingness_from_text(text)


# Finite floats, with the values a text form is most likely to bend.
_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_UNIT = st.one_of(st.sampled_from([0.0, 5e-324, 0.5, 1.0 - 2**-53]),
                  st.floats(min_value=0.0, max_value=1.0, exclude_max=True))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@st.composite
def _log_linear_models(draw, input_dim=None):
    dim = input_dim or draw(st.integers(1, 4))
    fmap = draw(st.sampled_from([FeatureMap.identity, FeatureMap.identity_plus_squares]))(dim)
    return LogLinearRatioModel(
        theta=np.array(draw(st.lists(_FINITE, min_size=fmap.output_dim,
                                     max_size=fmap.output_dim))),
        feature_map=fmap,
        normalizer=draw(st.none() | st.floats(min_value=0.0, exclude_min=True,
                                              allow_infinity=False)),
        converged=draw(st.booleans()),
    )


_MODELS = _log_linear_models() | st.builds(
    lambda per_dim: NaiveBayesRatioModel(per_dim=tuple(per_dim)),
    st.lists(_log_linear_models(input_dim=1), min_size=1, max_size=4),
)


def _assert_models_bit_equal(back, model):
    assert type(back) is type(model)
    pairs = (zip(back.per_dim, model.per_dim) if isinstance(model, NaiveBayesRatioModel)
             else [(back, model)])
    for b, m in pairs:
        assert (b.feature_map.kind, b.feature_map.input_dim, b.converged) == (
            m.feature_map.kind, m.feature_map.input_dim, m.converged)
        assert _bits(b.theta) == _bits(m.theta)
        assert (b.normalizer is None) == (m.normalizer is None)
        if m.normalizer is not None:
            assert _bits(b.normalizer) == _bits(m.normalizer)


@settings(max_examples=200, deadline=None)
@given(model=_MODELS)
def test_model_text_round_trips_bit_for_bit(model):
    text = dataio.model_to_text(model)
    back = dataio.model_from_text(text)
    assert dataio.model_to_text(back) == text
    _assert_models_bit_equal(back, model)


@st.composite
def _classifiers(draw):
    model = draw(_MODELS)
    weighted = draw(st.booleans())
    degenerate = draw(st.booleans())
    threshold = (draw(st.sampled_from([math.inf, -math.inf])) if degenerate
                 else draw(_FINITE))
    provenance = np_classify.ThresholdResult(
        value=threshold,
        order_index=None if degenerate else draw(st.integers(1, 10**6)),
        degenerate=degenerate,
        all_missing=weighted and draw(st.booleans()),
        margin=draw(st.floats(min_value=0.0, exclude_min=True,
                              allow_infinity=False)) if weighted else None,
        calibration_size=draw(st.integers(1, 10**6)),
        method="missing-weighted" if weighted else "binomial",
    )
    return np_classify.NpClassifier(
        score_fn=model.log_ratio,
        threshold=threshold,
        alpha=draw(_UNIT.filter(lambda a: a > 0.0)),
        delta=draw(_UNIT.filter(lambda a: a > 0.0)),
        method=provenance.method,
        provenance=provenance,
        model=model,
    )


@settings(max_examples=200, deadline=None)
@given(clf=_classifiers())
def test_classifier_text_round_trips_bit_for_bit(clf):
    text = dataio.classifier_to_text(clf)
    back = dataio.classifier_from_text(text)
    assert dataio.classifier_to_text(back) == text
    _assert_models_bit_equal(back.model, clf.model)
    for name in ("threshold", "alpha", "delta"):
        assert _bits(getattr(back, name)) == _bits(getattr(clf, name))
    p, q = back.provenance, clf.provenance
    assert (p.order_index, p.degenerate, p.all_missing, p.calibration_size, p.method) == (
        q.order_index, q.degenerate, q.all_missing, q.calibration_size, q.method)
    assert (p.margin is None) == (q.margin is None)
    if q.margin is not None:
        assert _bits(p.margin) == _bits(q.margin)


_ENTRIES = st.one_of(
    st.just(Zero()),
    st.builds(ConstantProb, p=_UNIT),
    st.builds(LogisticScalar, a0=_FINITE, a1=_FINITE, tau=st.sampled_from([-1, 1])),
    st.builds(HalfspaceIndicator, direction=st.sampled_from([np.array([1.0]),
                                                             np.array([-1.0])]),
              level=_FINITE, p=_UNIT),
)


def _entry_params(e) -> tuple:
    fields = {Zero: (), ConstantProb: ("p",), LogisticScalar: ("a0", "a1", "tau"),
              HalfspaceIndicator: ("direction", "level", "p")}[type(e)]
    return (type(e),) + tuple(_bits(getattr(e, f)) for f in fields)


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(_ENTRIES, min_size=1, max_size=5))
def test_missingness_text_round_trips_bit_for_bit(entries):
    phi = MissingnessFunction.per_coordinate(entries)
    text = dataio.missingness_to_text(phi)
    back = dataio.missingness_from_text(text)
    assert dataio.missingness_to_text(back) == text
    assert [_entry_params(e) for e in back.entries] == [_entry_params(e) for e in entries]


@pytest.mark.parametrize("target", [0.0, 1e-6, 0.1, 0.5, 0.9])
def test_solve_target_proportion_meets_the_target(target):
    column = np.random.default_rng(2).normal(scale=3.0, size=500)
    column[::7] = np.nan  # missing entries take no part
    phi = dataio.solve_target_proportion(column, target)
    probs = phi.prob(column[~np.isnan(column)])
    assert abs(probs.mean() - target) <= 0.0025
    if target == 0.0:
        assert probs.max() == 0.0


def test_small_target_proportion_is_met_within_one_percent():
    # The stated tolerance is min(0.0025, 0.01 target): 2e-5 at a target of
    # 0.002, which an absolute 0.0025 left free to come back anywhere in
    # [0, 0.0045].
    column = np.random.default_rng(4).normal(scale=3.0, size=20_000)
    target = 0.002
    phi = dataio.solve_target_proportion(column, target)
    assert abs(phi.prob(column).mean() - target) <= 0.01 * target


def test_saturated_probes_of_the_target_search_do_not_warn():
    # The bracket search probes a0 = -2^k and 2^k, where phi saturates and
    # is clamped; no weight is built from a probe, so no clamp warning.
    # pyproject.toml filters that warning, so it is recorded here.
    column = np.random.default_rng(0).normal(scale=3.0, size=20_000)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phi = dataio.solve_target_proportion(column, 0.002)
        assert caught == []
        assert phi.a0 == -10.1875  # the intercept found while probes warned
        phi.prob(np.array([30.0]))  # the solved phi still warns where it clamps
    assert [str(w.message).split(";")[0] for w in caught] == [
        "missing-probability evaluations were clamped to 0.999"
    ]
