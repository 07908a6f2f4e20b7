"""Dataset ingestion, the interval base classifier, and evaluation harnesses."""

import math
import operator
import re
import warnings
from dataclasses import asdict, replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credfuse import (
    Dataset,
    FusionResult,
    IcefConfig,
    InvalidConfigError,
    InvalidMassValueError,
    LengthMismatchError,
    MassFunction,
    TotalConflictError,
    attribute_evidence,
    classify_sample,
    fit_interval_model,
    fuse,
    interval_distance,
    load_dataset,
    monte_carlo_evaluate,
    sweep_evaluate,
)
from credfuse import classify, core, divergence
from credfuse.divergence import DivergenceMeasure
from credfuse.classify import (
    EmptyDatasetError,
    MissingClassError,
    ParseError,
    SchemaError,
    _evaluate_model,
    stratified_head_indices,
)

from . import reference


@pytest.fixture(scope="module")
def iris(iris_path):
    return load_dataset(iris_path, label_column="species", name="iris")


def make_dataset(features, labels, name="synthetic"):
    features = np.asarray(features, dtype=float)
    names = tuple(f"f{i + 1}" for i in range(features.shape[1]))
    return Dataset(name, names, features, tuple(labels), tuple(dict.fromkeys(labels)))


@pytest.fixture(scope="module")
def separable():
    """Two classes cleanly split on both attributes."""
    rng = np.random.default_rng(3)
    lows = np.column_stack([rng.uniform(0, 1, 20), rng.uniform(0, 1, 20)])
    highs = np.column_stack([rng.uniform(8, 9, 20), rng.uniform(8, 9, 20)])
    features = np.vstack([lows, highs])
    labels = ["low"] * 20 + ["high"] * 20
    return make_dataset(features, labels)


def _many_classes_csv(classes: int = 22, rows: int = 44) -> str:
    """A two-feature CSV whose row ``r`` (1-based) holds class ``c<(r - 1) % classes + 1>``."""
    return "a,b,y\n" + "".join(f"{r}.0,{r % 5}.5,c{r % classes + 1}\n" for r in range(rows))


class TestLoadDataset:
    def test_iris_shape(self, iris):
        assert iris.n_records == 150
        assert iris.n_attributes == 4
        assert iris.class_labels == ("setosa", "versicolor", "virginica")
        for label in iris.class_labels:
            assert len(iris.class_indices(label)) == 50

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_dataset(path, label_column="y")

    def test_header_only(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("a,b,y\n")
        with pytest.raises(EmptyDatasetError):
            load_dataset(path, label_column="y")

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1.0,2.0,x\n1.0,oops,x\n")
        with pytest.raises(ParseError) as excinfo:
            load_dataset(path, label_column="y")
        assert excinfo.value.row == 2
        assert excinfo.value.column == "b"

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("a,b,y\n1.0,,x\n")
        with pytest.raises(ParseError) as excinfo:
            load_dataset(path, label_column="y")
        assert excinfo.value.row == 1

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_cell_reports_location(self, tmp_path, cell):
        # float() reads these, and they used to fail later as a NaN mass
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"a,b,y\n1.0,2.0,x\n1.0,{cell},x\n")
        with pytest.raises(ParseError, match="not finite") as excinfo:
            load_dataset(path, label_column="y")
        assert (excinfo.value.row, excinfo.value.column) == (2, "b")

    def test_label_with_a_comma_reports_location(self, tmp_path):
        # a class is a frame event, and a frame label cannot hold a comma
        path = tmp_path / "comma.csv"
        path.write_text('a,b,y\n1.0,2.0,x\n1.0,2.0,"x,z"\n')
        with pytest.raises(ParseError, match="comma") as excinfo:
            load_dataset(path, label_column="y")
        assert (excinfo.value.row, excinfo.value.column) == (2, "y")

    @pytest.mark.parametrize("header, feature_columns, repeated", [
        ("a,a,y", None, "['a']"),
        ("y,a,y", None, "['y']"),
        ("a,b,b,a,y", ["a"], "['a', 'b']"),
        ("a,b,y", ["b", "a", "b"], "['b']"),
    ])
    def test_repeated_column_names_are_refused(self, tmp_path, header, feature_columns,
                                               repeated):
        # a repeated name used to read its first namesake twice and drop
        # the second column without a word
        path = tmp_path / "repeated.csv"
        path.write_text(f"{header}\n" + ",".join(["1.0"] * header.count(",") + ["x"]) + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"{repeated} repeated")):
            load_dataset(path, label_column="y", feature_columns=feature_columns)

    def test_label_column_among_the_features_is_refused(self, tmp_path):
        # used to load the labels as a feature, so a model scored on them
        path = tmp_path / "label.csv"
        path.write_text("a,y\n1.0,0\n2.0,1\n3.0,0\n4.0,1\n")
        with pytest.raises(SchemaError, match="label column 'y' named as a feature column"):
            load_dataset(path, label_column="y", feature_columns=["a", "y"])

    def test_more_classes_than_a_frame_holds_report_location(self, tmp_path):
        # used to load, then end in Frame's ValueError inside the first trial
        path = tmp_path / "many.csv"
        path.write_text(_many_classes_csv())
        with pytest.raises(ParseError, match="22 classes.* at most 20 events") as excinfo:
            load_dataset(path, label_column="y")
        assert (excinfo.value.row, excinfo.value.column) == (21, "y")
        assert "'c21'" in str(excinfo.value)
        path.write_text(_many_classes_csv(classes=core.MAX_EVENTS))
        assert len(load_dataset(path, label_column="y").class_labels) == core.MAX_EVENTS

    @pytest.mark.parametrize("delimiter", ["", ";;", None, 1, b","])
    def test_delimiter_that_is_not_one_character_rejected(self, iris_path, delimiter):
        # used to end in csv's TypeError
        with pytest.raises(InvalidConfigError, match="delimiter"):
            load_dataset(iris_path, label_column="species", delimiter=delimiter)

    def test_one_character_delimiter_read(self, tmp_path):
        path = tmp_path / "semicolon.csv"
        path.write_text("a;b;y\n1.0;2.0;x\n")
        ds = load_dataset(path, label_column="y", delimiter=";")
        assert ds.feature_names == ("a", "b") and ds.labels == ("x",)

    def test_class_indices_read_one_label_array(self, iris, monkeypatch):
        labels = iris._label_array
        monkeypatch.setattr(np, "array", lambda *args, **kwargs: pytest.fail("built again"))
        for label in iris.class_labels + ("absent",):
            want = [i for i, name in enumerate(iris.labels) if name == label]
            assert iris.class_indices(label).tolist() == want
        assert iris._label_array is labels

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "schema.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(SchemaError):
            load_dataset(path, label_column="species")

    def test_feature_selection(self, iris_path):
        ds = load_dataset(iris_path, label_column="species",
                          feature_columns=["petal_length", "petal_width"])
        assert ds.n_attributes == 2
        assert ds.feature_names == ("petal_length", "petal_width")


class TestIntervalModel:
    def test_single_record_degenerate_intervals(self):
        ds = make_dataset([[1.5, 2.5], [4.0, 5.0]], ["a", "b"])
        model = fit_interval_model(ds, lam=1.0)
        np.testing.assert_array_equal(model.lows, model.highs)

    def test_intervals_only_widen_with_more_rows(self, iris):
        lam = 5.0
        small = fit_interval_model(iris.subset(stratified_head_indices(iris, 0.5)), lam)
        big = fit_interval_model(iris, lam)
        assert (big.lows <= small.lows + 1e-12).all()
        assert (big.highs >= small.highs - 1e-12).all()

    def test_bounds_match_brute_force_scan(self, iris):
        train = iris.subset(stratified_head_indices(iris, 0.7))
        model = fit_interval_model(train, lam=5.0)
        for c, label in enumerate(train.class_labels):
            rows = [train.features[i] for i in range(train.n_records)
                    if train.labels[i] == label]
            for a in range(train.n_attributes):
                column = [row[a] for row in rows]
                assert model.lows[c, a] == min(column)
                assert model.highs[c, a] == max(column)

    def test_missing_class(self):
        ds = Dataset("d", ("f1",), np.array([[1.0]]), ("a",), ("a", "ghost"))
        with pytest.raises(MissingClassError):
            fit_interval_model(ds, lam=1.0)

    def test_rejects_nonpositive_lam(self, separable):
        with pytest.raises(InvalidConfigError, match="lam"):
            fit_interval_model(separable, lam=0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_rejects_non_finite_lam(self, separable, lam):
        # these used to pass and turn into NaN masses
        with pytest.raises(InvalidConfigError, match="lam"):
            fit_interval_model(separable, lam=lam)


class TestIntervalDistance:
    def test_identical_intervals(self):
        assert interval_distance(1.0, 3.0, 1.0, 3.0) == 0.0

    def test_point_intervals_reduce_to_midpoint_gap(self):
        assert interval_distance(2.0, 2.0, 5.0, 5.0) == pytest.approx(3.0)

    def test_halfwidth_term(self):
        # same midpoint, half-widths 1 vs 0: sqrt(1/3)
        assert interval_distance(1.0, 3.0, 2.0, 2.0) == pytest.approx((1 / 3) ** 0.5)


class TestAttributeEvidence:
    def test_valid_bba(self, separable):
        model = fit_interval_model(separable, lam=2.0)
        m = attribute_evidence(model, separable.features[0], 0)
        total = sum(v for _, v in m.items())
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(mask.bit_count() == 1 for mask in m.focal_elements())

    def test_identical_intervals_give_uniform(self):
        ds = make_dataset([[1.0], [2.0], [1.0], [2.0]], ["a", "a", "b", "b"])
        model = fit_interval_model(ds, lam=3.0)
        m = attribute_evidence(model, [1.5], 0)
        assert m.mass("a") == pytest.approx(0.5)
        assert m.mass("b") == pytest.approx(0.5)

    def test_masses_match_scalar_recomputation(self, separable):
        model = fit_interval_model(separable, lam=2.0)
        x = float(separable.features[7, 1])
        sims = []
        for c in range(2):
            lo, hi = model.lows[c, 1], model.highs[c, 1]
            mid = (lo + hi) / 2 - x
            half = (hi - lo) / 2
            d = (mid * mid + half * half / 3) ** 0.5
            sims.append(1 / (1 + 2.0 * d))
        m = attribute_evidence(model, separable.features[7], 1)
        for c, label in enumerate(model.class_labels):
            assert m.mass(label) == pytest.approx(sims[c] / sum(sims), abs=1e-12)

    def test_far_class_with_large_scale_vanishes(self):
        ds = make_dataset([[0.0], [0.2], [100.0], [100.2]], ["near", "near", "far", "far"])
        model = fit_interval_model(ds, lam=1e6)
        m = attribute_evidence(model, [0.1], 0)
        assert m.mass("near") > 0.999

    def test_overflowing_scale_raises_the_typed_error(self, recwarn):
        # lam * distance overflows for a value far from every class interval,
        # every similarity is 0 and the masses are 0/0
        ds = make_dataset([[0.0, 0.0], [0.2, 0.2], [5.0, 5.0], [5.2, 5.2]],
                          ["p", "p", "q", "q"])
        model = fit_interval_model(ds, lam=1e308)
        with pytest.raises(InvalidMassValueError, match="not finite"):
            attribute_evidence(model, [1e300, 0.1], 0)
        far = make_dataset([[0.1, 0.1], [1e300, 1e300]], ["p", "q"])
        with pytest.raises(InvalidMassValueError, match="not finite"):
            _evaluate_model(model, far, ["dcr", "icef-pbagd"], IcefConfig())
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("attribute, error, message", [
        (-1, IndexError, "attribute index -1 out of range for a model of 4 attributes"),
        (4, IndexError, "attribute index 4 out of range for a model of 4 attributes"),
        (True, TypeError, "an attribute is an integer index, got True"),
        (1.0, TypeError, "an attribute is an integer index, got 1.0"),
    ])
    def test_an_attribute_that_is_no_index_of_the_model_is_refused(
            self, iris, attribute, error, message):
        # -1 used to read the last attribute, True attribute 1, 1.0 ended in
        # list indexing's TypeError and 4 in a bare IndexError
        model = fit_interval_model(iris, lam=5.0)
        with pytest.raises(error, match=re.escape(message)):
            attribute_evidence(model, iris.features[0], attribute)

    def test_a_numpy_integer_index_reads_its_attribute(self, iris):
        model = fit_interval_model(iris, lam=5.0)
        sample = iris.features[0]
        assert attribute_evidence(model, sample, np.int64(3)) == attribute_evidence(
            model, sample, 3)


def _scalar_evidence(model, sample, attribute):
    """The per-element reference: interval_distance per class, normalized."""
    x = float(np.asarray(sample, dtype=float)[attribute])
    similarities = np.empty(len(model.class_labels))
    for c in range(len(model.class_labels)):
        d = interval_distance(model.lows[c, attribute], model.highs[c, attribute], x, x)
        similarities[c] = 1.0 / (1.0 + model.lam * d)
    masses = similarities / similarities.sum()
    return MassFunction(model.frame, {1 << c: masses[c] for c in range(len(masses))})


class TestSplitEvidence:
    """The split's similarity table against the per-element formula, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(1, 10),
           n_attributes=st.integers(1, 5), n_samples=st.integers(1, 12),
           lam=st.sampled_from([1e-3, 0.5, 5.0, 1e3]))
    def test_table_matches_scalar_formula(self, seed, n_classes, n_attributes, n_samples, lam):
        rng = np.random.default_rng(seed)
        labels = [f"c{i % n_classes}" for i in range(3 * n_classes)]
        train = make_dataset(rng.normal(0, 3, (len(labels), n_attributes)), labels)
        model = fit_interval_model(train, lam)
        samples = rng.normal(0, 4, (n_samples, n_attributes))
        samples[0] = model.lows[0]  # on an interval's end
        evidence = classify._split_evidence(model, samples)
        assert [len(pieces) for pieces in evidence] == [n_attributes] * n_samples
        for sample, pieces in zip(samples, evidence):
            for a, got in enumerate(pieces):
                want = _scalar_evidence(model, sample, a)
                assert got == want and got.frame is model.frame
                assert got._values.tobytes() == want._values.tobytes()
                assert attribute_evidence(model, sample, a) == want


class TestIntervalModelFrame:
    def test_frame_built_once(self, separable):
        model = fit_interval_model(separable, lam=2.0)
        m1 = attribute_evidence(model, separable.features[0], 0)
        m2 = attribute_evidence(model, separable.features[1], 1)
        assert m1.frame is m2.frame is model.frame
        assert model.frame.events == separable.class_labels


class TestClassifySample:
    @pytest.mark.parametrize("method", ["dcr", "murphy", "icef-pbagd"])
    def test_separable_data_is_perfect(self, separable, method):
        model = fit_interval_model(separable, lam=2.0)
        for i in range(separable.n_records):
            label, _ = classify_sample(model, separable.features[i], method)
            assert label == separable.labels[i]

    def test_murphy_equals_icef_on_identical_evidence(self):
        # two identical attributes produce identical evidence per attribute
        ds = make_dataset([[1.0, 1.0], [2.0, 2.0], [5.0, 5.0], [6.0, 6.0]],
                          ["a", "a", "b", "b"])
        model = fit_interval_model(ds, lam=1.0)
        sample = [1.4, 1.4]
        _, murphy = classify_sample(model, sample, "murphy")
        _, icef_res = classify_sample(model, sample, "icef-pbagd")
        for mask in murphy.mass.focal_elements():
            assert icef_res.mass.mass(mask) == pytest.approx(murphy.mass.mass(mask),
                                                             abs=1e-9)

    @pytest.mark.parametrize("sample, shape", [
        ([5.1], "(1,)"),  # used to be spread over every attribute and decided
        ([5.1, 3.5], "(2,)"),  # used to end in numpy's broadcast ValueError
        (5.1, "()"),  # used to end in IndexError
        ([[5.1, 3.5, 1.4, 0.2]], "(1, 4)"),
    ])
    def test_a_sample_of_the_wrong_length_is_refused(self, iris, sample, shape):
        model = fit_interval_model(iris, lam=5.0)
        message = re.escape(f"one row of 4 attribute values, got values of shape {shape}")
        with pytest.raises(LengthMismatchError, match=message):
            classify_sample(model, sample)
        with pytest.raises(LengthMismatchError, match=message):
            attribute_evidence(model, sample, 3)


@pytest.fixture(scope="module")
def sweep_reports(separable):
    return sweep_evaluate(separable, ["dcr", "icef-pbagd"], lam=2.0)


class TestSweep:
    def test_51_reports_per_method(self, sweep_reports):
        for method in ("dcr", "icef-pbagd"):
            assert sum(1 for r in sweep_reports if r.method == method) == 51

    def test_deterministic(self, separable):
        a = sweep_evaluate(separable, ["dcr"], lam=2.0, fractions=[0.6])
        b = sweep_evaluate(separable, ["dcr"], lam=2.0, fractions=[0.6])
        assert a[0].total_accuracy == b[0].total_accuracy
        assert a[0].per_class_accuracy == b[0].per_class_accuracy

    def test_head_indices_equal_the_sorted_loop(self, iris):
        # np.sort over the classes' heads gives the indices, and the dtype,
        # of sorting them one by one, at every default sweep fraction
        for fraction in (round(0.50 + 0.01 * i, 2) for i in range(51)):
            got = stratified_head_indices(iris, fraction)
            want = reference.stratified_head_indices(iris, fraction)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_full_fraction_is_resubstitution(self, separable):
        report = sweep_evaluate(separable, ["dcr"], lam=2.0, fractions=[1.0])[0]
        assert report.n_train == separable.n_records
        assert report.total_accuracy == 1.0

    @pytest.mark.parametrize("fraction", [-0.1, 0.0, 1.5, True, math.nan, math.inf, "0.5", None])
    def test_rejects_a_fraction_outside_zero_to_one(self, separable, fraction, monkeypatch):
        # -0.1 used to train on most rows and 1.5 or True on all of them;
        # NaN and inf ended in a bare ValueError and OverflowError
        with pytest.raises(InvalidConfigError, match="fraction"):
            stratified_head_indices(separable, fraction)
        monkeypatch.setattr(classify, "_evaluate_model", lambda *args: pytest.fail("evaluated"))
        with pytest.raises(InvalidConfigError, match="fraction"):
            sweep_evaluate(separable, ["dcr"], lam=2.0, fractions=[0.6, fraction])

    def test_total_is_record_weighted(self, sweep_reports):
        r = sweep_reports[0]
        class_sizes = {"low": 20, "high": 20}
        weighted = sum(r.per_class_accuracy[c] * class_sizes[c] for c in class_sizes) / 40
        assert r.total_accuracy == pytest.approx(weighted)


class TestMonteCarlo:
    def test_same_seed_identical(self, separable):
        a = monte_carlo_evaluate(separable, ["dcr"], lam=2.0, trials=3, seed=42)
        b = monte_carlo_evaluate(separable, ["dcr"], lam=2.0, trials=3, seed=42)
        assert a["dcr"].trial_accuracies == b["dcr"].trial_accuracies
        assert a["dcr"].total_accuracy == b["dcr"].total_accuracy

    def test_splits_vary_across_trials(self):
        # featureless labels: per-trial accuracy depends only on the split,
        # so repeated trials must not all score identically
        rng = np.random.default_rng(5)
        ds = make_dataset(rng.uniform(0, 1, (30, 2)),
                          ["a" if i % 2 else "b" for i in range(30)])
        report = monte_carlo_evaluate(ds, ["dcr"], lam=1.0, trials=10, seed=5)["dcr"]
        assert len(set(report.trial_accuracies)) > 1

    def test_single_trial_is_single_split(self, separable):
        report = monte_carlo_evaluate(separable, ["dcr"], lam=2.0, trials=1, seed=0)["dcr"]
        assert len(report.trial_accuracies) == 1
        assert report.total_accuracy == report.trial_accuracies[0]

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_mean_is_the_fsum_of_the_trials(self, iris, seed):
        # adding the trials in order, as the harness once did, rounds
        # differently on these seeds
        reports = monte_carlo_evaluate(iris, ["dcr", "murphy"], lam=5.0, trials=10, seed=seed)
        in_order = []
        for report in reports.values():
            series = report.trial_accuracies
            assert report.total_accuracy == math.fsum(series) / 10
            in_order.append(reduce(operator.add, series) / 10 != report.total_accuracy)
        assert any(in_order)

    def test_split_sizes_stratified(self, separable):
        report = monte_carlo_evaluate(separable, ["dcr"], lam=2.0, trials=1, seed=0)["dcr"]
        assert report.n_train == 28  # 70% of 20 per class

    @pytest.mark.parametrize("settings, name", [
        ({"trials": 0}, "trials"),  # used to divide by zero trials
        ({"trials": -1}, "trials"),
        ({"trials": 2.5}, "trials"),
        ({"trials": True}, "trials"),
        ({"train_fraction": 1.0}, "train_fraction"),  # used to divide by an empty test set
        ({"train_fraction": 0.99}, "train_fraction"),  # rounds to every row of each class
        ({"train_fraction": math.nan}, "train_fraction"),  # used to fail inside round()
        ({"train_fraction": 0.0}, "train_fraction"),
        ({"train_fraction": "0.5"}, "train_fraction"),  # used to raise a bare TypeError
        ({"train_fraction": None}, "train_fraction"),
    ])
    def test_rejects_settings_that_leave_nothing_to_score(self, separable, settings, name):
        with pytest.raises(InvalidConfigError, match=name):
            monte_carlo_evaluate(separable, ["dcr"], lam=2.0, **settings)

    @pytest.mark.parametrize("seed", [-1, True, 2.5, None, "3"])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, separable, seed):
        # -1 used to end in numpy's ValueError
        with pytest.raises(InvalidConfigError, match="seed"):
            monte_carlo_evaluate(separable, ["dcr"], lam=2.0, trials=1, seed=seed)

    def test_accepts_a_numpy_integer_seed(self, separable):
        a = monte_carlo_evaluate(separable, ["dcr"], lam=2.0, trials=3, seed=np.int64(4))
        b = monte_carlo_evaluate(separable, ["dcr"], lam=2.0, trials=3, seed=4)
        assert a["dcr"].trial_accuracies == b["dcr"].trial_accuracies


class TestOneFeatureColumn:
    """Each feature column gives one piece of evidence, and fusion needs two."""

    @pytest.mark.parametrize("method", ["dcr", "icef-bjs"])
    def test_harnesses_refuse_before_fusing(self, separable, monkeypatch, method):
        # this used to end in fusion's ValueError for a single piece
        one = make_dataset(separable.features[:, :1], separable.labels)
        monkeypatch.setattr(classify, "_fuse_tables",
                            lambda *args: pytest.fail("fused a single piece of evidence"))
        with pytest.raises(InvalidConfigError, match="two feature columns"):
            monte_carlo_evaluate(one, [method], lam=2.0, trials=1)
        with pytest.raises(InvalidConfigError, match="two feature columns"):
            sweep_evaluate(one, [method], lam=2.0, fractions=[0.5])


class TestUnknownMethod:
    @pytest.mark.parametrize("methods, error, message", [
        (["magic"], InvalidConfigError, "unknown fusion method 'magic'"),
        (["dcr", "icef-nope"], KeyError, "unknown divergence measure 'nope'"),
        ("murphy", InvalidConfigError, "not the str 'murphy'"),
        ([3], InvalidConfigError, "unknown fusion method 3"),
        ([None], InvalidConfigError, "unknown fusion method None"),
    ])
    def test_harnesses_refuse_before_any_fit(self, separable, monkeypatch, methods, error,
                                             message):
        # both used to fit the first split, then raise ValueError or KeyError;
        # "murphy" was read as the methods 'm', 'u', ..., and a name that is
        # not a str ended in AttributeError
        fits = []
        fit = classify.fit_interval_model
        monkeypatch.setattr(classify, "fit_interval_model",
                            lambda *args: fits.append(args) or fit(*args))
        with pytest.raises(error, match=re.escape(message)):
            monte_carlo_evaluate(separable, methods, lam=2.0, trials=2)
        with pytest.raises(error, match=re.escape(message)):
            sweep_evaluate(separable, methods, lam=2.0, fractions=[0.5, 1.0])
        assert fits == []

    @pytest.mark.parametrize("config", [{"tau": 1}, {}])
    def test_harnesses_refuse_a_config_before_any_fit(self, separable, monkeypatch, config):
        # a dict used to raise TypeError from replace() after the first fit
        fits = []
        fit = classify.fit_interval_model
        monkeypatch.setattr(classify, "fit_interval_model",
                            lambda *args: fits.append(args) or fit(*args))
        with pytest.raises(InvalidConfigError, match="config must be an IcefConfig"):
            monte_carlo_evaluate(separable, ["icef-pbagd"], lam=5.0, config=config, trials=1)
        with pytest.raises(InvalidConfigError, match="config must be an IcefConfig"):
            sweep_evaluate(separable, ["murphy"], lam=2.0, config=config, fractions=[0.5])
        assert fits == []

    def test_classify_sample_refuses_a_name_that_is_no_str(self, separable):
        model = fit_interval_model(separable, lam=2.0)
        with pytest.raises(InvalidConfigError, match="unknown fusion method None"):
            classify_sample(model, separable.features[0], method=None)


class TestEvaluationTallies:
    def test_starting_probabilities_that_are_not_finite_are_refused(self, iris, monkeypatch):
        # every divergence from an assertion is 1e308: the support of each
        # is exp(-1) at this tau, but every EEM row sum overflows, and the
        # harness used to score each sample as a total conflict
        class Remote(DivergenceMeasure):
            name = "remote"

            def evaluate(self, m1, m2):
                return 0.0 if m1 == m2 else 1e308

        monkeypatch.setitem(divergence._MEASURES, Remote.name, Remote())
        config = IcefConfig(tau=1e-308, init="eem")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow and 0/0 among them
            with pytest.raises(InvalidMassValueError, match="starting probabilities"):
                monte_carlo_evaluate(iris, ["icef-remote"], lam=5.0, config=config, trials=1)
            report = monte_carlo_evaluate(iris, ["icef-remote"], lam=5.0,
                                          config=replace(config, init="uniform"), trials=1)
        assert report["icef-remote"].conflict_samples == 0

    def test_conflicts_counted_per_method(self):
        # at this scale the far class gets no mass, so a sample that sits in
        # class a on one attribute and in class b on the other drives plain
        # combination into total conflict
        train = make_dataset([[0.0, 100.0], [0.1, 100.1], [100.0, 0.0], [100.1, 0.1]],
                             ["a", "a", "b", "b"])
        model = fit_interval_model(train, lam=1e307)
        test = make_dataset([[0.05, 0.05], [0.05, 100.05]], ["a", "a"])
        scores = _evaluate_model(model, test, ["dcr", "murphy"], IcefConfig())
        assert scores["dcr"].conflicts == 1
        assert scores["murphy"].conflicts == 0

    def test_sweep_reports_conflicts_and_non_convergence(self, separable):
        config = IcefConfig(max_iter=1)
        reports = sweep_evaluate(separable, ["dcr", "icef-pbagd"], lam=2.0,
                                 config=config, fractions=[0.6])
        by_method = {r.method: r for r in reports}
        assert by_method["dcr"].conflict_samples == 0
        assert by_method["dcr"].unconverged_samples == 0
        assert by_method["icef-pbagd"].unconverged_samples == separable.n_records

    def test_monte_carlo_sums_tallies_over_trials(self, separable):
        reports = monte_carlo_evaluate(separable, ["murphy", "icef-pbagd"], lam=2.0,
                                       config=IcefConfig(max_iter=1), trials=3, seed=1)
        test_size = separable.n_records - 28
        assert reports["icef-pbagd"].unconverged_samples == 3 * test_size
        assert reports["murphy"].unconverged_samples == 0
        assert reports["murphy"].conflict_samples == 0

    def test_evidence_built_once_per_sample(self, separable, monkeypatch):
        # the split's similarity table is where each sample's evidence comes from
        samples = []
        similarities = classify._similarities
        monkeypatch.setattr(classify, "_similarities",
                            lambda model, xs: samples.extend(xs) or similarities(model, xs))
        sweep_evaluate(separable, ["dcr", "murphy", "icef-pbagd"], lam=2.0, fractions=[0.6])
        assert len(samples) == separable.n_records


def _per_sample_scores(model, test, methods, config):
    """The oracle: score each test sample with one ``fuse`` call per method."""
    scores = {m: classify._Score({label: 0 for label in test.class_labels}) for m in methods}
    for sample, truth in zip(test.features, test.labels):
        evidence = [attribute_evidence(model, sample, a) for a in range(model.n_attributes)]
        for method, score in scores.items():
            try:
                result = fuse(evidence, method=method, config=config)
            except TotalConflictError:
                score.conflicts += 1
                continue
            score.unconverged += not result.converged
            score.correct[truth] += result.decision == truth
    return scores


class TestBatchedScoringAgainstPerSample:
    METHODS = ["dcr", "murphy", "icef-pbagd", "icef-bjs"]

    def _reports(self, ds, config, lam):
        mc = monte_carlo_evaluate(ds, self.METHODS, lam=lam, config=config, trials=3, seed=11)
        sweep = sweep_evaluate(ds, self.METHODS, lam=lam, config=config,
                               fractions=[0.5, 0.77, 1.0])
        return [asdict(r) for r in mc.values()] + [asdict(r) for r in sweep]

    @pytest.mark.parametrize("max_iter", [200, 3])
    def test_iris_reports_identical(self, iris, monkeypatch, max_iter):
        config = IcefConfig(tau=200.0, max_iter=max_iter)
        batched = self._reports(iris, config, 5.0)
        monkeypatch.setattr(classify, "_evaluate_model", _per_sample_scores)
        assert batched == self._reports(iris, config, 5.0)
        assert any(r["unconverged_samples"] for r in batched) == (max_iter == 3)

    def test_conflict_counts_identical(self, monkeypatch):
        train = make_dataset([[0.0, 100.0], [0.1, 100.1], [100.0, 0.0], [100.1, 0.1]],
                             ["a", "a", "b", "b"])
        model = fit_interval_model(train, lam=1e307)
        test = make_dataset([[0.05, 0.05], [0.05, 100.05], [100.0, 0.05]], ["a", "a", "b"])
        batched = _evaluate_model(model, test, self.METHODS, IcefConfig())
        expected = _per_sample_scores(model, test, self.METHODS, IcefConfig())
        assert {m: asdict(s) for m, s in batched.items()} == (
            {m: asdict(s) for m, s in expected.items()})
        assert batched["dcr"].conflicts == 1


class TestTableScoring:
    """A split is scored on mass tables: no mass function and no fusion
    result is built, and every row that is read passes the mass rules."""

    METHODS = ["dcr", "murphy", "icef-pbagd", "icef-bjs"]

    def _split(self, iris):
        train = iris.subset(stratified_head_indices(iris, 0.7))
        return fit_interval_model(train, lam=5.0), iris.subset(range(0, 150, 4))

    def test_builds_no_mass_function_and_no_result(self, iris, monkeypatch):
        model, test = self._split(iris)
        config = IcefConfig(tau=5.0)
        expected = _per_sample_scores(model, test, self.METHODS, config)

        def refuse(*args, **kwargs):
            raise AssertionError("built an object per piece or per result")

        monkeypatch.setattr(MassFunction, "_assign", refuse)
        monkeypatch.setattr(core, "_mass_rows", refuse)
        monkeypatch.setattr(FusionResult, "__init__", refuse)
        scores = _evaluate_model(model, test, self.METHODS, config)
        assert {m: asdict(s) for m, s in scores.items()} == (
            {m: asdict(s) for m, s in expected.items()})

    def test_evidence_and_fused_rows_are_checked(self, iris, monkeypatch):
        model, test = self._split(iris)
        checked = []
        check_rows = core._check_rows
        monkeypatch.setattr(core, "_check_rows", lambda frame, masks, table:
                            checked.append(len(table)) or check_rows(frame, masks, table))
        _evaluate_model(model, test, self.METHODS, IcefConfig())
        # the evidence once, then each method's fused rows
        assert checked == [test.n_records * model.n_attributes] + [test.n_records] * 4

    def test_total_conflict_of_the_loop_is_no_non_convergence(self, iris, monkeypatch):
        # a threshold at which some self-combinations fail: those samples
        # count as conflicts only, as the per-sample oracle counts them
        monkeypatch.setattr(core, "_LOG2_CONFLICT_EPS", -1.3)
        model, test = self._split(iris)
        config = IcefConfig(max_iter=3)
        scores = _evaluate_model(model, test, self.METHODS, config)
        expected = _per_sample_scores(model, test, self.METHODS, config)
        assert {m: asdict(s) for m, s in scores.items()} == (
            {m: asdict(s) for m, s in expected.items()})
        assert 0 < scores["icef-pbagd"].conflicts < test.n_records
        assert scores["icef-pbagd"].unconverged > 0

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_feature_raises_what_attribute_evidence_raises(self, separable, value):
        model = fit_interval_model(separable, lam=2.0)
        features = separable.features[:6].copy()
        features[3, 1] = value
        test = make_dataset(features, separable.labels[:6])
        with pytest.raises(InvalidMassValueError) as want:
            attribute_evidence(model, features[3], 1)
        with pytest.raises(InvalidMassValueError) as got:
            _evaluate_model(model, test, ["dcr", "icef-pbagd"], IcefConfig())
        assert str(got.value) == str(want.value)
