"""Dataset ingestion, the interval base classifier, and evaluation harnesses."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from credfuse import (
    Dataset,
    IcefConfig,
    InvalidConfigError,
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
from credfuse import classify
from credfuse.classify import (
    EmptyDatasetError,
    MissingClassError,
    ParseError,
    SchemaError,
    _evaluate_model,
    stratified_head_indices,
)


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

    def test_full_fraction_is_resubstitution(self, separable):
        report = sweep_evaluate(separable, ["dcr"], lam=2.0, fractions=[1.0])[0]
        assert report.n_train == separable.n_records
        assert report.total_accuracy == 1.0

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
        monkeypatch.setattr(classify, "_fuse_batch",
                            lambda *args: pytest.fail("fused a single piece of evidence"))
        with pytest.raises(InvalidConfigError, match="two feature columns"):
            monte_carlo_evaluate(one, [method], lam=2.0, trials=1)
        with pytest.raises(InvalidConfigError, match="two feature columns"):
            sweep_evaluate(one, [method], lam=2.0, fractions=[0.5])


class TestEvaluationTallies:
    def test_conflicts_counted_per_method(self):
        # at this scale the far class gets no mass, so a sample that sits in
        # class a on one attribute and in class b on the other drives plain
        # combination into total conflict
        train = make_dataset([[0.0, 100.0], [0.1, 100.1], [100.0, 0.0], [100.1, 0.1]],
                             ["a", "a", "b", "b"])
        model = fit_interval_model(train, lam=1e307)
        test = make_dataset([[0.05, 0.05], [0.05, 100.05]], ["a", "a"])
        scores = _evaluate_model(model, test, ["dcr", "murphy"], None)
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
        calls = []
        monkeypatch.setattr(classify, "attribute_evidence",
                            lambda *args: calls.append(1) or attribute_evidence(*args))
        sweep_evaluate(separable, ["dcr", "murphy", "icef-pbagd"], lam=2.0, fractions=[0.6])
        assert len(calls) == separable.n_records * separable.n_attributes


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
        batched = _evaluate_model(model, test, self.METHODS, None)
        expected = _per_sample_scores(model, test, self.METHODS, None)
        assert {m: asdict(s) for m, s in batched.items()} == (
            {m: asdict(s) for m, s in expected.items()})
        assert batched["dcr"].conflicts == 1
