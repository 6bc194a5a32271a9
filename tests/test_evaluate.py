import numpy as np
import pytest

from conftest import reference_train
from homcount.datasets import DatasetBundle, gen_csl, load_paulus
from homcount.embedding import apply_standardizer, embed, fit_standardizer
from homcount.evaluate import (
    Hyper,
    _fold_seed,
    bench_runtime,
    cross_validate,
    predict,
    stratified_kfold,
    train_classifier,
)
from homcount.graphs import Graph


class TestStratifiedKFold:
    def test_partition(self):
        labels = [0] * 30 + [1] * 20
        folds = stratified_kfold(labels, k=5, seed=0)
        seen = []
        for train, test in folds:
            assert sorted(train + test) == list(range(50))
            seen.extend(test)
        assert sorted(seen) == list(range(50))

    def test_proportions_within_one(self):
        labels = [0] * 30 + [1] * 20
        for _, test in stratified_kfold(labels, k=5, seed=1):
            zeros = sum(1 for i in test if labels[i] == 0)
            ones = len(test) - zeros
            assert abs(zeros - 6) <= 1 and abs(ones - 4) <= 1

    def test_csl_fold_sizes(self):
        labels = gen_csl(seed=0).labels
        for _, test in stratified_kfold(labels, k=10, seed=0):
            assert len(test) == 15
            per_class = [sum(1 for i in test if labels[i] == c) for c in range(10)]
            assert all(1 <= n <= 2 for n in per_class)

    def test_binary_balanced(self):
        labels = [0] * 50 + [1] * 50
        for _, test in stratified_kfold(labels, k=2, seed=3):
            assert sum(1 for i in test if labels[i] == 1) == 25

    def test_same_seed_identical(self):
        labels = [0, 1, 2] * 10
        assert stratified_kfold(labels, 5, seed=9) == stratified_kfold(labels, 5, seed=9)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            stratified_kfold([0, 1], k=1)

    def test_k_larger_than_dataset(self):
        with pytest.raises(ValueError, match="k=4 .* has 3"):
            stratified_kfold([0, 1, 0], k=4)

    def test_small_class_warns(self):
        with pytest.warns(UserWarning, match="members"):
            stratified_kfold([0] * 20 + [1] * 3, k=5, seed=0)


class TestClassifier:
    def test_linearly_separable(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(loc=-2.0, size=(30, 3))
        x1 = rng.normal(loc=+2.0, size=(30, 3))
        x = np.vstack([x0, x1])
        y = np.array([0] * 30 + [1] * 30)
        model = train_classifier(x, y, hyper=Hyper(epochs=300))
        assert (predict(model, x) == y).mean() == 1.0

    def test_identical_rows_hit_class_prior(self):
        x = np.zeros((50, 4))
        y = np.array([0] * 30 + [1] * 20)
        model = train_classifier(x, y)
        acc = (predict(model, x) == y).mean()
        assert acc == pytest.approx(0.6)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 5))
        y = rng.integers(0, 3, size=40)
        a = train_classifier(x, y, hyper=Hyper(epochs=100))
        b = train_classifier(x, y, hyper=Hyper(epochs=100))
        assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            train_classifier(np.zeros((3, 2)), [0, 1])


def tiny_csl():
    return gen_csl(copies_per_class=5, seed=0)


class TestCrossValidate:
    def test_csl_cycles_reach_one(self):
        rep = cross_validate(tiny_csl(), "cycles:8", k=5, seed=0, repeats=2)
        assert rep.mean == 1.0 and rep.stddev == 0.0

    def test_report_fields(self):
        rep = cross_validate(tiny_csl(), "cycles:8", k=5, seed=0, repeats=2)
        assert len(rep.fold_accuracies) == 10
        assert rep.mean == pytest.approx(np.mean(rep.fold_accuracies))
        assert rep.stddev >= 0.0
        assert all(0.0 <= a <= 1.0 for a in rep.fold_accuracies)
        assert rep.config["k"] == 5 and rep.config["repeats"] == 2
        assert rep.wall_time_seconds > 0

    def test_determinism_modulo_wall_time(self):
        a = cross_validate(tiny_csl(), "cycles:8", k=5, seed=4, repeats=2)
        b = cross_validate(tiny_csl(), "cycles:8", k=5, seed=4, repeats=2)
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_time_seconds"), db.pop("wall_time_seconds")
        assert da == db

    def test_no_leakage_scaler_fitted_on_train_rows(self):
        bundle = tiny_csl()
        rep = cross_validate(
            bundle, "cycles:8", k=5, seed=0, repeats=1, collect_fold_details=True
        )
        from homcount.embedding import embed

        matrix = embed(bundle, "cycles:8")
        for fold in rep.config["fold_details"]:
            train = fold["train"]
            recomputed = matrix.values[train].mean(axis=0)
            assert np.allclose(recomputed, fold["scaler_mean"])

    def test_epochs_run_recorded_per_fold(self):
        rep = cross_validate(tiny_csl(), "cycles:8", k=5, seed=0, repeats=2)
        assert rep.config["epochs_run"] == [Hyper().epochs] * 10

    def test_k_larger_than_dataset_is_named_error(self):
        with pytest.raises(ValueError, match="k=12 .* has 10 graphs"):
            cross_validate(gen_csl(copies_per_class=1), "cycles:4", k=12)

    def test_seed_changes_folds(self):
        a = cross_validate(tiny_csl(), "cycles:8", k=5, seed=0, repeats=1)
        b = cross_validate(tiny_csl(), "cycles:8", k=5, seed=1, repeats=1)
        # different shuffles, same perfect separability
        assert a.mean == b.mean == 1.0


class TestBench:
    def test_timing_fields(self):
        timing = bench_runtime(tiny_csl(), "cycles:8", k=5, seed=0)
        assert timing["embed_seconds"] > 0
        assert timing["train_predict_seconds"] > 0
        assert timing["total_seconds"] == pytest.approx(
            timing["embed_seconds"] + timing["train_predict_seconds"]
        )
        assert timing["config"]["seed"] == 0

    def test_empty_pattern_config(self):
        bundle = DatasetBundle(
            name="t",
            graphs=[Graph(2, [(0, 1)]), Graph(2, []), Graph(3, [(0, 1)]), Graph(3, [])],
            labels=[0, 1, 0, 1],
        )
        from homcount.embedding import embed

        m = embed(bundle, [])
        assert m.values.shape == (4, 0)
        # a bench over zero columns still reports timings instead of erroring
        timing = bench_runtime(bundle, [], k=2, seed=0)
        assert timing["embed_seconds"] >= 0
        assert timing["total_seconds"] >= 0


def reference_cv(bundle, family, hyper, k, seed, repeats):
    """Fold accuracies and epochs run from a sequential loop over the 2-D
    reference trainer. Along the way, asserts that the one-fold
    `train_classifier` reproduces each reference model exactly."""
    matrix = embed(bundle, family)
    labels = np.asarray(bundle.labels, dtype=np.int64)
    accuracies, epochs = [], []
    for r in range(repeats):
        for train, test in stratified_kfold(bundle.labels, k=k, seed=_fold_seed(seed, r)):
            values = apply_standardizer(matrix, fit_standardizer(matrix, rows=train)).values
            x, y = values[train], labels[train]
            w, b, ran = reference_train(x, y, bundle.num_classes, hyper)
            model = train_classifier(x, y, bundle.num_classes, hyper)
            assert np.array_equal(model.weights, w) and np.array_equal(model.bias, b)
            pred = np.argmax(values[test] @ w + b, axis=1)
            accuracies.append(float(np.mean(pred == labels[test])))
            epochs.append(ran)
    return accuracies, epochs


def _early_stop_bundle():
    # With k=4 the last fold trains on 3 + 3 graphs: balanced classes and
    # no features give a zero gradient at epoch 0. The other folds train on
    # 2 + 4 graphs of the same total, so they share its stack and keep going.
    return DatasetBundle(name="stop", graphs=[Graph(2, [(0, 1)])] * 8, labels=[0] * 3 + [1] * 5)


REFERENCE_CASES = {
    "tiny-csl": (tiny_csl, "cycles:8", Hyper(), 5, 2),
    # 50 graphs in 3 folds: train sets of 33 and 34 rows, two stacks a repeat
    "ragged": (tiny_csl, "cycles:6", Hyper(epochs=500), 3, 2),
    # every row standardizes to zero, so predictions rest on bias ties
    "paulus-ties": (lambda: load_paulus(seed=0), "trees:3", Hyper(epochs=200), 5, 1),
    "early-stop": (_early_stop_bundle, [], Hyper(epochs=50), 4, 1),
}


class TestStackedTrainingMatchesReference:
    @pytest.mark.filterwarnings("ignore:class .* members")
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_fold_accuracies_and_epochs(self, case):
        make, family, hyper, k, repeats = REFERENCE_CASES[case]
        bundle = make()
        rep = cross_validate(bundle, family, hyper=hyper, k=k, seed=0, repeats=repeats)
        accuracies, epochs = reference_cv(bundle, family, hyper, k, 0, repeats)
        assert rep.fold_accuracies == accuracies
        assert rep.config["epochs_run"] == epochs
        if case == "early-stop":
            assert epochs == [hyper.epochs] * 3 + [0]
