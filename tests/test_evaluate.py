import threading

import numpy as np
import pytest

from conftest import reference_train
from homcount import evaluate
from homcount.datasets import DatasetBundle, gen_csl, load_paulus
from homcount.embedding import apply_standardizer, embed, fit_standardizer
from homcount.evaluate import (
    Hyper,
    _fold_seed,
    _train_stack,
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

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_out_of_range(self, label):
        # the flat label index must not reach a neighbouring row's entries
        with pytest.raises(ValueError, match=r"labels must lie in 0\.\.1"):
            train_classifier(np.zeros((3, 2)), [0, 1, label], num_classes=2)

    @pytest.mark.parametrize(
        "x, y, message",
        [
            ([[0.0, 1.0], [np.nan, 0.0]], [0, 1], "features must be finite"),
            ([[0.0, 1.0], [np.inf, 0.0]], [0, 1], "features must be finite"),
            (np.zeros((0, 2)), [], "no training rows"),
        ],
        ids=["nan", "inf", "no-rows"],
    )
    def test_bad_input_is_named(self, x, y, message):
        # NaN features trained to NaN weights; no rows was numpy's zero-size reduction error
        with pytest.raises(ValueError, match=message):
            train_classifier(np.asarray(x), y)


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
        for d in (da, db):
            d.pop("wall_time_seconds"), d.pop("layer_seconds")
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
        rep = cross_validate(tiny_csl(), "cycles:8", k=5, seed=0, repeats=1)
        layers = rep.layer_seconds
        assert list(layers) == ["embed", "train_predict", "train"]
        assert layers["embed"] >= 0 and layers["train_predict"] >= 0 and layers["train"] >= 0
        assert layers["embed"] + layers["train_predict"] <= rep.wall_time_seconds
        assert layers["train"] <= layers["train_predict"]
        assert rep.to_dict()["layer_seconds"] == layers

    def test_empty_pattern_config(self):
        bundle = DatasetBundle(
            name="t",
            graphs=[Graph(2, [(0, 1)]), Graph(2, []), Graph(3, [(0, 1)]), Graph(3, [])],
            labels=[0, 1, 0, 1],
        )
        from homcount.embedding import embed

        m = embed(bundle, [])
        assert m.values.shape == (4, 0)
        # CV over zero columns still reports layer timings instead of erroring
        rep = cross_validate(bundle, [], k=2, seed=0, repeats=1)
        assert rep.layer_seconds["embed"] >= 0
        assert rep.layer_seconds["train_predict"] >= 0


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
    def test_fold_accuracies_and_epochs(self, case, monkeypatch):
        make, family, hyper, k, repeats = REFERENCE_CASES[case]
        bundle = make()
        accuracies, epochs = reference_cv(bundle, family, hyper, k, 0, repeats)
        if case == "early-stop":
            assert epochs == [hyper.epochs] * 3 + [0]
        # one slice, two, three, and one per fold with CPUs to spare
        for cpus in (1, 2, 3, k * repeats + 1):
            monkeypatch.setattr(evaluate, "_usable_cpus", lambda: cpus)
            rep = cross_validate(bundle, family, hyper=hyper, k=k, seed=0, repeats=repeats)
            assert rep.fold_accuracies == accuracies, f"{cpus} CPUs"
            assert rep.config["epochs_run"] == epochs, f"{cpus} CPUs"

    def test_only_training_leaves_the_calling_thread(self, monkeypatch):
        threads: dict[str, set[int]] = {}

        def record(name):
            inner = getattr(evaluate, name)

            def wrapper(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.get_ident())
                return inner(*args, **kwargs)

            monkeypatch.setattr(evaluate, name, wrapper)

        traced = ("fit_standardizer", "apply_standardizer", "predict")
        for name in traced + ("_train_stack",):
            record(name)
        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)
        cross_validate(tiny_csl(), "cycles:8", hyper=Hyper(epochs=20), k=5, seed=0, repeats=2)
        caller = threading.get_ident()
        for name in traced:
            assert threads[name] == {caller}, name
        # the caller trains one slice, a worker thread the other
        assert caller in threads["_train_stack"] and len(threads["_train_stack"]) == 2


class TestTrainStackShapes:
    """Seeded shapes around the class-sum cut points (8 and 128 classes), the
    matmul edge cases (no features, one feature, one row) and L2: every fold
    of a stack equals `reference_train` and a one-fold run of itself."""

    @staticmethod
    def check(x, y, c, hyper):
        w, b, ran = _train_stack(x, y, c, hyper)
        for i in range(len(x)):
            ref_w, ref_b, ref_ran = reference_train(x[i], y[i], c, hyper)
            one_w, one_b, one_ran = _train_stack(x[i : i + 1], y[i : i + 1], c, hyper)
            shape = f"fold {i} of {x.shape}, C={c}, l2={hyper.l2}"
            assert np.array_equal(w[i], ref_w) and np.array_equal(b[i], ref_b), shape
            assert np.array_equal(w[i], one_w[0]) and np.array_equal(b[i], one_b[0]), shape
            assert ran[i] == ref_ran == one_ran[0], shape
        return ran

    @pytest.mark.parametrize("c", [1, 2, 7, 8, 9, 16, 17, 130])
    def test_folds_match_reference(self, c):
        rng = np.random.default_rng(c)
        for d in (0, 1, 2, 7):
            for n in (1, 3, 8, 40):
                for l2 in (0.0, 0.01):
                    x = rng.normal(size=(3, n, d)) * rng.choice([0.1, 1.0, 10.0])
                    y = rng.integers(0, c, size=(3, n))
                    self.check(x, y, c, Hyper(l2=l2, epochs=int(rng.integers(1, 51))))

    def test_early_stop_leaves_the_stack(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 6, 2))
        y = rng.integers(0, 3, size=(4, 6))
        x[1], y[1] = 0.0, [0, 1, 2, 0, 1, 2]  # balanced and featureless: a zero gradient
        ran = self.check(x, y, 3, Hyper(epochs=40))
        assert list(ran) == [40, 0, 40, 40]
