import itertools
import os
import random
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_train
from homcount import evaluate
from homcount.datasets import DatasetBundle, gen_bipartite_er, gen_csl, load_paulus
from homcount.embedding import (
    ColumnMeta,
    EmbeddingMatrix,
    apply_standardizer,
    embed,
    fit_standardizer,
)
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


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes; unlike `np.array_equal`, -0.0 is not 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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

    @staticmethod
    def reference_kfold(labels, k, seed):
        """The folds as built before the one-pass rewrite: deal each shuffled
        class round-robin, then scan all graphs once per fold and per list."""
        rng = random.Random(seed)
        by_class = {}
        for i, lab in enumerate(labels):
            by_class.setdefault(lab, []).append(i)
        fold_of, cursor = [0] * len(labels), 0
        for lab in sorted(by_class):
            members = by_class[lab]
            rng.shuffle(members)
            for idx in members:
                fold_of[idx] = cursor % k
                cursor += 1
        return [([i for i in range(len(labels)) if fold_of[i] != f],
                 [i for i in range(len(labels)) if fold_of[i] == f]) for f in range(k)]

    def test_one_pass_equals_the_old_loop(self):
        # seeded label lists of 2-200 graphs and up to 12 classes, many of
        # them smaller than k, with k from 2 to the dataset size
        rng = random.Random(11)
        for case in range(300):
            n = rng.randint(2, 200)
            labels = [rng.randrange(rng.randint(1, 12)) for _ in range(n)]
            k = min(n, rng.choice([2, 3, 5, 10, rng.randint(2, n)]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # classes smaller than k warn
                got = stratified_kfold(labels, k=k, seed=case)
            assert got == self.reference_kfold(labels, k, case), (n, k)
            assert all(type(i) is int for train, test in got for i in train + test)


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
        assert same_bits(a.weights, b.weights) and same_bits(a.bias, b.bias)

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


class TestHyper:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"lr": float("nan")}, "lr must be finite and positive"),
            ({"lr": float("inf")}, "lr must be finite and positive"),
            ({"lr": 0.0}, "lr must be finite and positive"),
            ({"lr": -0.2}, "lr must be finite and positive"),
            ({"l2": float("nan")}, "l2 must be finite and non-negative"),
            ({"l2": float("inf")}, "l2 must be finite and non-negative"),
            ({"l2": -1.0}, "l2 must be finite and non-negative"),
            ({"epochs": -1}, "epochs must be a non-negative int"),
            ({"epochs": 2.5}, "epochs must be a non-negative int"),
        ],
    )
    def test_bad_values_are_named(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Hyper(**kwargs)

    def test_edge_values_are_accepted(self):
        assert Hyper(l2=0.0, lr=1e-300, epochs=0).epochs == 0


def tiny_csl():
    return gen_csl(copies_per_class=5, seed=0)


def random_graphs():
    """20 random graphs with distinct edge counts: no two rows are equal, so
    under cycles:4 every fold poses its own training problem."""
    rng = random.Random(0)
    edges = list(itertools.combinations(range(9), 2))
    graphs = [Graph(9, rng.sample(edges, m)) for m in range(3, 23)]
    labels = [rng.randrange(2) for _ in graphs]
    return DatasetBundle(name="random", graphs=graphs, labels=labels)


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

    def test_no_leakage_scaler_fitted_on_train_rows(self, monkeypatch):
        # Rewriting every row outside a fold's training set leaves the
        # standardized problem that fold trains on unchanged, byte for byte.
        bundle = tiny_csl()
        matrix = embed(bundle, "cycles:8")
        slices = []
        monkeypatch.setattr(evaluate, "_train_stack", recording(_train_stack, slices))
        rng = np.random.default_rng(0)
        for r in range(2):
            for train, test in stratified_kfold(bundle.labels, k=5, seed=_fold_seed(0, r)):
                rewritten = matrix.values.copy()
                rewritten[test] = rng.normal(size=(len(test), rewritten.shape[1])) * 1e6
                for values in (matrix.values, rewritten):
                    m = EmbeddingMatrix(values, matrix.column_meta)
                    evaluate._run_folds(m, bundle, Hyper(epochs=1), [[(train, test)]])
                (x, y), (x_rewritten, y_rewritten) = slices[-2:]
                assert same_bits(x, x_rewritten) and same_bits(y, y_rewritten)
                scaled = apply_standardizer(matrix, fit_standardizer(matrix, rows=train))
                assert same_bits(x[0], scaled.values[train])
        assert len(slices) == 20

    def test_epochs_run_recorded_per_fold(self):
        rep = cross_validate(tiny_csl(), "cycles:8", k=5, seed=0, repeats=2)
        assert rep.config["epochs_run"] == [Hyper().epochs] * 10

    def test_distinct_rows_recorded_per_fold(self):
        # CSL graphs of one class are isomorphic: one row per class
        rep = cross_validate(tiny_csl(), "cycles:8", hyper=Hyper(epochs=5), k=5, repeats=2)
        assert rep.config["distinct_rows"] == [10] * 10
        # random graphs with distinct edge counts: every training row differs
        bundle = random_graphs()
        rep = cross_validate(bundle, "cycles:4", hyper=Hyper(epochs=5), k=4, repeats=2)
        sizes = [len(train) for r in range(2)
                 for train, _ in stratified_kfold(bundle.labels, k=4, seed=_fold_seed(0, r))]
        assert rep.config["distinct_rows"] == sizes

    def test_k_larger_than_dataset_is_named_error(self):
        with pytest.raises(ValueError, match="k=12 .* has 10 graphs"):
            cross_validate(gen_csl(copies_per_class=1), "cycles:4", k=12)

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_no_repeats_is_named_error(self, repeats):
        # zero repeats gave mean=nan std=nan from an empty fold list
        with pytest.raises(ValueError, match=f"repeats must be at least 1, got {repeats}"):
            cross_validate(tiny_csl(), "cycles:4", k=5, repeats=repeats)

    def test_seed_changes_folds(self):
        a = cross_validate(tiny_csl(), "cycles:8", k=5, seed=0, repeats=1)
        b = cross_validate(tiny_csl(), "cycles:8", k=5, seed=1, repeats=1)
        # different shuffles, same perfect separability
        assert a.mean == b.mean == 1.0


class TestFootprint:
    def test_optional_stdlib_loads_only_on_use(self):
        # The thread pool (with logging), fractions (with decimal) and json
        # serve paths a one-slice CV never takes, so they stay unloaded.
        code = textwrap.dedent("""
            import sys
            import homcount.datasets, homcount.embedding, homcount.evaluate
            from homcount.datasets import gen_csl
            lazy = ("concurrent.futures", "fractions", "json")
            print(sorted(m for m in lazy if m in sys.modules))
            rep = homcount.evaluate.cross_validate(
                gen_csl(copies_per_class=5, seed=0), "cycles:8", k=5, seed=0, repeats=2)
            assert rep.config["trained_problems"] < homcount.evaluate._MIN_SLICE_FOLDS
            print(sorted(m for m in lazy if m in sys.modules))
        """)
        src = str(Path(evaluate.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=120).stdout
        assert out.splitlines() == ["[]", "[]"]


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
    """Fold accuracies, epochs run and distinct (row, label) pairs from a
    sequential loop over the 2-D reference trainer, one training per fold.
    Along the way, asserts that the one-fold `train_classifier` reproduces
    each reference model exactly."""
    matrix = embed(bundle, family)
    labels = np.asarray(bundle.labels, dtype=np.int64)
    accuracies, epochs, distinct = [], [], []
    for r in range(repeats):
        for train, test in stratified_kfold(bundle.labels, k=k, seed=_fold_seed(seed, r)):
            values = apply_standardizer(matrix, fit_standardizer(matrix, rows=train)).values
            x, y = values[train], labels[train]
            w, b, ran = reference_train(x, y, bundle.num_classes, hyper)
            model = train_classifier(x, y, bundle.num_classes, hyper)
            assert same_bits(model.weights, w) and same_bits(model.bias, b)
            pred = np.argmax(values[test] @ w + b, axis=1)
            accuracies.append(float(np.mean(pred == labels[test])))
            epochs.append(ran)
            distinct.append(len({(row.tobytes(), label) for row, label in zip(x, y.tolist())}))
    return accuracies, epochs, distinct


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
    # eight distinct problems in one stack, enough for every cut below
    "distinct": (random_graphs, "cycles:4", Hyper(epochs=200), 4, 2),
}


def recording(train, slices: list):
    """`train`, the stacked trainer, appending the (x, y) of each call to `slices`."""

    def train_and_record(x, y, *args, **kwargs):
        slices.append((x.copy(), y.copy()))
        return train(x, y, *args, **kwargs)

    return train_and_record


class TestStackedTrainingMatchesReference:
    @pytest.mark.filterwarnings("ignore:class .* members")
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_fold_accuracies_and_epochs(self, case, monkeypatch):
        make, family, hyper, k, repeats = REFERENCE_CASES[case]
        bundle = make()
        accuracies, epochs, distinct = reference_cv(bundle, family, hyper, k, 0, repeats)
        if case == "early-stop":
            assert epochs == [hyper.epochs] * 3 + [0]
        slices = []
        monkeypatch.setattr(evaluate, "_train_stack", recording(_train_stack, slices))
        monkeypatch.setattr(evaluate, "_MIN_SLICE_FOLDS", 1)  # cut the smallest stacks too
        # one slice, two, three, and one per fold with CPUs to spare
        for cpus in (1, 2, 3, k * repeats + 1):
            slices.clear()
            monkeypatch.setattr(evaluate, "_usable_cpus", lambda: cpus)
            rep = cross_validate(bundle, family, hyper=hyper, k=k, seed=0, repeats=repeats)
            assert rep.fold_accuracies == accuracies, f"{cpus} CPUs"
            assert rep.config["epochs_run"] == epochs, f"{cpus} CPUs"
            assert rep.config["distinct_rows"] == distinct, f"{cpus} CPUs"
            assert sum(len(x) for x, _ in slices) == rep.config["trained_problems"]
            if case == "distinct":
                assert len(slices) == min(cpus, k * repeats), f"{cpus} CPUs"

    @staticmethod
    def _trace_threads(monkeypatch) -> dict[str, set[int]]:
        threads: dict[str, set[int]] = {}

        def record(name):
            inner = getattr(evaluate, name)

            def wrapper(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.get_ident())
                return inner(*args, **kwargs)

            monkeypatch.setattr(evaluate, name, wrapper)

        for name in ("_standardize_folds", "predict", "_train_stack"):
            record(name)
        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)
        return threads

    def test_only_training_leaves_the_calling_thread(self, monkeypatch):
        threads = self._trace_threads(monkeypatch)
        monkeypatch.setattr(evaluate, "_MIN_SLICE_FOLDS", 4)  # 8 problems make two slices
        cross_validate(random_graphs(), "cycles:4", hyper=Hyper(epochs=20), k=4, seed=0, repeats=2)
        caller = threading.get_ident()
        for name in ("_standardize_folds", "predict"):
            assert threads[name] == {caller}, name
        # the caller trains one slice, a worker thread the other
        assert caller in threads["_train_stack"] and len(threads["_train_stack"]) == 2

    def test_stack_below_the_minimum_stays_on_the_calling_thread(self, monkeypatch):
        threads = self._trace_threads(monkeypatch)
        slices = []
        monkeypatch.setattr(evaluate, "_train_stack", recording(evaluate._train_stack, slices))
        assert 8 < 2 * evaluate._MIN_SLICE_FOLDS
        rep = cross_validate(random_graphs(), "cycles:4", hyper=Hyper(epochs=20), k=4, repeats=2)
        assert rep.config["trained_problems"] == 8
        assert [len(x) for x, _ in slices] == [8]  # one slice of all eight problems
        assert set().union(*threads.values()) == {threading.get_ident()}


class TestFoldPreparation:
    """`_standardize_folds` scales a repeat's folds of one train-set size as
    one (F, n, d) block, bit for bit as the per-fold scaler does."""

    @pytest.mark.parametrize(
        "make, family, k",
        [(gen_csl, "cycles:8", 10), (gen_csl, "cycles:8", 4),
         (gen_bipartite_er, "cycles:8", 10), (gen_bipartite_er, "trees:6", 10),
         (gen_bipartite_er, "trees:6", 7)],
        ids=["csl-cycles8", "csl-cycles8-k4", "bipartite-cycles8", "bipartite-trees6",
             "bipartite-trees6-k7"],
    )
    def test_blocks_equal_the_per_fold_scaler(self, make, family, k):
        # k = 4 and 7 give two train-set sizes per repeat, so two blocks; a
        # train size fixes the test size, as the test set is the rest
        bundle = make(seed=0)
        matrix = embed(bundle, family)
        blocks = 0
        for r in range(10):
            sizes = {}
            for fold in stratified_kfold(bundle.labels, k=k, seed=_fold_seed(0, r)):
                sizes.setdefault(len(fold[0]), []).append(fold)
            for folds in sizes.values():
                x, tests = evaluate._standardize_folds(matrix.values, folds)
                assert x.shape == (len(folds), len(folds[0][0]), matrix.values.shape[1])
                for (train, test), fold_x, fold_test in zip(folds, x, tests):
                    scaled = apply_standardizer(matrix, fit_standardizer(matrix, rows=train))
                    assert same_bits(fold_x, scaled.values[train])
                    assert same_bits(fold_test, scaled.values[test])
                blocks += 1
        assert blocks == (10 if k == 10 else 20)


class TestDeduplication:
    """Folds whose standardized training rows and labels are byte-equal train
    once; any other difference trains apart."""

    @pytest.mark.parametrize("make", [gen_csl, load_paulus], ids=["csl", "paulus"])
    def test_indistinguishable_folds_train_two_problems(self, make, monkeypatch):
        # 10x10 CV: two train-set class counts, each fold's rows in index order
        bundle, hyper = make(seed=0), Hyper(epochs=20)
        slices = []
        monkeypatch.setattr(evaluate, "_train_stack", recording(_train_stack, slices))
        rep = cross_validate(bundle, "cycles:8", hyper=hyper, k=10, seed=0, repeats=10)
        assert sum(len(x) for x, _ in slices) == rep.config["trained_problems"] == 2
        accuracies, epochs, distinct = reference_cv(bundle, "cycles:8", hyper, 10, 0, 10)
        assert rep.fold_accuracies == accuracies
        assert rep.config["epochs_run"] == epochs
        assert rep.config["distinct_rows"] == distinct

    def test_any_byte_difference_trains_apart(self, monkeypatch):
        values = np.array([
            [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
            [1.0, -0.0],  # row 0 but for the sign of a zero
            [1.0, 0.0],  # row 0 with the other label
            [0.5, 0.5],  # the test row
        ])
        bundle = DatasetBundle("bytes", [Graph(1, [])] * 6, [0, 1, 0, 0, 1, 1])
        meta = [ColumnMeta(i, "test", 1, "", "1", False, False) for i in range(2)]
        matrix = EmbeddingMatrix(values, meta)
        monkeypatch.setattr(  # no scaling: the problems keep the bytes given here
            evaluate, "_standardize_folds",
            lambda values, folds: (values[[t for t, _ in folds]], [values[s] for _, s in folds]))
        slices = []
        monkeypatch.setattr(evaluate, "_train_stack", recording(_train_stack, slices))
        trains = [[0, 1, 2], [0, 1, 2], [1, 0, 2], [3, 1, 2], [4, 1, 2]]
        splits = [[(train, [5]) for train in trains]]
        accuracies, epochs, distinct, problems, _ = evaluate._run_folds(
            matrix, bundle, Hyper(epochs=30), splits)
        # the second fold repeats the first; row order, -0.0 and a label each differ
        assert problems == 4
        labels = np.asarray(bundle.labels)
        x, y = (np.concatenate(part) for part in zip(*slices))
        assert len(x) == 4
        for got_x, got_y, train in zip(x, y, [trains[0]] + trains[2:]):
            assert got_x.tobytes() == values[train].tobytes()
            assert got_y.tolist() == labels[train].tolist()
        for i, train in enumerate(trains):
            model = train_classifier(values[train], labels[train], 2, Hyper(epochs=30))
            assert accuracies[i] == float(predict(model, values[[5]])[0] == 1)
        assert epochs == [30] * 5 and distinct == [3] * 5


class TestTrainStackShapes:
    """Seeded shapes around the class-sum cut points (8 and 128 classes), the
    matmul edge cases (no features, one feature, one row) and L2: every fold
    of a stack equals `reference_train` and a one-fold run of itself."""

    @staticmethod
    def check(x, y, c, hyper):
        w, b, ran, _ = _train_stack(x, y, c, hyper)
        for i in range(len(x)):
            ref_w, ref_b, ref_ran = reference_train(x[i], y[i], c, hyper)
            one_w, one_b, one_ran, _ = _train_stack(x[i : i + 1], y[i : i + 1], c, hyper)
            shape = f"fold {i} of {x.shape}, C={c}, l2={hyper.l2}"
            assert same_bits(w[i], ref_w) and same_bits(b[i], ref_b), shape
            assert same_bits(w[i], one_w[0]) and same_bits(b[i], one_b[0]), shape
            assert ran[i] == ref_ran == one_ran[0], shape
        return ran

    @pytest.mark.parametrize("c", [1, 2, 7, 8, 9, 16, 17, 130, 300])
    def test_folds_match_reference(self, c):
        rng = np.random.default_rng(c)
        for d in (0, 1, 2, 7):
            for n in (1, 3, 8, 40):
                for l2 in (0.0, 0.01):
                    x = rng.normal(size=(3, n, d)) * rng.choice([0.1, 1.0, 10.0])
                    y = rng.integers(0, c, size=(3, n))
                    self.check(x, y, c, Hyper(l2=l2, epochs=int(rng.integers(1, 51))))

    def test_catalog_width_folds_match_one_fold_runs(self):
        # d = 47, the bipartite trees:8 catalog. At this width BLAS rounds
        # `reference_train`'s X W apart from the stack's W^T X^T, so each fold
        # is checked against training it alone, which must agree bit for bit.
        bundle = gen_bipartite_er(seed=0)
        m = embed(bundle, "trees:8")
        values = apply_standardizer(m, fit_standardizer(m)).values
        folds = [train for train, _ in stratified_kfold(bundle.labels, k=10, seed=0)[:4]]
        x, y = values[folds], np.asarray(bundle.labels)[folds]
        assert x.shape == (4, 180, 47)
        hyper = Hyper(epochs=50)
        w, b, _, _ = _train_stack(x, y, 2, hyper)
        for i in range(len(x)):
            model = train_classifier(x[i], y[i], 2, hyper)
            assert same_bits(w[i], model.weights) and same_bits(b[i], model.bias), i

    @pytest.mark.parametrize("path", ["gather", "in-place"])
    def test_signed_zero_columns_without_l2(self, path):
        # columns of 0.0, of -0.0 and of both signs. With l2 == 0 the L2 term
        # is skipped, which could change only the sign of a zero in the
        # gradient: every weight and bias keeps its bits, and the weights of
        # the zero columns stay 0.0
        rng = np.random.default_rng(7)
        if path == "gather":
            sources, pick = 4, rng.integers(0, 4, size=(3, 40))
        else:
            sources, pick = 40, np.tile(np.arange(40), (3, 1))
        rows = rng.normal(size=(3, sources, 5))
        rows[..., 0], rows[..., 1] = 0.0, -0.0
        rows[..., 2] = np.where(rng.random((3, sources)) < 0.5, 0.0, -0.0)
        x = np.take_along_axis(rows, pick[..., None], axis=1)
        y = np.take_along_axis(rng.integers(0, 3, size=(3, sources)), pick, axis=1)
        assert max(self.pair_counts(x, y)) == (4 if path == "gather" else 40)
        self.check(x, y, 3, Hyper(l2=0.0, epochs=30))
        w = _train_stack(x, y, 3, Hyper(l2=0.0, epochs=30))[0]
        assert same_bits(w[:, :3], np.zeros((3, 3, 3)))

    def test_early_stop_leaves_the_stack(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 6, 2))
        y = rng.integers(0, 3, size=(4, 6))
        x[1], y[1] = 0.0, [0, 1, 2, 0, 1, 2]  # balanced and featureless: a zero gradient
        ran = self.check(x, y, 3, Hyper(epochs=40))
        assert list(ran) == [40, 0, 40, 40]

    @staticmethod
    def pair_counts(x, y):
        return [len({(row.tobytes(), int(label)) for row, label in zip(x[i], y[i])})
                for i in range(len(x))]

    @pytest.mark.parametrize("c", [1, 2, 10, 130])
    @pytest.mark.parametrize("kind", ["one-label", "two-labels", "all-equal", "signed-zero"])
    def test_repeated_rows_match_reference(self, kind, c):
        # the softmax runs once per distinct (row bytes, label) pair of a fold
        rng = np.random.default_rng(c)
        for d in (0, 1, 7):
            for n in (1, 2, 40):
                sources = max(n // 4, 2)
                pick = rng.integers(0, sources, size=(3, n))  # each row's source row
                if kind == "all-equal":
                    pick[:] = 0
                pick[:, 1:2] = pick[:, :1]  # rows 0 and 1 are copies
                x = np.take_along_axis(rng.normal(size=(3, sources, d)), pick[..., None], axis=1)
                y = np.take_along_axis(rng.integers(0, c, size=(3, sources)), pick, axis=1)
                if kind == "two-labels":
                    y[:, 1:2] = (y[:, :1] + 1) % c  # the same row under another label
                if kind == "signed-zero" and d:
                    x[..., 0] = 0.0
                    x[:, 1::2, 0] = -0.0  # copies that differ only in the sign of a zero
                l2 = float(rng.choice([0.0, 0.01]))
                self.check(x, y, c, Hyper(l2=l2, epochs=int(rng.integers(1, 51))))
                counts = self.pair_counts(x, y)
                assert list(_train_stack(x, y, c, Hyper(epochs=1))[3]) == counts
                if kind == "all-equal":
                    assert counts == [1] * 3
                if n > 1 and (kind == "two-labels" and c > 1 or kind == "signed-zero" and d):
                    assert min(counts) >= 2

    def test_early_stop_among_repeated_rows(self):
        rng = np.random.default_rng(1)
        pick = rng.integers(0, 3, size=(4, 9))
        x = np.take_along_axis(rng.normal(size=(4, 9, 2)), pick[..., None], axis=1)
        y = np.take_along_axis(rng.integers(0, 3, size=(4, 9)), pick, axis=1)
        x[2], y[2] = 0.0, [0, 1, 2] * 3  # balanced and featureless: a zero gradient
        ran = self.check(x, y, 3, Hyper(epochs=40))
        assert list(ran) == [40, 40, 0, 40]
        assert self.pair_counts(x, y)[2] == 3 and max(self.pair_counts(x, y)) <= 3

    @pytest.mark.parametrize("c", [2, 8, 10])
    def test_gathered_and_in_place_softmax_agree(self, c):
        # folds 1 and 2 have 4 distinct pairs in 40 rows and train alone on the
        # gathered columns; next to the all-distinct fold 0 the stack runs the
        # softmax on every row
        rng = np.random.default_rng(c)
        pick = rng.integers(0, 4, size=(3, 40))
        x = np.take_along_axis(rng.normal(size=(3, 4, 7)), pick[..., None], axis=1)
        y = np.take_along_axis(rng.integers(0, c, size=(3, 4)), pick, axis=1)
        x[0] = rng.normal(size=(40, 7))
        self.check(x, y, c, Hyper(epochs=30))
        assert self.pair_counts(x, y)[0] == 40 and max(self.pair_counts(x, y)[1:]) <= 4
        # each row of fold 0 once per label: all pairs distinct and a zero
        # gradient, so fold 0 stops at once and the rest switch to the gather
        x[0] = np.repeat(rng.normal(size=(40 // c, 7)), c, axis=0)
        y[0] = np.tile(np.arange(c), 40 // c)
        ran = self.check(x, y, c, Hyper(epochs=30))
        assert list(ran) == [0, 30, 30] and self.pair_counts(x, y)[0] == 40

    @pytest.mark.parametrize("c", [1, 2, 10, 130])
    def test_rows_from_few_sources(self, c):
        # the forward product runs on each fold's distinct rows, two at least,
        # gathered from that fold; a stack of folds with different pair
        # counts pads the smaller ones with row 0
        rng = np.random.default_rng(200 + c)
        for d, n, sources in itertools.product((0, 1, 7, 13, 47), (2, 3, 40, 135),
                                               (1, 2, 3, 5, 10)):
            pick = rng.integers(0, sources, size=(3, n))
            x = np.take_along_axis(rng.normal(size=(3, sources, d)), pick[..., None], axis=1)
            y = np.take_along_axis(rng.integers(0, c, size=(3, sources)), pick, axis=1)
            hyper = Hyper(l2=float(rng.choice([0.0, 0.01])), epochs=int(rng.integers(1, 31)))
            if d < 30:
                self.check(x, y, c, hyper)
                continue
            # from about 30 features on, `reference_train` rounds apart
            w, b, ran, _ = _train_stack(x, y, c, hyper)
            for i in range(len(x)):
                one_w, one_b, one_ran, _ = _train_stack(x[i : i + 1], y[i : i + 1], c, hyper)
                shape = f"fold {i} of {x.shape}, C={c}, {sources} sources"
                assert same_bits(w[i], one_w[0]) and same_bits(b[i], one_b[0]), shape
                assert ran[i] == one_ran[0], shape

    def test_csl_shape(self):
        # 50 folds of 135 rows from 10 sources, one per class: the csl-cv stack
        rng = np.random.default_rng(135)
        sources = rng.normal(size=(10, 7))
        pick = np.stack([rng.permutation(np.repeat(np.arange(10), 15))[:135] for _ in range(50)])
        x, y = sources[pick], pick
        ran = self.check(x, y, 10, Hyper(epochs=40))
        assert list(ran) == [40] * 50
        assert self.pair_counts(x, y) == [10] * 50


def spread_normals(rng, shape):
    """Normal draws scaled over 24 decades, so that a change of summation
    order shows in the low bits."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-12, 13, size=shape)


class TestClassSumOrder:
    """Below 8 classes the trainer's in-place softmax sums class-major scores
    (m, C, n) over the classes, elementwise over the rows; each total must keep the bits of
    numpy's pairwise sum over a contiguous row of C. These pin the numpy
    behaviour that rests on."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(m=st.integers(1, 4), c=st.integers(1, 7), n=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_short_class_axis_reduction_is_the_row_sum(self, m, c, n, seed):
        # below 8 classes numpy adds them in sequence either way
        zc = spread_normals(np.random.default_rng(seed), (m, c, n))
        z, acc = zc.transpose(0, 2, 1), np.full((m, c, n), np.nan)
        rows = acc[:, :1].transpose(0, 2, 1)  # the trainer's layout
        np.add.reduce(z, 2, None, rows, True)
        assert same_bits(rows, np.ascontiguousarray(z).sum(axis=-1, keepdims=True))
