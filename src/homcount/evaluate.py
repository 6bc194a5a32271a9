"""Cross-validation, a lightweight multiclass classifier, and runtime benchmarks.

The classifier is multinomial logistic regression trained by full-batch
gradient descent from a zero initialization, so results are a deterministic
function of (data, hyperparameters); all shuffling flows from explicit seeds.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .datasets import DatasetBundle
from .embedding import EmbeddingMatrix, apply_standardizer, embed, fit_standardizer
from .hom import PhiFunction


@dataclass(frozen=True)
class Hyper:
    l2: float = 0.0
    lr: float = 0.2
    epochs: int = 2000


@dataclass
class LogisticModel:
    weights: np.ndarray  # (num_features, num_classes)
    bias: np.ndarray  # (num_classes,)


@dataclass
class CVReport:
    fold_accuracies: list[float]
    mean: float
    stddev: float
    seed: int
    config: dict = field(default_factory=dict)
    wall_time_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "fold_accuracies": self.fold_accuracies,
            "mean": self.mean,
            "stddev": self.stddev,
            "seed": self.seed,
            "config": self.config,
            "wall_time_seconds": self.wall_time_seconds,
        }


def stratified_kfold(
    labels: Sequence[int], k: int = 10, seed: int = 0
) -> list[tuple[list[int], list[int]]]:
    """Deterministic stratified folds: shuffle within class, deal round-robin.

    Classes with fewer than k members still get dealt (some folds simply
    miss them), with a warning.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > len(labels):
        raise ValueError(
            f"k={k} folds need at least {k} graphs; the dataset has {len(labels)} graphs"
        )
    rng = random.Random(seed)
    by_class: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    fold_of = [0] * len(labels)
    cursor = 0
    for lab in sorted(by_class):
        members = by_class[lab]
        if len(members) < k:
            warnings.warn(
                f"class {lab} has {len(members)} members for {k} folds; "
                "some folds will not contain it"
            )
        rng.shuffle(members)
        for idx in members:
            fold_of[idx] = cursor % k
            cursor += 1
    folds = []
    for f in range(k):
        test = [i for i in range(len(labels)) if fold_of[i] == f]
        train = [i for i in range(len(labels)) if fold_of[i] != f]
        folds.append((train, test))
    return folds


def _train_stack(
    x: np.ndarray, y: np.ndarray, num_classes: int, hyper: Hyper
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train F same-shaped classifiers as one stacked program.

    `x` is (F, n, d) and `y` is (F, n). Every fold runs the arithmetic of a
    single 2-D fit, op for op: batched matmul makes one BLAS product per
    fold, and the row-major (F, n, C) layout keeps each softmax, row and
    norm reduction in the 2-D order, so each fold's result is bit-identical
    to training it alone. A fold whose gradient norm falls below 1e-15
    stops there and leaves the stack; the rest keep training.

    Returns weights (F, d, C), biases (F, C) and the epochs each fold ran.
    """
    f, n, d = x.shape
    c = num_classes
    onehot = np.zeros((f, n, c))
    np.put_along_axis(onehot, y[:, :, None], 1.0, axis=2)
    weights = np.zeros((f, d, c))
    biases = np.zeros((f, 1, c))
    epochs_run = np.full(f, hyper.epochs)
    live = np.arange(f)  # the folds still in the stack, in stack order
    w, b = weights.copy(), biases.copy()
    z = None  # work buffers, sized to the live stack
    for epoch in range(hyper.epochs):
        if z is None:
            m = len(live)
            xt = x.transpose(0, 2, 1)
            z = np.empty((m, n, c))
            rows = np.empty((m, n, 1))
            gw, gw_tmp = np.empty((m, d, c)), np.empty((m, d, c))
            gb, gb_sq = np.empty((m, 1, c)), np.empty((m, 1, c))
        np.matmul(x, w, out=z)
        z += b
        z.max(axis=2, keepdims=True, out=rows)
        z -= rows
        np.exp(z, out=z)
        z.sum(axis=2, keepdims=True, out=rows)
        z /= rows  # softmax probabilities
        z -= onehot
        z /= n  # the error term
        np.matmul(xt, z, out=gw)
        np.multiply(w, hyper.l2, out=gw_tmp)
        gw += gw_tmp
        z.sum(axis=1, keepdims=True, out=gb)
        np.multiply(gw, gw, out=gw_tmp)
        np.multiply(gb, gb, out=gb_sq)
        norm = np.sqrt(gw_tmp.reshape(m, d * c).sum(axis=1) + gb_sq.reshape(m, c).sum(axis=1))
        stop = norm < 1e-15
        if stop.any():
            done = live[stop]
            weights[done], biases[done], epochs_run[done] = w[stop], b[stop], epoch
            keep = ~stop
            live, x, onehot, w, b = live[keep], x[keep], onehot[keep], w[keep], b[keep]
            if not len(live):
                break
            gw, gb, norm, z = gw[keep], gb[keep], norm[keep], None
        scale = (hyper.lr / norm)[:, None, None]
        gw *= scale
        w -= gw
        gb *= scale
        b -= gb
    weights[live], biases[live] = w, b
    return weights, biases[:, 0], epochs_run


def train_classifier(
    x: np.ndarray,
    y: Sequence[int],
    num_classes: Optional[int] = None,
    hyper: Hyper = Hyper(),
) -> LogisticModel:
    """Multinomial logistic regression by full-batch gradient descent.

    Steps are gradient-normalized: the update direction is the full-batch
    gradient (including the L2 term) scaled to length lr. On separable data
    this grows the decision margin linearly per epoch instead of
    logarithmically, which plain fixed-step descent cannot manage when class
    margins are a few hundredths of a standard deviation. Zero
    initialization keeps training deterministic. This is the one-fold case
    of the stacked trainer that cross-validation uses.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] != y.shape[0]:
        raise ValueError("feature rows and labels must align")
    c = num_classes if num_classes is not None else int(y.max()) + 1
    w, b, _ = _train_stack(x[None], y[None], c, hyper)
    return LogisticModel(weights=w[0], bias=b[0])


def predict(model: LogisticModel, x: np.ndarray) -> np.ndarray:
    return np.argmax(np.asarray(x) @ model.weights + model.bias, axis=1)


def _fold_seed(seed: int, repeat: int) -> int:
    return seed * 1_000_003 + repeat


def _repeat_splits(
    labels: Sequence[int], k: int, seed: int, repeats: int
) -> list[list[tuple[list[int], list[int]]]]:
    return [stratified_kfold(labels, k=k, seed=_fold_seed(seed, r)) for r in range(repeats)]


def _run_folds(
    matrix: EmbeddingMatrix,
    bundle: DatasetBundle,
    hyper: Hyper,
    splits: list[list[tuple[list[int], list[int]]]],
    details: Optional[list[dict]] = None,
) -> tuple[list[float], list[int]]:
    """Accuracy and epochs run of every fold, in split order.

    The folds of a repeat train as one stacked program per train-set size;
    stratified dealing gives at most two sizes.
    """
    labels = np.asarray(bundle.labels, dtype=np.int64)
    accuracies: list[float] = []
    epochs_run: list[int] = []
    for folds in splits:
        train_x, test_x = [], []
        by_size: dict[int, list[int]] = {}
        for i, (train_idx, test_idx) in enumerate(folds):
            by_size.setdefault(len(train_idx), []).append(i)
            scaler = fit_standardizer(matrix, rows=train_idx)
            values = apply_standardizer(matrix, scaler).values
            train_x.append(values[train_idx])
            test_x.append(values[test_idx])
            if details is not None:
                details.append(
                    {
                        "train": list(train_idx),
                        "test": list(test_idx),
                        "scaler_mean": scaler.mean.tolist(),
                        "scaler_stddev": scaler.stddev.tolist(),
                    }
                )
        acc = [0.0] * len(folds)
        epochs = [0] * len(folds)
        for group in by_size.values():
            x = np.stack([train_x[i] for i in group])
            y = np.stack([labels[folds[i][0]] for i in group])
            w, b, ran = _train_stack(x, y, bundle.num_classes, hyper)
            for j, i in enumerate(group):
                pred = predict(LogisticModel(weights=w[j], bias=b[j]), test_x[i])
                acc[i] = float(np.mean(pred == labels[folds[i][1]]))
                epochs[i] = int(ran[j])
        accuracies += acc
        epochs_run += epochs
    return accuracies, epochs_run


def cross_validate(
    bundle: DatasetBundle,
    family: Union[str, Sequence],
    phi_set: Optional[Sequence[PhiFunction]] = None,
    density: bool = False,
    hyper: Hyper = Hyper(),
    k: int = 10,
    seed: int = 0,
    repeats: int = 10,
    threads: int = 1,
    collect_fold_details: bool = False,
) -> CVReport:
    """Repeated stratified k-fold CV; the standardizer is fitted per fold on
    training rows only, so no test statistics leak into scaling.
    `config["epochs_run"]` holds the epochs each fold trained, in fold order."""
    start = time.perf_counter()
    splits = _repeat_splits(bundle.labels, k, seed, repeats)
    matrix = embed(bundle, family, phi_set=phi_set, density=density, threads=threads)
    details: Optional[list[dict]] = [] if collect_fold_details else None
    accuracies, epochs_run = _run_folds(matrix, bundle, hyper, splits, details)
    acc = np.asarray(accuracies)
    config = {
        "dataset": bundle.name,
        "family": family,
        "phi": [p.label() for p in (phi_set or [])] or "auto",
        "density": density,
        "classifier": {"l2": hyper.l2, "lr": hyper.lr, "epochs": hyper.epochs},
        "k": k,
        "repeats": repeats,
        "epochs_run": epochs_run,
    }
    if details is not None:
        config["fold_details"] = details
    return CVReport(
        fold_accuracies=accuracies,
        mean=float(acc.mean()),
        stddev=float(acc.std()),
        seed=seed,
        config=config,
        wall_time_seconds=time.perf_counter() - start,
    )


def bench_runtime(
    bundle: DatasetBundle,
    family: Union[str, Sequence],
    phi_set: Optional[Sequence[PhiFunction]] = None,
    density: bool = False,
    hyper: Hyper = Hyper(),
    k: int = 10,
    seed: int = 0,
    repeats: int = 1,
    threads: int = 1,
) -> dict:
    """Wall-clock split of a CV run: embedding time vs train/predict time."""
    splits = _repeat_splits(bundle.labels, k, seed, repeats)
    t0 = time.perf_counter()
    matrix = embed(bundle, family, phi_set=phi_set, density=density, threads=threads)
    embed_seconds = time.perf_counter() - t0
    t1 = time.perf_counter()
    accuracies, _ = _run_folds(matrix, bundle, hyper, splits)
    train_seconds = time.perf_counter() - t1
    return {
        "dataset": bundle.name,
        "num_graphs": len(bundle.graphs),
        "embed_seconds": embed_seconds,
        "train_predict_seconds": train_seconds,
        "total_seconds": embed_seconds + train_seconds,
        "mean_accuracy": float(np.mean(accuracies)) if accuracies else None,
        "config": {
            "family": family,
            "density": density,
            "classifier": {"l2": hyper.l2, "lr": hyper.lr, "epochs": hyper.epochs},
            "k": k,
            "repeats": repeats,
            "seed": seed,
        },
    }
