"""Cross-validation with per-layer timings, and a lightweight multiclass classifier.

The classifier is multinomial logistic regression trained by full-batch
gradient descent from a zero initialization, so results are a deterministic
function of (data, hyperparameters); all shuffling flows from explicit seeds.
"""

from __future__ import annotations

import os
import random
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
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
    layer_seconds: dict = field(default_factory=dict)  # "embed", "train_predict", "train"

    def to_dict(self) -> dict:
        return dict(vars(self))  # fields in declaration order; values are not copied


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


def _sum_classes(z: np.ndarray, acc: np.ndarray) -> None:
    """Sum class-major `z` (m, C, n) over its classes into `acc[:, :1]`, in the
    order of numpy's pairwise sum over a contiguous row of C, so each total is
    bit-identical to the row-major `sum(axis=-1)`. `acc` is (m, k, n), k >= C."""
    c = z.shape[1]
    total = acc[:, :1]
    if c > 128:  # halves, the first a multiple of 8
        half = c // 2 - c // 2 % 8
        _sum_classes(z[:, :half], acc)
        _sum_classes(z[:, half:], acc[:, 1:])
        total += acc[:, 1:2]
        return
    tail = c - c % 8  # the classes from here on are added in sequence
    if c < 8:
        total.fill(0.0)  # numpy starts a short row from 0.0
    else:  # eight interleaved partial sums, combined pairwise
        r = acc[:, :8]
        np.copyto(r, z[:, :8])
        for j in range(8, tail, 8):
            r += z[:, j : j + 8]
        np.add(r[:, 0::2], r[:, 1::2], out=r[:, 0::2])  # r0+r1, r2+r3, r4+r5, r6+r7
        np.add(r[:, 0::4], r[:, 2::4], out=r[:, 0::4])  # (r0+r1)+(r2+r3), (r4+r5)+(r6+r7)
        np.add(r[:, :1], r[:, 4:5], out=total)
    for j in range(tail, c):
        total += z[:, j : j + 1]


def _train_stack(
    x: np.ndarray, y: np.ndarray, num_classes: int, hyper: Hyper
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train F same-shaped classifiers as one stacked program.

    `x` is (F, n, d) and `y` is (F, n). Every fold runs the arithmetic of a
    single 2-D fit, op for op, so each fold's result is bit-identical to
    training it alone. Batched matmul makes one BLAS product per fold. The
    softmax runs on class-major (F, C, n) scores, so each reduction over the
    classes is elementwise over n rows; the error term is then laid out
    row-major for the weight gradient and sample-major for the bias gradient.
    A fold whose gradient norm falls below 1e-15 stops there and leaves the
    stack; the rest keep training.

    Returns weights (F, d, C), biases (F, C) and the epochs each fold ran.
    """
    f, n, d = x.shape
    c = num_classes
    weights = np.zeros((f, d, c))
    biases = np.zeros((f, 1, c))
    epochs_run = np.full(f, hyper.epochs)
    live = np.arange(f)  # the folds still in the stack, in stack order
    w, b = weights.copy(), biases.copy()
    zc = None  # work buffers, sized to the live stack
    for epoch in range(hyper.epochs):
        if zc is None:
            m = len(live)
            xt = x.transpose(0, 2, 1)
            # each row's label in flat class-major scores: f*C*n + y*n + i
            hot = ((np.arange(m) * c * n)[:, None] + y * n + np.arange(n)).reshape(-1)
            zc, zr = np.empty((m, c, n)), np.empty((m, n, c))
            zs = zc.reshape(n, m, c)  # zc's memory, sample-major
            acc = zr.reshape(m, c, n)  # zr's memory, free until the error term
            rows = acc[:, :1]  # row max, then row sum
            gw, gw_tmp = np.empty((m, d, c)), np.empty((m, d, c))
            gb, gb_sq = np.empty((m, 1, c)), np.empty((m, 1, c))
        np.matmul(w.transpose(0, 2, 1), xt, out=zc)
        zc += b.transpose(0, 2, 1)
        zc.max(axis=1, keepdims=True, out=rows)
        zc -= rows
        np.exp(zc, out=zc)
        _sum_classes(zc, acc)
        zc /= rows  # softmax probabilities
        zc.reshape(-1)[hot] -= 1.0  # minus the one-hot labels; p - 0.0 == p
        np.divide(zc.transpose(0, 2, 1), n, out=zr)  # the error term, row-major
        np.matmul(xt, zr, out=gw)
        np.multiply(w, hyper.l2, out=gw_tmp)
        gw += gw_tmp
        np.copyto(zs, zr.transpose(1, 0, 2))
        np.add.reduce(zs, axis=0, out=gb[:, 0])
        np.multiply(gw, gw, out=gw_tmp)
        np.multiply(gb, gb, out=gb_sq)
        norm = np.sqrt(gw_tmp.reshape(m, d * c).sum(axis=1) + gb_sq.reshape(m, c).sum(axis=1))
        stop = norm < 1e-15
        if stop.any():
            done = live[stop]
            weights[done], biases[done], epochs_run[done] = w[stop], b[stop], epoch
            keep = ~stop
            live, x, y, w, b = live[keep], x[keep], y[keep], w[keep], b[keep]
            if not len(live):
                break
            gw, gb, norm, zc = gw[keep], gb[keep], norm[keep], None
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
    if not len(x):
        raise ValueError("there are no training rows")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    c = num_classes if num_classes is not None else int(y.max()) + 1
    if ((y < 0) | (y >= c)).any():
        raise ValueError(f"labels must lie in 0..{c - 1}")
    w, b, _ = _train_stack(x[None], y[None], c, hyper)
    return LogisticModel(weights=w[0], bias=b[0])


def predict(model: LogisticModel, x: np.ndarray) -> np.ndarray:
    return np.argmax(np.asarray(x) @ model.weights + model.bias, axis=1)


def _fold_seed(seed: int, repeat: int) -> int:
    return seed * 1_000_003 + repeat


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _run_folds(
    matrix: EmbeddingMatrix,
    bundle: DatasetBundle,
    hyper: Hyper,
    splits: list[list[tuple[list[int], list[int]]]],
    details: Optional[list[dict]] = None,
) -> tuple[list[float], list[int], float]:
    """Per-fold accuracies and epochs run, in split order, and the training wall time.

    The folds of all repeats with one train-set size (at most two sizes occur)
    form one stack, cut into a slice per usable CPU. The caller and a worker
    thread per further slice train them concurrently, as numpy releases the
    GIL in its ufunc and BLAS calls. Standardizing and prediction stay on the caller.
    """
    labels = np.asarray(bundle.labels, dtype=np.int64)
    folds = [fold for repeat in splits for fold in repeat]
    by_size: dict[int, list[int]] = {}
    for i, (train_idx, _) in enumerate(folds):
        by_size.setdefault(len(train_idx), []).append(i)
    cpus, d = _usable_cpus(), matrix.values.shape[1]
    stacks, rows = [], {}  # (folds, x, y) per train-set size; fold -> its rows there
    for n, group in by_size.items():
        x, y = np.empty((len(group), n, d)), np.empty((len(group), n), dtype=np.int64)
        rows.update((i, (x[j], y[j])) for j, i in enumerate(group))
        stacks.append((group, x, y))
    test_x = []
    for i, (train_idx, test_idx) in enumerate(folds):
        scaler = fit_standardizer(matrix, rows=train_idx)
        values = apply_standardizer(matrix, scaler).values
        x_row, y_row = rows[i]
        x_row[:], y_row[:] = values[train_idx], labels[train_idx]
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
    models, epochs_run = [None] * len(folds), [0] * len(folds)
    train = partial(_train_stack, num_classes=bundle.num_classes, hyper=hyper)
    train_start = time.perf_counter()
    for group, x, y in stacks:
        cut = min(cpus, len(group))
        slices = list(zip(np.array_split(x, cut), np.array_split(y, cut)))  # views of x, y
        with ThreadPoolExecutor(max(cut - 1, 1)) as pool:  # starts no thread if unused
            rest = [pool.submit(train, *xy) for xy in slices[1:]]
            trained = [train(*slices[0])] + [future.result() for future in rest]
        w, b, ran = (np.concatenate(parts) for parts in zip(*trained))
        for j, i in enumerate(group):
            models[i], epochs_run[i] = LogisticModel(weights=w[j], bias=b[j]), int(ran[j])
    train_seconds = time.perf_counter() - train_start
    accuracies = [float(np.mean(predict(model, test) == labels[test_idx]))
                  for model, test, (_, test_idx) in zip(models, test_x, folds)]
    return accuracies, epochs_run, train_seconds


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
    `config["epochs_run"]` holds the epochs each fold trained, in fold order,
    and `layer_seconds` the wall-clock time of the embed and train+predict
    layers, and of the stacked training within the latter. `threads` sets
    the worker threads of `embed` only."""
    start = time.perf_counter()
    splits = [stratified_kfold(bundle.labels, k=k, seed=_fold_seed(seed, r))
              for r in range(repeats)]
    embed_start = time.perf_counter()
    matrix = embed(bundle, family, phi_set=phi_set, density=density, threads=threads)
    embed_end = time.perf_counter()
    details: Optional[list[dict]] = [] if collect_fold_details else None
    accuracies, epochs_run, train_seconds = _run_folds(matrix, bundle, hyper, splits, details)
    train_end = time.perf_counter()
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
        layer_seconds={"embed": embed_end - embed_start, "train_predict": train_end - embed_end,
                       "train": train_seconds},
    )

