"""Cross-validation with per-layer timings, and a lightweight multiclass classifier.

The classifier is multinomial logistic regression trained by full-batch
gradient descent from a zero initialization, so results are a deterministic
function of (data, hyperparameters); all shuffling flows from explicit seeds.
"""

from __future__ import annotations

import math
import os
import random
import time
import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Optional, Sequence, Union

import numpy as np

from .datasets import DatasetBundle
from .embedding import EmbeddingMatrix, _moments, embed
from .embedding import apply_standardizer, fit_standardizer  # noqa: F401 (tracers wrap them here)
from .hom import PhiFunction


@dataclass(frozen=True)
class Hyper:
    l2: float = 0.0
    lr: float = 0.2
    epochs: int = 2000

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be finite and non-negative, got {self.l2}")
        if not isinstance(self.epochs, int) or self.epochs < 0:
            raise ValueError(f"epochs must be a non-negative int, got {self.epochs!r}")


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
    tests: list[list[int]] = [[] for _ in range(k)]
    for i, f in enumerate(fold_of):  # each test list ascends
        tests[f].append(i)
    # the other folds' ascending runs, merged by one sort (Timsort merges runs)
    return [(sorted(chain(*tests[:f], *tests[f + 1 :])), tests[f]) for f in range(k)]


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


def _distinct_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each fold's distinct (row, label) pairs, keyed on the row's exact bytes
    (so -0.0 and 0.0 differ) and numbered in order of first occurrence.

    Returns each pair's first row, padded with row 0 to n per fold, (F, n);
    each row's pair, (F, n); and the number of pairs per fold, (F,).
    """
    f, n, _ = x.shape
    first, pair = np.zeros((f, n), dtype=np.intp), np.empty((f, n), dtype=np.intp)
    counts = np.empty(f, dtype=np.int64)
    for j in range(f):
        slots: dict = {}
        keys = zip(map(np.ndarray.tobytes, x[j]), y[j].tolist())
        pair[j] = [slots.setdefault(key, len(slots)) for key in keys]
        counts[j] = len(slots)
        first[j, : len(slots)] = np.unique(pair[j], return_index=True)[1]
    return first, pair, counts


def _train_stack(
    x: np.ndarray, y: np.ndarray, num_classes: int, hyper: Hyper
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Train F same-shaped classifiers as one stacked program.

    `x` is (F, n, d) and `y` is (F, n). Each fold's weights and bias are one
    (d + 1, C) block of one buffer, weights first, and so is its gradient, so
    an update is two calls. Batched matmul makes one BLAS product per fold,
    W^T X^T, on both paths below. Equal rows with equal labels get equal
    error terms wherever BLAS gives them equal scores, so where every fold
    of the stack has at most 0.6 n distinct (row, label) pairs, the scores
    are computed for each pair's first row only: those rows are gathered
    once per live stack, padded with row 0 to the stack's largest pair count
    and to at least two, since numpy hands a one-column product to BLAS
    gemv, which rounds unlike gemm. There the softmax runs row-major, on
    (F, u, C) scores, so its class sum is numpy's own pairwise row sum, and
    the error term is taken back to every row, row-major for the weight
    gradient and sample-major for the bias gradient. With more pairs the
    gather and the takes cost more than they save (break-even measured near
    0.7 n), and the softmax runs in place on all n rows, class-major, on
    (F, C, n) scores: numpy reduces a row-major block one short row at a
    time (a row-major sum took bipartite's 9,000 rows of 2 classes 3.3
    times as long), so `_sum_classes` adds the classes elementwise over the
    rows, in the order of the pairwise sum. The weight product and the bias
    sum stay on all n rows, in order. The bias sum reads a sample-major
    copy of the error term, whose rows numpy adds F·C terms at a time; along
    the rows of (F, n, C) it adds C at a time, which took 301 against 41 us
    an epoch, copy included, at (100, 180, 2). Each fold's result is thus
    bit-identical to training it alone with `train_classifier` and to the
    softmax on every row wherever BLAS gives bit-equal rows bit-equal
    scores. Where it does not (seen with 130 classes and 45 or more
    features, and with 40 classes and 97 or more), the two paths can differ
    in the low bits, and a fold's result can depend on its stack's path.
    A fold whose gradient norm falls below 1e-15 stops there and leaves the
    stack; the rest keep training.

    Returns weights (F, d, C), biases (F, C), the epochs each fold ran and
    the number of distinct (row, label) pairs each fold trained on.
    """
    f, n, d = x.shape
    c = num_classes
    first, pair, counts = _distinct_rows(x, y)
    params = np.zeros((f, d + 1, c))  # each fold's weights (d, C), then its bias (1, C)
    epochs_run = np.full(f, hyper.epochs)
    live = np.arange(f)  # the folds still in the stack, in stack order
    wb = params.copy()
    # Every ufunc method the epoch calls is bound once, and `out` is passed
    # positionally: numpy's Python wrappers and keyword parsing cost
    # microseconds a call, as much as the arithmetic.
    matmul, add, divide, multiply, sqrt = np.matmul, np.add, np.divide, np.multiply, np.sqrt
    copyto = np.copyto
    add_reduce, max_reduce, fmin_reduce = np.add.reduce, np.maximum.reduce, np.fmin.reduce
    z = None  # work buffers, sized to the live stack
    for epoch in range(hyper.epochs):
        if z is None:
            # Every view the epoch uses is made here, once per live stack.
            m = len(live)
            w, b = wb[:, :d], wb[:, d:]
            wt = w.transpose(0, 2, 1)
            g, sq = np.empty((m, d + 1, c)), np.empty((m, d + 1, c))  # gradient; its squares
            gw, gb, sw, sb = g[:, :d], g[:, d], sq[:, :d], sq[:, d]
            sw_rows = sw.reshape(m, d * c)  # each fold's weight squares as one row
            norms, step = np.empty((m, 1, 1)), np.empty((m, 1, 1))  # each fold's norm; lr / norm
            norm = norms.reshape(m)
            xt = x.transpose(0, 2, 1)
            zr, zs = np.empty((m, n, c)), np.empty((n, m, c))  # error term: row-, sample-major
            u = int(counts[live].max())
            gather = u <= 0.6 * n
            if gather:
                u = min(max(u, 2), n)  # one column would be a gemv, rounded unlike a gemm
                cols = first[live, :u]
                labels = np.take_along_axis(y, cols, axis=1)
                xz = np.take_along_axis(x, cols[:, :, None], axis=1).transpose(0, 2, 1)
                zc, z, rows = np.empty((m, c, u)), np.empty((m, u, c)), np.empty((m, u, 1))
                # each row's error term in the (m*u, C) rows of z, f*u + pair,
                # in row-major (m, n) and in sample-major (n, m) order
                back = (np.arange(m) * u)[:, None] + pair[live]
                back, back_s = back.reshape(-1), back.T.reshape(-1)
                z_rows, zr_rows, zs_rows = (a.reshape(-1, c) for a in (z, zr, zs))
            else:  # too few repeats to pay for the gather: the softmax runs in place
                u, xz, labels = n, xt, y
                zc, acc = zs.reshape(m, c, n), zr.reshape(m, c, n)  # free until the error term
                z, rows = zc.transpose(0, 2, 1), acc[:, :1].transpose(0, 2, 1)  # row-major views
                zr_s = zr.transpose(1, 0, 2)
            zt = zc.transpose(0, 2, 1)
            onehot = np.equal(labels[:, :, None], np.arange(c), out=np.empty_like(z))  # z's layout
        matmul(wt, xz, zc)
        add(zt, b, z)
        max_reduce(z, 2, None, rows, True)
        z -= rows
        np.exp(z, z)
        if gather:
            add_reduce(z, 2, None, rows, True)  # numpy's pairwise row sum
        else:
            _sum_classes(zc, acc)
        z /= rows  # softmax probabilities
        z -= onehot  # p - 0.0 == p
        if gather:
            z /= n  # the error term
            # mode "clip" writes straight into out, unbuffered
            z_rows.take(back, 0, zr_rows, "clip")
            z_rows.take(back_s, 0, zs_rows, "clip")
        else:
            divide(z, n, zr)
            copyto(zs, zr_s)
        matmul(xt, zr, gw)
        if hyper.l2:  # with l2 == 0 the term could only turn a -0.0 in gw into 0.0
            multiply(w, hyper.l2, sw)
            gw += sw
        add_reduce(zs, 0, None, gb)  # whole rows of m*C terms at a time, in row order
        multiply(g, g, sq)
        add_reduce(sw_rows, 1, None, norm)
        norm += add_reduce(sb, 1)
        sqrt(norm, norm)
        if fmin_reduce(norm) < 1e-15:  # fmin, as a NaN norm never stops
            stop = norm < 1e-15
            done = live[stop]
            params[done], epochs_run[done] = wb[stop], epoch
            keep = ~stop
            live, x, y, wb = live[keep], x[keep], y[keep], wb[keep]
            if not len(live):
                break
            g, norms, step, z = g[keep], norms[keep], step[keep], None
        divide(hyper.lr, norms, step)
        g *= step
        wb -= g
    params[live] = wb
    return params[:, :d], params[:, d], epochs_run, counts


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
    w, b, _, _ = _train_stack(x[None], y[None], c, hyper)
    return LogisticModel(weights=w[0], bias=b[0])


def predict(model: LogisticModel, x: np.ndarray) -> np.ndarray:
    return np.argmax(np.asarray(x) @ model.weights + model.bias, axis=1)


def _fold_seed(seed: int, repeat: int) -> int:
    return seed * 1_000_003 + repeat


# Below this many folds, a slice loses more to handing the GIL between threads
# (each epoch is some two dozen small numpy calls) than a second CPU gains. On
# 2 CPUs, two slices took 1.7-3.3 times as long as one thread at up to 24
# folds each, 0.85-1.25 times at 32-45 folds and 0.78-1.02 times at 50.
_MIN_SLICE_FOLDS = 40


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _standardize_folds(
    values: np.ndarray, folds: list[tuple[list[int], list[int]]]
) -> tuple[np.ndarray, np.ndarray]:
    """Standardized training rows, (F, n, d), and test rows, (F, t, d), of
    F folds that share one train-set size n and one test-set size t, each
    scaled by its own training rows' mean and deviation.

    The rows are gathered sample-major, (n, F, d), so `_moments` adds each
    fold's rows in order, all F folds' columns at a time (along axis 1 of
    (F, n, d) numpy adds d at a time: 2.3 against 1.6 ms for the ten repeats
    of CSL cycles:8). Each fold's rows are bit-identical to
    `apply_standardizer(m, fit_standardizer(m, rows=train))` at its
    training and test rows."""
    train, test = (values[np.array(rows, dtype=np.intp).T] for rows in zip(*folds))
    mean, std = _moments(train)
    return tuple(np.ascontiguousarray(((rows - mean) / std).transpose(1, 0, 2))
                 for rows in (train, test))


def _run_folds(
    matrix: EmbeddingMatrix,
    bundle: DatasetBundle,
    hyper: Hyper,
    splits: list[list[tuple[list[int], list[int]]]],
) -> tuple[list[float], list[int], list[int], int, float]:
    """Per-fold accuracies, epochs run and distinct (row, label) pairs trained
    on, in split order, the number of distinct problems trained and the
    training wall time.

    Graphs the catalog cannot tell apart get equal rows, so many folds pose
    the same problem: their standardized training rows and labels are
    byte-equal, keyed like `_distinct_rows` (row order, the sign of a zero and
    every label count). Each distinct problem trains once, and every fold
    takes its model, epochs and pair count and predicts on its own test rows.
    The problems of all repeats with one train-set size (at most two sizes
    occur) form one stack, cut into a slice per usable CPU but into no slice
    of fewer than `_MIN_SLICE_FOLDS` folds. The caller and a worker thread per
    further slice train them concurrently, as numpy releases the GIL in its
    ufunc and BLAS calls. A stack of one slice trains on the caller with no
    executor, and `concurrent.futures` is imported only for two or more.
    Standardizing, one block per repeat and train-set size (cross-validation
    folds of one train size share their test size too), and prediction stay
    on the caller.
    """
    labels = np.asarray(bundle.labels, dtype=np.int64)
    folds = [fold for repeat in splits for fold in repeat]
    by_size: dict[int, list] = {}  # train-set size -> (x, y) of each distinct problem
    seen: dict[tuple[int, bytes, bytes], int] = {}  # (size, x's bytes, y's bytes) -> stack slot
    place, test_x = [], []  # each fold's (size, slot) and test rows
    for repeat in splits:
        sizes: dict[tuple[int, int], list[int]] = {}  # train and test size -> the folds
        for f, (train_idx, test_idx) in enumerate(repeat):
            sizes.setdefault((len(train_idx), len(test_idx)), []).append(f)
        prepared = [None] * len(repeat)  # each fold's standardized train and test rows
        for members in sizes.values():
            x, tests = _standardize_folds(matrix.values, [repeat[f] for f in members])
            for f, fold_x, test in zip(members, x, tests):
                prepared[f] = fold_x, test
        for (train_idx, _), (x, test) in zip(repeat, prepared):
            y, n = labels[train_idx], len(train_idx)
            problems = by_size.setdefault(n, [])
            j = seen.setdefault((n, x.tobytes(), y.tobytes()), len(problems))
            if j == len(problems):
                problems.append((x, y))
            place.append((n, j))
            test_x.append(test)
    stacks = {n: [np.stack(part) for part in zip(*problems)] for n, problems in by_size.items()}
    train = partial(_train_stack, num_classes=bundle.num_classes, hyper=hyper)
    cpus, trained = _usable_cpus(), {}
    train_start = time.perf_counter()
    for n, (x, y) in stacks.items():
        cut = min(cpus, len(x) // _MIN_SLICE_FOLDS)
        if cut < 2:
            parts = [train(x, y)]
        else:  # the executor loads logging too, so it is imported only here
            from concurrent.futures import ThreadPoolExecutor

            slices = list(zip(np.array_split(x, cut), np.array_split(y, cut)))  # views of x, y
            with ThreadPoolExecutor(cut - 1) as pool:
                rest = [pool.submit(train, *xy) for xy in slices[1:]]
                parts = [train(*slices[0])] + [future.result() for future in rest]
        w, b, ran, pairs = (np.concatenate(part) for part in zip(*parts))
        trained[n] = w, b, ran.tolist(), pairs.tolist()  # folds share their problem's ints
    train_seconds = time.perf_counter() - train_start
    accuracies, epochs_run, distinct = [], [], []
    for (n, j), test, (_, test_idx) in zip(place, test_x, folds):
        w, b, ran, pairs = trained[n]
        pred = predict(LogisticModel(w[j], b[j]), test)
        accuracies.append(np.count_nonzero(pred == labels[test_idx]) / len(test_idx))
        epochs_run.append(ran[j])
        distinct.append(pairs[j])
    return accuracies, epochs_run, distinct, sum(len(x) for x, _ in stacks.values()), train_seconds


def cross_validate(
    bundle: DatasetBundle,
    family: Union[str, Sequence],
    phi_set: Optional[Sequence[PhiFunction]] = None,
    density: bool = False,
    hyper: Hyper = Hyper(),
    k: int = 10,
    seed: int = 0,
    repeats: int = 10,
) -> CVReport:
    """Repeated stratified k-fold CV; the standardizer is fitted per fold on
    training rows only, so no test statistics leak into scaling.
    Folds whose standardized training rows and labels are byte-equal share
    one trained model, so a fold's result does not depend on how many folds
    share its problem. `config["epochs_run"]` holds the epochs each fold
    trained, in fold order, `config["distinct_rows"]` the distinct (row,
    label) pairs each fold trained on, `config["trained_problems"]` the
    number of distinct problems trained, and `layer_seconds` the wall-clock
    time of the embed and train+predict layers, and of the stacked training
    within the latter."""
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    start = time.perf_counter()
    splits = [stratified_kfold(bundle.labels, k=k, seed=_fold_seed(seed, r))
              for r in range(repeats)]
    embed_start = time.perf_counter()
    matrix = embed(bundle, family, phi_set=phi_set, density=density)
    embed_end = time.perf_counter()
    accuracies, epochs_run, distinct_rows, problems, train_seconds = _run_folds(
        matrix, bundle, hyper, splits)
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
        "distinct_rows": distinct_rows,
        "trained_problems": problems,
    }
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

