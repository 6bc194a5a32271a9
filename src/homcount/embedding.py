"""Embedding pipeline: dataset bundle -> pattern-count matrix -> standardized features.

A column is a (pattern, encoder) pair; the cell for graph i holds the
homomorphism count of the pattern into graph i under that encoder. Column
order is a pure function of (family, encoder set), so matrices are stable
across runs and platforms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .datasets import DatasetBundle, write_output
from .hom import PhiFunction, _as_float, _classify, _count_rows, _to_density
from .patterns import Pattern, resolve_family


@dataclass(frozen=True, slots=True)
class ColumnMeta:
    pattern_index: int
    family: str
    size: int
    canonical_code: str
    phi: str
    density: bool
    promoted: bool  # float64 rounded some cell's exact count


@dataclass
class EmbeddingMatrix:
    values: np.ndarray  # (num_graphs, num_columns) float64
    column_meta: list[ColumnMeta]

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError("embedding values must be a 2-d matrix")
        if self.values.shape[1] != len(self.column_meta):
            raise ValueError("column metadata must match the matrix width")
        if self.values.size and not np.isfinite(self.values).all():
            raise ValueError("embedding contains NaN or Inf entries")


@dataclass(frozen=True)
class ScalerParams:
    mean: np.ndarray
    stddev: np.ndarray  # zeros replaced by 1


def default_phi_set(bundle: DatasetBundle) -> list[PhiFunction]:
    """Constant encoder alone for plain graphs; plus one coordinate per
    feature column when the bundle carries vertex features."""
    if bundle.features is None:
        return [PhiFunction.constant_one()]
    p = bundle.features[0].shape[1] if bundle.features else 0
    return [PhiFunction.constant_one()] + [PhiFunction.coordinate(i) for i in range(p)]


def embed(
    bundle: DatasetBundle,
    family: Union[str, Sequence[Pattern]],
    phi_set: Optional[Sequence[PhiFunction]] = None,
    density: bool = False,
    log1p: bool = False,
) -> EmbeddingMatrix:
    """Embedding matrix with one column per (pattern, encoder) pair.

    `family` is a spec string like "trees:6" or "cycles:8", or an explicit
    pattern list. Encoders default to `default_phi_set(bundle)`.
    """
    patterns = resolve_family(family) if isinstance(family, str) else list(family)
    phis = list(phi_set) if phi_set is not None else default_phi_set(bundle)
    if not phis:
        raise ValueError("phi_set must not be empty")
    if bundle.features is None and any(p.kind == "coordinate" for p in phis):
        raise ValueError("coordinate encoders need a bundle with vertex features")

    catalog = _classify(patterns)
    width = len(patterns) * len(phis)  # column pi * len(phis) + q is (pattern pi, encoder q)
    values = np.zeros((len(bundle.graphs), width), dtype=np.float64)
    promoted = [False] * width

    for q, phi in enumerate(phis):  # the features are range-checked by `validate_bundle`
        for i, row in enumerate(_count_rows(catalog, bundle.graphs, bundle.features, phi)[0]):
            for pi, total in enumerate(row):
                j = pi * len(phis) + q
                cell = _as_float(total)
                promoted[j] = promoted[j] or cell != total  # on the count, not the density
                if density:
                    cell = _to_density(cell, patterns[pi].graph, bundle.graphs[i])
                values[i, j] = cell

    if log1p:
        values = np.log1p(values)
    labels = [phi.label() for phi in phis]  # one string per encoder, shared by its columns
    meta = [
        ColumnMeta(
            pattern_index=pi,
            family=p.family,
            size=p.size,
            canonical_code=p.canonical_code,
            phi=label,
            density=density,
            promoted=promoted[pi * len(phis) + q],
        )
        for pi, p in enumerate(patterns)
        for q, label in enumerate(labels)
    ]
    return EmbeddingMatrix(values=values, column_meta=meta)


def fit_standardizer(m: EmbeddingMatrix, rows: Optional[Sequence[int]] = None) -> ScalerParams:
    """Per-column mean and standard deviation over the given rows (all by default)."""
    data = m.values if rows is None else m.values[np.asarray(rows, dtype=np.intp)]
    if data.shape[0] == 0:
        raise ValueError("cannot fit a standardizer on an empty matrix")
    return ScalerParams(*_moments(data))


def _moments(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation over axis 0, the rows, with every zero
    deviation replaced by 1. numpy adds the rows in order, so a block of
    F row sets side by side, (n, F, d), gets each set's bits as an (n, d)
    array would."""
    std = data.std(axis=0)
    return data.mean(axis=0), np.where(std > 0, std, 1.0)


def apply_standardizer(m: EmbeddingMatrix, params: ScalerParams) -> EmbeddingMatrix:
    return EmbeddingMatrix(
        values=(m.values - params.mean) / params.stddev,
        column_meta=m.column_meta,
    )


def column_names(m: EmbeddingMatrix) -> list[str]:
    names = []
    for c in m.column_meta:
        base = f"{c.family}{c.size}_{c.pattern_index}"
        if c.phi != "1":
            base += f"_{c.phi}"
        names.append(base)
    return names


def write_embedding_csv(
    m: EmbeddingMatrix,
    bundle: DatasetBundle,
    path: str | Path,
    config: Optional[dict] = None,
) -> None:
    """CSV with `graph_id,label,<columns>` plus a JSON sidecar of column
    metadata and the resolved run configuration."""
    import csv  # only writers need these, so they load on first use
    import io
    import json

    path = Path(path)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")  # quotes a name holding a comma
    writer.writerow(["graph_id", "label"] + column_names(m))
    for i in range(m.values.shape[0]):
        writer.writerow([str(i), str(bundle.labels[i])] + [repr(float(x)) for x in m.values[i]])
    write_output(path, text.getvalue())
    columns = [asdict(c) for c in m.column_meta]
    sidecar = {"dataset": bundle.name, "columns": columns, "config": config or {}}
    sidecar_path = path.with_suffix(path.suffix + ".meta.json")
    write_output(sidecar_path, json.dumps(sidecar, indent=2) + "\n")
