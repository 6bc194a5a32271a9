"""Dataset ingestion and synthetic generators.

Reads and writes the TU-Dortmund benchmark layout (`<name>_A.txt` and
friends) and generates three seeded synthetic classification datasets:
circular-skip-link graphs, bipartite-vs-Erdos-Renyi, and permuted copies of
the bundled 25-vertex strongly regular templates. All generators are
deterministic functions of their parameters and seed.
"""

from __future__ import annotations

import os
import random
import stat
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .graphs import Graph, check_feature_range, is_bipartite, permute, text_blocks
from .hom import _walk_traces

DEFAULT_CSL_SKIPS = (2, 3, 4, 5, 6, 9, 11, 12, 13, 16)
BIPARTITE_SIZES = (40, 100)  # vertex counts drawn uniformly, both ends included
P_BIPARTITE = 0.2  # chance of each cross pair in a bipartite graph
P_ER = 0.1  # chance of each pair in an Erdos-Renyi graph


class DataFormatError(ValueError):
    """Malformed dataset file; message carries file name and line number."""


@dataclass
class DatasetBundle:
    name: str
    graphs: list[Graph]
    labels: list[int]
    features: Optional[list[np.ndarray]] = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        validate_bundle(self)

    @property
    def num_classes(self) -> int:
        return max(self.labels) + 1 if self.labels else 0


def validate_bundle(bundle: DatasetBundle) -> None:
    if len(bundle.graphs) != len(bundle.labels):
        raise ValueError("graphs and labels must align")
    if bundle.features is not None:
        if len(bundle.features) != len(bundle.graphs):
            raise ValueError("features and graphs must align")
        for g, f in zip(bundle.graphs, bundle.features):
            if f.shape[0] != g.num_vertices:
                raise ValueError("feature rows must match vertex counts")
            check_feature_range(f)
    if bundle.labels:
        classes = sorted(set(bundle.labels))
        if classes != list(range(len(classes))):
            raise ValueError("labels must form a contiguous 0-based range")


def write_output(path: str | Path, text: str) -> None:
    """Write `text` to `path`, the one way homcount writes a file.

    A regular file already at `path` is unlinked and a new one written:
    truncating a recently written file in place can wait on its writeback
    (ext4's `auto_da_alloc`), and a hard link to the old file keeps the old
    contents. Anything else, such as a symlink, a FIFO or `/dev/stdout`, is
    written through. The write is not crash-atomic.
    """
    path = Path(path)
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            path.unlink()
    except FileNotFoundError:
        pass
    path.write_text(text)


# ---------------------------------------------------------------------------
# TU-Dortmund format


def _read_lines(path: Path) -> Iterator[tuple[int, str]]:
    """Yield (line number in the file, text) for each line that is not blank
    after `strip`; the i-th such line describes item i."""
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file: {path}")
    # An undecodable byte becomes U+FFFD, which fails its token's parse.
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            yield lineno, line


def _int_token(token: str, path: Path, lineno: int) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise DataFormatError(
            f"{path.name}:{lineno}: expected an integer, got {token.strip()!r}"
        ) from None


def parse_tud(directory: str | Path, name: str) -> DatasetBundle:
    """Load a TU-format dataset: 1-based ids are shifted, edges symmetrized,
    node labels one-hot encoded, and graph labels remapped to 0..C-1."""
    directory = Path(directory)
    ind_path = directory / f"{name}_graph_indicator.txt"
    indicator = []
    for lineno, tok in _read_lines(ind_path):
        gid = _int_token(tok, ind_path, lineno)
        if gid < 1:
            raise DataFormatError(f"{ind_path.name}:{lineno}: graph id must be >= 1, got {gid}")
        indicator.append(gid)
    if not indicator:
        raise DataFormatError(f"{ind_path.name}: no vertices, so no graphs")
    num_graphs = max(indicator)
    sizes = [0] * num_graphs
    # Local index = rank within the vertex's own graph, so interleaved
    # indicator files parse correctly too.
    local_index = []
    vertex_graph = []
    for gid in indicator:
        vertex_graph.append(gid - 1)
        local_index.append(sizes[gid - 1])
        sizes[gid - 1] += 1
    if 0 in sizes:
        raise DataFormatError(f"{ind_path.name}: graph id {sizes.index(0) + 1} has no vertices")

    a_path = directory / f"{name}_A.txt"
    edge_sets: list[set[tuple[int, int]]] = [set() for _ in range(num_graphs)]
    for lineno, line in _read_lines(a_path):
        parts = line.split(",")
        if len(parts) != 2:
            raise DataFormatError(f"{a_path.name}:{lineno}: expected 'u, v'")
        u = _int_token(parts[0], a_path, lineno) - 1
        v = _int_token(parts[1], a_path, lineno) - 1
        if not (0 <= u < len(indicator)) or not (0 <= v < len(indicator)):
            raise DataFormatError(f"{a_path.name}:{lineno}: vertex id out of range")
        gu, gv = vertex_graph[u], vertex_graph[v]
        if gu != gv:
            raise DataFormatError(
                f"{a_path.name}:{lineno}: edge crosses graph boundary ({u + 1}, {v + 1})"
            )
        lu, lv = local_index[u], local_index[v]
        if lu == lv:
            raise DataFormatError(f"{a_path.name}:{lineno}: self-loop on vertex {u + 1}")
        edge_sets[gu].add((min(lu, lv), max(lu, lv)))
    graphs = [Graph(sizes[i], sorted(edge_sets[i])) for i in range(num_graphs)]

    gl_path = directory / f"{name}_graph_labels.txt"
    raw_labels = [_int_token(tok, gl_path, lineno) for lineno, tok in _read_lines(gl_path)]
    if len(raw_labels) != num_graphs:
        raise DataFormatError(f"{gl_path.name}: expected {num_graphs} labels")
    remap = {lab: i for i, lab in enumerate(sorted(set(raw_labels)))}
    labels = [remap[lab] for lab in raw_labels]

    features = None
    blocks: list[np.ndarray] = []
    nl_path = directory / f"{name}_node_labels.txt"
    if nl_path.is_file():
        node_labels = [_int_token(tok, nl_path, lineno) for lineno, tok in _read_lines(nl_path)]
        if len(node_labels) != len(indicator):
            raise DataFormatError(f"{nl_path.name}: expected {len(indicator)} lines")
        values = sorted(set(node_labels))  # one column per value, ascending
        onehot = np.zeros((len(indicator), len(values)))
        onehot[np.arange(len(indicator)), np.searchsorted(values, node_labels)] = 1.0
        blocks.append(onehot)
    na_path = directory / f"{name}_node_attributes.txt"
    if na_path.is_file():
        rows = []
        for lineno, line in _read_lines(na_path):
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError:
                raise DataFormatError(
                    f"{na_path.name}:{lineno}: expected comma-separated reals"
                ) from None
            if len(rows[-1]) != len(rows[0]) or not np.isfinite(rows[-1]).all():
                raise DataFormatError(
                    f"{na_path.name}:{lineno}: expected {len(rows[0])} finite reals, got {line!r}"
                )
        attrs = np.asarray(rows, dtype=np.float64)
        if attrs.shape[0] != len(indicator):
            raise DataFormatError(f"{na_path.name}: expected {len(indicator)} rows")
        # Min-max scale each attribute into [0, 1]; constant columns go to 0.
        # Halve a column whose span overflows (-1e308..1e308, say); halving is exact.
        lo, hi = attrs.min(axis=0), attrs.max(axis=0)
        with np.errstate(over="ignore"):
            half = np.where(np.isinf(hi - lo), 0.5, 1.0)
        attrs, lo, hi = attrs * half, lo * half, hi * half
        span = np.where(hi > lo, hi - lo, 1.0)
        blocks.append(np.where(hi > lo, (attrs - lo) / span, 0.0))
    if blocks:
        # a stable sort keeps each graph's rows in file order, its local order
        rows = np.hstack(blocks)[np.argsort(vertex_graph, kind="stable")]
        features = np.split(rows, np.cumsum(sizes)[:-1])

    return DatasetBundle(
        name=name,
        graphs=graphs,
        labels=labels,
        features=features,
        provenance={"source": "tud", "directory": str(directory)},
    )


def write_tud(bundle: DatasetBundle, directory: str | Path) -> None:
    """Emit a bundle in TU format. One-hot feature rows are written back as
    node labels, which parse back exactly only when every label column occurs
    in some row (`parse_tud` makes one column per label value it sees); other
    features go to node attributes. Files from an earlier bundle of the same
    name are replaced (`write_output`), and the optional file not written is
    removed."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = bundle.name
    a_lines, ind_lines = [], []
    offset = 0
    for i, g in enumerate(bundle.graphs):
        for v in range(g.num_vertices):
            ind_lines.append(str(i + 1))
        for u, v in g.edges():
            a_lines.append(f"{offset + u + 1}, {offset + v + 1}")
            a_lines.append(f"{offset + v + 1}, {offset + u + 1}")
        offset += g.num_vertices
    write_output(directory / f"{name}_A.txt", "\n".join(a_lines) + "\n")
    write_output(directory / f"{name}_graph_indicator.txt", "\n".join(ind_lines) + "\n")
    write_output(
        directory / f"{name}_graph_labels.txt",
        "\n".join(str(lab) for lab in bundle.labels) + "\n",
    )
    optional = {"labels": None, "attributes": None}
    if bundle.features is not None:
        stacked = np.vstack(bundle.features) if bundle.features else np.zeros((0, 0))
        is_onehot = (
            stacked.size > 0
            and np.isin(stacked, (0.0, 1.0)).all()
            and np.all(stacked.sum(axis=1) == 1.0)
        )
        if is_onehot:
            optional["labels"] = [str(int(row.argmax())) for row in stacked]
        else:
            optional["attributes"] = [",".join(repr(float(x)) for x in row) for row in stacked]
    for kind, lines in optional.items():
        path = directory / f"{name}_node_{kind}.txt"
        if lines is None:
            path.unlink(missing_ok=True)
        else:
            write_output(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# synthetic generators


def csl_template(num_vertices: int, skip: int) -> Graph:
    """Cycle 0..n-1 plus chords {i, i+skip mod n}; must come out 4-regular."""
    n = num_vertices
    if skip < 2 or 2 * skip >= n:
        raise ValueError(f"skip {skip} must satisfy 2 <= skip < n/2")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + skip) % n) for i in range(n)]
    g = Graph(n, edges)
    if any(g.degree(v) != 4 for v in range(n)):
        raise ValueError(f"skip {skip} does not produce a 4-regular graph on {n} vertices")
    return g


def _permuted_copies(
    templates: Sequence[Graph], copies_per_class: int, seed: int
) -> tuple[list[Graph], list[int]]:
    """`copies_per_class` seeded random relabelings of each template, class
    i holding the copies of template i."""
    if copies_per_class < 1:
        raise ValueError(f"copies_per_class must be at least 1, got {copies_per_class}")
    rng = random.Random(seed)
    graphs, labels = [], []
    for cls, template in enumerate(templates):
        for _ in range(copies_per_class):
            sigma = list(range(template.num_vertices))
            rng.shuffle(sigma)
            graphs.append(permute(template, sigma))
            labels.append(cls)
    return graphs, labels


def gen_csl(
    num_vertices: int = 41,
    skips: Sequence[int] = DEFAULT_CSL_SKIPS,
    copies_per_class: int = 15,
    seed: int = 0,
) -> DatasetBundle:
    """Circular-skip-link dataset: one class per skip length.

    Every graph is 4-regular, so tree-pattern counts cannot separate the
    classes; closed-walk profiles up to length 8 can, and the skip set is
    validated to have pairwise distinct profiles at generation time.
    """
    templates = [csl_template(num_vertices, r) for r in skips]
    profiles = [t[2:] for t in _walk_traces(templates, 8)]  # hom(C_k, t), k = 2..8
    for i in range(len(skips)):
        for j in range(i + 1, len(skips)):
            if profiles[i] == profiles[j]:
                raise ValueError(
                    f"skips {skips[i]} and {skips[j]} have identical cycle profiles"
                )
    graphs, labels = _permuted_copies(templates, copies_per_class, seed)
    return DatasetBundle(
        name="CSL",
        graphs=graphs,
        labels=labels,
        provenance={"source": "generated", "kind": "csl", "seed": seed},
    )


def _random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def gen_bipartite_er(total: int = 200, seed: int = 0) -> DatasetBundle:
    """Half random bipartite graphs (class 0), half Erdos-Renyi (class 1).

    Each graph has 40 to 100 vertices (`BIPARTITE_SIZES`). Bipartite graphs
    split the vertices as evenly as possible and include each cross pair
    with probability 0.2 (`P_BIPARTITE`); Erdos-Renyi graphs include each
    pair with probability 0.1 (`P_ER`). Erdos-Renyi samples that happen to
    be bipartite are rejected and redrawn so class labels stay truthful.
    """
    if total < 2:
        raise ValueError(f"total must be at least 2, one graph per class, got {total}")
    rng = random.Random(seed)
    lo, hi = BIPARTITE_SIZES
    graphs, labels = [], []
    for _ in range(total // 2):
        n = rng.randint(lo, hi)
        left = (n + 1) // 2
        edges = [
            (u, v)
            for u in range(left)
            for v in range(left, n)
            if rng.random() < P_BIPARTITE
        ]
        graphs.append(Graph(n, edges))
        labels.append(0)
    for _ in range(total - total // 2):
        n = rng.randint(lo, hi)
        g = _random_graph(n, P_ER, rng)
        while is_bipartite(g):
            g = _random_graph(n, P_ER, rng)
        graphs.append(g)
        labels.append(1)
    return DatasetBundle(
        name="BIPARTITE",
        graphs=graphs,
        labels=labels,
        provenance={"source": "generated", "kind": "bipartite_er", "seed": seed},
    )


def default_paulus_file() -> Path:
    return Path(str(resources.files("homcount").joinpath("data/paulus25.txt")))


def load_paulus(
    file: Optional[str | Path] = None,
    copies_per_class: int = 15,
    seed: int = 0,
) -> DatasetBundle:
    """Permuted copies of the bundled strongly regular 25-vertex templates.

    The fixture holds 14 pairwise non-isomorphic 12-regular cospectral
    graphs; each is replicated under seeded random relabelings, giving a
    14-class dataset that degree- and spectrum-based embeddings cannot
    separate.
    """
    path = Path(file) if file is not None else default_paulus_file()
    templates = []
    for lines in text_blocks(path.read_text()):
        n = len(lines)
        if n != 25 or any(len(ln) != 25 for ln in lines):
            raise ValueError(f"{path.name}: template must be a 25x25 0/1 matrix")
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if lines[u][v] not in "01" or lines[u][v] != lines[v][u]:
                    raise ValueError(f"{path.name}: template matrix must be symmetric 0/1")
                if lines[u][v] == "1":
                    edges.append((u, v))
        g = Graph(n, edges)
        if any(g.degree(v) != 12 for v in range(n)):
            raise ValueError(f"{path.name}: template is not 12-regular")
        templates.append(g)
    graphs, labels = _permuted_copies(templates, copies_per_class, seed)
    return DatasetBundle(
        name="PAULUS25",
        graphs=graphs,
        labels=labels,
        provenance={"source": "generated", "kind": "paulus", "seed": seed, "file": str(path)},
    )


def find_tud_name(directory: str | Path) -> str:
    """Infer the dataset name from the single `<name>_A.txt` in a directory."""
    matches = sorted(Path(directory).glob("*_A.txt"))
    if len(matches) != 1:
        raise ValueError(
            f"expected exactly one *_A.txt under {directory}, found {len(matches)}"
        )
    return matches[0].name[: -len("_A.txt")]
