import hashlib
import json
import random
from dataclasses import asdict

import numpy as np
import pytest

from homcount.datasets import DatasetBundle, gen_bipartite_er, gen_csl, load_paulus, parse_tud
from homcount.embedding import (
    EmbeddingMatrix,
    apply_standardizer,
    column_names,
    default_phi_set,
    embed,
    fit_standardizer,
    write_embedding_csv,
)
from homcount.graphs import Graph, degree_sequence, disjoint_union, permute
from homcount.hom import PhiFunction
from homcount.patterns import pattern_from_spec
from conftest import FIXTURES


def small_bundle():
    graphs = [
        Graph(3, [(0, 1), (1, 2), (2, 0)]),
        Graph(4, [(0, 1), (1, 2), (2, 3)]),
        Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    ]
    return DatasetBundle(name="small", graphs=graphs, labels=[0, 1, 0, 1])


class TestDimensions:
    def test_tree_six_gives_thirteen_columns(self):
        m = embed(small_bundle(), "trees:6")
        assert m.values.shape == (4, 13)

    def test_cycle_eight_gives_seven_columns(self):
        m = embed(small_bundle(), "cycles:8")
        assert m.values.shape == (4, 7)

    def test_single_pattern_spec_is_one_column(self):
        # K3,3 is the treewidth-3 pattern that separates the Paulus classes
        m = embed(small_bundle(), "kbip:3,3")
        by_pattern = embed(small_bundle(), [pattern_from_spec("kbip:3,3")])
        assert m.values.shape == (4, 1)
        assert m.values.tobytes() == by_pattern.values.tobytes()

    def test_phi_set_multiplies_columns(self):
        bundle = parse_tud(FIXTURES / "TOY", "TOY")
        m = embed(bundle, "trees:4")  # 4 patterns x (1 + 3 coordinates)
        assert m.values.shape == (2, 4 * 4)


class TestInvarianceAndSeparation:
    def test_csl_rows_class_constant_and_distinct(self):
        bundle = gen_csl(copies_per_class=2, seed=0)
        m = embed(bundle, "cycles:8")
        rows = {}
        for row, lab in zip(m.values, bundle.labels):
            key = tuple(row)
            rows.setdefault(lab, set()).add(key)
        assert all(len(v) == 1 for v in rows.values())
        all_rows = {next(iter(v)) for v in rows.values()}
        assert len(all_rows) == 10

    def test_permuted_bundle_identical_matrix(self):
        rng = random.Random(71)
        bundle = small_bundle()
        permuted = []
        for g in bundle.graphs:
            sigma = list(range(g.num_vertices))
            rng.shuffle(sigma)
            permuted.append(permute(g, sigma))
        other = DatasetBundle(name="small", graphs=permuted, labels=bundle.labels)
        a = embed(bundle, "trees:5")
        b = embed(other, "trees:5")
        assert np.array_equal(a.values, b.values)

    def test_equal_degree_sequences_do_not_pin_tree_columns(self):
        # same degree multiset, star columns agree, a path column differs
        g1 = disjoint_union(Graph(3, [(0, 1), (1, 2)]), Graph(3, [(0, 1), (1, 2)]))
        g2 = disjoint_union(Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(2, [(0, 1)]))
        assert degree_sequence(g1) == degree_sequence(g2)
        bundle = DatasetBundle(name="pair", graphs=[g1, g2], labels=[0, 1])
        stars = embed(bundle, "stars:3")
        assert np.array_equal(stars.values[0], stars.values[1])
        trees = embed(bundle, "trees:4")
        assert not np.array_equal(trees.values[0], trees.values[1])


class TestFixedWorkloads:
    def test_embeddings_pinned(self):
        # sha256 of `embed(...).values.tobytes()` at seed 0, computed before
        # the engine counted column by column. Exact cycles are exact
        # doubles whatever the BLAS (the 2**53 bound of `_walk_traces`) and
        # trees are Python ints, so these bytes hold on every platform.
        pinned = {
            ("csl", "cycles:8"):
                "42d634a6c2fe5431cc00a14fc6e3b4881c8e08765017e45159c36fbc6c27ecf1",
            ("bipartite", "cycles:8"):
                "c54c0a343b2a69978b6428dc5af5e7d18e5440479ed48ba6c42f2b1302a4a51d",
            ("bipartite", "trees:6"):
                "776e308f562b3910492175f910965e0a522c82021c35e702125af260cfb3f9e0",
            ("paulus", "cycles:8"):
                "5a1825b4d57a85f84653e815dcabc664ac0142d95ebb2cf9712511efd460b0e7",
            ("paulus", "trees:6"):
                "e308e102c94b41c28b9c92064eae9dc4efe5ed33e83ad10cd9013a79c71e1edf",
        }
        bundles = {"csl": gen_csl(seed=0), "bipartite": gen_bipartite_er(seed=0),
                   "paulus": load_paulus(seed=0)}
        got = {(name, family): embed(bundles[name], family).values.tobytes()
               for name, family in pinned}
        got = {key: hashlib.sha256(data).hexdigest() for key, data in got.items()}
        assert got == pinned


class TestOptions:
    def test_density_bounds(self):
        m = embed(small_bundle(), "trees:5", density=True)
        assert (m.values >= 0).all() and (m.values <= 1).all()
        assert all(c.density for c in m.column_meta)

    def test_log1p(self):
        plain = embed(small_bundle(), "trees:4")
        logged = embed(small_bundle(), "trees:4", log1p=True)
        assert np.allclose(logged.values, np.log1p(plain.values))

    def test_column_order_stable(self):
        a = embed(small_bundle(), "cycles:8")
        b = embed(small_bundle(), "cycles:8")
        assert a.column_meta == b.column_meta
        assert np.array_equal(a.values, b.values)

    def test_coordinate_phi_without_features_rejected(self):
        with pytest.raises(ValueError, match="features"):
            embed(small_bundle(), "trees:4", phi_set=[PhiFunction.coordinate(0)])

    def test_empty_phi_set_rejected(self):
        with pytest.raises(ValueError, match="phi_set"):
            embed(small_bundle(), "trees:4", phi_set=[])

    def test_default_phi_for_featured_bundle(self):
        bundle = parse_tud(FIXTURES / "TOY", "TOY")
        phis = default_phi_set(bundle)
        assert [p.kind for p in phis] == ["constant_one"] + ["coordinate"] * 3

    def test_bundle_features_stay_writeable(self):
        # embed used to mark every feature array of the bundle read-only
        bundle = parse_tud(FIXTURES / "TOY", "TOY")
        embed(bundle, "cycles:3")
        assert all(f.flags.writeable for f in bundle.features)


class TestRoundingFlag:
    def test_flags_exactly_the_columns_float64_rounds(self):
        # hom(C_k, K30) = 29**k + 29 * (-1)**k. From C11 on the counts pass
        # 2**53, but C11's is even and so an exact double; C12 to C14 round.
        n = 30
        k30 = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        bundle = DatasetBundle(name="k30", graphs=[k30], labels=[0])
        counts = embed(bundle, "cycles:14")
        densities = embed(bundle, "cycles:14", density=True)
        exact = [29**c.size + 29 * (-1) ** c.size for c in counts.column_meta]
        assert counts.values[0].tolist() == [float(x) for x in exact]
        assert float(exact[11 - 2]) == exact[11 - 2] > 2**53
        assert [c.size for c in counts.column_meta if c.promoted] == [12, 13, 14]
        # the flag is read on the count, before the density division
        assert [c.promoted for c in densities.column_meta] == [
            c.promoted for c in counts.column_meta
        ]


class TestStandardizer:
    def test_constant_column_zeroed(self):
        values = np.array([[1.0, 2.0], [1.0, 4.0], [1.0, 6.0]])
        m = EmbeddingMatrix(values=values, column_meta=_meta(2))
        params = fit_standardizer(m)
        assert params.stddev[0] == 1.0
        out = apply_standardizer(m, params)
        assert (out.values[:, 0] == 0).all()

    def test_fit_apply_centers(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 10, size=(20, 4))
        m = EmbeddingMatrix(values=values, column_meta=_meta(4))
        out = apply_standardizer(m, fit_standardizer(m))
        assert np.abs(out.values.mean(axis=0)).max() < 1e-9
        assert np.allclose(out.values.std(axis=0), 1.0)

    def test_fit_on_rows_only(self):
        values = np.arange(12, dtype=float).reshape(6, 2)
        m = EmbeddingMatrix(values=values, column_meta=_meta(2))
        params = fit_standardizer(m, rows=[0, 1, 2])
        assert np.allclose(params.mean, values[:3].mean(axis=0))

    def test_empty_rejected(self):
        m = EmbeddingMatrix(values=np.zeros((0, 2)), column_meta=_meta(2))
        with pytest.raises(ValueError, match="empty"):
            fit_standardizer(m)

    def test_nan_rejected_at_construction(self):
        with pytest.raises(ValueError, match="NaN"):
            EmbeddingMatrix(values=np.array([[np.nan]]), column_meta=_meta(1))


class TestCsvOutput:
    def test_csv_and_sidecar(self, tmp_path):
        bundle = small_bundle()
        m = embed(bundle, "cycles:8")
        out = tmp_path / "emb.csv"
        write_embedding_csv(m, bundle, out, config={"family": "cycles:8", "seed": 0})
        lines = out.read_text().splitlines()
        assert lines[0].startswith("graph_id,label,")
        assert len(lines) == 1 + 4
        sidecar = json.loads((tmp_path / "emb.csv.meta.json").read_text())
        assert sidecar["config"]["seed"] == 0
        assert len(sidecar["columns"]) == 7
        assert len(column_names(m)) == 7

    @pytest.mark.parametrize("family", ["cycles:9", "trees:5"])
    def test_sidecar_columns_are_column_meta(self, tmp_path, family):
        # every code is exact, C9's too, so the sidecar adds nothing to a column
        bundle = small_bundle()
        m = embed(bundle, family)
        write_embedding_csv(m, bundle, tmp_path / "emb.csv")
        columns = json.loads((tmp_path / "emb.csv.meta.json").read_text())["columns"]
        assert columns == [asdict(c) for c in m.column_meta]

    def test_cells_read_back_exactly(self, tmp_path):
        bundle = small_bundle()
        m = embed(bundle, "trees:5", density=True)  # fractional cells
        out = tmp_path / "emb.csv"
        write_embedding_csv(m, bundle, out)
        text = out.read_text()
        assert "np." not in text
        rows = [line.split(",")[2:] for line in text.splitlines()[1:]]
        cells = np.array([[float(cell) for cell in row] for row in rows])
        assert cells.tobytes() == m.values.tobytes()

    def test_affine_header_is_quoted(self, tmp_path):
        # the label `affine([0.37, -0.61],0.05)` holds two commas
        import csv

        graphs = [Graph(3, [(0, 1), (1, 2)]), Graph(2, [(0, 1)])]
        feats = [np.full((3, 2), 0.5), np.full((2, 2), 0.25)]
        bundle = DatasetBundle(name="affine", graphs=graphs, labels=[0, 1], features=feats)
        m = embed(bundle, "paths:3", phi_set=[PhiFunction.affine([0.37, -0.61], 0.05)])
        out = tmp_path / "emb.csv"
        write_embedding_csv(m, bundle, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {2 + m.values.shape[1]}
        assert rows[0] == ["graph_id", "label"] + column_names(m)
        cells = np.array([[float(cell) for cell in row[2:]] for row in rows[1:]])
        assert cells.tobytes() == m.values.tobytes()

    def test_constant_and_coordinate_bytes_pinned(self, tmp_path):
        # no name needs quoting, so the file keeps the bytes of the plain comma join
        bundle = small_bundle()
        feats = [np.linspace(0, 1, g.num_vertices).reshape(-1, 1) for g in bundle.graphs]
        bundle = DatasetBundle(name="small", graphs=bundle.graphs, labels=bundle.labels,
                               features=feats)
        phis = [PhiFunction.constant_one(), PhiFunction.coordinate(0)]
        m = embed(bundle, "paths:3", phi_set=phis)
        out = tmp_path / "emb.csv"
        write_embedding_csv(m, bundle, out)
        assert out.read_bytes() == (
            b"graph_id,label,path2_0,path2_0_x[0],path3_1,path3_1_x[0]\n"
            b"0,0,6.0,1.0,12.0,0.75\n"
            b"1,1,6.0,1.7777777777777777,10.0,1.7777777777777777\n"
            b"2,0,8.0,0.0,20.0,0.0\n"
            b"3,1,8.0,1.7777777777777777,16.0,1.7777777777777777\n"
        )


    @pytest.mark.parametrize("family, density, digest", [
        ("cycles:5", False, "859cac5c9812bc1a22002f3477735b4f9416b3e366b81816a18bddb98a821791"),
        ("trees:4", True, "78e42e8aae1eaaff4a4a31b5a7fb0ddf8679c37df54c5fec9dd71829a80861fc"),
    ])
    def test_sidecar_and_csv_bytes_pinned(self, tmp_path, family, density, digest):
        # sha256 of the sidecar then the CSV under a constant, a coordinate
        # and an affine encoder, computed before `ColumnMeta` took slots and
        # `embed` one label per encoder
        import hashlib

        bundle = small_bundle()
        feats = [np.linspace(0, 1, 2 * g.num_vertices).reshape(-1, 2) for g in bundle.graphs]
        bundle = DatasetBundle(name="small", graphs=bundle.graphs, labels=bundle.labels,
                               features=feats)
        phis = [PhiFunction.constant_one(), PhiFunction.coordinate(1),
                PhiFunction.affine([0.37, -0.61], 0.05)]
        m = embed(bundle, family, phi_set=phis, density=density)
        assert not hasattr(m.column_meta[0], "__dict__")  # slots: no per-column dict
        out = tmp_path / "e.csv"
        write_embedding_csv(m, bundle, out, config={"family": family})
        data = (tmp_path / "e.csv.meta.json").read_bytes() + out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def _meta(d):
    from homcount.embedding import ColumnMeta

    return [
        ColumnMeta(
            pattern_index=i,
            family="tree",
            size=2,
            canonical_code="",
            phi="1",
            density=False,
            promoted=False,
        )
        for i in range(d)
    ]
