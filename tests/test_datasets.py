import random

import numpy as np
import pytest

from conftest import FIXTURES
from homcount.datasets import (
    DataFormatError,
    DatasetBundle,
    default_paulus_file,
    find_tud_name,
    gen_bipartite_er,
    gen_csl,
    load_paulus,
    parse_tud,
    write_tud,
)
from homcount.graphs import Graph, degree_sequence, is_bipartite
from homcount.hom import hom_cycle, hom_vector
from homcount.patterns import enumerate_cycles


class TestToyGoldenFiles:
    def test_exact_adjacency(self):
        bundle = parse_tud(FIXTURES / "TOY", "TOY")
        assert len(bundle.graphs) == 2
        triangle, path = bundle.graphs
        assert triangle.adjacency == ((1, 2), (0, 2), (0, 1))
        assert path.adjacency == ((1,), (0, 2), (1, 3), (2,))

    def test_labels_remapped(self):
        bundle = parse_tud(FIXTURES / "TOY", "TOY")
        assert bundle.labels == [0, 1]  # raw labels were 7 and 9

    def test_node_labels_one_hot(self):
        bundle = parse_tud(FIXTURES / "TOY", "TOY")
        assert bundle.features is not None
        f0, f1 = bundle.features
        assert f0.shape == (3, 3) and f1.shape == (4, 3)
        assert np.array_equal(f0, [[1, 0, 0], [0, 1, 0], [1, 0, 0]])
        assert np.array_equal(f1, [[0, 0, 1], [0, 1, 0], [0, 1, 0], [1, 0, 0]])

    def test_name_detection(self):
        assert find_tud_name(FIXTURES / "TOY") == "TOY"

    def test_interleaved_indicator(self, tmp_path):
        # vertices of the two graphs alternate in the indicator file
        (tmp_path / "X_graph_indicator.txt").write_text("1\n2\n1\n2\n2\n")
        (tmp_path / "X_A.txt").write_text("1, 3\n3, 1\n2, 4\n4, 2\n4, 5\n5, 4\n")
        (tmp_path / "X_graph_labels.txt").write_text("0\n1\n")
        bundle = parse_tud(tmp_path, "X")
        assert bundle.graphs[0].adjacency == ((1,), (0,))
        assert bundle.graphs[1].adjacency == ((1,), (0, 2), (1,))


class TestParserErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="graph_indicator"):
            parse_tud(tmp_path, "NOPE")

    def _write(self, tmp_path, a_lines, indicator, labels):
        (tmp_path / "X_A.txt").write_text("\n".join(a_lines) + "\n")
        (tmp_path / "X_graph_indicator.txt").write_text("\n".join(indicator) + "\n")
        (tmp_path / "X_graph_labels.txt").write_text("\n".join(labels) + "\n")

    def test_boundary_crossing_edge(self, tmp_path):
        self._write(tmp_path, ["1, 2", "2, 1", "2, 3"], ["1", "1", "2"], ["0", "1"])
        with pytest.raises(DataFormatError, match="X_A.txt:3"):
            parse_tud(tmp_path, "X")

    def test_non_integer_token(self, tmp_path):
        self._write(tmp_path, ["1, z"], ["1", "1"], ["0"])
        with pytest.raises(DataFormatError, match="X_A.txt:1"):
            parse_tud(tmp_path, "X")

    def test_self_loop(self, tmp_path):
        self._write(tmp_path, ["1, 1"], ["1"], ["0"])
        with pytest.raises(DataFormatError, match="self-loop"):
            parse_tud(tmp_path, "X")

    def test_vertex_id_out_of_range(self, tmp_path):
        self._write(tmp_path, ["1, 9"], ["1", "1"], ["0"])
        with pytest.raises(DataFormatError, match="out of range"):
            parse_tud(tmp_path, "X")

    def test_empty_graph_indicator(self, tmp_path):
        self._write(tmp_path, [], [], [])
        (tmp_path / "X_graph_indicator.txt").write_text("")
        with pytest.raises(DataFormatError, match="X_graph_indicator.txt"):
            parse_tud(tmp_path, "X")

    @pytest.mark.parametrize("gid", ["0", "-1"])
    def test_graph_id_below_one(self, tmp_path, gid):
        # 0 used to land the vertex in the last graph; -1 was an IndexError
        self._write(tmp_path, ["1, 2", "2, 1"], ["1", gid, "2"], ["0", "1"])
        with pytest.raises(DataFormatError, match=f"indicator.txt:2: graph id must be >= 1, got {gid}"):
            parse_tud(tmp_path, "X")

    @pytest.mark.parametrize(
        "rows", [["1, 2", "3"], ["1, 2", "nan, 1"], ["1, 2", "2, inf"]], ids=["ragged", "nan", "inf"]
    )
    def test_bad_node_attributes(self, tmp_path, rows):
        # ragged rows were numpy's ValueError, nan became 0.0 and inf a NaN feature
        self._write(tmp_path, ["1, 2", "2, 1"], ["1", "1"], ["0"])
        (tmp_path / "X_node_attributes.txt").write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match="X_node_attributes.txt:2: expected 2 finite"):
            parse_tud(tmp_path, "X")

    @pytest.mark.filterwarnings("error")
    def test_attribute_span_beyond_float_range(self, tmp_path):
        # hi - lo overflowed to inf, and the 1e308 vertex got a NaN feature
        self._write(tmp_path, ["1, 2", "2, 1"], ["1", "1"], ["0"])
        (tmp_path / "X_node_attributes.txt").write_text("-1e308, 1\n1e308, 3\n")
        (features,) = parse_tud(tmp_path, "X").features
        assert np.array_equal(features, [[0.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("suffix", ["A", "graph_indicator", "graph_labels", "node_labels"])
    def test_undecodable_byte(self, tmp_path, suffix):
        for src in (FIXTURES / "TOY").iterdir():
            (tmp_path / src.name).write_bytes(src.read_bytes())
        path = tmp_path / f"TOY_{suffix}.txt"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\xff\n", 1))
        with pytest.raises(DataFormatError, match=f"TOY_{suffix}.txt:1:"):
            parse_tud(tmp_path, "TOY")


class TestParserFuzz:
    """Seeded line and byte mutations of the TOY files: `parse_tud` returns a
    valid bundle or raises `DataFormatError`, and nothing else escapes."""

    TOKENS = ("0", "-1", "x", "nan", "")
    # real-valued attributes next to TOY's node labels, so the fuzz reaches that reader too
    ATTRIBUTES = b"0.5, 1\n2, -3\n0.25, 0\n1e3, 2\n-1, 2\n0, 0\n7, 1\n"

    def _mutate(self, rng, data: bytes) -> bytes:
        lines = data.split(b"\n")
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        kind = rng.choice(["drop", "duplicate", "swap", "token", "byte"])
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            tokens = lines[i].split(b",")
            tokens[rng.randrange(len(tokens))] = rng.choice(self.TOKENS).encode()
            lines[i] = b",".join(tokens)
        else:
            at = rng.randrange(len(data) + 1)
            return data[:at] + b"\xff" + data[at:]
        return b"\n".join(lines)

    def test_only_data_format_errors_escape(self, tmp_path):
        rng = random.Random(0)
        sources = {src.name: src.read_bytes() for src in (FIXTURES / "TOY").iterdir()}
        sources["TOY_node_attributes.txt"] = self.ATTRIBUTES
        outcomes = {"bundle": 0, "error": 0}
        for trial in range(400):
            files = dict(sources)
            for _ in range(rng.randint(1, 3)):
                name = rng.choice(sorted(files))
                files[name] = self._mutate(rng, files[name])
            directory = tmp_path / str(trial)
            directory.mkdir()
            for name, data in files.items():
                (directory / name).write_bytes(data)
            try:
                bundle = parse_tud(directory, "TOY")
            except DataFormatError as err:
                assert "TOY_" in str(err), (trial, files)
                outcomes["error"] += 1
                continue
            outcomes["bundle"] += 1
            for g, f in zip(bundle.graphs, bundle.features):
                assert f.shape[0] == g.num_vertices, (trial, files)
                assert np.isfinite(f).all() and f.min() >= 0.0 and f.max() <= 1.0, (trial, files)
        assert min(outcomes.values()) > 0, outcomes


class TestRoundTrip:
    def test_toy_roundtrip(self, tmp_path):
        bundle = parse_tud(FIXTURES / "TOY", "TOY")
        write_tud(bundle, tmp_path)
        again = parse_tud(tmp_path, "TOY")
        assert again.graphs == bundle.graphs
        assert again.labels == bundle.labels
        for a, b in zip(again.features, bundle.features):
            assert np.array_equal(a, b)

    def test_csl_roundtrip(self, tmp_path):
        bundle = gen_csl(copies_per_class=2, seed=5)
        write_tud(bundle, tmp_path)
        again = parse_tud(tmp_path, "CSL")
        assert again.graphs == bundle.graphs
        assert again.labels == bundle.labels
        assert again.features is None


class TestCSL:
    def test_shape_and_regularity(self):
        bundle = gen_csl(seed=0)
        assert len(bundle.graphs) == 150 and bundle.num_classes == 10
        for g in bundle.graphs:
            assert degree_sequence(g) == [4] * 41

    def test_not_bipartite(self):
        bundle = gen_csl(copies_per_class=1, seed=0)
        assert not any(is_bipartite(g) for g in bundle.graphs)

    def test_same_class_identical_hom_vectors(self):
        bundle = gen_csl(copies_per_class=3, seed=1)
        pats = enumerate_cycles(8)
        for cls in range(10):
            rows = [
                hom_vector(pats, g)
                for g, lab in zip(bundle.graphs, bundle.labels)
                if lab == cls
            ]
            for row in rows[1:]:
                assert (row == rows[0]).all()

    def test_distinct_classes_distinct_profiles(self):
        bundle = gen_csl(copies_per_class=1, seed=0)
        pats = enumerate_cycles(8)
        rows = [tuple(hom_vector(pats, g)) for g in bundle.graphs]
        assert len(set(rows)) == 10

    def test_determinism(self):
        assert gen_csl(seed=3).graphs == gen_csl(seed=3).graphs

    def test_bad_skip_rejected(self):
        with pytest.raises(ValueError, match="skip"):
            gen_csl(skips=(1, 3), copies_per_class=1)
        # n/2 chord halves the degree
        with pytest.raises(ValueError, match="skip"):
            gen_csl(num_vertices=40, skips=(2, 20), copies_per_class=1)

    def test_colliding_profiles_rejected(self):
        # skips 6 and 7 on 41 vertices share every closed-walk count up to 8
        with pytest.raises(ValueError, match="identical cycle profiles"):
            gen_csl(skips=(6, 7), copies_per_class=1)


class TestBipartiteER:
    def test_shape(self):
        bundle = gen_bipartite_er(seed=0)
        assert len(bundle.graphs) == 200
        assert sum(bundle.labels) == 100

    def test_class_zero_bipartite_class_one_not(self):
        bundle = gen_bipartite_er(total=40, seed=2)
        for g, lab in zip(bundle.graphs, bundle.labels):
            assert is_bipartite(g) == (lab == 0)

    def test_vertex_range(self):
        bundle = gen_bipartite_er(total=60, seed=4)
        assert all(40 <= g.num_vertices <= 100 for g in bundle.graphs)

    def test_odd_cycle_counts_separate(self):
        bundle = gen_bipartite_er(total=30, seed=6)
        for g, lab in zip(bundle.graphs, bundle.labels):
            odd = sum(hom_cycle(kk, g).value for kk in (3, 5, 7))
            assert (odd == 0) == (lab == 0)

    def test_determinism(self):
        assert gen_bipartite_er(seed=9).graphs == gen_bipartite_er(seed=9).graphs


class TestPaulus:
    def test_bundle_shape(self):
        bundle = load_paulus(seed=0)
        assert len(bundle.graphs) == 210 and bundle.num_classes == 14
        for g in bundle.graphs:
            assert degree_sequence(g) == [12] * 25

    def test_copies_match_template_profiles(self):
        bundle = load_paulus(copies_per_class=2, seed=3)
        pats = enumerate_cycles(8)
        rows = [tuple(hom_vector(pats, g)) for g in bundle.graphs]
        # isomorphic copies share profiles; all templates are cospectral
        assert len(set(rows)) == 1

    def test_default_file_exists(self):
        assert default_paulus_file().is_file()

    def test_wrong_vertex_count_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("010\n101\n010\n")
        with pytest.raises(ValueError, match="25x25"):
            load_paulus(file=bad, copies_per_class=1)

    def test_non_regular_rejected(self, tmp_path):
        lines = ["0" * 25 for _ in range(25)]
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="regular"):
            load_paulus(file=bad, copies_per_class=1)

    def test_asymmetric_matrix_rejected(self, tmp_path):
        rows = [["0"] * 25 for _ in range(25)]
        rows[0][1] = "1"  # no matching 1 at [1][0]
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join("".join(r) for r in rows) + "\n")
        with pytest.raises(ValueError, match="symmetric"):
            load_paulus(file=bad, copies_per_class=1)

    def test_determinism(self):
        assert load_paulus(seed=1).graphs == load_paulus(seed=1).graphs


class TestBundleValidation:
    def test_label_gap_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            DatasetBundle(name="x", graphs=[Graph(1, []), Graph(1, [])], labels=[0, 2])

    def test_misaligned_features_rejected(self):
        with pytest.raises(ValueError, match="align"):
            DatasetBundle(
                name="x",
                graphs=[Graph(1, [])],
                labels=[0],
                features=[np.zeros((1, 1)), np.zeros((1, 1))],
            )
