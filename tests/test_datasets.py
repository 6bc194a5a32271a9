import os
import random
import stat
import tracemalloc

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
    write_output,
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
        (tmp_path / "X_node_labels.txt").write_text("0\n1\n2\n0\n2\n")
        bundle = parse_tud(tmp_path, "X")
        assert bundle.graphs[0].adjacency == ((1,), (0,))
        assert bundle.graphs[1].adjacency == ((1,), (0, 2), (1,))
        # each graph's rows in file order: labels 0, 2 and then 1, 0, 2
        assert [f.argmax(axis=1).tolist() for f in bundle.features] == [[0, 2], [1, 0, 2]]
        assert all(f.shape[1] == 3 and (f.sum(axis=1) == 1).all() for f in bundle.features)


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

    def test_skipped_graph_id(self, tmp_path):
        # graph 2 used to parse as an empty graph, which embed --density then rejected
        self._write(tmp_path, ["1, 2", "2, 1", "3, 4", "4, 3"], ["1", "1", "3", "3"], ["0", "1", "0"])
        with pytest.raises(DataFormatError, match="X_graph_indicator.txt: graph id 2 has no vertices"):
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


class TestBlankLines:
    """Every reader skips lines that are blank after `strip`; items count
    non-blank lines, and an error names the line's number in the file."""

    ATTRIBUTES = b"0.5, 1\n2, -3\n0.25, 0\n1e3, 2\n-1, 2\n0, 0\n7, 1\n"

    def _copy(self, directory):
        directory.mkdir()
        for src in (FIXTURES / "TOY").iterdir():
            (directory / src.name).write_bytes(src.read_bytes())
        (directory / "TOY_node_attributes.txt").write_bytes(self.ATTRIBUTES)
        return directory

    @pytest.mark.parametrize("blank", [b"\n", b" \t \r\n"], ids=["empty", "whitespace"])
    @pytest.mark.parametrize(
        "suffix", ["A", "graph_indicator", "graph_labels", "node_labels", "node_attributes"]
    )
    def test_blank_lines_parse_to_toy(self, tmp_path, suffix, blank):
        expected = parse_tud(self._copy(tmp_path / "plain"), "TOY")
        directory = self._copy(tmp_path / "blank")
        path = directory / f"TOY_{suffix}.txt"
        data = path.read_bytes()
        cut = data.index(b"\n") + 1
        path.write_bytes(data[:cut] + blank + data[cut:] + blank)  # after line 1 and at the end
        bundle = parse_tud(directory, "TOY")
        assert bundle.graphs == expected.graphs
        assert bundle.labels == expected.labels
        assert [f.tobytes() for f in bundle.features] == [f.tobytes() for f in expected.features]

    @pytest.mark.parametrize(
        "suffix, text, message",
        [
            ("graph_labels", "7\n\n  \nx\n", "TOY_graph_labels.txt:4: expected an integer, got 'x'"),
            ("graph_indicator", "1\n \n0\n1\n2\n2\n2\n2\n", "indicator.txt:3: graph id must be >= 1"),
            ("node_labels", "\n0\n1\n0\n2\n1\n1\nq\n", "TOY_node_labels.txt:8: expected an integer"),
            ("A", "1, 2\n\n2, 1\n1, 1\n", "TOY_A.txt:4: self-loop"),
            ("node_attributes", "1\n\n\t\n2, 3\n", "TOY_node_attributes.txt:4: expected 1 finite"),
        ],
        ids=["graph_labels", "graph_indicator", "node_labels", "A", "node_attributes"],
    )
    def test_error_names_line_in_file(self, tmp_path, suffix, text, message):
        directory = self._copy(tmp_path / "toy")
        (directory / f"TOY_{suffix}.txt").write_text(text)
        with pytest.raises(DataFormatError, match=message):
            parse_tud(directory, "TOY")


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

    def test_unused_label_columns_do_not_come_back(self, tmp_path):
        # parse_tud makes one column per label value it sees, so a one-hot
        # block round-trips exactly only when every column occurs
        onehot = np.zeros((2, 3))
        onehot[:, 0] = 1.0
        bundle = DatasetBundle("ONEHOT", [Graph(2, [(0, 1)])], [0], [onehot])
        write_tud(bundle, tmp_path)
        (features,) = parse_tud(tmp_path, "ONEHOT").features
        assert features.shape == (2, 1) and (features == 1.0).all()

    def test_attributed_roundtrip_is_bit_exact(self, tmp_path):
        graphs = [Graph(3, [(0, 1), (1, 2)]), Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])]
        stacked = np.random.default_rng(3).random((7, 3))
        # Every column spans exactly [0, 1], so parse_tud's min-max scaling
        # is the identity and the parsed values must be the written ones.
        stacked[0], stacked[1] = 0.0, 1.0
        bundle = DatasetBundle("ATTR", graphs, [0, 1], [stacked[:3], stacked[3:]])
        write_tud(bundle, tmp_path)
        assert "np." not in (tmp_path / "ATTR_node_attributes.txt").read_text()
        again = parse_tud(tmp_path, "ATTR")
        assert again.graphs == graphs and again.labels == [0, 1]
        for a, b in zip(again.features, bundle.features):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_rewrites_under_one_name_parse_back_as_written(self, tmp_path):
        graphs = [Graph(3, [(0, 1), (1, 2)]), Graph(2, [(0, 1)])]
        onehot = [np.eye(2)[[0, 1, 0]], np.eye(2)[[1, 1]]]
        attributed = [
            np.array([[0.0, 0.25], [1.0, 1.0], [0.5, 0.0]]),
            np.array([[0.125, 0.5], [0.75, 0.375]]),
        ]
        for features in (onehot, None, attributed, onehot):
            write_tud(DatasetBundle("X", graphs, [0, 1], features), tmp_path)
            again = parse_tud(tmp_path, "X")
            assert again.graphs == graphs and again.labels == [0, 1]
            if features is None:
                assert again.features is None
            else:
                assert [f.tolist() for f in again.features] == [f.tolist() for f in features]
            assert len(list(tmp_path.glob("X_node_*.txt"))) == (features is not None)


class TestWriteOutput:
    def test_regular_file_is_replaced_not_truncated(self, tmp_path):
        path = tmp_path / "out.txt"
        write_output(path, "old\n")
        os.link(path, tmp_path / "kept.txt")
        write_output(path, "new\n")
        assert path.read_text() == "new\n"
        assert (tmp_path / "kept.txt").read_text() == "old\n"
        assert not os.path.samefile(path, tmp_path / "kept.txt")

    def test_fifo_is_written_through(self, tmp_path):
        path = tmp_path / "pipe"
        os.mkfifo(path)
        reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_output(path, "through\n")
            assert os.read(reader, 64) == b"through\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(path).st_mode)


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

    def test_bundle_footprint(self):
        # 150 graphs of 41 vertices: one sorted neighbour tuple per vertex.
        # A frozenset copy of every neighbourhood took it to 1.84 MB.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bundle = gen_csl(seed=0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(bundle.graphs) == 150
        assert held < 0.75 * 2**20

    def test_bad_skip_rejected(self):
        with pytest.raises(ValueError, match="skip"):
            gen_csl(skips=(1, 3), copies_per_class=1)
        # n/2 chord halves the degree
        with pytest.raises(ValueError, match="skip"):
            gen_csl(num_vertices=40, skips=(2, 20), copies_per_class=1)

    @pytest.mark.parametrize("copies", [0, -3])
    def test_copies_per_class_below_one_rejected(self, copies):
        # an empty dataset used to be written, and failed only when parsed back
        with pytest.raises(ValueError, match="copies_per_class must be at least 1"):
            gen_csl(copies_per_class=copies)

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

    @pytest.mark.parametrize("total", [0, 1])
    def test_total_below_two_rejected(self, total):
        # 0 gave an empty dataset, and 1 a single class-1 graph whose labels failed
        with pytest.raises(ValueError, match="total must be at least 2"):
            gen_bipartite_er(total=total)


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

    def test_copies_per_class_below_one_rejected(self):
        with pytest.raises(ValueError, match="copies_per_class must be at least 1"):
            load_paulus(copies_per_class=0)

    @pytest.mark.parametrize("separator", [" ", "\t"])
    def test_blank_after_strip_separates_templates(self, tmp_path, separator):
        # a separator line holding whitespace used to glue two templates into one block
        text = default_paulus_file().read_text()
        copy = tmp_path / "paulus.txt"
        copy.write_text(text.replace("\n\n", f"\n{separator}\n"))
        assert copy.read_text().count(f"\n{separator}\n") == 13
        bundled = load_paulus(copies_per_class=1).graphs
        assert load_paulus(file=copy, copies_per_class=1).graphs == bundled
        assert len(bundled) == 14


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

    @pytest.mark.parametrize("bad", [7.0, np.nan, np.inf])
    def test_feature_outside_unit_range_rejected(self, bad):
        features = [np.array([[0.5], [bad]])]
        with pytest.raises(ValueError, match=r"feature entries must lie in \[0, 1\]"):
            DatasetBundle(name="x", graphs=[Graph(2, [(0, 1)])], labels=[0], features=features)
