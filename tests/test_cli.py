import json
import os

import pytest

from homcount.cli import main
from homcount.datasets import gen_csl
from homcount.evaluate import Hyper, cross_validate
from homcount.patterns import pattern_from_spec


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("3\n0 1\n1 2\n2 0\n")
    return str(path)


class TestPatterns:
    def test_trees_six(self, capsys):
        assert main(["patterns", "--family", "trees:6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["patterns"]) == 13
        assert {p["family"] for p in payload["patterns"]} == {"tree"}
        assert all("canonical_code" in p for p in payload["patterns"])

    def test_colon_spec(self, capsys):
        assert main(["patterns", "--family", "cycles:8"]) == 0
        assert len(json.loads(capsys.readouterr().out)["patterns"]) == 7

    def test_codes_are_adjacency_strings_at_every_size(self, capsys):
        # C9 and C10 used to get a colour-refinement signature, `g9m9:wl[0x9]`
        assert main(["patterns", "--family", "cycles:10"]) == 0
        pats = json.loads(capsys.readouterr().out)["patterns"]
        assert [p["size"] for p in pats] == list(range(2, 11))
        for p in pats[1:]:
            n = p["size"]
            prefix, bits = p["canonical_code"].split(":")
            assert prefix == f"g{n}" and len(bits) == n * (n - 1) // 2 and bits.count("1") == n
        assert "canonical" not in pats[0]

    def test_c9_and_three_triangles_get_distinct_codes(self, tmp_path, capsys):
        # 9 vertices, 9 edges, all degree 2: both used to read `g9m9:wl[0x9]`
        c9 = "9\n" + "\n".join(f"{i} {(i + 1) % 9}" for i in range(9))
        triangles = "9\n" + "\n".join(f"{3 * t + i} {3 * t + (i + 1) % 3}"
                                        for t in range(3) for i in range(3))
        path = tmp_path / "pats.txt"
        path.write_text(c9 + "\n\n" + triangles + "\n")
        assert main(["patterns", "--family", f"file:{path}"]) == 0
        codes = [p["canonical_code"] for p in json.loads(capsys.readouterr().out)["patterns"]]
        assert len(set(codes)) == 2
        assert codes[0] == pattern_from_spec("cycle:9").canonical_code

    def test_missing_size_is_data_error(self, capsys):
        assert main(["patterns", "--family", "trees"]) == 2

    def test_single_pattern_spec(self, capsys):
        assert main(["patterns", "--family", "kbip:3,3"]) == 0
        pats = json.loads(capsys.readouterr().out)["patterns"]
        assert [(p["family"], p["size"], len(p["edges"])) for p in pats] == [("kbip", 6, 9)]

    def test_unknown_family_is_named(self, capsys):
        assert main(["patterns", "--family", "bogus"]) == 2
        assert "unknown pattern family 'bogus'" in capsys.readouterr().err


class TestHom:
    def test_edge_into_triangle(self, k3_file, capsys):
        assert main(["hom", "--pattern", "edge", "--graph", k3_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 6 and payload["mode"] == "exact"

    def test_complete_bipartite(self, k3_file, capsys):
        # K_{1,2} into K3: the star closed form, the sum of deg(v)^2 = 3 * 2^2
        assert main(["hom", "--pattern", "kbip:1,2", "--graph", k3_file]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 12
        for command in ("hom", "eval"):
            assert main([command, "--help"]) == 0
            assert "kbip:A,B" in capsys.readouterr().out

    def test_density(self, k3_file, capsys):
        assert main(["hom", "--pattern", "edge", "--graph", k3_file, "--density"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(6 / 9)
        assert payload["mode"] == "real"

    def test_weighted_mode_flag(self, k3_file, capsys):
        assert main(["hom", "--pattern", "cycle:3", "--graph", k3_file, "--weighted"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "real" and payload["value"] == pytest.approx(6.0)

    def test_missing_graph_file(self, capsys):
        assert main(["hom", "--pattern", "edge", "--graph", "/nope/missing.txt"]) == 2

    def test_multi_graph_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("3\n0 1\n1 2\n2 0\n\n2\n0 1\n")
        assert main(["hom", "--pattern", "edge", "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "holds 2" in err

    @pytest.mark.parametrize("args", [["--pattern", "cycle:256"],
                                      ["--weighted", "--pattern", "path:257"]])
    def test_count_past_the_float64_range(self, tmp_path, args, capsys):
        # 16**256 = 2**1024: both counts into K17 exceed every double
        path = tmp_path / "k17.txt"
        edges = [f"{u} {v}" for u in range(17) for v in range(u + 1, 17)]
        path.write_text("\n".join(["17", *edges]) + "\n")
        assert main(["hom", *args, "--graph", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: homomorphism count exceeds the float64 range"]

    @pytest.mark.parametrize("index", ["5", "-1"])
    def test_pattern_index_out_of_range(self, k3_file, index, capsys):
        spec = f"file:{k3_file}#{index}"
        assert main(["hom", "--pattern", spec, "--graph", k3_file]) == 2
        assert f"pattern index {index} out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suffix, message", [("", "names 2 patterns"), ("#", "integer block index, got ''")]
    )
    def test_several_pattern_blocks_need_an_index(self, k3_file, tmp_path, suffix, message, capsys):
        # P3, then K3: this counted block 0, P3, and printed 12
        path = tmp_path / "pats.txt"
        path.write_text("3\n0 1\n1 2\n\n3\n0 1\n1 2\n2 0\n")
        assert main(["hom", "--pattern", f"file:{path}{suffix}", "--graph", k3_file]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: spec 'file:{path}{suffix}'") and message in err

    @pytest.mark.parametrize("density, value", [([], 1), (["--density"], 1.0)])
    def test_empty_pattern_counts_one(self, k3_file, tmp_path, density, value, capsys):
        path = tmp_path / "pats.txt"
        path.write_text("0\n")
        args = ["hom", "--pattern", f"file:{path}#0", "--graph", k3_file] + density
        assert main(args) == 0
        got = json.loads(capsys.readouterr().out)["value"]
        assert got == value and type(got) is type(value)

    def test_density_past_the_double_range(self, tmp_path, capsys):
        # 17**300 is past every double; the density, about 1.5e-279, is not
        path = tmp_path / "c17.txt"
        path.write_text("\n".join(["17", *(f"{v} {(v + 1) % 17}" for v in range(17))]) + "\n")
        assert main(["hom", "--pattern", "cycle:300", "--graph", str(path), "--density"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.5111944896513e-279)

    @pytest.mark.parametrize("flag", ["--graph", "--pattern"])
    def test_edge_out_of_range(self, k3_file, tmp_path, flag, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 1\n1 5\n")
        files = {"--graph": str(path), "--pattern": f"file:{path}"}
        argv = ["hom", "--graph", k3_file, "--pattern", "edge"]
        argv[argv.index(flag) + 1] = files[flag]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: malformed pattern block: edge (1, 5) out of range for 3 vertices\n"

    def test_density_on_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("0\n")
        assert main(["hom", "--pattern", "edge", "--graph", str(path), "--density"]) == 2
        assert "non-empty target" in capsys.readouterr().err


class TestGenEvalPipeline:
    def test_gen_writes_tu_files(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = main([
            "gen", "csl", "--seed", "7", "--out", str(out), "--copies-per-class", "3",
        ])
        assert code == 0
        for suffix in ("A", "graph_indicator", "graph_labels"):
            assert (out / f"CSL_{suffix}.txt").is_file()
        config = json.loads((out / "CSL_config.json").read_text())
        assert config["config"]["seed"] == 7

    def test_eval_on_generated_dir(self, tmp_path, capsys):
        out = tmp_path / "d"
        main(["gen", "csl", "--seed", "7", "--out", str(out), "--copies-per-class", "5"])
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        code = main([
            "eval", "--dataset", str(out), "--family", "cycles:8",
            "--k", "5", "--repeats", "2", "--seed", "0", "--out", str(report_path),
        ])
        assert code == 0
        summary = capsys.readouterr().out
        assert "mean=1.0000" in summary and "std=0.0000" in summary
        report = json.loads(report_path.read_text())
        assert report["mean"] == 1.0 and report["stddev"] == 0.0
        # each fold trains on 4 copies of each class in index order: one problem
        assert report["config"]["trained_problems"] == 1
        assert report["config"]["epochs_run"] == [Hyper().epochs] * 10

    def test_eval_on_one_pattern(self, capsys):
        argv = ["eval", "--generate", "csl", "--family", "kbip:1,2",
                "--k", "2", "--repeats", "1", "--epochs", "5"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("CSL kbip:1,2: mean=")

    @pytest.mark.parametrize("kind", ["csl", "bipartite", "paulus"])
    def test_pipe_equals_generate_path(self, kind, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["gen", kind, "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        piped = tmp_path / "piped.json"
        direct = tmp_path / "direct.json"
        args = ["--family", "cycles:8", "--k", "5", "--repeats", "1", "--seed", "3"]
        assert main(["eval", "--dataset", str(out), "--out", str(piped)] + args) == 0
        assert main(["eval", "--generate", kind, "--out", str(direct)] + args) == 0
        a = json.loads(piped.read_text())
        b = json.loads(direct.read_text())
        for report in (a, b):
            report.pop("wall_time_seconds"), report.pop("layer_seconds")
        # generated bundle and parsed TU copy carry the same graphs, so the
        # reports agree except for the dataset echo; normalize that
        a["config"].pop("dataset"), b["config"].pop("dataset")
        assert a == b


class TestEmbed:
    def test_embed_csv(self, tmp_path, capsys):
        out = tmp_path / "d"
        main(["gen", "csl", "--seed", "1", "--out", str(out), "--copies-per-class", "2"])
        capsys.readouterr()
        csv_path = tmp_path / "emb.csv"
        code = main([
            "embed", "--dataset", str(out), "--family", "cycles:8", "--out", str(csv_path),
        ])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + 20
        assert lines[0].split(",")[:2] == ["graph_id", "label"]
        sidecar = json.loads((tmp_path / "emb.csv.meta.json").read_text())
        assert len(sidecar["columns"]) == 7


class TestBenchCommand:
    def test_bench_json(self, tmp_path, capsys):
        code = main([
            "bench", "--generate", "paulus", "--family", "cycles:8",
            "--k", "5", "--seed", "0",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["embed_seconds"] > 0 and payload["train_predict_seconds"] > 0

    def test_bench_is_one_repeat_of_cv(self, capsys):
        code = main([
            "bench", "--generate", "csl", "--family", "cycles:8", "--k", "5", "--seed", "0",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "dataset", "num_graphs", "embed_seconds", "train_predict_seconds",
            "total_seconds", "trained_problems", "mean_accuracy", "config",
        ]
        assert payload["total_seconds"] == (
            payload["embed_seconds"] + payload["train_predict_seconds"]
        )
        assert payload["config"] == {
            "family": "cycles:8", "density": False,
            "classifier": {"l2": Hyper().l2, "lr": Hyper().lr, "epochs": Hyper().epochs},
            "k": 5, "repeats": 1, "seed": 0,
        }
        report = cross_validate(gen_csl(seed=0), "cycles:8", k=5, seed=0, repeats=1)
        assert payload["dataset"] == "CSL" and payload["num_graphs"] == 150
        assert payload["mean_accuracy"] == report.mean
        assert payload["trained_problems"] == report.config["trained_problems"] == 1


class TestArtifacts:
    def _run_all(self, tmp_path):
        data = tmp_path / "d"
        cv = ["--dataset", str(data), "--family", "cycles:4", "--k", "2", "--epochs", "5"]
        runs = [
            ["gen", "csl", "--out", str(data), "--num-vertices", "11", "--skips", "2,3",
             "--copies-per-class", "2"],
            ["embed", "--out", str(tmp_path / "emb.csv"), *cv[:4]],
            ["eval", "--out", str(tmp_path / "eval.json"), "--repeats", "1", *cv],
            ["bench", "--out", str(tmp_path / "bench.json"), *cv],
        ]
        for argv in runs:
            assert main(argv) == 0, argv

    def test_reruns_replace_every_artifact(self, tmp_path, capsys):
        self._run_all(tmp_path)
        artifacts = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        assert [p.name for p in artifacts] == [
            "bench.json", "CSL_A.txt", "CSL_config.json", "CSL_graph_indicator.txt",
            "CSL_graph_labels.txt", "emb.csv", "emb.csv.meta.json", "eval.json",
        ]
        before = {p: p.read_text() for p in artifacts}
        kept = tmp_path / "kept"
        kept.mkdir()
        for i, p in enumerate(artifacts):
            os.link(p, kept / str(i))
        self._run_all(tmp_path)
        for i, p in enumerate(artifacts):
            text = p.read_text()
            assert "np." not in text, p
            if p.suffix == ".json":
                json.loads(text)
            elif p.suffix == ".csv":
                for line in text.splitlines()[1:]:
                    [float(cell) for cell in line.split(",")[2:]]  # ValueError if not
            # the old inode keeps the first run's text: replaced, not truncated
            assert (kept / str(i)).read_text() == before[p], p
            assert not os.path.samefile(p, kept / str(i)), p

    def test_symlinked_out_is_written_through(self, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_text("stale\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        code = main([
            "eval", "--generate", "csl", "--family", "cycles:4", "--k", "2",
            "--repeats", "1", "--epochs", "5", "--out", str(link),
        ])
        assert code == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["config"]["family"] == "cycles:4"


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["patterns", "--family", "trees:6", "--bogus"]) == 1

    def test_missing_dataset_dir(self, capsys):
        assert main(["eval", "--dataset", "/nope", "--family", "cycles:8"]) == 2

    def test_spec_naming_no_pattern(self, tmp_path, capsys):
        # a 150x0 embedding used to train and report mean=0.0933
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        argv = ["eval", "--generate", "csl", "--family", f"file:{path}",
                "--k", "2", "--repeats", "1", "--epochs", "3"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: spec 'file:{path}' names no pattern\n"

    @pytest.mark.parametrize(
        "args, message",
        [(["csl", "--copies-per-class", "0"], "copies_per_class"),
         (["csl", "--copies-per-class", "-3"], "copies_per_class"),
         (["paulus", "--copies-per-class", "0"], "copies_per_class"),
         (["bipartite", "--total", "0"], "total"), (["bipartite", "--total", "1"], "total")],
    )
    def test_gen_sizes_that_make_no_dataset(self, tmp_path, args, message, capsys):
        # the first four wrote 0 graphs and exited 0; eval then failed on the empty files
        out_dir = tmp_path / "data"
        assert main(["gen", *args, "--out", str(out_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message} must be at least")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "args, named",
        [(["csl", "--total", "1"], "--total"),
         (["csl", "--paulus-file", "x.txt"], "--paulus-file"),
         (["bipartite", "--skips", "2,3", "--copies-per-class", "0"],
          "--copies-per-class, --skips"),
         (["bipartite", "--num-vertices", "9"], "--num-vertices"),
         (["paulus", "--num-vertices", "9", "--total", "4"], "--num-vertices, --total"),
         (["paulus", "--skips", "2"], "--skips")],
        ids=["csl-total", "csl-paulus-file", "bipartite-csl-options", "bipartite-num-vertices",
             "paulus-two", "paulus-skips"],
    )
    def test_gen_rejects_options_of_another_kind(self, tmp_path, args, named, capsys):
        # each of these exited 0 and wrote the ignored options into the config
        out_dir = tmp_path / "data"
        assert main(["gen", *args, "--out", str(out_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: gen {args[0]} does not take {named}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "kind, options",
        [("csl", {"copies_per_class": 15, "num_vertices": 41, "skips": None}),
         ("bipartite", {"total": 200}),
         ("paulus", {"copies_per_class": 15, "paulus_file": None})],
    )
    def test_gen_config_holds_the_kinds_own_options(self, tmp_path, kind, options, capsys):
        out_dir = tmp_path / "data"
        assert main(["gen", kind, "--out", str(out_dir)]) == 0
        (path,) = out_dir.glob("*_config.json")
        config = json.loads(path.read_text())["config"]
        assert config == {"command": "gen", "kind": kind, "seed": 0} | options

    def test_k_larger_than_dataset(self, capsys):
        code = main(["eval", "--generate", "csl", "--family", "cycles:4", "--k", "200"])
        assert code == 2
        assert "k=200" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, spec",
        [("--pattern", "cycle"), ("--pattern", "cycle:x"), ("--pattern", "path:0"),
         ("--pattern", "star:0"), ("--pattern", "cycle:2"), ("--pattern", "file:{k3}#x"),
         ("--pattern", "kbip:0,3"), ("--pattern", "kbip:3"), ("--family", "trees:x"),
         ("--family", "paths:1"), ("--family", "stars:1"), ("--family", "cycles:2"),
         ("--family", "trees:0"), ("--family", "trees:13"), ("--family", "edge:7"),
         ("--family", "edge:")],
    )
    def test_bad_spec_is_named(self, k3_file, flag, spec, capsys):
        spec = spec.format(k3=k3_file)
        argv = ["hom", "--graph", k3_file] if flag == "--pattern" else ["patterns"]
        assert main(argv + [flag, spec]) == 2
        err = capsys.readouterr().err
        assert repr(spec) in err and "invalid literal" not in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--lr", "nan", "lr must be"), ("--lr", "0", "lr must be"), ("--l2", "inf", "l2 must be"),
         ("--l2", "-1", "l2 must be"), ("--epochs", "-1", "epochs must be"),
         ("--repeats", "0", "repeats must be")],
    )
    def test_bad_training_setting_is_named(self, flag, value, message, capsys):
        # each of these used to train (NaN weights, or a NaN mean) and exit 0
        argv = ["eval", "--generate", "csl", "--family", "cycles:4", flag, value]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "patterns" in capsys.readouterr().out
