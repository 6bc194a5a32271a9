"""Command-line interface: patterns, hom, gen, embed, eval, bench.

Exit codes: 0 success, 1 usage error, 2 data or validation error. Every
output artifact embeds the resolved configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import datasets, embedding, evaluate
from .graphs import FeaturedGraph
from .hom import PhiFunction, _to_density, hom
from .patterns import load_pattern_file, pattern_from_spec, resolve_family


_SPEC_HELP = ("a catalog trees:K | cycles:K | stars:K | paths:K, one pattern edge | cycle:K | "
              "path:N | star:N | kbip:A,B, or file:PATH (every block) | file:PATH#i (block i); "
              "--pattern takes a spec that names one pattern")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this artifact reserves 2 for data
    # errors and uses 1 for usage.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        datasets.write_output(out, text + "\n")
    print(text)


_GENERATORS = {"csl": datasets.gen_csl, "bipartite": datasets.gen_bipartite_er,
               "paulus": datasets.load_paulus}


def _load_bundle(args) -> datasets.DatasetBundle:
    if getattr(args, "generate", None):
        return _GENERATORS[args.generate](seed=args.seed)
    directory = Path(args.dataset)
    name = args.name or datasets.find_tud_name(directory)
    return datasets.parse_tud(directory, name)


def _phi_set(args):
    if args.phi == "constant":
        return [PhiFunction.constant_one()]
    return None  # auto: embedding picks the default for the bundle


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="homcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_pat = sub.add_parser("patterns", help="print a pattern catalog as JSON")
    p_pat.add_argument("--family", required=True, help=_SPEC_HELP)
    p_pat.add_argument("--out", default=None)

    p_hom = sub.add_parser("hom", help="compute one homomorphism count")
    p_hom.add_argument("--pattern", required=True, help=_SPEC_HELP)
    p_hom.add_argument("--graph", required=True, help="graph file (n line, then 'u v' lines)")
    p_hom.add_argument("--weighted", action="store_true",
                       help="real-valued mode with unit vertex weights")
    p_hom.add_argument("--density", action="store_true")
    p_hom.add_argument("--out", default=None)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset in TU format")
    p_gen.add_argument("kind", choices=list(_GENERATORS))
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--copies-per-class", type=int, help="csl and paulus only (default 15)")
    p_gen.add_argument("--num-vertices", type=int, help="csl only (default 41)")
    p_gen.add_argument("--skips", help="csl only, comma-separated")
    p_gen.add_argument("--total", type=int, help="bipartite only (default 200)")
    p_gen.add_argument("--paulus-file", help="paulus only")

    def add_data_args(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--dataset", help="TU-format directory")
        group.add_argument("--generate", choices=list(_GENERATORS))
        p.add_argument("--name", default=None, help="dataset name if ambiguous")
        p.add_argument("--family", required=True, help=_SPEC_HELP)
        p.add_argument("--phi", choices=["auto", "constant"], default="auto")
        p.add_argument("--density", action="store_true")
        p.add_argument("--seed", type=int, default=0)

    p_emb = sub.add_parser("embed", help="write an embedding matrix as CSV")
    add_data_args(p_emb)
    p_emb.add_argument("--log1p", action="store_true")
    p_emb.add_argument("--out", required=True, help="output CSV path")

    # bench is eval with one repeat by default, reporting its layer times
    for command, repeats, help_text in (
        ("eval", 10, "repeated stratified k-fold cross-validation"),
        ("bench", 1, "cross-validation timed by layer: embed, train/predict"),
    ):
        p_cv = sub.add_parser(command, help=help_text)
        add_data_args(p_cv)
        p_cv.add_argument("--out", default=None)
        p_cv.add_argument("--k", type=int, default=10)
        p_cv.add_argument("--repeats", type=int, default=repeats)
        p_cv.add_argument("--l2", type=float, default=evaluate.Hyper().l2)
        p_cv.add_argument("--lr", type=float, default=evaluate.Hyper().lr)
        p_cv.add_argument("--epochs", type=int, default=evaluate.Hyper().epochs)

    return parser


def _cmd_patterns(args) -> int:
    catalog = resolve_family(args.family)
    payload = {
        "config": {"family": args.family},
        "patterns": [
            {
                "family": p.family,
                "size": p.size,
                "edges": [list(e) for e in p.graph.edges()],
                "canonical_code": p.canonical_code,
            }
            for p in catalog
        ],
    }
    _emit(payload, args.out)
    return 0


def _cmd_hom(args) -> int:
    pattern = pattern_from_spec(args.pattern)
    graphs = load_pattern_file(args.graph)
    if len(graphs) != 1:
        raise ValueError(f"--graph takes one graph, but {args.graph} holds {len(graphs)}")
    g = graphs[0]
    if args.weighted:
        fg = FeaturedGraph(g, np.ones((g.num_vertices, 1)))
        value = hom(pattern, fg, phi=PhiFunction.affine((1.0,), 0.0))
    else:
        value = hom(pattern, g)
    out_value = _to_density(float(value), pattern.graph, g) if args.density else value.value
    payload = {
        "config": {
            "pattern": args.pattern,
            "graph": args.graph,
            "weighted": args.weighted,
            "density": args.density,
        },
        "value": out_value,
        "mode": "real" if (args.density or value.mode == "real") else "exact",
        "promoted": value.promoted,
    }
    _emit(payload, args.out)
    return 0


# Each `gen` kind's own options and their defaults. An option of another
# kind is an error rather than ignored, and only the kind's own options go
# into the dataset's config JSON.
_GEN_OPTIONS = {
    "csl": {"copies_per_class": 15, "num_vertices": 41, "skips": None},
    "bipartite": {"total": 200},
    "paulus": {"copies_per_class": 15, "paulus_file": None},
}


def _cmd_gen(args) -> int:
    own = _GEN_OPTIONS[args.kind]
    foreign = sorted({name for options in _GEN_OPTIONS.values() for name in options} - set(own))
    given = ["--" + name.replace("_", "-") for name in foreign if getattr(args, name) is not None]
    if given:
        raise ValueError(f"gen {args.kind} does not take {', '.join(given)}")
    for name in foreign:
        delattr(args, name)
    for name, default in own.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    options = {"file" if name == "paulus_file" else name: getattr(args, name) for name in own}
    if "skips" in options:  # comma-separated, or csl's default when not given
        text = options["skips"]
        options["skips"] = tuple(map(int, text.split(","))) if text else datasets.DEFAULT_CSL_SKIPS
    bundle = _GENERATORS[args.kind](seed=args.seed, **options)
    out = Path(args.out)
    datasets.write_tud(bundle, out)
    config = {"config": vars(args) | {"command": "gen"}, "provenance": bundle.provenance}
    config["config"].pop("out", None)
    datasets.write_output(out / f"{bundle.name}_config.json", json.dumps(config, indent=2) + "\n")
    print(f"wrote {len(bundle.graphs)} graphs ({bundle.num_classes} classes) to {out}")
    return 0


def _cmd_embed(args) -> int:
    bundle = _load_bundle(args)
    matrix = embedding.embed(bundle, args.family, phi_set=_phi_set(args),
                             density=args.density, log1p=args.log1p)
    config = {
        "family": args.family,
        "phi": args.phi,
        "density": args.density,
        "log1p": args.log1p,
        "seed": args.seed,
        "dataset": bundle.name,
    }
    embedding.write_embedding_csv(matrix, bundle, args.out, config=config)
    print(f"wrote {matrix.values.shape[0]}x{matrix.values.shape[1]} embedding to {args.out}")
    return 0


def _cmd_cv(args) -> int:
    """`eval` and `bench`: one cross-validation run, reported two ways."""
    bundle = _load_bundle(args)
    report = evaluate.cross_validate(
        bundle,
        args.family,
        phi_set=_phi_set(args),
        density=args.density,
        hyper=evaluate.Hyper(l2=args.l2, lr=args.lr, epochs=args.epochs),
        k=args.k,
        seed=args.seed,
        repeats=args.repeats,
    )
    if args.command == "bench":
        layers = report.layer_seconds
        echoed = ("family", "density", "classifier", "k", "repeats")
        timing = {
            "dataset": bundle.name,
            "num_graphs": len(bundle.graphs),
            "embed_seconds": layers["embed"],
            "train_predict_seconds": layers["train_predict"],
            "total_seconds": layers["embed"] + layers["train_predict"],
            "trained_problems": report.config["trained_problems"],
            "mean_accuracy": report.mean,
            "config": {key: report.config[key] for key in echoed} | {"seed": report.seed},
        }
        _emit(timing, args.out)
        return 0
    if args.out:
        datasets.write_output(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    print(
        f"{bundle.name} {args.family}: mean={report.mean:.4f} std={report.stddev:.4f} "
        f"(k={args.k}, repeats={args.repeats}, seed={args.seed})"
    )
    return 0


_COMMANDS = {
    "patterns": _cmd_patterns,
    "hom": _cmd_hom,
    "gen": _cmd_gen,
    "embed": _cmd_embed,
    "eval": _cmd_cv,
    "bench": _cmd_cv,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
