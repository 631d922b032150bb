"""Command-line interface.

Subcommands: ``gen`` (sample a dataset), ``count`` (exact subgraph
counts of one graph), ``wl`` (compare two graphs), ``regions`` (region
growth around a node), ``train`` (cross-validated experiment), and
``demo-wl-gap`` (the built-in separation example).

Exit codes: 0 success, 1 bad usage or configuration, 2 runtime or
training failure (also when ``train`` wrote its reports but a model has
no finite fold), 3 violated structural invariant.

``walklab.experiments``, and with it the models and training layers, is
imported only by the subcommands that use it (``regions``, ``train``,
``demo-wl-gap``), so ``wl``, ``count`` and ``gen`` start without it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .data import TARGET_KINDS, gen_dataset, save_dataset
from .errors import (CapacityError, ConfigError, CountOverflowError,
                     InputError, InvariantViolation, NumericError,
                     TrainingError)
from .graphs import atomic_write_text, read_edge_list
from .walks import cycle_counts, triangle_total
from .wl import compare_pair
# perfbench/tracing.py wraps these names of this module when it traces a run,
# so they stay importable here until its hooks follow cycle_counts and compare_pair
from .walks import four_cycle_count, triangle_counts_per_node  # noqa: F401
from .wl import augmented_distinguish, is_isomorphic_small, wl_distinguish  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this project reserves 2 for
    # runtime failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


# Built once per process: building costs about twenty times a parse, and
# parse_args keeps no state between calls.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the default (or config) seed")
    common.add_argument("--out", default=None,
                        help="output path (gen, demo-wl-gap) or directory (train)")

    parser = _Parser(prog="walklab",
                     description="Walk counting, colour refinement, and GNN experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common], help="sample a labelled ER dataset")
    p_gen.add_argument("--graphs", type=int, required=True)
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--prob", type=float, required=True)
    p_gen.add_argument("--target", required=True,
                       choices=[k.replace("_", "-") for k in TARGET_KINDS])

    p_count = sub.add_parser("count", parents=[common],
                             help="triangle and 4-cycle counts of an edge-list graph")
    p_count.add_argument("graph", help="edge-list file ('n m' header, 'u v' lines)")

    p_wl = sub.add_parser("wl", parents=[common],
                          help="compare two graphs by colour refinement")
    p_wl.add_argument("graph1")
    p_wl.add_argument("graph2")

    p_reg = sub.add_parser("regions", parents=[common],
                           help="D/L region sizes around a node")
    p_reg.add_argument("graph")
    p_reg.add_argument("--node", type=int, required=True)
    p_reg.add_argument("--kmax", type=int, default=3)

    p_train = sub.add_parser("train", parents=[common],
                             help="run a cross-validated experiment")
    p_train.add_argument("--config", required=True)

    sub.add_parser("demo-wl-gap", parents=[common],
                   help="refinement gap demo: C6 vs two triangles")
    return parser


def _dumps(doc, depth: int = 0) -> str:
    """``json.dumps(doc, indent=1)`` byte for byte, for string keys. Each
    list of scalars goes through the C encoder, which ``indent`` turns off,
    with the line break and indent as its item separator."""
    if not isinstance(doc, (dict, list, tuple)) or not doc:
        return json.dumps(doc)
    pad = "\n" + " " * (depth + 1)
    if isinstance(doc, dict):
        items = ("," + pad).join(f"{json.dumps(k)}: {_dumps(v, depth + 1)}" for k, v in doc.items())
        return "{" + pad + items + pad[:-1] + "}"
    if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, doc))):
        items = ("," + pad).join(_dumps(x, depth + 1) for x in doc)
    else:
        items = json.dumps(doc, separators=("," + pad, ": "))[1:-1]
    return "[" + pad + items + pad[:-1] + "]"


def _emit(doc, out_path) -> None:
    text = _dumps(doc)
    if out_path:
        atomic_write_text(out_path, text + "\n")
    else:
        print(text)


def _cmd_gen(args) -> int:
    seed = 0 if args.seed is None else args.seed
    out = args.out or "dataset.jsonl"
    ds = gen_dataset(args.graphs, args.nodes, args.prob,
                     args.target.replace("-", "_"), seed)
    save_dataset(ds, out)
    print(f"wrote {len(ds)} graphs to {out}")
    return EXIT_OK


def _cmd_count(args) -> int:
    g = read_edge_list(args.graph)
    per_node, (four_cycles,) = cycle_counts([g])
    doc = {
        "n": g.n,
        "edges": g.edge_count,
        "triangles": triangle_total(g, per_node),
        "four_cycles": four_cycles,
        "triangles_per_node": per_node.tolist(),
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_wl(args) -> int:
    g1 = read_edge_list(args.graph1)
    g2 = read_edge_list(args.graph2)
    report = compare_pair(g1, g2)
    doc = {"wl": report.wl.value, "augmented": report.augmented.value}
    if report.isomorphic is not None:
        doc["isomorphic"] = report.isomorphic
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_regions(args) -> int:
    from .experiments import region_report

    g = read_edge_list(args.graph)
    rows = region_report(g, args.node, args.kmax)
    if args.out:
        _emit(rows, args.out)
    else:
        for row in rows:
            print(f"k={row['k']}  D: {row['d_nodes']} nodes / {row['d_edges']} edges"
                  f"  L: {row['l_nodes']} nodes / {row['l_edges']} edges")
    return EXIT_OK


def _cmd_train(args) -> int:
    from .experiments import read_config, run_experiment, write_report

    cfg = read_config(args.config, seed_override=args.seed)
    report = run_experiment(cfg)
    out_dir = args.out or "."
    csv_path, json_path = write_report(report, out_dir)
    print(f"wrote {csv_path} and {json_path} in {report.wall_clock:.1f}s")
    for name, stats in report.summary["models"].items():
        print(f"  {name}: test MSE {stats['mean_test_mse']:.4g}"
              f" +- {stats['std_test_mse']:.4g}")
    failed = report.summary["failed_folds"]
    hopeless = [name for name, stats in report.summary["models"].items()
                if len(failed.get(name, ())) == len(stats["fold_test_mse"])]
    if hopeless:
        print(f"error: no finite fold for {', '.join(hopeless)}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_demo(args) -> int:
    from .experiments import demo_wl_gap

    _emit(demo_wl_gap(), args.out)
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "count": _cmd_count,
    "wl": _cmd_wl,
    "regions": _cmd_regions,
    "train": _cmd_train,
    "demo-wl-gap": _cmd_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code
    except (InputError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, CountOverflowError, NumericError, TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
