"""Command-line interface.

Thin wrappers over the graph engine (cpdag, mpdag, pco, identify, relations)
plus the experiment sweep. Graph, background-knowledge and config files all
load through ``_load``, so bad input exits with ``file[:line]: message`` and
no traceback; the experiment exits 2 when any per-run failure was recorded.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .ancestry import AncestralRelation, ancestral_relation
from .causal_ident import (
    enumerate_valid_orientations,
    identification_formula,
    is_identifiable,
    pco,
)
from .graph_core import GraphError, Pdag, parse_graph
from .harness import ExperimentConfig, run_experiment
from .meek_engine import construct_mpdag, cpdag_from_dag, parse_background_knowledge


def _load(path: str, parse=parse_graph):
    """``parse`` the file's text; bad input exits with ``file[:line]: message``."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as exc:
        line = getattr(exc, "line", None)
        line = f":{line}" if line is not None else ""
        raise SystemExit(f"{path}{line}: {exc}")


def _bucket_text(g: Pdag, bucket) -> str:
    return "{" + ",".join(g.sort_vertices(bucket)) + "}"


def cmd_cpdag(args) -> int:
    g = _load(args.graph)
    if not g.is_dag():
        raise SystemExit(f"{args.graph}: input must be fully directed")
    print(cpdag_from_dag(g).to_text(), end="")
    return 0


def cmd_mpdag(args) -> int:
    g = _load(args.graph)
    bk = _load(args.background, parse_background_knowledge)
    try:
        print(construct_mpdag(g, bk).to_text(), end="")
    except GraphError as exc:
        raise SystemExit(f"{args.background}: {exc}")
    return 0


def cmd_pco(args) -> int:
    g = _load(args.graph)
    nodes = args.nodes if args.nodes else list(g.names)
    ordering = pco(nodes, g)
    print(" < ".join(_bucket_text(g, b) for b in ordering.buckets))
    return 0


def cmd_identify(args) -> int:
    g = _load(args.graph)
    intervened = args.do
    if is_identifiable(g, intervened):
        formula = identification_formula(g, intervened, pco(g.names, g))
        print(formula.as_text())
        print("identifiable")
    else:
        candidates = enumerate_valid_orientations(g, intervened)
        print(f"not identifiable: {len(candidates)} candidate MPDAGs")
    return 0


def cmd_relations(args) -> int:
    g = _load(args.graph)
    groups = {kind: [] for kind in AncestralRelation}
    for t in g.names:
        if t != args.sensitive:
            groups[ancestral_relation(g, args.sensitive, t)].append(t)
    for kind in AncestralRelation:
        print(f"{kind.value}: {','.join(g.sort_vertices(groups[kind]))}")
    return 0


def cmd_experiment(args) -> int:
    cfg = _load(args.config, ExperimentConfig.from_json)
    result = run_experiment(cfg, args.out)
    print(f"{len(result.rows)} runs -> {args.out}/tradeoff.csv")
    if result.failures:
        print(f"{len(result.failures)} failures -> {args.out}/failures.csv", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairmpdag")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cpdag", help="CPDAG of a DAG's equivalence class")
    p.add_argument("graph")
    p.set_defaults(func=cmd_cpdag)

    p = sub.add_parser("mpdag", help="refine a CPDAG with background knowledge")
    p.add_argument("graph")
    p.add_argument("background")
    p.set_defaults(func=cmd_mpdag)

    p = sub.add_parser("pco", help="partial causal ordering")
    p.add_argument("graph")
    p.add_argument("--nodes", nargs="*", default=None)
    p.set_defaults(func=cmd_pco)

    p = sub.add_parser("identify", help="interventional identification formula")
    p.add_argument("graph")
    p.add_argument("--do", nargs="+", required=True, metavar="VERTEX")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("relations", help="ancestral relations of a sensitive vertex")
    p.add_argument("graph")
    p.add_argument("--sensitive", required=True)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("experiment", help="run the accuracy-fairness sweep")
    p.add_argument("config")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":
    sys.exit(main())
