"""Command-line interface: one subcommand per library surface.

Exit codes: 0 success (and: configuration recurrent, for check), 1 check
ran fine but the configuration is not recurrent, 2 malformed input or
arguments, 3 a size guard refused the computation.  Diagnostics go to
standard error; results to standard output.
"""
from __future__ import annotations

import argparse
import json
import sys

from .enumeration import CSV_HEADER, census, enumerate_recurrent, enumerate_stable
from .errors import GuardError, TopplingStallError
from .ferrers import FerrersPair, build_dag, config_to_pair, dag_to_dot, pair_to_config
from .model import (
    BipartiteShape,
    Configuration,
    ToppleOracle,
    simulate,
    stabilize_deterministic,
    stabilize_stochastic,
)
from .motzkin import MotzkinWord, config_to_motzkin, motzkin_to_config
from .polyomino import ParallelogramPolyomino, config_to_polyomino, polyomino_to_config
from .recurrence import is_recurrent, level


def _parse_config(text: str) -> Configuration:
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON configuration: {exc}") from None
        return Configuration.from_json_dict(obj)
    return Configuration.from_text(text)


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_check(args) -> int:
    c = _parse_config(args.config)
    verdict = is_recurrent(c, args.model)
    lvl = level(c)
    if args.format == "json":
        _emit_json({"model": args.model, "recurrent": verdict, "level": lvl})
    else:
        print(f"recurrent: {'true' if verdict else 'false'}")
        print(f"level: {lvl}")
    return 0 if verdict else 1


def _cmd_stabilize(args) -> int:
    c = _parse_config(args.config)
    if args.model == "asm":
        stable, (ft, fb) = stabilize_deterministic(c)
    else:
        oracle = ToppleOracle(args.seed, args.p)
        stable, (ft, fb) = stabilize_stochastic(c, oracle)
    if args.format == "json":
        _emit_json(
            {
                "configuration": stable.to_json_dict(),
                "firings": {"top": list(ft), "bottom": list(fb)},
            }
        )
    else:
        print(stable.to_text())
        print(
            "firings: {};{}".format(
                ",".join(map(str, ft)), ",".join(map(str, fb))
            )
        )
    return 0


def _cmd_simulate(args) -> int:
    shape = BipartiteShape(args.m, args.n)
    visits = simulate(args.model, shape, args.steps, args.seed, args.p)
    items = sorted(visits.items(), key=lambda kv: (kv[0].top, kv[0].bottom))
    if args.format == "json":
        _emit_json(
            {
                "visits": [
                    {"top": list(c.top), "bottom": list(c.bottom), "count": k}
                    for c, k in items
                ]
            }
        )
    else:
        for c, k in items:
            print(f"{c.to_text()} {k}")
    return 0


def _cmd_level(args) -> int:
    c = _parse_config(args.config)
    lvl = level(c)
    if args.format == "json":
        _emit_json({"level": lvl})
    else:
        print(lvl)
    return 0


def _require_model(args, why: str) -> str:
    if not args.model:
        raise ValueError(f"--model is required {why}")
    return args.model


def _cmd_biject(args) -> int:
    kind = args.to or args.from_
    payload = args.payload
    if args.to:
        c = _parse_config(payload)
        if kind == "ferrers":
            pair = config_to_pair(_require_model(args, "for ferrers pairs"), c)
            out_text = pair.to_text()
            out_json = {"first": pair.first.to_text(), "second": pair.second.to_text()}
        elif kind == "polyomino":
            poly = config_to_polyomino(c)
            out_text = poly.to_text()
            out_json = {"upper": poly.upper, "lower": poly.lower}
        else:
            word = config_to_motzkin(c)
            out_text = word.to_text()
            out_json = {"word": word.to_text()}
    else:
        if kind == "ferrers":
            pair = FerrersPair.from_text(payload)
            c = pair_to_config(_require_model(args, "for ferrers pairs"), pair)
        elif kind == "polyomino":
            c = polyomino_to_config(ParallelogramPolyomino.from_text(payload))
        else:
            c = motzkin_to_config(MotzkinWord.from_text(payload))
        out_text = c.to_text()
        out_json = c.to_json_dict()
    if args.format == "json":
        _emit_json(out_json)
    else:
        print(out_text)
    return 0


def _cmd_dag(args) -> int:
    dag = build_dag(args.model, BipartiteShape(args.m, args.n))
    dot = dag_to_dot(dag)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot)
    summary = {
        "model": dag.model,
        "vertices": len(dag.vertices),
        "edges": len(dag.edges),
    }
    if args.format == "json":
        if args.dot:
            summary["dot"] = args.dot
        _emit_json(summary)
    else:
        print(f"vertices: {summary['vertices']}")
        print(f"edges: {summary['edges']}")
        if args.dot:
            print(f"dot written to {args.dot}")
    return 0


def _cmd_enumerate(args) -> int:
    shape = BipartiteShape(args.m, args.n)
    if args.recurrent:
        stream = enumerate_recurrent(
            shape, _require_model(args, "with --recurrent"), args.sorted
        )
    else:
        stream = enumerate_stable(shape, args.sorted)
    if args.format == "json":
        _emit_json({"configurations": [c.to_json_dict() for c in stream]})
    else:
        for c in stream:
            print(c.to_text())
    return 0


def _cmd_census(args) -> int:
    row = census(BipartiteShape(args.m, args.n), args.model, args.sorted)
    if args.format == "json":
        _emit_json(
            {
                "m": row.m,
                "n": row.n,
                "model": row.model,
                "sorted": row.sorted_only,
                "count": row.total,
                "level_poly": row.level_poly(),
            }
        )
    else:
        print(CSV_HEADER)
        print(row.to_csv())
    return 0


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipsand",
        description="Sandpile dynamics on complete bipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="recurrence check for a stable configuration")
    p.add_argument("config")
    p.add_argument("--model", choices=("asm", "ssm"), required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("stabilize", help="topple a configuration until stable")
    p.add_argument("config")
    p.add_argument("--model", choices=("asm", "ssm"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5)
    _add_format(p)
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("simulate", help="run the grain-addition chain")
    p.add_argument("--model", choices=("asm", "ssm"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5)
    _add_format(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("level", help="grain total minus m*n")
    p.add_argument("config")
    _add_format(p)
    p.set_defaults(func=_cmd_level)

    p = sub.add_parser("biject", help="translate a configuration to or from a combinatorial family")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to", choices=("ferrers", "polyomino", "motzkin"))
    group.add_argument(
        "--from", dest="from_", choices=("ferrers", "polyomino", "motzkin")
    )
    p.add_argument("payload")
    p.add_argument("--model", choices=("asm", "ssm"))
    _add_format(p)
    p.set_defaults(func=_cmd_biject)

    p = sub.add_parser("dag", help="build the diagram reachability DAG")
    p.add_argument("--model", choices=("asm", "ssm"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dot", help="write DOT output to this file")
    _add_format(p)
    p.set_defaults(func=_cmd_dag)

    p = sub.add_parser("enumerate", help="list stable configurations")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sorted", action="store_true")
    p.add_argument("--recurrent", action="store_true")
    p.add_argument("--model", choices=("asm", "ssm"))
    _add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("census", help="count recurrent configurations by level")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", choices=("asm", "ssm"), required=True)
    p.add_argument("--sorted", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TopplingStallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
