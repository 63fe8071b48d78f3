"""Command-line interface: one subcommand per library surface.

Exit codes: 0 success (and: configuration recurrent, for check), 1 check
ran fine but the configuration is not recurrent, or a stochastic run
stalled (TopplingStallError), 2 malformed input or arguments, 3 a size
guard refused the computation, 141 standard output was closed early (as by
`| head`).  Diagnostics go to standard error; results to standard output.

Each handler imports what it runs, so a process loads only the modules its
command needs; json is imported only where JSON is parsed or printed.
"""
from __future__ import annotations

import argparse
import os
import sys

from .errors import GuardError, TopplingStallError
from .model import MODELS

_FAMILIES = ("ferrers", "polyomino", "motzkin")


def _parse_config(text: str):
    from .model import Configuration

    if text.lstrip().startswith("{"):
        import json

        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON configuration: {exc}") from None
        return Configuration.from_json_dict(obj)
    return Configuration.from_text(text)


def _emit_json(obj) -> None:
    import json

    print(json.dumps(obj, sort_keys=True))


def _emit(args, obj, text) -> None:
    """Print a result as JSON (obj) or as text, whichever --format asks for."""
    if args.format == "json":
        _emit_json(obj)
    else:
        print(text)


def _cmd_check(args) -> int:
    from .recurrence import is_recurrent, level

    c = _parse_config(args.config)
    verdict = is_recurrent(c, args.model)
    lvl = level(c)
    text = f"recurrent: {'true' if verdict else 'false'}\nlevel: {lvl}"
    _emit(args, {"model": args.model, "recurrent": verdict, "level": lvl}, text)
    return 0 if verdict else 1


def _budget(args) -> dict:
    """--max-firings as keyword arguments; unset, it leaves the library's
    default ssm firing budget."""
    if args.max_firings is None:
        return {}
    if args.model == "asm":
        raise ValueError("--max-firings applies to --model ssm only: asm has no firing budget")
    if args.max_firings < 0:
        raise ValueError("--max-firings must be >= 0")
    return {"max_firings": args.max_firings}


def _cmd_stabilize(args) -> int:
    from .model import ToppleOracle, stabilize_deterministic, stabilize_stochastic

    c = _parse_config(args.config)
    budget = _budget(args)
    if args.model == "asm":
        stable, (ft, fb) = stabilize_deterministic(c)
    else:
        stable, (ft, fb) = stabilize_stochastic(c, ToppleOracle(args.seed, args.p), **budget)
    obj = {"configuration": stable.to_json_dict(), "firings": {"top": list(ft), "bottom": list(fb)}}
    firings = ",".join(map(str, ft)) + ";" + ",".join(map(str, fb))
    _emit(args, obj, f"{stable.to_text()}\nfirings: {firings}")
    return 0


def _cmd_simulate(args) -> int:
    from .model import BipartiteShape, simulate

    budget = _budget(args)
    shape = BipartiteShape(args.m, args.n)
    visits = simulate(args.model, shape, args.steps, args.seed, args.p, **budget)
    items = sorted(visits.items(), key=lambda kv: (kv[0].top, kv[0].bottom))
    rows = [{**c.to_json_dict(), "count": k} for c, k in items]
    _emit(args, {"visits": rows}, "\n".join(f"{c.to_text()} {k}" for c, k in items))
    return 0


def _cmd_level(args) -> int:
    from .recurrence import level

    lvl = level(_parse_config(args.config))
    _emit(args, {"level": lvl}, lvl)
    return 0


def _require_model(args, why: str) -> str:
    if not args.model:
        raise ValueError(f"--model is required {why}")
    return args.model


def _cmd_biject(args) -> int:
    if args.to:
        c = _parse_config(args.payload)
        if args.to == "ferrers":
            from .ferrers import config_to_pair

            pair = config_to_pair(_require_model(args, "for ferrers pairs"), c)
            obj = {"first": pair.first.to_text(), "second": pair.second.to_text()}
            _emit(args, obj, pair.to_text())
        elif args.to == "polyomino":
            from .polyomino import config_to_polyomino

            poly = config_to_polyomino(c)
            _emit(args, {"upper": poly.upper, "lower": poly.lower}, poly.to_text())
        else:
            from .motzkin import config_to_motzkin

            word = config_to_motzkin(c)
            _emit(args, {"word": word.to_text()}, word.to_text())
        return 0
    if args.from_ == "ferrers":
        from .ferrers import FerrersPair, pair_to_config

        pair = FerrersPair.from_text(args.payload)
        c = pair_to_config(_require_model(args, "for ferrers pairs"), pair)
    elif args.from_ == "polyomino":
        from .polyomino import ParallelogramPolyomino, polyomino_to_config

        c = polyomino_to_config(ParallelogramPolyomino.from_text(args.payload))
    else:
        from .motzkin import MotzkinWord, motzkin_to_config

        c = motzkin_to_config(MotzkinWord.from_text(args.payload))
    _emit(args, c.to_json_dict(), c.to_text())
    return 0


def _cmd_dag(args) -> int:
    from .ferrers import build_dag, dag_to_dot
    from .model import BipartiteShape

    dag = build_dag(args.model, BipartiteShape(args.m, args.n))
    summary = {"model": dag.model, "vertices": len(dag.vertices), "edges": len(dag.edges)}
    text = f"vertices: {summary['vertices']}\nedges: {summary['edges']}"
    if args.dot:
        try:
            with open(args.dot, "w") as fh:
                fh.write(dag_to_dot(dag))
        except OSError as exc:
            raise ValueError(f"cannot write DOT output: {exc}") from None
        summary["dot"] = args.dot
        text += f"\ndot written to {args.dot}"
    _emit(args, summary, text)
    return 0


def _cmd_enumerate(args) -> int:
    from .enumeration import enumerate_recurrent, enumerate_stable
    from .model import BipartiteShape

    shape = BipartiteShape(args.m, args.n)
    # both check their guard here, at the call, so a refusal prints nothing
    if args.recurrent:
        model = _require_model(args, "with --recurrent")
        stream = enumerate_recurrent(shape, model, args.sorted)
    else:
        stream = enumerate_stable(shape, args.sorted)
    # one item at a time: a listing may run to 10^8 lines.  The JSON bytes
    # equal _emit_json({"configurations": [...]}) of the whole list.
    if args.format == "json":
        import json

        print('{"configurations": [', end="")
        for i, c in enumerate(stream):
            print(", " if i else "", json.dumps(c.to_json_dict(), sort_keys=True), sep="", end="")
        print("]}")
    else:
        for c in stream:
            print(c.to_text())
    return 0


def _cmd_census(args) -> int:
    from .enumeration import CSV_HEADER, census
    from .model import BipartiteShape

    row = census(BipartiteShape(args.m, args.n), args.model, args.sorted)
    obj = {
        "m": row.m, "n": row.n, "model": row.model,
        "sorted": row.sorted_only, "count": row.total, "level_poly": row.level_poly(),
    }
    _emit(args, obj, f"{CSV_HEADER}\n{row.to_csv()}")
    return 0


# Arguments shared by several subcommands, as (flag, add_argument keywords).
_CONFIG = [("config", {})]
_MODEL = [("--model", {"choices": MODELS, "required": True})]
_MODEL_IF_NEEDED = [("--model", {"choices": MODELS})]
_SHAPE = [("--m", {"type": int, "required": True}), ("--n", {"type": int, "required": True})]
_COINS = [("--seed", {"type": int, "default": 0}), ("--p", {"type": float, "default": 0.5})]
_SORTED = [("--sorted", {"action": "store_true"})]
_BUDGET = [("--max-firings", {"type": int, "help": "ssm firing budget (default 10**9)"})]

# Subcommand -> (handler, help, arguments in usage order).  biject's --to/--from
# group comes first on its parser, and every parser ends with --format.
_COMMANDS = {
    "check": (_cmd_check, "recurrence check for a stable configuration", _CONFIG + _MODEL),
    "stabilize": (
        _cmd_stabilize,
        "topple a configuration until stable",
        _CONFIG + _MODEL + _COINS + _BUDGET,
    ),
    "simulate": (
        _cmd_simulate,
        "run the grain-addition chain",
        _MODEL + _SHAPE + [("--steps", {"type": int, "required": True})] + _COINS + _BUDGET,
    ),
    "level": (_cmd_level, "grain total minus m*n", _CONFIG),
    "biject": (
        _cmd_biject,
        "translate a configuration to or from a combinatorial family",
        [("payload", {})] + _MODEL_IF_NEEDED,
    ),
    "dag": (
        _cmd_dag,
        "build the diagram reachability DAG",
        _MODEL + _SHAPE + [("--dot", {"help": "write DOT output to this file"})],
    ),
    "enumerate": (
        _cmd_enumerate,
        "list stable configurations",
        _SHAPE + _SORTED + [("--recurrent", {"action": "store_true"})] + _MODEL_IF_NEEDED,
    ),
    "census": (_cmd_census, "count recurrent configurations by level", _SHAPE + _MODEL + _SORTED),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipsand",
        description="Sandpile dynamics on complete bipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "biject":
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--to", choices=_FAMILIES)
            group.add_argument("--from", dest="from_", choices=_FAMILIES)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: exit as a shell reports a writer killed
        # by SIGPIPE, with stdout on devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (GuardError, TopplingStallError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GuardError) else 1 if isinstance(exc, TopplingStallError) else 2
    return code


if __name__ == "__main__":
    sys.exit(main())
