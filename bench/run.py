"""bipsand benchmark: one workload per call, or all four in turn.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; src/ and tests/ are found next to this directory.

--trace 0 measures end to end.  It times spawning a fresh interpreter up
to `import bipsand` done (setup_s), builds the workload's inputs from
--seed twice, once for bipsand and once for its pinned copy
(pinned/bipsand_pinned), and runs the golden and baseline ops once.
Then, for --seconds, one closed loop interleaves the library leg (the
library ops in order) with the CLI leg (one subprocess at a time, and one
more setup_s spawn pair after every SETUP_EVERY CLI op pairs), each leg
taking the workload's share of the time.  Every op runs beside its twin
on the pinned copy, and every output is checked.

--trace 1 runs one untimed warm-up pass over the library ops, then
alternates untraced and traced passes (at least one of each, until the
untraced ones take 3 s), then runs each CLI op once untraced and once
traced.  It reports per-layer metrics from the first traced pass, and
the tracing overhead; --seconds does not apply.

Reported values are paired: each is the pinned copy's reference value
(pinned/reference.json) times how much slower the package ran than its
twin in this run, so a drift of the host moves both sides alike and
cancels; each raw value is printed beside it.  The last line of stdout
is the JSON result; lines before it print every metric by name with its
unit.  Result files go to .bench_results/.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness as H  # noqa: E402

PASS_S = 3.0
SETUP_PAIRS = 6  # set-up spawn pairs before the loop
SETUP_EVERY = 6  # and one more after every this many CLI op pairs

END_TO_END = {
    "setup_s": "s", "lib_p50_ms": "ms", "lib_tail_ms": "ms", "lib_work_per_s": "1/s",
    "cli_p50_ms": "ms", "cli_tail_ms": "ms", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "model.construct_calls": "count", "model.construct_ms": "ms", "model.stabilize_ms": "ms",
    "model.firings": "count", "model.useful_firing_ratio": "ratio", "model.chain_step_us": "us",
    "model.chain_tv_uniform": "ratio",
    "prf.bit_calls": "count", "prf.bit_ms": "ms", "prf.bits_per_firing": "ratio",
    "prf.bit_share_of_stabilize": "ratio", "prf.prf64_calls": "count", "prf.prf64_ms": "ms",
    "recurrence.check_calls": "count", "recurrence.check_ms": "ms",
    "recurrence.to_array_ms": "ms", "recurrence.kernel_ms": "ms",
    "recurrence.np_path_share": "ratio", "recurrence.level_ms": "ms", "recurrence.sort_ms": "ms",
    "enumeration.configs_enumerated": "count", "enumeration.recurrent_found": "count",
    "enumeration.useful_ratio": "ratio", "enumeration.self_ms": "ms",
    "ferrers.roundtrip_ms": "ms", "polyomino.roundtrip_ms": "ms", "motzkin.roundtrip_ms": "ms",
    "biject.recheck_calls": "count",
    "cli.process_ms": "ms", "cli.import_ms": "ms", "cli.parse_ms": "ms", "cli.format_ms": "ms",
    "trace.overhead_ratio": "ratio", "trace.cli_overhead_ratio": "ratio",
}

# named metrics that every workload prints, besides its own `named` ones
COMMON_NAMED = (("cli_p50_ms", "cli", "p50"), ("cli_tail_ms", "cli", "tail"))


def _prepare():
    """Make src/ and tests/ importable, or stop with exit code 2."""
    for need in (os.path.join(H.SRC, "bipsand", "__init__.py"),
                 os.path.join(H.ROOT, "tests", "oracles.py")):
        if not os.path.isfile(need):
            print(f"error: {os.path.relpath(need, H.ROOT)} not found next to bench/", file=sys.stderr)
            sys.exit(2)
    sys.path.insert(0, H.SRC)
    sys.path.insert(1, os.path.join(H.ROOT, "tests"))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _golden_ops(W, name: str, golden: dict) -> list:
    ops = [H.Op("golden", key, fn, lambda out, want=golden.get(key): H.digest(out) == want)
           for key, fn in W.golden_specs(name)]
    return ops + W.baseline_ops(name)


def _raw(samples, kind: str, stat: str) -> tuple:
    """(value, unit, note) of one statistic of one op kind: p50 and tail in
    ms, rate in work per second."""
    inputs = len(samples.by_kind[kind])
    if stat == "p50":
        return samples.p50(kind) * 1000.0, "ms", f"median of medians of {inputs} inputs"
    if stat == "tail":
        raw, pct, n = samples.tail(kind)
        return raw * 1000.0, "ms", f"p{pct} of {n} samples"
    return samples.rate(kind), "1/s", f"median times of {inputs} inputs"


def _paired_stat(samples, pinned, pairs: dict, reference: dict, kind: str, stat: str) -> tuple:
    """(value, unit, note): one statistic of the package at the reference
    host's speed, that is its pinned copy's reference value times how much
    slower the package ran than the pinned copy in this run.

    p50 and rate: "how much slower" is the median over pairs of (op time /
    twin time); the rate is divided by it.  tail: the package's tail over
    the pinned copy's tail.
    """
    raw, unit, note = _raw(samples, kind, stat)
    ref = reference[f"{kind}/{stat}"]
    if stat == "tail":
        pin = _raw(pinned, kind, stat)[0]
        return ref * raw / pin, unit, f"raw {raw:.4f}, pinned {pin:.4f}; {note}"
    slower = statistics.median(a / b for a, b in pairs[kind])
    value = ref * slower if stat == "p50" else ref / slower
    return value, unit, f"raw {raw:.4f}, {slower:.4f} x pinned time; {note}"


def load_reference(name: str) -> dict:
    with open(os.path.join(H.PINNED, "reference.json")) as fh:
        return json.load(fh)[name]


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    import workloads as W

    pinned_lib = H.import_pinned()
    reference = load_reference(name)
    env = H.environment()
    packages = (H.PACKAGE, H.PINNED_PACKAGE)
    for package in packages:
        H.measure_spawn(package)  # warm-up: the first spawn may compile bytecode
    spawns = {package: [] for package in packages}
    turns = {"lib": 0, "cli": 0, "spawn": 0}

    def flip(leg: str) -> bool:
        turns[leg] += 1
        return turns[leg] % 2 == 0

    def spawn_pair():
        for package, spawn in zip(packages, H.in_turn(
                *(lambda p=p: H.measure_spawn(p) for p in packages), flip("spawn"))):
            spawns[package].append(spawn)

    for _ in range(SETUP_PAIRS):
        spawn_pair()
    t0 = time.perf_counter()
    golden = H.load_golden()
    wl = W.make(name, seed, golden)
    twin = W.make(name, seed, golden, pinned_lib)
    gen_s = time.perf_counter() - t0
    tally, twin_tally = H.Tally(), H.Tally()
    side = H.Samples()
    for op in _golden_ops(W, name, golden):
        H.run_op(op, tally, side)
    # The inputs live for the whole run; left to the collector, every full
    # collection walks them all and lands in whichever op happens to run.
    gc.collect()
    gc.freeze()

    samples, pinned = H.Samples(), H.Samples()
    pairs: dict = {}  # op kind -> [(op seconds, twin seconds)]

    def paired(kind: str, times: tuple) -> None:
        if all(times):
            pairs.setdefault(kind, []).append(times)

    def run_lib(pair):
        op, op_twin = pair
        paired(op.kind, H.in_turn(lambda: H.run_op(op, tally, samples),
                                  lambda: H.run_op(op_twin, twin_tally, pinned), flip("lib")))

    def run_cli(pair):
        op, op_twin = pair
        argv = H.cli_argv(op_twin.argv, H.PINNED_PACKAGE)
        paired("cli", H.in_turn(lambda: H.run_cli_op(op, tally, samples),
                                lambda: H.run_cli_op(op_twin, twin_tally, pinned, argv),
                                flip("cli")))
        if turns["cli"] % SETUP_EVERY == 0:
            spawn_pair()

    lib_n, cli_n = H.interleaved(
        list(zip(wl.lib_ops, twin.lib_ops)), list(zip(wl.cli_ops, twin.cli_ops)),
        seconds, wl.lib_share, run_lib, run_cli)
    rss = H.peak_rss_mb()
    setup_raw = statistics.median(s for s, _ in spawns[H.PACKAGE])
    import_s = statistics.median(i for _, i in spawns[H.PACKAGE])
    setup_slower = statistics.median(
        a / b for (a, _), (b, _) in zip(spawns[H.PACKAGE], spawns[H.PINNED_PACKAGE]))

    named = {"setup_s": (reference["setup"] * setup_slower, "s",
                         f"raw {setup_raw:.4f}, {setup_slower:.4f} x pinned; median of "
                         f"{len(spawns[H.PACKAGE])} spawns, import alone {import_s:.4f}")}
    for metric, kind, stat in wl.named + COMMON_NAMED:
        named[metric] = _paired_stat(samples, pinned, pairs, reference, kind, stat)
    named["peak_rss_mb"] = (rss, "MB", "library-leg process, pinned copy included")
    named["fail_ratio"] = (tally.failed / tally.attempted, "ratio",
                           f"{tally.failed} of {tally.attempted} ops")
    gated = {
        "setup_s": named["setup_s"],
        "lib_p50_ms": _paired_stat(samples, pinned, pairs, reference, wl.lib_kind, "p50"),
        "lib_tail_ms": _paired_stat(samples, pinned, pairs, reference, wl.lib_kind, "tail"),
        "lib_work_per_s": _paired_stat(samples, pinned, pairs, reference, wl.rate_kind, "rate"),
        "cli_p50_ms": named["cli_p50_ms"],
        "cli_tail_ms": named["cli_tail_ms"],
        "peak_rss_mb": named["peak_rss_mb"],
    }
    metrics = {k: _metric(gated[k][0], unit) for k, unit in END_TO_END.items()}

    print(f"workload {name}  seed {seed}  seconds {seconds}  env {json.dumps(env)}")
    print(f"inputs built in {gen_s:.2f} s; library op pairs {lib_n}, CLI op pairs {cli_n}; "
          f"notes {wl.notes}")
    for metric, (value, unit, note) in named.items():
        print(f"  {metric:24s} {value:14.4f} {unit:6s} {note}")
    for kind in sorted(samples.by_kind):
        print(f"  [{kind}] raw median of medians {samples.p50(kind) * 1000:.3f} ms, pinned "
              f"{pinned.p50(kind) * 1000:.3f} ms, over {len(samples.by_kind[kind])} inputs, "
              f"{len(samples.raw(kind))} samples")
    for key, vals in side.by_kind.get("baseline", {}).items():
        print(f"  [baseline] {key}: {vals[0]:.4f} s")
    for err in tally.errors:
        print(f"  FAILED {err}")
    for err in twin_tally.errors:
        print(f"  FAILED pinned twin {err}")

    def per_input(s):  # per-input samples, except for kinds with too many inputs to list
        return {k: v if len(v) <= 1000 else s.raw(k) for k, v in s.by_kind.items()}

    H.write_result(f"{name}-seed{seed}.json", {
        "workload": name, "seed": seed, "seconds": seconds, "environment": env,
        "inputs_s": gen_s, "notes": wl.notes, "errors": tally.errors + twin_tally.errors,
        "metrics": metrics, "reference": reference,
        "named": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in named.items()},
        "setup_spawns_s": spawns[H.PACKAGE],
        "pinned_spawns_s": spawns[H.PINNED_PACKAGE],
        "baseline_s": {k: v[0] for k, v in side.by_kind.get("baseline", {}).items()},
        "samples": per_input(samples),
        "pinned_samples": per_input(pinned),
        "pairs": {k: v for k, v in pairs.items() if len(v) <= 20000},
        # the pinned copy's own values, from which pinned/reference.json was taken
        "pinned_values": {
            "setup": statistics.median(s for s, _ in spawns[H.PINNED_PACKAGE]),
            **{key: _raw(pinned, *key.split("/"))[0] for key in reference if key != "setup"}},
    })
    failed = tally.failed + twin_tally.failed
    return {"correct": failed == 0, "attempted": tally.attempted + twin_tally.attempted,
            "failed": failed, "metrics": metrics}


def _traced_cli(op, tally, report: str) -> tuple:
    """Run a CLI op through cli_traced.py; (wall seconds, child report or None)."""
    if os.path.exists(report):
        os.remove(report)
    argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), report, *op.argv]
    dt = H.run_cli_op(op, tally, None, argv)
    if not dt:
        return 0.0, None
    with open(report) as fh:
        return dt, json.load(fh)


def run_traced(name: str, seed: int) -> dict:
    import tracing
    import workloads as W

    golden = H.load_golden()
    wl = W.make(name, seed, golden)
    tally = H.Tally()
    for op in _golden_ops(W, name, golden):
        H.run_op(op, tally, None)

    # After an untimed warm-up pass (first touches of memory are slow),
    # untraced and traced passes alternate until the untraced ones add up
    # to PASS_S; per-layer values come from the first traced pass.  Pass
    # times sum op durations, so output checks do not count.
    for op in wl.lib_ops:
        H.run_op(op, tally, None)
    plain_s = traced_s = 0.0
    tracer = None
    while tracer is None or plain_s < PASS_S:
        plain_s += sum(H.run_op(op, tally, None) for op in wl.lib_ops)
        tr = tracing.Tracer()
        tr.install()
        try:
            for i, op in enumerate(wl.lib_ops):
                tr.op = i
                traced_s += H.run_op(op, tally, None)
        finally:
            tr.uninstall()
        tracer = tracer or tr

    layers = tracing.layer_metrics(tracer)
    layers["model.chain_tv_uniform"] = wl.health().get("model.chain_tv_uniform", 0.0)

    os.makedirs(H.RESULTS, exist_ok=True)
    report = os.path.join(H.RESULTS, f"{name}-seed{seed}-cli-report.json")
    plain_cli = traced_cli = 0.0
    phases = {"import_ms": [], "parse_ms": [], "format_ms": []}
    for op in wl.cli_ops:
        plain_cli += H.run_cli_op(op, tally, None)
        dt, rep = _traced_cli(op, tally, report)
        traced_cli += dt
        if rep:
            for k in phases:
                phases[k].append(rep[k])
    layers["cli.process_ms"] = traced_cli * 1000.0 / len(wl.cli_ops)
    for k, vals in phases.items():
        layers[f"cli.{k}"] = statistics.mean(vals) if vals else 0.0
    layers["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    layers["trace.cli_overhead_ratio"] = traced_cli / plain_cli - 1.0

    path = H.write_result(f"{name}-seed{seed}-trace.json", {
        "workload": name, "seed": seed, "library_pass_s": {"untraced": plain_s, "traced": traced_s},
        "cli_pass_s": {"untraced": plain_cli, "traced": traced_cli},
        "per_layer": layers, "errors": tally.errors, "trace": tracer.dump(),
    })
    print(f"workload {name}  seed {seed}  traced pass {traced_s:.2f} s, untraced {plain_s:.2f} s; "
          f"spans in {os.path.relpath(path, H.ROOT)}")
    for metric in PER_LAYER:
        print(f"  {metric:32s} {layers[metric]:16.4f} {PER_LAYER[metric]}")
    for err in tally.errors:
        print(f"  FAILED {err}")
    metrics = {m: _metric(layers[m], PER_LAYER[m]) for m in PER_LAYER}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    import workloads as W

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _prepare()
    import workloads as W

    if args.workload == "all":
        result = run_all(args)
    elif args.workload not in W.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(W.WORKLOADS)} or all")
    elif args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
