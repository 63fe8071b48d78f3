"""Per-layer tracing from outside the package.

The tracer replaces public names on the bipsand modules and classes with
timing wrappers, and puts them back afterwards; it never edits src/.  A
module calls another module's function through the name it imported (for
example bipsand.ferrers.is_recurrent or bipsand.model.prf64), so each
wrapper is installed under every name in every bipsand module that is
bound to the original.  numpy calls in bipsand.recurrence go through a
proxy whose `asarray` is wrapped, which times tuple-to-array conversion.

Every wrapped call opens a span: name, start, end, parent and op id.  On
close the span's duration is added to its parent's child time, and the
span is folded into a table keyed by (name, parent name) holding calls,
total time and self time (duration minus the time its child spans cover).
The first CAP spans are also kept whole and written out at the end; the
table covers every span.
"""
from __future__ import annotations

import sys
import time
from typing import Callable, Optional

CAP = 20_000
_MISSING = object()

MODULES = (
    "bipsand", "bipsand.model", "bipsand.recurrence", "bipsand.enumeration",
    "bipsand.ferrers", "bipsand.polyomino", "bipsand.motzkin", "bipsand.cli",
)

# defining module -> public functions wrapped as spans
FUNCTIONS = {
    "model": ("stabilize_deterministic", "stabilize_stochastic", "simulate", "prf64"),
    "recurrence": (
        "is_recurrent", "is_deterministically_recurrent", "is_stochastically_recurrent",
        "level", "sort_config",
    ),
    "enumeration": ("census",),
    "ferrers": (
        "config_to_pair", "pair_to_config", "config_to_labelled_pair", "labelled_pair_to_config",
    ),
    "polyomino": ("config_to_polyomino", "polyomino_to_config"),
    "motzkin": ("config_to_motzkin", "motzkin_to_config"),
}

CHECKS = {
    "recurrence.is_recurrent", "recurrence.is_deterministically_recurrent",
    "recurrence.is_stochastically_recurrent",
}
STABILIZE = {"model.stabilize_deterministic", "model.stabilize_stochastic"}
BIJECT_LAYERS = ("ferrers", "polyomino", "motzkin")
TO_ARRAY = "recurrence.np.asarray"
CONSTRUCT = "model.Configuration.__post_init__"
BIT = "prf.ToppleOracle.bit"
PRF64 = "prf.prf64"
CENSUS = "enumeration.census"


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.op = 0
        self.stack: list = []  # frames: [name, start, child seconds, record index, numpy flag]
        self.table: dict = {}  # (name, parent name) -> [calls, total s, self s, numpy-flagged calls]
        self.records: list = []
        self.dropped = 0
        self.counts = {
            "firings": 0, "ssm_firings": 0, "ssm_moved": 0, "chain_steps": 0,
            "configs_enumerated": 0, "recurrent_found": 0,
        }
        self._moved_key = None
        self._undo: list = []

    # -- spans -------------------------------------------------------------
    def enter(self, name: str) -> None:
        rec = -1
        if len(self.records) < CAP:
            rec = len(self.records)
            self.records.append(None)
        self.stack.append([name, time.perf_counter(), 0.0, rec, 0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child, rec, flag = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        pname = None
        if parent is not None:
            parent[2] += dur
            pname = parent[0]
            if flag or name == TO_ARRAY:
                parent[4] = 1
        row = self.table.get((name, pname))
        if row is None:
            row = self.table[(name, pname)] = [0, 0.0, 0.0, 0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child
        row[3] += flag
        if rec >= 0:
            self.records[rec] = (
                name, start - self.t0, end - self.t0,
                parent[3] if parent is not None else -1, self.op,
            )
        else:
            self.dropped += 1

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None,
             on_enter: Optional[Callable] = None) -> Callable:
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            enter(name)
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, out)
                return out
            finally:
                exit_()

        return wrapper

    # -- observers ---------------------------------------------------------
    def _fired(self, args, kwargs, out) -> None:
        fires_t, fires_b = out[1]
        self.counts["firings"] += sum(fires_t) + sum(fires_b)

    def _fired_ssm(self, args, kwargs, out) -> None:
        fires_t, fires_b = out[1]
        n = sum(fires_t) + sum(fires_b)
        self.counts["firings"] += n
        self.counts["ssm_firings"] += n

    def _new_ssm_call(self, args, kwargs) -> None:
        self._moved_key = None

    def _bit(self, args, kwargs, out) -> None:
        # Bits of one firing are drawn together, so a new (oracle, vertex,
        # firing) key marks the next firing; it moved a grain if any bit is 1.
        key = (id(args[0]), args[1], args[2])
        if out and key != self._moved_key:
            self._moved_key = key
            self.counts["ssm_moved"] += 1

    def _simulated(self, args, kwargs, out) -> None:
        self.counts["chain_steps"] += sum(out.values()) - 1

    def _counting(self, fn: Callable, counter: str) -> Callable:
        counts = self.counts

        def gen(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[counter] += 1
                yield item

        return gen

    # -- installation ------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy

        import bipsand.enumeration
        import bipsand.model
        import bipsand.recurrence

        mods = [sys.modules[m] for m in MODULES if m in sys.modules]
        observers = {
            "stabilize_deterministic": (self._fired, None),
            "stabilize_stochastic": (self._fired_ssm, self._new_ssm_call),
            "simulate": (self._simulated, None),
        }
        replace = {}
        for modname, names in FUNCTIONS.items():
            module = sys.modules[f"bipsand.{modname}"]
            for fname in names:
                orig = getattr(module, fname)
                span = PRF64 if fname == "prf64" else f"{modname}.{fname}"
                observe, on_enter = observers.get(fname, (None, None))
                replace[id(orig)] = (orig, self.wrap(span, orig, observe, on_enter))
        ens = bipsand.enumeration
        for fname, counter in (("enumerate_stable", "configs_enumerated"),
                               ("enumerate_recurrent", "recurrent_found")):
            orig = getattr(ens, fname)
            replace[id(orig)] = (orig, self._counting(orig, counter))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

        model = bipsand.model
        conf, oracle = model.Configuration, model.ToppleOracle
        self._set(conf, "__post_init__", self.wrap(CONSTRUCT, conf.__dict__["__post_init__"]))
        self._set(oracle, "bit", self.wrap(BIT, oracle.__dict__["bit"], self._bit))
        proxy = _NumpyProxy(numpy, self.wrap(TO_ARRAY, numpy.asarray))
        self._set(bipsand.recurrence, "np", proxy)

    def install_cli_parse_format(self) -> None:
        """Spans for parsing the op's argument and formatting its output."""
        import bipsand.cli as cli
        import bipsand.enumeration as en
        import bipsand.ferrers as fe
        import bipsand.model as mo
        import bipsand.motzkin as mz
        import bipsand.polyomino as po

        for cls, attr in ((mo.Configuration, "from_text"), (mo.Configuration, "from_json_dict"),
                          (fe.FerrersPair, "from_text"), (po.ParallelogramPolyomino, "from_text"),
                          (mz.MotzkinWord, "from_text")):
            func = cls.__dict__[attr].__func__
            self._set(cls, attr, classmethod(self.wrap("cli.parse", func)))
        for cls, attr in ((mo.Configuration, "to_text"), (mo.Configuration, "to_json_dict"),
                          (en.CensusRow, "to_csv"), (en.CensusRow, "level_poly"),
                          (fe.FerrersPair, "to_text"), (po.ParallelogramPolyomino, "to_text"),
                          (mz.MotzkinWord, "to_text")):
            self._set(cls, attr, self.wrap("cli.format", cls.__dict__[attr]))
        self._set(cli, "_emit_json", self.wrap("cli.format", cli._emit_json))
        self._set(cli, "print", self.wrap("cli.format", print))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    # -- reading the table ---------------------------------------------------
    def rows(self, pred) -> tuple:
        """Summed (calls, total s, self s, flagged calls) over matching rows."""
        acc = [0, 0.0, 0.0, 0]
        for (name, parent), row in self.table.items():
            if pred(name, parent):
                for i in range(4):
                    acc[i] += row[i]
        return tuple(acc)

    def outermost(self, names) -> tuple:
        """Rows for calls of `names` not nested directly in another of `names`."""
        return self.rows(lambda n, p: n in names and p not in names)

    def dump(self) -> dict:
        return {
            "spans_kept": len(self.records),
            "spans_dropped": self.dropped,
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.records,
            "table": [
                {"name": n, "parent": p, "calls": r[0], "total_s": r[1], "self_s": r[2],
                 "numpy_calls": r[3]}
                for (n, p), r in sorted(self.table.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
            ],
            "counts": self.counts,
        }


class _NumpyProxy:
    """Stands in for numpy inside bipsand.recurrence; only asarray is timed."""

    def __init__(self, np, asarray):
        self._np = np
        self.asarray = asarray

    def __getattr__(self, name):
        return getattr(self._np, name)


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer values, in milliseconds unless the name says otherwise."""
    ms = 1000.0
    c = tr.counts
    construct = tr.rows(lambda n, p: n == CONSTRUCT)
    stab_self = tr.rows(lambda n, p: n in STABILIZE)
    stab_total = tr.outermost(STABILIZE)
    bits = tr.rows(lambda n, p: n == BIT)
    bits_in_stab = tr.rows(lambda n, p: n == BIT and p in STABILIZE)
    prf = tr.rows(lambda n, p: n == PRF64)
    sims = tr.rows(lambda n, p: n == "model.simulate")
    checks = tr.outermost(CHECKS)
    to_array = tr.rows(lambda n, p: n == TO_ARRAY and p in CHECKS)
    level = tr.rows(lambda n, p: n == "recurrence.level")
    sort = tr.rows(lambda n, p: n == "recurrence.sort_config")
    census = tr.rows(lambda n, p: n == CENSUS)
    recheck = tr.rows(lambda n, p: n in CHECKS and p is not None and p not in CHECKS
                      and p.split(".")[0] in BIJECT_LAYERS)

    def layer_ms(layer):
        return tr.rows(lambda n, p: n.startswith(layer + ".")
                       and not (p or "").startswith(layer + "."))[1] * ms

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "model.construct_calls": construct[0],
        "model.construct_ms": construct[1] * ms,
        "model.stabilize_ms": stab_self[2] * ms,
        "model.firings": c["firings"],
        "model.useful_firing_ratio": ratio(c["ssm_moved"], c["ssm_firings"]),
        "model.chain_step_us": ratio(sims[1] * 1e6, c["chain_steps"]),
        "prf.bit_calls": bits[0],
        "prf.bit_ms": bits[1] * ms,
        "prf.bits_per_firing": ratio(bits[0], c["ssm_firings"]),
        "prf.bit_share_of_stabilize": ratio(bits_in_stab[1], stab_total[1]),
        "prf.prf64_calls": prf[0],
        "prf.prf64_ms": prf[1] * ms,
        "recurrence.check_calls": checks[0],
        "recurrence.check_ms": checks[1] * ms,
        "recurrence.to_array_ms": to_array[1] * ms,
        "recurrence.kernel_ms": (checks[1] - to_array[1]) * ms,
        "recurrence.np_path_share": ratio(checks[3], checks[0]),
        "recurrence.level_ms": level[1] * ms,
        "recurrence.sort_ms": sort[1] * ms,
        "enumeration.configs_enumerated": c["configs_enumerated"],
        "enumeration.recurrent_found": c["recurrent_found"],
        "enumeration.useful_ratio": ratio(c["recurrent_found"], c["configs_enumerated"]),
        "enumeration.self_ms": census[2] * ms,
        "ferrers.roundtrip_ms": layer_ms("ferrers"),
        "polyomino.roundtrip_ms": layer_ms("polyomino"),
        "motzkin.roundtrip_ms": layer_ms("motzkin"),
        "biject.recheck_calls": recheck[0],
    }
