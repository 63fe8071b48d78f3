"""A catalogue of mutants that the test suite must kill.

Each entry changes one snippet of one module of the package, and names the
pytest selection that must catch it.  For each entry the runner copies
src/, tests/ and pyproject.toml to a temporary directory, requires the
snippet to occur exactly once in the module (so a refactor that removes it
fails the entry loudly instead of letting it pass), applies the
replacement and runs the selection with -x.  The mutant is killed when the
selection fails.  Each distinct selection first runs once on the unchanged
copy and must pass there, so a selection that fails anyway kills nothing.

A mutant that survives is a finding about the tests: report it, and do not
delete or soften its entry.  Changes that keep every output by design are
listed in EQUIVALENT, with the reason, and are not run.

Run from anywhere; it takes a few minutes, and needs only the standard
library (the selections need pytest and hypothesis):

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries
    python tests/mutants.py --list

The exit status is 0 when every mutant run was killed, else 1.  This file
has no test_ prefix, so pytest does not collect it.
"""
from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMEOUT = 600  # seconds for one selection; a mutant that hangs counts as killed


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/bipsand
    snippet: str
    replacement: str
    selection: tuple  # pytest arguments, run from the copy's root


CHAIN_TABLE = ("tests/test_model.py", "-k", "TestChainTable")
TABLE_BITS = ("tests/test_oracle_bits.py", "-k", "chain_table")
# each sweeps entry runs the one TestRounds test, at the default gate, that
# kills it fastest
SWEEP_BUDGET = ("tests/test_model.py", "-k", "TestRounds and budget_boundary and default")
SWEEP_PILES = ("tests/test_model.py", "-k", "TestRounds and bench_piles and default")
SWEEP_CHUNKS = ("tests/test_model.py", "-k", "TestRounds and capped_rounds and default")
SWEEP_BOUNDED = ("tests/test_model.py", "-k", "TestRounds and windows_stay_bounded and default")

MUTANTS = (
    # the ssm chain's bit table
    Mutant("table-first-firings-le", "_kernels.py",
           "            if firing < _FIRST:",
           "            if firing <= _FIRST:", CHAIN_TABLE),
    Mutant("table-block-base-off-by-one", "_kernels.py",
           "base, count = t, min(steps + 1 - t, max(t, _BLOCK_MIN), cap)",
           "base, count = t - 1, min(steps + 1 - t, max(t, _BLOCK_MIN), cap)", CHAIN_TABLE),
    Mutant("table-offset-without-the-firing-term", "_kernels.py",
           "at = (row + firing * size + s) * width",
           "at = (row + s) * width", TABLE_BITS),
    Mutant("table-drawn-from-step-t-plus-1", "_kernels.py",
           "np.arange(t, t + count, dtype=np.uint64)",
           "np.arange(t + 1, t + count + 1, dtype=np.uint64)", TABLE_BITS),
    Mutant("table-slice-to-the-width-for-every-slot", "_kernels.py",
           "return block[at:at + degree[s]]",
           "return block[at:at + width]", TABLE_BITS),
    Mutant("fold-array-unspread-word", "_kernels.py",
           "return _mix_array(acc ^ (w + 1) * _FOLD)",
           "return _mix_array(acc ^ w * _FOLD)", TABLE_BITS),
    Mutant("chain-imports-numpy-by-declared-steps", "model.py",
           "k = _numpy(steps, _BLOCK_MIN, steps + 1)",
           "k = _numpy(steps, _BLOCK_MIN, _BLOCK_IMPORT)",
           ("tests/test_loading.py", "-k", "long_run")),
    # the chain at p = 1, on the odometer
    Mutant("chain-p1-budget-not-strict", "model.py",
           "if threshold is not None and sum(fired[0]) + sum(fired[1]) > max_firings:",
           "if threshold is not None and sum(fired[0]) + sum(fired[1]) >= max_firings:",
           ("tests/test_model.py", "-k", "busiest")),
    Mutant("chain-p1-fires-one-firing-at-a-time", "model.py",
           "odometer = threshold is None or threshold >> 64",
           "odometer = threshold is None",
           ("tests/test_model.py", "-k", "full_probability_chain")),
    # the four of the catalogue's first prototype
    Mutant("dominates-prefix-sums-from-the-second-entry", "recurrence.py",
           "return all(map(ge, accumulate(upper), accumulate(lower)))",
           "return all(map(ge, accumulate(upper[1:]), accumulate(lower[1:])))",
           ("tests/test_recurrence.py",)),
    Mutant("odometer-fixed-point-loosened", "model.py",
           "        if b_next == fired_b:",
           "        if b_next <= fired_b + 1:", ("tests/test_model.py", "-k", "Odometer")),
    Mutant("odometer-starts-one-above-its-bound", "model.py",
           "m * (2 * n - 1)",
           "(m * (2 * n - 1) - 1)", ("tests/test_model.py", "-k", "Odometer")),
    Mutant("chain-landing-slot-from-t-plus-1", "model.py",
           "s = fold(choice, t) % size",
           "s = fold(choice, t + 1) % size", ("tests/test_cli.py", "-k", "readme")),
    Mutant("settle-fires-only-above-the-degree", "model.py",
           "while g >= deg and left:",
           "while g > deg and left:", ("tests/test_model.py", "-k", "OneFiringLoop")),
    # the side-sweep engine
    Mutant("sweeps-budget-one-over", "_kernels.py",
           "        if bound > max_firings:",
           "        if bound > max_firings + 1:", SWEEP_BUDGET),
    Mutant("sweeps-budget-not-strict", "_kernels.py",
           "        if bound > max_firings:",
           "        if bound >= max_firings:", SWEEP_BUDGET),
    Mutant("sweeps-windows-from-firing-zero", "_kernels.py",
           "f = base[x][s, None].astype(np.uint64) + np.arange(",
           "f = 0 * base[x][s, None].astype(np.uint64) + np.arange(", SWEEP_PILES),
    Mutant("sweeps-rebase-off-by-one", "_kernels.py",
           "        base[x][s] += at",
           "        base[x][s] += at + 1", SWEEP_PILES),
    Mutant("sweeps-narrowed-windows-not-drawn-again", "_kernels.py",
           "        draw(x, rows[x][kept:])",
           "        draw(x, rows[x][len(keep):])", SWEEP_CHUNKS),
    Mutant("sweeps-unstable-windows-dropped", "_kernels.py",
           "busy = h[ids[x]] - S[x][keep, pos[x]] >= d",
           "busy = h[ids[x]] - S[x][keep, pos[x]] > d", SWEEP_CHUNKS),
    Mutant("sweeps-slots-left-out-of-a-chunk-wait", "_kernels.py",
           "quiet, more = False, grow(x, new, h)",
           "quiet, more = False, grow(x, new, h) and False", SWEEP_BOUNDED),
    Mutant("sweeps-sides-swapped-in-the-arrivals", "_kernels.py",
           "got = C[1 - x][rows[1 - x], pos[1 - x]].sum(0)",
           "got = C[x][rows[x], pos[x]].sum(0)", SWEEP_PILES),
    Mutant("sweeps-sink-column-kept-in-the-arrivals", "_kernels.py",
           "return held[x] + (got[1:] if x == 0 else got)",
           "return held[x] + (got[:-1] if x == 0 else got)", SWEEP_PILES),
    # the committed bits, the witness searches, the census and the inverses
    Mutant("bits-below-second-shift-off-by-one", "_prf.py",
           "        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK",
           "        x = ((x ^ (x >> 28)) * 0x94D049BB133111EB) & _MASK",
           ("tests/test_oracle_bits.py", "-k", "batched_bits")),
    Mutant("witness-ssm-violation-not-strict", "recurrence.py",
           "                if s_a + s_b < 0:",
           "                if s_a + s_b <= 0:", ("tests/test_recurrence.py", "-k", "witness")),
    Mutant("witness-asm-top-set-one-short", "recurrence.py",
           "a_len = max(c.bottom[j - 1] for j in b_set) + 1",
           "a_len = max(c.bottom[j - 1] for j in b_set)",
           ("tests/test_recurrence.py", "-k", "witness")),
    Mutant("census-walks-strictly-increasing", "enumeration.py",
           "for k2 in range(ke if r < steps else m, m + 1):",
           "for k2 in range(ke + 1 if r < steps else m, m + 1):",
           ("tests/test_enumeration.py", "-k", "Census")),
    Mutant("pair-to-config-top-from-the-second-count", "ferrers.py",
           "top = counts_below(first.rows, m + 1)[:m]",
           "top = counts_below(first.rows, m + 1)[1:]", ("tests/test_ferrers.py",)),
    Mutant("polyomino-to-config-heights-not-lowered", "polyomino.py",
           "tuple(h - 1 for h in heights[:m]),",
           "tuple(h for h in heights[:m]),", ("tests/test_polyomino.py",)),
    Mutant("motzkin-to-polyomino-flat-steps-swapped", "motzkin.py",
           "u, l = _STEP_TO_PAIR[s]",
           'u, l = _STEP_TO_PAIR[{"HN": "HE", "HE": "HN"}.get(s, s)]', ("tests/test_motzkin.py",)),
    # the frozen records
    Mutant("record-hash-drops-the-last-field", "_record.py",
           'f"    return hash(({mine}))",',
           'f"    return hash(({mine.rpartition(\'self.\')[0]}))",',
           ("tests/test_records.py", "-k", "hash")),
    Mutant("record-eq-without-the-class-check", "_record.py",
           '"    if other.__class__ is self.__class__:",',
           '"    if True:",', ("tests/test_records.py", "-k", "equality")),
    Mutant("record-fields-assignable", "_record.py",
           "        if type(self) is cls or name in names:\n"
           "            raise AttributeError(f\"cannot assign",
           "        if False:\n"
           "            raise AttributeError(f\"cannot assign",
           ("tests/test_records.py", "-k", "assigned")),
    # the recurrence kernels
    Mutant("np-verdicts-rowwise-strict", "_kernels.py",
           "bool(np.all(sorted_b >= k))",
           "bool(np.all(sorted_b > k))", ("tests/test_recurrence.py",)),
    Mutant("counts-below-shifted-by-one", "recurrence.py",
           "    return tuple(accumulate(hist))",
           "    return (0, *accumulate(hist[:-1]))", ("tests/test_recurrence.py",)),
)

# (change, why it keeps every output); not run
EQUIVALENT = (
    ("_SWEEP_MIN = 16 -> 1", "the sweeps and the stack fire the same unique odometer"),
    ("sweeps from the bottoms first", "every legal order climbs to the same unique odometer"),
    ("rewidened windows drawn again from their old bases, not rebased",
     "positions are counted anew from the bases, so both starts give the same firings"),
    ("_SWEEP_WINDOW, _SWEEP_BITS",
     "they set how many firings a window covers and how many windows a side "
     "keeps, never a bit or a firing"),
    ("p = 1 threshold 2^64 -> 2^64 - 1",
     "a hash equal to 2^64 - 1 turns up with probability 2^-64"),
    ("bits_below's last shift x >> 31 -> x >> 30",
     "it changes only the low 34 bits of a hash, which decide its comparison "
     "with a threshold with probability about 2^-30"),
    ("_FIRST = 2 -> 1 or 3", "the table and bits_below draw the same bits"),
    ("_BLOCK_MIN, _BLOCK_IMPORT, _BLOCK_BITS",
     "they choose where the table runs and how far it draws, never a bit"),
)


def _copy(dest: pathlib.Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(root: pathlib.Path, selection: tuple) -> int | None:
    """The exit status of the selection run in root, or None on a timeout."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    try:
        return subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def _apply(root: pathlib.Path, mutant: Mutant) -> str | None:
    """Apply mutant in root; an error message when its snippet is not there once."""
    path = root / "src" / "bipsand" / mutant.module
    text = path.read_text()
    found = text.count(mutant.snippet)
    if found != 1:
        return f"snippet occurs {found} times in {mutant.module}"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    return None


def main(argv: list) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}: {m.module}: {' '.join(m.selection)}")
        return 0
    names = {m.name for m in MUTANTS}
    unknown = [a for a in argv if a not in names]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    killed = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = pathlib.Path(tmp) / "clean"
        _copy(clean)
        failing = set()
        for selection in dict.fromkeys(m.selection for m in chosen):
            status = _pytest(clean, selection)
            if status != 0:
                print(f"BASELINE FAILS (pytest exit {status}): {' '.join(selection)}")
                failing.add(selection)
        for i, mutant in enumerate(chosen):
            if mutant.selection in failing:
                print(f"{'NOT RUN':<20} {mutant.name}  [its selection fails unchanged]")
                continue
            root = pathlib.Path(tmp) / f"m{i}"
            _copy(root)
            t0 = time.perf_counter()
            error = _apply(root, mutant)
            status = None if error else _pytest(root, mutant.selection)
            shutil.rmtree(root)
            if error:
                verdict = f"ERROR ({error})"
            elif status is None:
                verdict = "killed (timeout)"
            else:
                verdict = "killed" if status == 1 else f"SURVIVED (pytest exit {status})"
            killed += verdict.startswith("killed")
            print(f"{verdict:<20} {mutant.name}  [{time.perf_counter() - t0:.1f} s]", flush=True)
    print(f"{killed} of {len(chosen)} mutants killed; "
          f"{len(EQUIVALENT)} equivalent by design, not run")
    return 0 if killed == len(chosen) else 1

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
