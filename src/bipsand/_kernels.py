"""The numpy kernels: the one module of the package that imports numpy.

The gate model._numpy hands this module to a call whose work repays it,
and imports it only then, so a process that runs no kernel neither loads
numpy nor compiles this module.  Three kernels, on plain values:

- sweeps: below p = 1, a stock ToppleOracle's pile sweeps the two sides
  in turn: each vertex of one side fires until it is stable, its bits read
  from windows drawn for many firings at once.
- table_bits: no ssm chain bit depends on the state, so the chain's stack
  reads the bits of a step's first firings from a table drawn for a block
  of steps at once, one byte a bit, on every shape whose one step's bits
  fit in a block.
- verdicts: both recurrence verdicts of two grain sides, from one int64
  conversion of each side, or None for an unstable side.

fold_array and below_array are _prf's fold and bits_below for many keys at
once: they compute prf64 values bit for bit as prf64 would.
"""
from __future__ import annotations

import numpy as np

from ._prf import _FOLD, DOMAIN_BIT, INIT, bits_below, fold, prf64
from .model import _BLOCK_BITS, _BLOCK_MIN, _FIRST, _stall, _table

# A slot's window of bits covers at most _SWEEP_WINDOW firings, and a side's
# windows together at most _SWEEP_BITS bits (or one firing of one slot),
# whatever the grain count and the shape.  CHANGES.md has the timings.
_SWEEP_BITS = 1 << 16
_SWEEP_WINDOW = 128


def _mix_array(x):
    """_mix of every entry of the uint64 array x, in place."""
    x ^= x >> 30
    x *= 0xBF58476D1CE4E5B9
    x ^= x >> 27
    x *= 0x94D049BB133111EB
    x ^= x >> 31
    return x


# The array forms below work entry by entry on numpy uint64 arrays.  Their
# products wrap mod 2^64, as _MASK makes them in _mix, so call them under
# np.errstate(over="ignore").  Entry j of bits_below(prefix, a, b, ws, t)
# is below_array(fold_array(fold(prefix, a), b), ws[j], t).

def fold_array(acc, w):
    """fold(acc[i], w[i]) for every i."""
    return _mix_array(acc ^ (w + 1) * _FOLD)


def below_array(acc, spread_w, threshold: int):
    """The bool array of prf64 states acc, each with its folded last word
    spread_w, below threshold (< 2^64)."""
    return _mix_array(acc ^ spread_w) < threshold


def sweeps(grains: list, m: int, n: int, prefix: int, threshold: int, p, max_firings: int) -> list:
    """Stabilize grains, in place, with the bits of a stock ToppleOracle of
    this _prefix, _threshold and p < 1; return the firing counts by slot.

    The sides take turns, tops first, each slot firing until it is stable
    given the other side's firings so far, until a turn after the first
    fires nothing.  Every firing is legal when it happens, so by the least
    action principle the counts climb to the stack's unique odometer.  An
    unstable slot gets a window: its bits for firings base..base+W-1 as
    counts by neighbour, cumulative over the window (C) and summed (S).
    Holding h grains at base, it fires base + #{j < W : S[j] <= h - deg}
    times, and at the window's end moves the window on.  A side keeps at
    most max(1, _SWEEP_BITS // deg) windows of W = _SWEEP_BITS // (k deg)
    firings for k windows (at least one), so no array outgrows
    max(_SWEEP_BITS, deg) bits.  Past that many, its stable windows are
    dropped and its slots fire in chunks: slots of one side never feed each
    other.  Each move, and the end, checks the budget (see tally).
    """
    deg = (n, m + 1)
    codes, *words = _table(m, n)[2:]
    words = [np.array(w, np.uint64) for w in words]
    below = np.uint64(threshold)
    pa = np.array([fold(prefix, c) for c in codes[:-1]], np.uint64)
    pa = [pa[:m], pa[m:]]
    # by side: each slot's grains and firings at its window's base; each
    # window's slot, position and counts, and rows 0..k-1; the width W
    held = [np.array(grains[:m], np.int64), np.array(grains[m:-1], np.int64)]
    base = [np.zeros(m, np.int64), np.zeros(n, np.int64)]
    ids, pos, rows = ([np.zeros(0, np.int64), np.zeros(0, np.int64)] for _ in range(3))
    C, S = [np.zeros((0, 1, d), np.int64) for d in deg], [np.zeros((0, 1), np.int64) for d in deg]
    width = [0, 0]

    def draw(x, r):
        """Draw side x's windows r, from their bases."""
        s = ids[x][r]
        f = base[x][s, None].astype(np.uint64) + np.arange(width[x], dtype=np.uint64)
        acc = fold_array(pa[x][s, None], f)
        C[x][r, 1:] = below_array(acc[..., None], words[x], below).cumsum(1)
        S[x][r] = C[x][r].sum(2)

    def rebase(x, r):
        """Move the bases of side x's windows r to their positions."""
        at, s = pos[x][r], ids[x][r]
        held[x][s] -= S[x][r, at]
        sent = C[x][r, at].sum(0)
        held[1 - x] += sent[1:] if x else sent
        base[x][s] += at
        pos[x][r] = 0

    def grow(x, new, h):
        """Give side x's unstable slots new (grains at base h) windows, as
        many as fit once the stable windows are dropped; True if some are
        left out.  Where W changes, every window is rebased and redrawn."""
        d, keep, todo = deg[x], rows[x], len(new)
        cap = max(1, _SWEEP_BITS // d)
        if len(keep) + todo > cap:
            busy = h[ids[x]] - S[x][keep, pos[x]] >= d
            rebase(x, keep[~busy])
            keep = keep[busy]
            new = new[:cap - len(keep)]
        k = len(keep) + len(new)
        w = max(1, min(_SWEEP_WINDOW, _SWEEP_BITS // (k * d)))
        c, t, at = np.zeros((k, w + 1, d), np.int64), np.zeros((k, w + 1), np.int64), np.zeros(k, np.int64)
        kept = len(keep) if w == width[x] else 0
        if kept:
            c[:kept], t[:kept], at[:kept] = C[x][keep], S[x][keep], pos[x][keep]
        else:
            rebase(x, keep)
        ids[x] = np.concatenate((ids[x][keep], new))
        C[x], S[x], pos[x], width[x], rows[x] = c, t, at, w, np.arange(k)
        draw(x, rows[x][kept:])
        return len(new) < todo

    def have(x):
        """Side x's grains at its bases, plus arrivals from the other side's
        windows (a bottom's first count is the sink's, which keeps none)."""
        got = C[1 - x][rows[1 - x], pos[1 - x]].sum(0)
        return held[x] + (got[1:] if x == 0 else got)

    def tally():
        """Write both sides' grains back; stall once the firings so far plus
        sum(grains // deg), a lower bound of the odometer, exceed the budget."""
        now = [have(0), have(1)]
        bound = 0
        for x in (0, 1):
            now[x][ids[x]] -= S[x][rows[x], pos[x]]
            bound += int(base[x].sum() + pos[x].sum() + (now[x] // deg[x]).sum())
        grains[:-1] = [*now[0].tolist(), *now[1].tolist()]
        if bound > max_firings:
            raise _stall(grains, m, n, p, max_firings)

    with np.errstate(over="ignore"):
        x = turn = 0
        while True:
            quiet, more = turn > 0, True
            while more:
                h, more = have(x), False
                if len(ids[x]) < len(h):
                    unpooled = h >= deg[x]
                    unpooled[ids[x]] = False
                    if (new := np.flatnonzero(unpooled)).size:
                        quiet, more = False, grow(x, new, h)
                        h = have(x)
                while True:
                    count = (S[x][:, :width[x]] <= (h[ids[x]] - deg[x])[:, None]).sum(1)
                    if count.max(initial=-1) < width[x]:  # -1: a side with no windows yet
                        break
                    quiet, pos[x] = False, count
                    full = np.flatnonzero(count == width[x])
                    rebase(x, full)
                    draw(x, full)
                    h = have(x)
                    tally()
                quiet = quiet and not (count - pos[x]).any()
                pos[x] = count
            if quiet:
                break
            x, turn = 1 - x, turn + 1
        tally()
    for x in (0, 1):
        base[x][ids[x]] += pos[x]
    return [*base[0].tolist(), *base[1].tolist()]


def table_bits(step: int, steps: int, m: int, n: int, threshold: int):
    """Return bits_at(t), for t rising: the draw of the ssm chain step t
    whose step key prefix is step, bit for bit
    model._stock_bits(prf64(fold(step, t), DOMAIN_BIT), threshold, m, n).

    No bit key depends on the state, so the bits of every slot's firings
    0.._FIRST-1 come from a table drawn for a block of steps at once, one
    byte (0 or 1) a bit, and later firings' bits from bits_below.  A block
    starts at a toppling step t and spans at most max(t, _BLOCK_MIN) steps
    and _BLOCK_BITS bits, so a short read of a long run draws little; one
    step's bits must fit in it.  Each slot's neighbour words are padded to
    the wider side's, so a firing's bits start every width bytes, and those
    past its degree are never read.  p is below 1: the chain runs p = 1 on
    the odometer.
    """
    codes, top_words, bottom_words = _table(m, n)[2:]
    size, width = m + n, max(n, m + 1)
    words = [top_words] * m + [bottom_words] * n
    degree = [n] * m + [m + 1] * n
    pad = (0,) * (width - min(n, m + 1))
    spread_words = np.array([(*ws, *pad)[:width] for ws in words], np.uint64)
    code_words = np.array(codes[:-1], np.uint64)
    firings = np.arange(_FIRST, dtype=np.uint64)[:, None]
    below = np.uint64(threshold)
    cap = _BLOCK_BITS // (_FIRST * size * width)
    block, base, count = b"", 0, 0

    def bits_at(t):
        nonlocal block, base, count
        if t - base >= count:
            base, count = t, min(steps + 1 - t, max(t, _BLOCK_MIN), cap)
            with np.errstate(over="ignore"):
                child = fold_array(np.uint64(step), np.arange(t, t + count, dtype=np.uint64))
                prefix = fold_array(fold_array(np.uint64(INIT), child), np.uint64(DOMAIN_BIT))
                acc = fold_array(fold_array(prefix[:, None], code_words)[:, None], firings)
                # byte [i][f][s][j] is bit j of slot s's firing f at step t + i
                block = below_array(acc[..., None], spread_words, below).tobytes()
        row = (t - base) * _FIRST * size

        def draw(s, firing):
            if firing < _FIRST:
                at = (row + firing * size + s) * width
                return block[at:at + degree[s]]
            return bits_below(prf64(fold(step, t), DOMAIN_BIT), codes[s], firing, words[s],
                              threshold)

        return draw

    return bits_at


def verdicts(top, bottom, m: int, n: int):
    """(rowwise, prefixwise): both recurrence verdicts of the grain sides top
    and bottom of K0_{m,n}, from one int64 conversion of each side; None
    unless both sides are stable.  The arrays die with the call: at 10^7
    entries they hold about 160 MB."""
    try:
        top = np.fromiter(top, np.int64, m)
        bottom = np.fromiter(bottom, np.int64, n)
    except OverflowError:  # a count past int64 is far from stable
        return None
    if m and top.max() >= n or bottom.max() > m:
        return None
    k = np.cumsum(np.bincount(top, minlength=n))
    hist_b = np.bincount(bottom, minlength=m + 1)
    sorted_b = np.repeat(np.arange(m + 1, dtype=np.int64), hist_b)
    return bool(np.all(sorted_b >= k)), bool(np.all(np.cumsum(sorted_b) >= np.cumsum(k)))
