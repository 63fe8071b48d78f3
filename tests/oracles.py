"""Naive reference implementations used to validate the library.

Everything here works on plain tuples and deliberately avoids importing
the package under test, so disagreements point at real bugs rather than
shared mistakes.  All routines are exponential or quadratic and only
meant for tiny instances.
"""
from __future__ import annotations

import itertools
from fractions import Fraction


# ---------------------------------------------------------------- dynamics

def naive_stabilize_asm(top, bottom):
    """Topple the first unstable vertex until none remain.

    Returns (top, bottom, fires_top, fires_bottom).
    """
    m, n = len(top), len(bottom)
    top, bottom = list(top), list(bottom)
    ft, fb = [0] * m, [0] * n
    while True:
        for i in range(m):
            if top[i] >= n:
                top[i] -= n
                for j in range(n):
                    bottom[j] += 1
                ft[i] += 1
                break
        else:
            for j in range(n):
                if bottom[j] >= m + 1:
                    bottom[j] -= m + 1
                    for i in range(m):
                        top[i] += 1
                    fb[j] += 1
                    break
            else:
                return tuple(top), tuple(bottom), tuple(ft), tuple(fb)


def naive_stabilize_ssm(top, bottom, bit):
    """Stochastic variant; `bit(vertex_code, firing, neighbor_code)` supplies
    the committed coin flips.  Codes: sink 0, top i -> 2i, bottom j -> 2j+1.
    """
    m, n = len(top), len(bottom)
    top, bottom = list(top), list(bottom)
    ft, fb = [0] * m, [0] * n
    while True:
        for i in range(m):
            if top[i] >= n:
                moved = 0
                for j in range(1, n + 1):
                    if bit(2 * i + 2, ft[i], 2 * j + 1):
                        bottom[j - 1] += 1
                        moved += 1
                top[i] -= moved
                ft[i] += 1
                break
        else:
            for j in range(n):
                if bottom[j] >= m + 1:
                    moved = 0
                    if bit(2 * j + 3, fb[j], 0):
                        moved += 1
                    for i in range(1, m + 1):
                        if bit(2 * j + 3, fb[j], 2 * i):
                            top[i - 1] += 1
                            moved += 1
                    bottom[j] -= moved
                    fb[j] += 1
                    break
            else:
                return tuple(top), tuple(bottom), tuple(ft), tuple(fb)


def naive_topple(top, bottom, slot, bit, firing):
    """Fire one vertex once, as its firing-th firing, stable or not.

    slot i < m is top vertex i+1 and slot m+j is bottom vertex j+1.  Each
    neighbour gets a grain when bit(vertex_code, firing, neighbor_code) is
    true (codes as in naive_stabilize_ssm); bit None sends every grain.
    Returns (top, bottom); grains sent to the sink vanish.
    """
    m, n = len(top), len(bottom)
    top, bottom = list(top), list(bottom)
    if slot < m:
        code = 2 * slot + 2
        for j in range(1, n + 1):
            if bit is None or bit(code, firing, 2 * j + 1):
                bottom[j - 1] += 1
                top[slot] -= 1
    else:
        j = slot - m
        code = 2 * j + 3
        if bit is None or bit(code, firing, 0):
            bottom[j] -= 1
        for i in range(1, m + 1):
            if bit is None or bit(code, firing, 2 * i):
                top[i - 1] += 1
                bottom[j] -= 1
    return tuple(top), tuple(bottom)


# ---------------------------------------------------- forbidden witnesses

def ssm_witness_exists(top, bottom):
    """Exhaustive search over every nonempty pair of vertex subsets."""
    m, n = len(top), len(bottom)
    for a in range(1, m + 1):
        for b in range(1, n + 1):
            for A in itertools.combinations(range(m), a):
                sa = sum(top[i] for i in A)
                for B in itertools.combinations(range(n), b):
                    if sa + sum(bottom[j] for j in B) < a * b:
                        return True
    return False


def asm_witness_exists(top, bottom):
    """Exhaustive search for a stable induced subconfiguration."""
    m, n = len(top), len(bottom)
    for a in range(1, m + 1):
        for b in range(1, n + 1):
            for A in itertools.combinations(range(m), a):
                if any(top[i] >= b for i in A):
                    continue
                for B in itertools.combinations(range(n), b):
                    if all(bottom[j] < a for j in B):
                        return True
    return False


def ssm_witness_exists_fast(top, bottom):
    """Same predicate via sorted prefix sums over all subset sizes."""
    ts = sorted(top)
    bs = sorted(bottom)
    pt = [0]
    for v in ts:
        pt.append(pt[-1] + v)
    pb = [0]
    for v in bs:
        pb.append(pb[-1] + v)
    for a in range(1, len(ts) + 1):
        for b in range(1, len(bs) + 1):
            if pt[a] + pb[b] < a * b:
                return True
    return False


def asm_witness_exists_fast(top, bottom):
    """Same predicate via maximal top sets per bottom subset size."""
    for b in range(1, len(bottom) + 1):
        a = sum(1 for v in top if v < b)
        if a >= 1 and sum(1 for v in bottom if v < a) >= b:
            return True
    return False


def first_ssm_witness(top, bottom):
    """First witness in the (|B|, B, A) lexicographic scan, or None."""
    m, n = len(top), len(bottom)
    for b in range(1, n + 1):
        for B in itertools.combinations(range(1, n + 1), b):
            sb = sum(bottom[j - 1] for j in B)
            for A in _lex_nonempty_subsets(m):
                sa = sum(top[i - 1] for i in A)
                if sa + sb < len(A) * b:
                    return tuple(A), B
    return None


def first_asm_witness(top, bottom):
    m, n = len(top), len(bottom)
    for b in range(1, n + 1):
        for B in itertools.combinations(range(1, n + 1), b):
            for A in _lex_nonempty_subsets(m):
                if all(top[i - 1] < b for i in A) and all(
                    bottom[j - 1] < len(A) for j in B
                ):
                    return tuple(A), B
    return None


def _lex_nonempty_subsets(m):
    """Nonempty subsets of 1..m in lexicographic order: (1), (1,2), ..."""

    def rec(prefix, lo):
        for x in range(lo, m + 1):
            cur = prefix + (x,)
            yield cur
            yield from rec(cur, x + 1)

    yield from rec((), 1)


# ------------------------------------------------------------- recurrence

def brute_level_poly(configs, m, n):
    """Map level -> count over an iterable of (top, bottom) pairs."""
    hist = {}
    for top, bottom in configs:
        lvl = sum(top) + sum(bottom) - m * n
        hist[lvl] = hist.get(lvl, 0) + 1
    return hist


def naive_census(m, n, model, sorted_only):
    """(total, level counts) of the recurrent configurations, by testing every
    stable one (weakly increasing sides only, if sorted_only) for a forbidden
    subconfiguration.  Level counts run over 0..m(n-1)."""
    if sorted_only:
        tuples = itertools.combinations_with_replacement
    else:
        def tuples(values, k):
            return itertools.product(values, repeat=k)
    witness = asm_witness_exists_fast if model == "asm" else ssm_witness_exists_fast
    counts = [0] * (m * (n - 1) + 1)
    bottoms = list(tuples(range(m + 1), n))
    for top in tuples(range(n), m):
        for bottom in bottoms:
            if not witness(top, bottom):
                counts[sum(top) + sum(bottom) - m * n] += 1
    return sum(counts), tuple(counts)


# ----------------------------------------------------------------- ferrers

def is_ferrers(rows):
    return len(rows) >= 1 and all(v >= 0 for v in rows) and all(
        rows[i] <= rows[i + 1] for i in range(len(rows) - 1)
    )


def naive_moves(rows, include_shifts):
    """All (kind, args, result) triples obtainable by one legal move."""
    n = len(rows)
    out = []
    if include_shifts:
        for p in range(1, n + 1):
            for q in range(1, p):
                cand = list(rows)
                cand[p - 1] -= 1
                cand[q - 1] += 1
                if is_ferrers(cand):
                    out.append(("shift", (p, q), tuple(cand)))
    for r in range(1, n + 1):
        cand = list(rows)
        cand[r - 1] += 1
        if is_ferrers(cand):
            out.append(("add", (r,), tuple(cand)))
    return out


def reachable(rows, include_shifts, max_area):
    """BFS closure of `rows` under legal moves, up to a total-area cap."""
    seen = {tuple(rows)}
    frontier = [tuple(rows)]
    while frontier:
        cur = frontier.pop()
        for _, _, nxt in naive_moves(cur, include_shifts):
            if sum(nxt) <= max_area and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


# -------------------------------------------------------------- polyominoes

def all_path_pairs(width, height):
    """Every valid polyomino path pair spanning a width x height box."""
    steps = width + height
    out = []
    for mask in itertools.product("NE", repeat=steps):
        upper = "".join(mask)
        if upper.count("N") != height or upper[0] != "N" or upper[-1] != "E":
            continue
        for mask2 in itertools.product("NE", repeat=steps):
            lower = "".join(mask2)
            if lower.count("N") != height or lower[0] != "E" or lower[-1] != "N":
                continue
            if _paths_ok(upper, lower, width, height):
                out.append((upper, lower))
    return out


def _vertices(path):
    x = y = 0
    pts = [(0, 0)]
    for s in path:
        if s == "N":
            y += 1
        else:
            x += 1
        pts.append((x, y))
    return pts


def _paths_ok(upper, lower, width, height):
    up = _vertices(upper)
    lo = _vertices(lower)
    if up[-1] != (width, height):
        return False
    return set(up) & set(lo) == {(0, 0), (width, height)}


def polyomino_area(upper, lower):
    """Cell count: column heights of the upper path minus the lower one."""

    def e_heights(path):
        h = 0
        out = []
        for s in path:
            if s == "N":
                h += 1
            else:
                out.append(h)
        return out

    return sum(e_heights(upper)) - sum(e_heights(lower))


def pair_polyomino_cells(first, second):
    """Polyomino paths of a strongly compatible diagram pair, from cell sets.

    `first` and `second` are row-length tuples, bottom to top, and m is
    the first diagram's top row.  Pad the first diagram with an empty
    bottom row and one extra cell on its top row, pad the second with one
    cell per row and a full new top row of m+1 cells, and subtract the
    cell sets.  Each of the n lowest rows of the difference must be one
    run of cells and the new top row must be empty; the run's left edges
    are the upper path's N-step x-positions and its right edges the lower
    path's.  Returns (upper, lower) step strings.
    """
    m, n = first[-1], len(first)

    def cells(rows):
        return {(col, r) for r, length in enumerate(rows, 1) for col in range(1, length + 1)}

    padded_first = (0,) + tuple(first[:-1]) + (m + 1,)
    padded_second = tuple(r + 1 for r in second) + (m + 1,)
    diff = cells(padded_second) - cells(padded_first)
    if any(row == n + 1 for _, row in diff):
        raise ValueError("the padding row is not covered")
    left, right = [], []
    for r in range(1, n + 1):
        cols = sorted(col for col, row in diff if row == r)
        if not cols or cols != list(range(cols[0], cols[-1] + 1)):
            raise ValueError(f"row {r} of the difference is not one run of cells")
        left.append(cols[0] - 1)
        right.append(cols[-1])

    def path(n_positions):
        x, steps = 0, []
        for pos in n_positions:
            steps.append("E" * (pos - x) + "N")
            x = pos
        return "".join(steps) + "E" * (m + 1 - x)

    return path(left), path(right)


# ----------------------------------------------------------------- motzkin

def all_words(m, n):
    """Every valid height-profile word for an (m, n) instance."""
    length = m + n - 1
    out = []
    for mask in itertools.product("UDne", repeat=length):
        if mask.count("D") + mask.count("e") != m:
            continue
        if mask.count("D") + mask.count("n") != n - 1:
            continue
        h = 0
        ok = True
        for s in mask:
            if s == "U":
                h += 1
            elif s == "D":
                h -= 1
            if h < 0:
                ok = False
                break
        if ok and h == 0:
            out.append("".join(mask))
    return out


def first_word_fault(steps):
    """The first fault of a step tuple read left to right: 'unknown' for a
    step outside U, D, HN, HE, 'dip' for a height below zero, 'end' for a
    final height other than zero, or None for a valid word."""
    h = 0
    for s in steps:
        if s not in ("U", "D", "HN", "HE"):
            return "unknown"
        h += (s == "U") - (s == "D")
        if h < 0:
            return "dip"
    return None if h == 0 else "end"


def word_area(word):
    total = Fraction(0)
    h = 0
    for s in word:
        if s == "U":
            total += Fraction(2 * h + 1, 2)
            h += 1
        elif s == "D":
            total += Fraction(2 * h - 1, 2)
            h -= 1
        else:
            total += h
    return total


# ----------------------------------------------------------- spanning trees

def naive_spanning_tree_count(m, n):
    """Count spanning trees of K_{m+1,n} by checking every edge subset."""
    lefts = list(range(m + 1))
    rights = list(range(m + 1, m + 1 + n))
    edges = [(u, v) for u in lefts for v in rights]
    v_count = m + 1 + n
    count = 0
    for subset in itertools.combinations(edges, v_count - 1):
        parent = list(range(v_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            count += 1
    return count


# ------------------------------------------------------------- enumeration

def all_stable(m, n):
    """Every stable configuration, as (top, bottom) tuples."""
    tops = itertools.product(range(n), repeat=m)
    bottoms = list(itertools.product(range(m + 1), repeat=n))
    return [(t, b) for t in tops for b in bottoms]


def bounded_sum_tuples(k, total):
    """All k-tuples of nonnegative ints with sum <= total."""
    if k == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in bounded_sum_tuples(k - 1, total - head):
            yield (head,) + rest


def dag_reachable(edges, start):
    """Vertices reachable from start via directed edges (start included)."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for nxt in adj.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def all_paths(edges, start, end):
    """Every directed path between two vertices of an acyclic graph."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    out = []

    def dfs(cur, path):
        if cur == end:
            out.append(tuple(path))
            return
        for nxt in adj.get(cur, ()):
            dfs(nxt, path + [nxt])

    dfs(start, [start])
    return out
