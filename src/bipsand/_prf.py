"""Keyed pseudo-random function used for committed toppling bits and vertex choice.

All randomness in the package flows through prf64: a fixed-key mixing of
64-bit words in the style of splitmix64.  Distinct key domains (bit draws,
per-step child seeds, vertex choices) use distinct odd constants so their
streams never collide.  bits_below computes a batch of prf64 values whose
keys differ only in the last word, bit for bit as prf64 would;
fold_array and below_array do the same for many keys at once in numpy.
"""
from __future__ import annotations

_MASK = (1 << 64) - 1

# domain separators, arbitrary odd 64-bit constants
DOMAIN_BIT = 0x9E3779B97F4A7C15
DOMAIN_STEP = 0xC2B2AE3D27D4EB4F
DOMAIN_CHOICE = 0x165667B19E3779F9

_FOLD = 0x2545F4914F6CDD1D


def _mix(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


INIT = 0x853C49E6748FEA9B  # prf64's state before its first word


def prf64(*words: int) -> int:
    """Deterministic 64-bit hash of the word sequence; uniform over [0, 2^64)."""
    acc = INIT
    for w in words:
        acc = _mix(acc ^ ((w + 1) * _FOLD & _MASK))
    return acc


def spread(w: int) -> int:
    """Word w as prf64 folds it in, the form bits_below takes it in."""
    return (w + 1) * _FOLD & _MASK


def fold(acc: int, w: int) -> int:
    """prf64's state after folding the word w into the state acc."""
    return _mix(acc ^ spread(w))


def bits_below(prefix: int, a: int, b: int, spread_words, threshold: int) -> list:
    """[prf64(*ws, a, b, w) < threshold for each w], given prefix = prf64(*ws)
    and spread(w) for each w.

    This is the inner loop of stochastic toppling: the bits of one firing
    share every key word but the last, so those are folded once, and the
    mix is inlined.
    """
    acc = _mix(_mix(prefix ^ ((a + 1) * _FOLD & _MASK)) ^ ((b + 1) * _FOLD & _MASK))
    out = []
    for w in spread_words:
        x = acc ^ w
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append((x ^ (x >> 31)) < threshold)
    return out


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
