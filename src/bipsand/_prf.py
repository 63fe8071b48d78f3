"""Keyed pseudo-random function used for committed toppling bits and vertex choice.

All randomness in the package flows through prf64: a fixed-key mixing of
64-bit words in the style of splitmix64.  Distinct key domains (bit draws,
per-step child seeds, vertex choices) use distinct odd constants so their
streams never collide.  bits_below computes a batch of prf64 values whose
keys differ only in the last word, bit for bit as prf64 would.
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


def prf64(*words: int) -> int:
    """Deterministic 64-bit hash of the word sequence; uniform over [0, 2^64)."""
    acc = 0x853C49E6748FEA9B
    for w in words:
        acc = _mix(acc ^ ((w + 1) * _FOLD & _MASK))
    return acc


def spread(w: int) -> int:
    """Word w as prf64 folds it in, the form bits_below takes it in."""
    return (w + 1) * _FOLD & _MASK


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
