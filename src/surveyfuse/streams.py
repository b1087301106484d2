"""The draws of ``dataset.rng_stream`` that need no ``numpy.random``.

``rng_stream(*key)`` is numpy's ``Generator(PCG64(SeedSequence(key)))``,
and importing ``numpy.random`` loads ``secrets`` and with it OpenSSL, about
6 MB of resident memory.  Two of the package's draws are reproduced here
bit for bit instead, in uint64 arithmetic vectorized across streams:

* ``below(seed, rows, n)`` is ``rng_stream(seed, row).choice(n)`` per row,
  the one draw each random tie makes;
* ``sample(seed, n, k)`` is ``np.sort(rng_stream(seed).choice(n, k,
  replace=False))``, the rows attribution explains.

The contract they keep, numpy's since 1.17 (NEP 19 lets numpy change a
``Generator`` algorithm in a release; ``tests/test_streams.py`` compares
every draw with numpy's, so such a change fails there):

1. **SeedSequence.**  The key's integers become little-endian uint32 words
   (0 is one word), are hashed into a pool of 4 words, and the pool is
   expanded into four uint64 words ``w``, each two hashed words low first.
2. **PCG64** (O'Neill 2014).  A 128-bit LCG ``x -> x * M + inc`` with
   ``inc = (w2 << 64 | w3) << 1 | 1``, seeded by one step from
   ``(w0 << 64 | w1) + inc``.  Each output steps once more and is the
   XSL-RR of the state: ``hi ^ lo`` rotated right by ``hi >> 58``.
3. **32-bit words.**  A stream's words are its outputs' low halves, each
   followed by its high half (``next_uint32`` buffers the high half).
4. **Bounded draw** (Lemire 2019).  A draw below ``n <= 2**32`` takes the
   next word ``w`` and ``m = w * n``; it is ``m >> 32`` unless
   ``m mod 2**32 < (2**32 - n) mod n``, when it takes the next word again.
   Above ``2**32`` it takes whole outputs and 128-bit products alike.
   ``n = 1`` takes nothing and is 0.
5. **Without replacement.**  When ``n > 10000`` and ``k > n // 50`` the
   tail of ``range(n)`` is shuffled: ``i`` from ``n - 1`` down to
   ``max(n - k, 1)`` swaps with a draw below ``i + 1``, and the last ``k``
   are kept.  Otherwise Floyd's algorithm: ``j`` from ``n - k`` up takes
   a draw below ``j + 1``, or ``j`` when that draw is already taken.  The
   result is sorted, so numpy's shuffle after Floyd draws nothing here.
"""

from __future__ import annotations

import operator

import numpy as np

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1

# PCG64's LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's pool size and hash constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# numpy's rule for a draw without replacement: shuffle the tail of
# range(n) above this n when more than n // _TAIL_SHARE are drawn.
_FLOYD_MAX_N = 10_000
_TAIL_SHARE = 50


def _words(value: int) -> list[int]:
    """A key integer's little-endian uint32 words, as SeedSequence reads it."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hash, whose multiplier advances with every call."""

    def hash_(v: np.ndarray) -> np.ndarray:
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & _M32
        v = v * np.uint32(const)
        return v ^ (v >> 16)

    return hash_


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> 16)


def _split(value: int) -> tuple[np.uint64, np.uint64]:
    return np.uint64(value >> 64), np.uint64(value & 0xFFFFFFFFFFFFFFFF)


def _mul64(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products ``a * b`` of uint64 values, as (high, low) words."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    low, cross1, cross2 = a0 * b0, a1 * b0, a0 * b1
    mid = (low >> 32) + (cross1 & _M32) + (cross2 & _M32)
    return a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (mid >> 32), mid << 32 | low & _M32


def _mul128(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``a * b mod 2**128`` of (high, low) pairs."""
    hi, lo = _mul64(a[1], b[1])
    return hi + a[1] * b[0] + a[0] * b[1], lo


def _add128(a, b) -> tuple[np.ndarray, np.ndarray]:
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _streams(seed: int, rows: np.ndarray | None = None):
    """Per stream ``(seed, row)``, or the one stream ``(seed,)``, the LCG
    state that PCG64's seeding steps from and its increment, as (high, low)
    pairs of uint64 arrays."""
    key = _words(seed)
    s = 1 if rows is None else rows.size
    cols = [np.full(s, w, dtype=np.uint32) for w in key]
    length = len(key)
    if rows is not None:
        if rows.size and rows.min() < 0:
            raise ValueError("expected non-negative integer rows")
        high = (rows >> 32).astype(np.uint32)
        cols.append((rows & _M32).astype(np.uint32))
        if high.any():
            cols.append(high)
        length = len(key) + 1 + (high != 0)
    cols += [np.zeros(s, dtype=np.uint32)] * (_POOL - len(cols))
    hash_ = _hasher(_INIT_A, _MULT_A)
    pool = [hash_(c) for c in cols[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_(pool[src]))
    for src in range(_POOL, len(cols)):  # words past the pool, where a stream has them
        for dst in range(_POOL):
            pool[dst] = np.where(length > src, _mix(pool[dst], hash_(cols[src])), pool[dst])
    hash_ = _hasher(_INIT_B, _MULT_B)
    state = [hash_(pool[i % _POOL]).astype(np.uint64) for i in range(2 * _POOL)]
    w = [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]
    inc = (w[2] << 1 | w[3] >> 63, w[3] << 1 | 1)
    return _add128(inc, (w[0], w[1])), inc


def _advance(x, inc, steps: np.ndarray):
    """The states ``steps`` LCG steps after ``x``: bit b of ``steps`` applies
    ``x -> M**(2**b) * x + (1 + M + ... + M**(2**b - 1)) * inc``."""
    mult, add = _PCG_MULT, 1
    for b in range(int(steps.max(initial=0)).bit_length()):
        take = (steps >> b & 1).astype(bool)
        y = _add128(_mul128(_split(mult), x), _mul128(_split(add), inc))
        x = (np.where(take, y[0], x[0]), np.where(take, y[1], x[1]))
        mult, add = mult * mult & _M128, add * (mult + 1) & _M128
    return x


def _output(x) -> np.ndarray:
    """PCG64's XSL-RR output of each state."""
    v, r = x[0] ^ x[1], x[0] >> 58
    return v >> r | v << (np.uint64(64) - r & 63)


def _draw(start, inc, bounds: np.ndarray) -> np.ndarray:
    """Row r's bounded draws from stream r, in order: the (s, k) draws below
    ``bounds``, each as numpy's bounded draw makes it.

    A row's bounds are all at most ``2**32`` or, for one draw, above.
    Every draw is first taken from the word it would take if no draw before
    it were rejected; from a row's first rejected draw on, the row is drawn
    again one word later.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    s, k = bounds.shape
    wide = bounds > 1 << 32
    uses = bounds > 1
    base = (np.cumsum(uses, axis=1) - uses).astype(np.uint64)
    out = np.zeros((s, k), dtype=np.uint64)
    if k == 0:
        return out
    col = np.arange(k)
    done = np.zeros(s, dtype=np.intp)  # draws accepted so far, per row
    skip = np.zeros(s, dtype=np.uint64)  # words rejected so far, per row
    rows = np.arange(s)
    while rows.size:
        n, w, pos = bounds[rows], wide[rows], base[rows] + skip[rows, None]
        # a word is half pos % 2 of output pos // 2; output t is t + 2 steps from start
        steps = np.where(w, pos, pos >> 1) + 2
        x, add = (tuple(v[rows, None] for v in part) for part in (start, inc))
        o = _output(_advance(x, add, steps))
        word = np.where(w, o, np.where(pos & 1 != 0, o >> 32, o & _M32))
        m = word * n
        value, left, threshold = m >> 32, m & _M32, (np.uint64(1 << 32) - n) % n
        if w.any():
            value[w], left[w] = _mul64(word[w], n[w])
            threshold[w] = (np.uint64(0) - n[w]) % n[w]
        value[~uses[rows]] = 0
        pending = col >= done[rows, None]
        bad = (left < threshold) & uses[rows] & pending
        first = np.where(bad.any(axis=1), bad.argmax(axis=1), k)
        keep = pending & (col < first[:, None])
        out[rows] = np.where(keep, value, out[rows])
        again = first < k
        rows = rows[again]
        done[rows], skip[rows] = first[again], skip[rows] + 1
    return out


def below(seed: int, rows: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``rng_stream(seed, row).choice(n)`` for each row and its ``n >= 1``:
    an int64 uniform in ``[0, n)``.

    Each stream holds a few hundred bytes while it draws, so callers with
    many rows draw them in blocks.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = np.asarray(n, dtype=np.uint64)
    if n.size and n.min() < 1:
        raise ValueError("a draw needs at least one value to choose from")
    return _draw(*_streams(seed, rows), n[:, None])[:, 0].astype(np.int64)


def sample(seed: int, n: int, k: int) -> np.ndarray:
    """``np.sort(rng_stream(seed).choice(n, k, replace=False))``: ``k``
    distinct int64 in ``[0, n)``, ascending, for ``n`` up to ``2**32``."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot draw {k} of {n} without replacement")
    if n > 1 << 32:
        raise ValueError(f"draws without replacement take at most 2**32 values, not {n}")
    start, inc = _streams(seed)
    if n > _FLOYD_MAX_N and k > n // _TAIL_SHARE:
        top = np.arange(n - 1, max(n - k, 1) - 1, -1)
        moved: dict[int, int] = {}  # the shuffled slots of range(n)
        for i, j in zip(top.tolist(), _draw(start, inc, top[None] + 1)[0].tolist()):
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        picked = [moved.get(i, i) for i in range(n - k, n)]
    else:
        picked = set()
        draws = _draw(start, inc, np.arange(n - k + 1, n + 1)[None])[0].tolist()
        for j, v in zip(range(n - k, n), draws):
            picked.add(j if v in picked else v)
    return np.sort(np.fromiter(picked, dtype=np.int64, count=k))
