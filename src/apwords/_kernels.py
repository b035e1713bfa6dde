"""Hot inner loops: occurrence scanning and machine runs.

Each kernel has one entry point, ``find_occurrences`` and ``mealy_run``.
With numba installed (the optional ``jit`` extra) and the environment
variable ``APWORDS_NO_NUMBA`` not set to ``1`` before import, they are
``@njit`` compilations of the sequential loops below.  Otherwise they are

* ``occurrences_numpy``, a vectorized candidate-filter scan, and
* ``mealy_run_numpy``: the blocked two-pass run of Mytkowicz, Musuvathi and
  Schulte ("Data-Parallel Finite-State Machines", ASPLOS 2014), vectorized
  over blocks and states, for machines of at most ``BLOCKED_MAX_STATES``
  states, and the sequential loop, in plain Python, for wider ones.
"""

import math
import os

import numpy as np

NUMBA_REQUESTED = os.environ.get("APWORDS_NO_NUMBA", "") != "1"


def _kmp_scan(text, pattern, out):
    # Knuth-Morris-Pratt, all (overlapping) occurrences.  Writes start
    # positions into `out` and returns the count; at most |text|+|pattern|
    # symbol comparisons per phase.
    m = pattern.shape[0]
    n = text.shape[0]
    fail = np.zeros(m, np.int64)
    k = 0
    for i in range(1, m):
        while k > 0 and pattern[i] != pattern[k]:
            k = fail[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        fail[i] = k
    count = 0
    j = 0
    for i in range(n):
        while j > 0 and text[i] != pattern[j]:
            j = fail[j - 1]
        if text[i] == pattern[j]:
            j += 1
        if j == m:
            out[count] = i - m + 1
            count += 1
            j = fail[j - 1]
    return count


def _mealy_scan(next_state, out_symbol, initial, inp, states, out):
    # Sequential automaton run; states[0] == initial on entry.
    q = initial
    for i in range(inp.shape[0]):
        a = inp[i]
        out[i] = out_symbol[q, a]
        q = next_state[q, a]
        states[i + 1] = q
    return q


def occurrences_numpy(text, pattern):
    """Vectorized candidate-filter scan (fallback path).

    Expected linear for non-degenerate inputs: each position survives the
    filter for symbol j only if the first j symbols already matched.
    """
    n = text.shape[0]
    m = pattern.shape[0]
    if m > n:
        return np.empty(0, np.int64)
    span = n - m + 1
    # The first symbols are matched with whole-text boolean masks: on a
    # binary text about 1/16 of the positions survive four symbols, so the
    # index arrays below stay far smaller than the text.
    head = min(m, 4)
    hit = text[:span] == pattern[0]
    for j in range(1, head):
        hit &= text[j : j + span] == pattern[j]
    cand = np.nonzero(hit)[0]
    for j in range(head, m):
        if cand.size == 0:
            break
        cand = cand[text[cand + j] == pattern[j]]
    return cand.astype(np.int64)


# Pass 1 of the blocked run costs |Q| gathers per symbol, the loop one
# Python-level step per symbol.  On random binary machines and 5*10^5
# symbols (2 vCPU, numpy 2.4) the blocked run took 21 ms at 16 states and
# 74 ms at 64, against 0.30-0.34 s for the loop; the 4096-state delay
# machine of a 12-symbol word took 3.2 s on 2*10^5 symbols, against 0.15 s.
BLOCKED_MAX_STATES = 64


def mealy_run_numpy(next_state, out_symbol, initial, inp):
    """Machine run without numba: blocked for narrow machines, else a loop.

    Returns the states visited (``int32[n + 1]``, starting at ``initial``)
    and the output symbols (``uint8[n]``).
    """
    n = inp.shape[0]
    nq, na = next_state.shape
    if nq > BLOCKED_MAX_STATES:
        states = np.empty(n + 1, np.int32)
        states[0] = initial
        out = np.empty(n, np.uint8)
        _mealy_scan(next_state, out_symbol, initial, inp, states, out)
        return states, out
    # A block of length L costs about five numpy calls per symbol of the
    # block (passes 1 and 2) and the n/L blocks one link step each; the
    # square root balances the two (L = 176 at 5*10^5 symbols).
    length = max(1, math.isqrt(n // 16))
    blocks = -(-n // length)
    size = blocks * length
    text = inp
    if size != n:
        # The padding symbols run through the last block; their states and
        # outputs fall outside the views returned.
        text = np.zeros(size, np.uint8)
        text[:n] = inp
    text = text.reshape(blocks, length)
    # A state q is carried as q * |A|, so that one step is an add of the
    # input symbol and one gather.  The indices are in range by
    # construction; mode="clip" skips the bounds check's buffered copy.
    step = next_state.astype(np.intp).ravel() * na
    emit = out_symbol.ravel()

    # Pass 1: run every block from every state; lanes[q, b] ends as the
    # state (times |A|) that block b ends in when it starts in q.
    lanes = np.repeat(np.arange(nq, dtype=np.intp)[:, None] * na, blocks, axis=1)
    keys = np.empty_like(lanes)
    for j in range(length):
        np.add(lanes, text[:, j], out=keys)
        np.take(step, keys, out=lanes, mode="clip")

    # Link: the real entry state of each block, in block order.
    lanes //= na
    ends = memoryview(lanes)
    entry = []
    q = initial
    for b in range(blocks):
        entry.append(q)
        q = ends[q, b]

    # Pass 2: replay every block from its entry state.
    states = np.empty(size + 1, np.int32)
    states[0] = initial
    out = np.empty(size, np.uint8)
    by_block = states[1:].reshape(blocks, length)
    out_by_block = out.reshape(blocks, length)
    current = np.array(entry, np.intp) * na
    keys = keys[0]
    for j in range(length):
        np.add(current, text[:, j], out=keys)
        np.take(emit, keys, out=out_by_block[:, j], mode="clip")
        np.take(step, keys, out=current, mode="clip")
        by_block[:, j] = current
    states[1:] //= na
    return states[: n + 1], out[:n]


occurrences_numba = None
mealy_run_numba = None

if NUMBA_REQUESTED:
    try:
        from numba import njit
    except ImportError:  # numba is an optional extra
        njit = None
    if njit is not None:
        _kmp_scan_jit = njit(cache=True)(_kmp_scan)
        _mealy_scan_jit = njit(cache=True)(_mealy_scan)

        def occurrences_numba(text, pattern):
            out = np.empty(text.shape[0] + 1, np.int64)
            count = _kmp_scan_jit(text, pattern, out)
            return out[:count].copy()

        def mealy_run_numba(next_state, out_symbol, initial, inp):
            states = np.empty(inp.shape[0] + 1, np.int32)
            states[0] = initial
            out = np.empty(inp.shape[0], np.uint8)
            _mealy_scan_jit(next_state, out_symbol, initial, inp, states, out)
            return states, out


NUMBA_ENABLED = occurrences_numba is not None

if NUMBA_ENABLED:
    find_occurrences = occurrences_numba
    mealy_run = mealy_run_numba
else:
    find_occurrences = occurrences_numpy
    mealy_run = mealy_run_numpy
