"""Hot inner loops: occurrence scanning and machine runs.

Two implementations live side by side:

* numba ``@njit`` kernels, used when numba is installed (the optional
  ``jit`` extra), and
* a pure numpy / Python fallback, used otherwise or when the environment
  variable ``APWORDS_NO_NUMBA=1`` is set before import.

Both are exercised by the test suite.
"""

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


def mealy_run_python(next_state, out_symbol, initial, inp):
    """Un-jitted machine run (fallback path)."""
    states = np.empty(inp.shape[0] + 1, np.int32)
    states[0] = initial
    out = np.empty(inp.shape[0], np.uint8)
    _mealy_scan(next_state, out_symbol, initial, inp, states, out)
    return states, out


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
    mealy_run = mealy_run_python
