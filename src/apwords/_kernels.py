"""Hot inner loops: occurrence scanning and machine runs.

One implementation per kernel:

* ``find_occurrences``, a vectorized scan that compares up to eight
  symbols at once, as one integer compare of overlapping byte windows, and
* ``mealy_run``, the one run of every machine, Mealy or transducer.  It
  computes the states visited: by the blocked two-pass run of Mytkowicz,
  Musuvathi and Schulte ("Data-Parallel Finite-State Machines", ASPLOS
  2014), vectorized over blocks and states, for machines of at most
  ``BLOCKED_MAX_STATES`` states, and by a sequential loop, in plain Python,
  for wider ones.  The output is then one expansion of the steps' keys
  through the machine's ``EmissionTable``.
"""

import math

import numpy as np

_WINDOW_TYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _windows(a, width):
    """The overlapping ``width``-byte integer windows of a contiguous uint8
    array: window i holds a[i : i + width] (a view; it may be unaligned)."""
    return np.ndarray(
        (a.shape[0] - width + 1,), _WINDOW_TYPES[width], buffer=a, strides=(1,)
    )


def find_occurrences(text, pattern):
    """All (overlapping) occurrence starts of a nonempty ``pattern`` in
    ``text``, ascending, as int64.

    Text and pattern are read as overlapping w-byte integer windows, w the
    largest power of two <= min(m, 8).  The pattern is covered by its
    windows at offsets 0, w, 2w, ... and one last window at m - w, which may
    overlap the one before it, so a start is checked by ceil(m/w) window
    compares and the worst case is O(n * ceil(m/8)) compares: 0^1000 in
    0^(10^6), where every start matches, takes 0.09-0.17 s (2 vCPU,
    numpy 2.4).
    """
    text = np.ascontiguousarray(text, np.uint8)
    pattern = np.ascontiguousarray(pattern, np.uint8)
    n = text.shape[0]
    m = pattern.shape[0]
    if m > n:
        return np.empty(0, np.int64)
    span = n - m + 1
    width = min(8, 1 << (m.bit_length() - 1))
    t = _windows(text, width)
    p = _windows(pattern, width)
    offsets = [*range(0, m - width, width), m - width]
    # A whole-text mask costs the same however few starts survive, a gather
    # costs several times more per start: mask while more than 1/8 of the
    # starts survive, then filter the survivors as an index array.
    hit = t[:span] == p[0]
    k = 1
    while k < len(offsets) and 8 * np.count_nonzero(hit) > span:
        j = offsets[k]
        hit &= t[j : j + span] == p[j]
        k += 1
    cand = np.nonzero(hit)[0]
    for j in offsets[k:]:
        if cand.size == 0:
            break
        cand = cand[t[cand + j] == p[j]]
    return cand.astype(np.int64, copy=False)


# Pass 1 of the blocked run costs |Q| gathers per symbol, the loop one
# Python-level step per symbol.  On random binary machines and 5*10^5
# symbols (2 vCPU, numpy 2.4, states only, best of 5, two rounds) the
# blocked run took 8-11 ms at 2-4 states, 23-26 ms at 16, 40-49 ms at 32
# and 76-89 ms at 64, the loop 46-54 ms at any width.  The 4096-state
# delay machine of a 12-symbol word takes 3.5 s blocked on 2*10^5
# symbols, 0.019 s looped.
BLOCKED_MAX_STATES = 64


def mealy_run(next_state, emissions, initial, inp):
    """Machine run: the states visited, then the words emitted.

    ``emissions`` is an ``EmissionTable`` holding the word emitted on each
    transition under the key ``state * |A| + symbol``.  Returns the states
    visited (``int32[n + 1]``, starting at ``initial``), each step's key
    (``int32[n]``) and the concatenation of the words under those keys
    (``uint8``).
    """
    na = next_state.shape[1]
    states = _run_states(next_state, initial, inp)
    keys = states[:-1] * na + inp
    return states, keys, emissions.expand(keys)


def _run_states(next_state, initial, inp):
    """States visited (``int32[n + 1]``): blocked for narrow machines, else
    a loop."""
    n = inp.shape[0]
    nq, na = next_state.shape
    if nq > BLOCKED_MAX_STATES:
        # Python lists index about four times faster than numpy arrays one
        # element at a time.
        step = next_state.tolist()
        q = int(initial)
        states = [q]
        for a in inp.tolist():
            q = step[q][a]
            states.append(q)
        return np.array(states, np.int32)
    # A block of length L costs about five numpy calls per symbol of the
    # block (passes 1 and 2) and the n/L blocks one link step each; the
    # square root balances the two (L = 176 at 5*10^5 symbols).
    length = max(1, math.isqrt(n // 16))
    blocks = -(-n // length)
    size = blocks * length
    text = inp
    if size != n:
        # The padding symbols run through the last block; their states fall
        # outside the view returned.
        text = np.zeros(size, np.uint8)
        text[:n] = inp
    text = text.reshape(blocks, length)
    # A state q is carried as q * |A|, so that one step is an add of the
    # input symbol and one gather.  The indices are in range by
    # construction; mode="clip" skips the bounds check's buffered copy.
    step = next_state.astype(np.intp).ravel() * na

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
    by_block = states[1:].reshape(blocks, length)
    current = np.array(entry, np.intp) * na
    keys = keys[0]
    for j in range(length):
        np.add(current, text[:, j], out=keys)
        np.take(step, keys, out=current, mode="clip")
        by_block[:, j] = current
    states[1:] //= na
    return states[: n + 1]
