"""Hot inner loops: occurrence scanning and machine runs.

One implementation per kernel:

* ``find_occurrences``, a vectorized scan over packed codes (``pack``):
  byte i of the codes holds the symbols at i, i+1, ... at 1, 2, 4 or 8
  bits each, so one aligned byte compare checks up to eight symbols at
  every position.  A long text is scanned one stretch of ``_CHUNK``
  starts at a time, its codes packed (or sliced from given codes) and
  filtered while they are in cache; ``_stretches`` yields each stretch's
  starts, for callers that fold them, and
* ``mealy_run``, the one run of every machine, Mealy or transducer.  It
  computes the states visited by a k-step table walk, for any number of
  states and labels: the chunked run of Mytkowicz, Musuvathi and Schulte
  ("Data-Parallel Finite-State Machines", ASPLOS 2014) with a table of
  chunk transitions.  A machine of few states also takes the paper's
  other half: blocks of chunks run from every state at once, so that the
  Python walk takes one step per block.  The output is then one
  expansion of the steps' keys through the machine's ``EmissionTable``.
"""

from math import isqrt

import numpy as np


class PackedCodes(np.ndarray):
    """The ``uint8`` codes of ``pack``; ``bits`` is the width of one symbol.
    A slice keeps the width."""

    bits = 8

    def __array_finalize__(self, obj):
        self.bits = getattr(obj, "bits", 8)


# Whole-text passes run a chunk of positions at a time, so that no
# temporary is as long as the text and each chunk's temporary is still in
# cache when it is read back: on 10^7 binary symbols (2 vCPU, numpy 2.4)
# this halves the time of ``pack``.  ``find_occurrences`` scans one
# stretch of _CHUNK starts at a time for the same reason.
_CHUNK = 1 << 18


def _width(top):
    """The bits per symbol of codes whose largest symbol is ``top``."""
    return 1 if top < 2 else 2 if top < 4 else 4 if top < 16 else 8


def pack(text, bits=None):
    """Packed codes of a uint8 text: ``codes[i]`` holds ``text[i : i + s]`` at
    b bits per symbol, the first symbol in the lowest bits and zeros past
    the end of the text, b = ``bits`` or else the width of the largest
    symbol (1, 2, 4 or 8), and s = 8 // b.  ``bits`` must hold the
    largest symbol.

    A code depends only on the s symbols from i on, so the codes of a word
    serve every slice of it: ``pack(w)[a:]`` are the codes of ``w[a:b]``
    wherever ``find_occurrences`` reads them.  Built by doubling: the first
    level writes ``text[i] + text[i + 1] * 2^b`` into a fresh buffer (one
    pass fewer than adding to a copy of the text: 10^6 binary symbols take
    0.43 ms against 0.48 ms, 2 vCPU, numpy 2.4), and after the level of
    step d, ``codes[i]`` holds the 2d symbols from i, as
    ``codes[i] + codes[i + d] * 2^(b*d)`` (a uint8 multiply, which numpy
    runs several times faster than a shift); 3 levels for binary text.
    A level runs chunk by chunk in ascending order, so a chunk reads the
    codes after it before they are updated.
    """
    text = np.ascontiguousarray(text, np.uint8)
    n = text.shape[0]
    if bits is None:
        bits = _width(int(np.maximum.reduce(text)) if n else 0)
    codes = text
    if n and bits < 8:
        # The loops run on plain arrays: each slice of a PackedCodes view
        # would call __array_finalize__.  Outputs are passed positionally,
        # as in _stretch_starts.
        codes = np.empty(n, np.uint8)
        codes[n - 1] = text[n - 1]
        for a in range(0, n - 1, _CHUNK):
            c = codes[a : min(a + _CHUNK, n - 1)]
            np.multiply(text[a + 1 : a + 1 + c.size], 1 << bits, c)
            np.add(c, text[a : a + c.size], c)
        if bits < 4:
            scaled = np.empty(min(n, _CHUNK), np.uint8)
        step = 2
        while step * bits < 8:
            for a in range(0, n - step, _CHUNK):
                s = scaled[: min(_CHUNK, n - step - a)]
                c = codes[a : a + s.size]
                np.multiply(codes[a + step : a + step + s.size], 1 << (step * bits), s)
                np.add(c, s, c)
            step *= 2
    codes = codes.view(PackedCodes)
    codes.bits = bits
    return codes


# bits -> translate table from a symbol to its digit in base 2^bits; a
# symbol that does not fit in ``bits`` maps to "/".
_DIGITS = {
    bits: bytes(b"0123456789abcdef"[x] if x >> bits == 0 else 47 for x in range(256))
    for bits in (1, 2, 4)
}


def _pattern_codes(pattern, bits, offsets):
    """The packed codes of ``pattern`` at ``offsets`` (multiples of 8 // bits,
    then one last offset), or None when a symbol is wider than ``bits``.

    The pattern is read as one Python integer at ``bits`` bits per symbol,
    whose little-endian bytes are its codes at 0, s, 2s, ..."""
    raw = pattern.tobytes()
    if bits == 8:
        value = int.from_bytes(raw, "little")
    else:
        digits = raw[::-1].translate(_DIGITS[bits])
        if b"/" in digits:
            return None
        value = int(digits, 1 << bits)
    codes = list(value.to_bytes(len(offsets), "little")[:-1])
    codes.append((value >> (bits * offsets[-1])) & 0xFF)
    return codes


def find_occurrences(text, pattern, packed=None):
    """All (overlapping) occurrence starts of a nonempty ``pattern`` in
    ``text``, ascending, as int64: the concatenation of ``_stretches``,
    whose arguments it takes.  A text of one stretch returns that
    stretch's starts as they are, with no copy.  Callers that reduce the
    starts (a count, a gap, a first or last start) fold over
    ``_stretches`` instead, so that no array of all the starts is built.
    """
    parts = list(_stretches(text, pattern, packed)) or [np.empty(0, np.int64)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _check_order(count):
    """The order in which a start is checked against a pattern's ``count``
    >= 3 codes: the first, the last, then midpoints by halving (0, 4, 2,
    1, 3 for five); one or two codes keep their order.  A start that
    matches a recurring factor the pattern only resembles tends to match
    it at the near end, so the far end rejects it early (Horspool's rule,
    Software: Practice & Experience, 1980).

    For c_4 (6250 symbols, 782 codes) in the family's first 1.5 * 10^6
    symbols, the stretch that holds its 2 hits gathered 87 569 candidates
    front to back with the 1/8 mask, 18 776 in this order and 5 683 with
    the 1/64 mask as well; the next stretch, with no hit, took 234, 11 and
    10 gathers.  Over the scanning ops of the benchmark's seed-1 `scan`
    workload (each op alternated 7 times, medians summed; 2 vCPU, numpy
    2.4), front to back with the 1/8 mask took 356 ms, this order 327,
    the 1/64 mask 333, and both 310.
    """
    order, spans = [0, count - 1], [(0, count - 1)]
    # spans grows while it is read: each split appends its two halves.
    for lo, hi in spans:
        if hi - lo > 1:
            mid = (lo + hi) // 2
            order.append(mid)
            spans += [(lo, mid), (mid, hi)]
    return order


def _stretches(text, pattern, packed=None):
    """The occurrence starts of a nonempty ``pattern`` in ``text``, one
    ascending int64 array per stretch of the scan, in order; nothing when
    ``pattern`` is longer than ``text`` or holds a symbol wider than the
    codes.

    ``packed`` are the codes of ``text`` from ``pack``, or of a word that
    ``text`` is a slice of, sliced at the same start; without them the
    text is packed here, at the width of its largest symbol.  The starts
    are scanned in stretches of max(_CHUNK, m): stretch [a, a + size) reads
    the codes of ``text[a : a + size + m - 1]``, a slice of ``packed`` or
    packed on the spot, so that its codes and its mask are still in cache
    when they are read back and no temporary is as long as the text.  On
    the paper's word at 10^7 symbols, unpacked, a scan for m = 5, 25 and
    125 takes 21-27, 17-19 and 22-23 ms and peaks at 16.0, 1.6 and 0.9 MB
    of numpy memory (tracemalloc), mostly the starts, against 26-27,
    27-31 and 32-34 ms and 20-24 MB for one mask over the whole text.

    With s symbols per code, a pattern shorter than s is one compare of
    masked codes.  A longer one is covered by its codes at offsets 0, s,
    2s, ... and one last code at m - s, which may overlap the one before
    it, so a start is checked by ceil(m/s) aligned byte compares and the
    worst case is O(n * ceil(m/s)) compares: 0^1000 in 0^(10^6), where
    every start matches, takes 25-50 ms at s = 8, and 17^1000 in
    17^(10^6), at s = 1, 0.22-0.24 s (the packing included; all figures
    2 vCPU, numpy 2.4).  The codes are checked in ``_check_order``,
    computed once per call.  A pattern symbol wider than the codes' b bits
    occurs nowhere.
    """
    pattern = np.ascontiguousarray(pattern, np.uint8)
    n = len(text)
    m = pattern.shape[0]
    if m > n:
        return
    if packed is None:
        bits = _width(int(np.maximum.reduce(text)))
    else:
        bits = packed.bits
        codes = packed.view(np.ndarray)
    per = 8 // bits
    offsets = [*range(0, m - per, per), max(m - per, 0)]
    p = _pattern_codes(pattern, bits, offsets)
    if p is None:
        return
    if len(offsets) > 2:
        order = _check_order(len(offsets))
        offsets, p = [offsets[i] for i in order], [p[i] for i in order]
    span = n - m + 1
    step = max(_CHUNK, m)
    low = (1 << (bits * m)) - 1 if m < per else None
    for a in range(0, span, step):
        size = min(step, span - a)
        stop = a + size + m - 1
        if packed is None:
            part = pack(text[a:stop], bits).view(np.ndarray)
        else:
            part = codes[a:stop]
        starts = _stretch_starts(part, size, p, offsets, low)
        if a:
            starts += a
        yield starts


def _stretch_starts(codes, size, p, offsets, low):
    """The starts in [0, size) of the pattern whose codes at ``offsets`` are
    ``p``, checked in that order, ascending, as int64, read from the codes
    of one stretch; ``low`` masks the codes of a pattern shorter than one
    code, and is None for a longer one.  Outputs are passed positionally:
    out= as a keyword costs about 0.5 us a call, which short texts feel."""
    if low is not None:
        hit = codes[:size] & low
        found = hit.view(bool)
        np.equal(hit, p[0], found)
        return found.nonzero()[0].astype(np.int64, copy=False)
    hit = codes[:size] == p[0]
    # A mask over the stretch costs the same however few starts survive, a
    # gather costs several times more per start: mask while more than 1/64
    # of the starts survive, then filter the survivors as an index array.
    # Over the 27 scanning ops of the benchmark's seed-2 `scan` workload
    # (in process, median of 9 rounds, summed; 2 vCPU, numpy 2.4), 1/8,
    # 1/16, 1/32, 1/64, 1/128 and 1/256 took 380, 365, 327, 323, 347 and
    # 429 ms.
    k = 1
    while k < len(offsets) and 64 * np.count_nonzero(hit) > size:
        j = offsets[k]
        np.bitwise_and(hit, codes[j : j + size] == p[k], hit)
        k += 1
    cand = hit.nonzero()[0]
    for j, code in zip(offsets[k:], p[k:]):
        if cand.size == 0:
            break
        cand = cand[codes[j:][cand] == code]
    return cand.astype(np.int64, copy=False)


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


def _stride(n, nq, na):
    """The chunk length k of a run of n symbols through nq states over na
    labels: the largest k >= 1 with nq * na^k <= n/16, so that the k-step
    table costs a small share of the run.  A unary table does not grow
    with k, so na = 1 counts as 2, which caps k at log2(n / (16 nq))."""
    k = 1
    while nq * max(na, 2) ** (k + 1) * 16 <= n:
        k += 1
    return k


# The most states for which _run_states composes blocks of chunks.
_COMPOSE_STATES = 24


def _blocking(chunks, nq):
    """The chunks K per block of the walk over ``chunks`` chunk codes
    through nq states (``_run_states``); K = 1 walks one chunk at a time.

    Composing the blocks' maps costs about nq gathered cells per chunk
    (one add and one gather each), the walk one Python step per chunk,
    which costs about as much as 30 states' cells: on a sweep of 8-96
    states over 2, 3 and 17 labels at 2*10^5 and 10^6 symbols (2 vCPU,
    numpy 2.4), blocks paid up to 28 states and broke even at 28-32.
    They are used up to _COMPOSE_STATES.  Otherwise K balances a replay block's about 2K
    numpy calls (a few us each) against its C/K walk steps (about 150 ns
    each): K = sqrt(C / 32)."""
    return max(1, isqrt(chunks // 32)) if nq <= _COMPOSE_STATES else 1


def _run_states(next_state, initial, inp):
    """States visited (``int32[n + 1]``), by a k-step table walk.

    The input is cut into chunks of k symbols (``_stride``).  A table gives
    the state after each chunk from each state, and the k steps of all
    chunks are replayed at once, one gather per step, ``_CHUNK`` symbols
    at a time so that the replay's strided passes stay in cache.  The state
    each chunk starts in comes from a Python walk through the table.  With
    few states (``_blocking``) the chunks are grouped into blocks of K: K
    gathers build each block's map of every state to the state after the
    block, the walk takes one step per block through those maps, and K - 1
    gathers more give each chunk's entry state from its block's.  On 10^6
    random binary symbols (2 vCPU, numpy 2.4) a 16-state machine takes
    10-16 ms at k = 11 and K = 27, against 13-22 ms walking one chunk at
    a time.
    """
    n = inp.shape[0]
    nq, na = next_state.shape
    k = _stride(n, nq, na)
    chunks = -(-n // k)
    # The padding symbols run through the last chunk; their states fall
    # outside the view returned.
    text = np.zeros((chunks, k), np.uint8)
    text.ravel()[:n] = inp
    # table[q, c]: the state after the chunk of code c (its first symbol
    # most significant) from state q.
    table = next_state
    for _ in range(k - 1):
        table = next_state[table].reshape(nq, -1)
    width = na**k
    per = max(1, _CHUNK // k)
    blocking = _blocking(min(chunks, per), nq)
    if blocking == 1:
        # The walk carries q as q * |A|^k, so that a step is one add and one
        # list index (lists index about four times faster than numpy
        # arrays).  The cells share the object array's nq ints: one pointer
        # per cell.
        walk = (np.arange(nq, dtype=object) * width)[table].ravel().tolist()
    else:
        # flat[q * |A|^k + c]: the state after chunk c from q, times |A|^k,
        # the index of that state's row.
        flat = table.astype(np.intp).ravel() * width
    q = int(initial)
    # The replay carries q as q * |A|, so that a step is one add and one
    # gather; its indices are in range, and mode="clip" skips the check.
    step = next_state.astype(np.intp).ravel() * na
    states = np.empty(chunks * k + 1, np.int32)
    states[0] = initial
    by_chunk = states[1:].reshape(chunks, k)
    for a in range(0, chunks, per):
        part, out = text[a : a + per], by_chunk[a : a + per]
        codes = part[:, 0].astype(np.intp)
        for j in range(1, k):
            codes *= na
            codes += part[:, j]
        if blocking == 1:
            rows, offsets, q = walk, memoryview(codes), q * width
        else:
            # grid[b, j]: the code of chunk j of block b, zeros past the end.
            blocks = -(-codes.shape[0] // blocking)
            grid = np.zeros((blocks, blocking), np.intp)
            grid.ravel()[: codes.shape[0]] = codes
            # maps[b, q]: from q, the cell of the next chunk of block b, and
            # at the end the state after the block.
            maps = np.arange(0, nq * width, width) + grid[:, :1]
            for j in range(1, blocking):
                np.take(flat, maps, None, maps, "clip")
                maps += grid[:, j, None]
            np.take(flat, maps, None, maps, "clip")
            maps //= width
            # The walk carries q as a state, and rows[b * nq + q] is the
            # state after block b from q; ints below 257 are cached, so the
            # list allocates no int objects.
            rows, offsets = maps.ravel().tolist(), range(0, blocks * nq, nq)
        entry = []
        for off in offsets:
            entry.append(q)
            q = rows[q + off]
        current = np.array(entry, np.intp)
        if blocking > 1:
            # Each chunk of a block starts where the one before it ends.
            current *= width
            starts = np.empty((blocks, blocking), np.intp)
            starts[:, 0] = current
            for j in range(1, blocking):
                current += grid[:, j - 1]
                np.take(flat, current, None, current, "clip")
                starts[:, j] = current
            current = starts.ravel()[: codes.shape[0]]
        current //= width // na
        keys = np.empty_like(current)
        for j in range(k):
            np.add(current, part[:, j], out=keys)
            np.take(step, keys, out=current, mode="clip")
            out[:, j] = current
        out //= na
        # The next replay starts where this one's last chunk ends; a walk
        # over padded blocks ran past it.
        q = int(out[-1, -1])
    return states[: n + 1]
