"""Hot inner loops: occurrence scanning and machine runs.

One implementation per kernel:

* ``find_occurrences``, a vectorized scan over packed codes (``pack``):
  byte i of the codes holds the symbols at i, i+1, ... at 1, 2, 4 or 8
  bits each, so one aligned byte compare checks up to eight symbols at
  every position, and
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


class PackedCodes(np.ndarray):
    """The ``uint8`` codes of ``pack``; ``bits`` is the width of one symbol.
    A slice keeps the width."""

    bits = 8

    def __array_finalize__(self, obj):
        self.bits = getattr(obj, "bits", 8)


# Whole-text passes run a chunk of positions at a time, so that no
# temporary is as long as the text and each chunk's temporary is still in
# cache when it is read back: on 10^7 binary symbols (2 vCPU, numpy 2.4)
# this halves the time of ``pack`` and cuts a third off each compare
# that narrows the mask.
_CHUNK = 1 << 18


def pack(text):
    """Packed codes of a uint8 text: ``codes[i]`` holds ``text[i : i + s]`` at
    b bits per symbol, the first symbol in the lowest bits and zeros past
    the end of the text, b the width of the largest symbol (1, 2, 4 or 8)
    and s = 8 // b.

    A code depends only on the s symbols from i on, so the codes of a word
    serve every slice of it: ``pack(w)[a:]`` are the codes of ``w[a:b]``
    wherever ``find_occurrences`` reads them.  Built by doubling: after
    the level of step d, ``codes[i]`` holds the 2d symbols from i, as
    ``codes[i] + codes[i + d] * 2^(b*d)`` (a uint8 multiply, which numpy
    runs several times faster than a shift); 3 levels for binary text.
    A level runs chunk by chunk in ascending order, so a chunk reads the
    codes after it before they are updated.
    """
    text = np.ascontiguousarray(text, np.uint8)
    n = text.shape[0]
    top = int(text.max()) if n else 0
    bits = 1 if top < 2 else 2 if top < 4 else 4 if top < 16 else 8
    codes = text
    if bits < 8:
        # The loops run on the plain array: each slice of a PackedCodes
        # view would call __array_finalize__.
        codes = text.copy()
        scaled = np.empty(min(n, _CHUNK), np.uint8)
        step = 1
        while step * bits < 8:
            for a in range(0, n - step, _CHUNK):
                s = scaled[: min(_CHUNK, n - step - a)]
                np.multiply(codes[a + step : a + step + s.size], 1 << (step * bits), out=s)
                codes[a : a + s.size] += s
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
    ``text``, ascending, as int64.

    ``packed`` are the codes of ``text`` from ``pack``, or of a word that
    ``text`` is a slice of, sliced at the same start; without them the
    text is packed here.  With s symbols per code, a pattern shorter than
    s is one compare of masked codes.  A longer one is covered by its codes
    at offsets 0, s, 2s, ... and one last code at m - s, which may overlap
    the one before it, so a start is checked by ceil(m/s) aligned byte
    compares and the worst case is O(n * ceil(m/s)) compares: 0^1000 in
    0^(10^6), where every start matches, takes 23-32 ms at s = 8, and
    17^1000 in 17^(10^6), at s = 1, 0.17-0.24 s (2 vCPU, numpy 2.4, the
    packing included).  A pattern symbol wider than the codes' b bits
    occurs nowhere.
    """
    if packed is None:
        packed = pack(text)
    bits = packed.bits
    codes = packed.view(np.ndarray)
    pattern = np.ascontiguousarray(pattern, np.uint8)
    n = len(text)
    m = pattern.shape[0]
    per = 8 // bits
    offsets = [*range(0, m - per, per), max(m - per, 0)]
    p = _pattern_codes(pattern, bits, offsets) if m <= n else None
    if p is None:
        return np.empty(0, np.int64)
    span = n - m + 1
    if m < per:
        # Masked and compared in one buffer; no gathers follow, so codes
        # packed by this call are freed before the starts are listed.
        hit = codes[:span] & ((1 << (bits * m)) - 1)
        np.equal(hit, p[0], out=hit.view(bool))
        del packed, codes
        return np.nonzero(hit.view(bool))[0].astype(np.int64, copy=False)
    hit = codes[:span] == p[0]
    # A whole-text mask costs the same however few starts survive, a gather
    # costs several times more per start: mask while more than 1/8 of the
    # starts survive, then filter the survivors as an index array.
    equal = np.empty(min(span, _CHUNK), bool)
    k = 1
    while k < len(offsets) and 8 * np.count_nonzero(hit) > span:
        j = offsets[k]
        for a in range(0, span, _CHUNK):
            e = equal[: min(_CHUNK, span - a)]
            np.equal(codes[j + a : j + a + e.size], p[k], out=e)
            hit[a : a + e.size] &= e
        k += 1
    cand = np.nonzero(hit)[0]
    # Freed before the gathers, whose index arrays can take up n bytes
    # each, so that the codes take the mask's place in memory.
    del hit, equal
    for j, code in zip(offsets[k:], p[k:]):
        if cand.size == 0:
            break
        cand = cand[codes[cand + j] == code]
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
