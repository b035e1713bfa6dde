import time
import tracemalloc
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apwords import Alphabet, FiniteWord, _kernels
from apwords._kernels import find_occurrences, pack
from conftest import naive_occurrences

SYMBOLS = Alphabet(str(i) for i in range(256))


@st.composite
def scan_cases(draw):
    """A text of up to 300 symbols over 1, 2, 3, 4, 5, 16, 17 or 256 letters
    (random, unary or periodic), so that its largest symbol needs 1, 2, 4
    or 8 bits, and a pattern of 1-40 symbols: random, or a factor of the
    text, possibly with one symbol changed, so that candidates stay dense
    up to the changed symbol.  Both are lists of symbol indices."""
    letters = draw(st.sampled_from([1, 2, 3, 4, 5, 16, 17, 256]))
    symbol = st.integers(0, letters - 1)
    kind = draw(st.sampled_from(["random", "unary", "periodic"]))
    n = draw(st.integers(0, 300))
    if kind == "random":
        text = draw(st.lists(symbol, min_size=n, max_size=n))
    elif kind == "unary":
        text = [draw(symbol)] * n
    else:
        period = draw(st.lists(symbol, min_size=1, max_size=6))
        text = (period * n)[:n]
    m = draw(st.integers(1, 40))
    if m <= n and draw(st.booleans()):
        i = draw(st.integers(0, n - m))
        pattern = text[i : i + m]
        if letters > 1 and draw(st.booleans()):
            j = draw(st.integers(0, m - 1))
            pattern[j] = (pattern[j] + draw(st.integers(1, letters - 1))) % letters
    else:
        pattern = draw(st.lists(symbol, min_size=m, max_size=m))
    return text, pattern


@st.composite
def stretch_cases(draw):
    """A stretch length C (patched into ``_kernels._CHUNK``), a word w and a
    slice start a, such that the text w[a : a + n] has n = j*C - 1, j*C or
    j*C + 1 symbols (j = 1..4), and a pattern of up to 3C symbols, so that
    scans cross stretch edges and patterns outgrow a stretch.

    The text is binary (random, unary, periodic, or zeros with ones only
    near both ends, so that the stretches between hold no start), with
    possibly one wide symbol (2-255) among its last C/2 symbols: then every
    earlier stretch must be read at the whole text's width.  The pattern is
    a factor of the text, possibly with one symbol changed, or random."""
    chunk = draw(st.sampled_from([8, 13, 32, 64]))
    n = draw(st.integers(1, 4)) * chunk + draw(st.sampled_from([-1, 0, 1]))
    bit = st.integers(0, 1)
    kind = draw(st.sampled_from(["random", "unary", "periodic", "ends"]))
    if kind == "random":
        text = draw(st.lists(bit, min_size=n, max_size=n))
    elif kind == "unary":
        text = [draw(bit)] * n
    elif kind == "periodic":
        period = draw(st.lists(bit, min_size=1, max_size=6))
        text = (period * n)[:n]
    else:
        text = [0] * n
        for i in draw(st.lists(st.integers(0, 3), max_size=3)):
            text[min(i, n - 1)] = text[max(n - 1 - i, 0)] = 1
    wide = draw(st.sampled_from([None, 2, 3, 4, 15, 16, 17, 255]))
    if wide is not None:
        text[draw(st.integers(max(n - chunk // 2, 0), n - 1))] = wide
    m = draw(st.integers(1, min(n, 3 * chunk)))
    if draw(st.integers(0, 3)):
        i = draw(st.integers(0, n - m))
        pattern = text[i : i + m]
        if draw(st.booleans()):
            j = draw(st.integers(0, m - 1))
            pattern[j] = draw(st.sampled_from([0, 1, 2, 16]))
    else:
        pattern = draw(st.lists(bit, min_size=m, max_size=m))
    head = draw(st.lists(bit, max_size=chunk))
    tail = draw(st.lists(st.sampled_from([0, 1, 255]), max_size=8))
    return chunk, head + text + tail, len(head), n, pattern


def _word(symbols):
    return FiniteWord(SYMBOLS, [int(c) for c in symbols])


def _array(symbols, offset, readonly):
    """The symbols as uint8, placed at `offset` in a larger zeroed buffer,
    so that a read outside the array can show as a wrong start."""
    buf = np.zeros(offset + len(symbols) + 3, np.uint8)
    arr = buf[offset : offset + len(symbols)]
    arr[:] = [int(c) for c in symbols]
    if readonly:
        arr.setflags(write=False)
    return arr


class TestFindOccurrences:
    # The examples cover every window width (m = 1, 2-3, 4-7, 8 and more),
    # a last window that overlaps the one before it (m = 3, 7, 9, 15, 17), a
    # mismatch in a middle window of a unary text (m = 17), m = n and m > n.
    @given(scan_cases(), st.integers(0, 7), st.booleans())
    @example(("0" * 40, "0"), 0, False)
    @example(("01" * 20, "01"), 1, False)
    @example(("0" * 30, "001"), 3, True)
    @example(("0110" * 10, "0110"), 5, False)
    @example(("0" * 40, "0000001"), 7, False)
    @example(("0" * 40, "0" * 8), 2, True)
    @example(("0" * 40, "0" * 8 + "1"), 1, False)
    @example(("0" * 40, "0" * 14 + "2"), 6, False)
    @example(("0" * 40, "0" * 16), 0, True)
    @example(("0" * 40, "0" * 8 + "1" + "0" * 8), 4, False)
    @example(("0" * 40, "0" * 16 + "1"), 4, False)
    @example(("012" * 5, "012" * 5), 6, False)
    @example(("01", "011"), 0, False)
    @settings(max_examples=400)
    def test_matches_naive(self, case, offset, readonly):
        text, pattern = case
        t = _array(text, offset, readonly)
        p = _array(pattern, offset, readonly)
        starts = find_occurrences(t, p)
        assert starts.dtype == np.int64
        assert np.all(np.diff(starts) > 0)
        assert starts.tolist() == naive_occurrences(_word(pattern), _word(text))

    @given(scan_cases(), st.integers(0, 300), st.integers(0, 300))
    @example(([4] * 10 + [0, 1, 2, 3] * 10, [1, 2, 3, 0, 1]), 10, 40)
    @example(([16, 1, 0, 1] * 10, [1, 0, 1]), 3, 30)
    @settings(max_examples=300)
    def test_slice_reads_the_words_codes(self, case, a, size):
        # The codes of a word serve each of its slices, also when the slice
        # alone would pack narrower and when codes past its end hold
        # symbols of the word.  The slice's own head is a pattern that
        # occurs in it.
        text, pattern = case
        a = min(a, len(text))
        b = a + min(size, len(text) - a)
        word = _array(text, 0, False)
        codes = pack(word)
        for x in (pattern, text[a : a + len(pattern)] or pattern):
            p = _array(x, 0, False)
            starts = find_occurrences(word[a:b], p, packed=codes[a:])
            assert starts.dtype == np.int64
            assert starts.tolist() == find_occurrences(word[a:b], p).tolist()
            assert starts.tolist() == naive_occurrences(_word(x), _word(text[a:b]))

    @given(scan_cases(), st.sampled_from([1, 3, 8, 64]))
    @settings(max_examples=200)
    def test_chunk_edges(self, case, chunk):
        # Whole-text passes run in chunks of _CHUNK positions; tiny chunks
        # put chunk edges inside these short texts.
        text, pattern = case
        with patch.object(_kernels, "_CHUNK", chunk):
            starts = find_occurrences(_array(text, 0, False), _array(pattern, 0, False))
        assert starts.tolist() == naive_occurrences(_word(pattern), _word(text))

    @given(scan_cases(), st.sampled_from([1, 3, _kernels._CHUNK]))
    @settings(max_examples=150)
    def test_pack_matches_definition(self, case, chunk):
        text = case[0]
        with patch.object(_kernels, "_CHUNK", chunk):
            codes = pack(_array(text, 1, True))
        top = max(text, default=0)
        bits = 1 if top < 2 else 2 if top < 4 else 4 if top < 16 else 8
        padded = list(text) + [0] * 7
        expected = [
            sum(padded[i + q] << (bits * q) for q in range(8 // bits))
            for i in range(len(text))
        ]
        assert codes.dtype == np.uint8 and codes.bits == bits
        assert codes.tolist() == expected

    @given(stretch_cases())
    @example((8, [0] * 7 + [1] + [0] * 16 + [1], 0, 25, [1]))
    @example((8, [0] * 16, 0, 16, [0] * 9))
    @example((8, [0] * 23 + [16], 0, 24, [0, 16]))
    @example((13, [1] + [0, 1] * 20 + [255], 1, 40, [0, 1] * 3))
    # Three codes, the first two those of a recurring factor, the last not.
    @example((13, [0, 1] * 20, 0, 40, [0, 1] * 8 + [1]))
    @settings(max_examples=300, deadline=None)
    def test_stretches_match_naive(self, case):
        # Scans of many short stretches: with and without the word's codes,
        # also when those codes are a slice of a longer word's.
        chunk, word, a, n, pattern = case
        w = _array(word, 0, False)
        text, p = w[a : a + n], _array(pattern, 0, False)
        want = naive_occurrences(_word(pattern), _word(word[a : a + n]))
        with patch.object(_kernels, "_CHUNK", chunk):
            for starts in (
                find_occurrences(text, p),
                find_occurrences(text, p, packed=pack(w)[a:]),
                find_occurrences(text, p, packed=pack(text)),
            ):
                assert starts.dtype == np.int64
                assert starts.tolist() == want

    def test_scan_memory_is_bounded_by_the_stretch(self):
        # Without codes, a text of 8 stretches is packed and filtered one
        # stretch at a time, so the scan's peak is a few stretches' worth,
        # where codes and a mask as long as the text would take about 16.
        chunk = _kernels._CHUNK
        text = np.zeros(8 * chunk, np.uint8)
        text[[5, 4 * chunk, 8 * chunk - 7]] = 1
        for pattern, count in (([1], 3), ([0, 1, 0], 3), ([0] * 6 + [1] + [0] * 3, 2)):
            tracemalloc.start()
            try:
                starts = find_occurrences(text, np.array(pattern, np.uint8))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert starts.size == count
            assert peak < 5 * chunk

    def test_long_unary_pattern_in_bounded_time(self):
        # Every position matches all 1000 symbols: the worst case of a
        # symbol-at-a-time scan, which took 3.4-8 s (2 vCPU, numpy 2.4).
        text, pattern = np.zeros(10**6, np.uint8), np.zeros(1000, np.uint8)
        t0 = time.perf_counter()
        starts = find_occurrences(text, pattern)
        assert time.perf_counter() - t0 < 2.0
        assert starts.size == 999_001
        assert np.array_equal(starts, np.arange(999_001))
