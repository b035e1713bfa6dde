import time

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apwords import Alphabet, FiniteWord
from apwords._kernels import find_occurrences
from conftest import naive_occurrences

DIGITS = Alphabet("012")


@st.composite
def scan_cases(draw):
    """A text of up to 300 symbols over 1-3 letters (random, unary or
    periodic) and a pattern of 1-40 symbols: random, or a factor of the
    text, possibly with one symbol changed, so that candidates stay dense
    up to the changed symbol."""
    letters = draw(st.integers(1, 3))
    symbol = st.sampled_from("012"[:letters])
    kind = draw(st.sampled_from(["random", "unary", "periodic"]))
    n = draw(st.integers(0, 300))
    if kind == "random":
        text = "".join(draw(st.lists(symbol, min_size=n, max_size=n)))
    elif kind == "unary":
        text = draw(symbol) * n
    else:
        period = "".join(draw(st.lists(symbol, min_size=1, max_size=6)))
        text = (period * n)[:n]
    m = draw(st.integers(1, 40))
    if m <= n and draw(st.booleans()):
        i = draw(st.integers(0, n - m))
        pattern = [int(c) for c in text[i : i + m]]
        if letters > 1 and draw(st.booleans()):
            j = draw(st.integers(0, m - 1))
            pattern[j] = (pattern[j] + draw(st.integers(1, letters - 1))) % letters
        pattern = "".join(map(str, pattern))
    else:
        pattern = "".join(draw(st.lists(symbol, min_size=m, max_size=m)))
    return text, pattern


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
        x, w = FiniteWord.from_text(DIGITS, pattern), FiniteWord.from_text(DIGITS, text)
        assert starts.tolist() == naive_occurrences(x, w)

    def test_long_unary_pattern_in_bounded_time(self):
        # Every position matches all 1000 symbols: the worst case of a
        # symbol-at-a-time scan, which took 3.4-8 s (2 vCPU, numpy 2.4).
        text, pattern = np.zeros(10**6, np.uint8), np.zeros(1000, np.uint8)
        t0 = time.perf_counter()
        starts = find_occurrences(text, pattern)
        assert time.perf_counter() - t0 < 2.0
        assert starts.size == 999_001
        assert np.array_equal(starts, np.arange(999_001))
