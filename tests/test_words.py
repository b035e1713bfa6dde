import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apwords import (
    BINARY,
    Alphabet,
    AlphabetError,
    BoundsError,
    EmptyPatternError,
    FiniteWord,
    FormatError,
    Segment,
    bar,
    concat,
    format_word,
    occurrences,
    parse_word,
    segment,
)
from apwords.words import EmissionTable, render_starts, render_symbols
from conftest import bword, naive_occurrences

A2 = "1001101100011001001110011"
# Every one-character ASCII label an alphabet accepts, non-printing ones included.
ASCII_LABELS = tuple(c for c in map(chr, range(128)) if not c.isspace())
# Values where a start's digit count or its integer width changes.
EDGE_STARTS = (0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 10**8 + 1,
               2**32 - 1, 2**32, 2**32 + 1, 10**12)


@st.composite
def progressions(draw):
    """Printable one-character ASCII labels whose code points are c0 + d·i."""
    n = draw(st.integers(1, 20))
    reach = 93 // max(n - 1, 1)  # the code points stay within 33..126
    d = draw(st.integers(-reach, reach).filter(bool))
    span = d * (n - 1)
    c0 = draw(st.integers(33 - min(span, 0), 126 - max(span, 0)))
    return [chr(c0 + d * i) for i in range(n)]


class TestAlphabet:
    def test_basic(self):
        a = Alphabet(("x", "y", "z"))
        assert len(a) == 3
        assert a.index("y") == 1
        assert a.label(2) == "z"
        assert list(a) == ["x", "y", "z"]

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(AlphabetError):
            Alphabet(("a", "a"))
        with pytest.raises(AlphabetError):
            Alphabet(())
        with pytest.raises(AlphabetError):
            Alphabet(("a", "b c"))

    def test_order_is_observable(self):
        assert Alphabet("01") != Alphabet("10")

    def test_unknown_symbol(self):
        with pytest.raises(AlphabetError):
            BINARY.index("2")


class TestFiniteWord:
    def test_empty_word_is_identity(self):
        empty = BINARY.word("")
        w = bword("10011")
        assert len(empty) == 0
        assert concat(empty, w) == w
        assert concat(w, empty) == w

    def test_round_trip(self):
        w = bword("10011")
        assert w.to_text() == "10011"
        assert len(w) == 5
        assert w[0] == "1"
        assert w[1:3].to_text() == "00"

    def test_multichar_labels(self):
        a = Alphabet(("lo", "hi"))
        w = FiniteWord.from_text(a, "lo hi hi")
        assert w.to_text() == "lo hi hi"
        assert len(w) == 3

    @given(
        st.one_of(
            st.lists(
                st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=4),
                min_size=1,
                max_size=8,
                unique=True,
            ),
            st.lists(st.sampled_from(ASCII_LABELS), min_size=1, unique=True),
            progressions(),
        ),
        st.lists(st.integers(0, 255), max_size=200),
        st.sampled_from(["uint8", "int64", "strided"]),
    )
    @example(list(ASCII_LABELS), list(range(len(ASCII_LABELS))), "uint8")
    @example(["\x01", "\x7f", "\x00"], [1, 0, 2, 1], "uint8")
    @example(["ab", "c", "de"], [0, 1, 2, 2, 0], "uint8")
    @example(["é", "ü"], [1, 0, 1], "uint8")  # one character each, but not ASCII
    @example(["日本", "x", "\udcff"], [2, 0, 1, 2], "uint8")  # a lone surrogate passes through
    @example(["lo", "hi"], [], "uint8")
    @example(["0", "1"], [1, 0, 0, 1], "uint8")
    # Code points c0 + d·i, rendered by arithmetic.
    @example(list("0123456789"), [9, 0, 5, 3, 8, 1], "uint8")
    @example(list("abcde"), [4, 4, 0, 2, 1, 3], "strided")
    @example(["1", "0"], [0, 1, 1, 0, 1], "uint8")  # descending
    @example(["\x7f", "\x00"], [1, 0, 0, 1], "strided")  # d = -127
    @example(["z"], [0, 0, 0], "uint8")  # one label
    @example(["0", "1"], [1, 0, 0, 1, 1], "int64")  # as the delay machine's digits
    @example(list("xqz"), [2, 0, 1, 1, 2], "int64")  # no progression: token table
    @settings(max_examples=200, deadline=None)
    def test_render_matches_join(self, labels, picks, layout):
        a = Alphabet(labels)
        data = np.array([p % len(labels) for p in picks], np.uint8)
        sep = "" if a.single_char else " "
        expected = sep.join(labels[i] for i in data)

        def laid_out(arr):
            if layout == "int64":
                return arr.astype(np.int64)
            return np.repeat(arr, 2)[::2] if layout == "strided" else arr

        assert render_symbols(a, laid_out(data)) == expected
        assert FiniteWord(a, data).to_text() == expected
        assert np.array_equal(FiniteWord.from_text(a, expected).data, data)
        if data.size and len(labels) < 256:
            # A symbol past the alphabet raises on every rendering path.
            bad = data.copy()
            bad[len(bad) // 2] = len(labels) + picks[0] % (256 - len(labels))
            with pytest.raises(AlphabetError, match="out of range"):
                render_symbols(a, laid_out(bad))

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(EDGE_STARTS),
                st.integers(0, 20),
                st.integers(0, 10**12),
            ),
            unique=True,
            max_size=60,
        )
    )
    @example([])
    @example([0])
    @example([10**12])
    @example(list(EDGE_STARTS))
    @settings(max_examples=300, deadline=None)
    def test_render_starts_matches_join(self, values):
        v = np.array(sorted(values), np.int64)
        assert render_starts(v) == " ".join(map(str, v.tolist()))

    @pytest.mark.parametrize("labels, bad", [("01", "x"), ("01", "é"), (("lo", "hi"), "mid")])
    @pytest.mark.parametrize("pos", [0, 2, 4])
    def test_unknown_symbol_named_with_position(self, labels, bad, pos):
        a = Alphabet(labels)
        symbols = [a.label(i % 2) for i in range(5)]
        symbols[pos] = bad
        text = ("" if a.single_char else " ").join(symbols)
        message = f"symbol {bad!r} at position {pos} is not in alphabet {' '.join(a.labels)}"
        with pytest.raises(AlphabetError) as err:
            FiniteWord.from_text(a, text)
        assert str(err.value) == message
        with pytest.raises(FormatError, match=message):
            parse_word(f"alphabet: {' '.join(a.labels)}\n{text}\n")

    def test_immutable(self):
        w = bword("101")
        with pytest.raises(ValueError):
            w.data[0] = 0


class TestBar:
    def test_empty(self):
        assert bar(BINARY.word("")) == BINARY.word("")

    def test_a1(self):
        assert bar(bword("10011")).to_text() == "01100"

    def test_involution_on_a2(self):
        w = bword(A2)
        assert bar(bar(w)) == w

    def test_requires_binary(self):
        w = Alphabet("abc").word("abc")
        with pytest.raises(AlphabetError):
            bar(w)

    @given(st.text(alphabet="01", min_size=0, max_size=200))
    def test_involution_and_length(self, text):
        w = bword(text)
        assert len(bar(w)) == len(w)
        assert bar(bar(w)) == w

    def test_large_word(self):
        rng = np.random.default_rng(0)
        w = FiniteWord(BINARY, rng.integers(0, 2, 100_000))
        assert bar(bar(w)) == w
        assert len(bar(w)) == len(w)


class TestSegment:
    def test_validation(self):
        with pytest.raises(BoundsError):
            Segment(3, 2)
        with pytest.raises(BoundsError):
            Segment(-1, 2)
        assert Segment(2, 5).length == 4

    def test_finite_word(self):
        w = Alphabet("abc").word("abc")
        assert segment(w, Segment(1, 2)).to_text() == "bc"

    def test_out_of_range(self):
        with pytest.raises(BoundsError):
            segment(bword("101"), Segment(1, 3))

    def test_paper_source(self, family):
        src = family.source()
        assert segment(src, Segment(0, 0)).to_text() == "1"
        assert segment(src, Segment(10, 14)).to_text() == "10011"

    def test_split_concat(self):
        w = bword("1001101100")
        for i, j, k in [(0, 3, 9), (2, 2, 5), (1, 7, 8)]:
            whole = segment(w, Segment(i, k))
            left = segment(w, Segment(i, j))
            right = segment(w, Segment(j + 1, k))
            assert whole == concat(left, right)
            assert len(whole) == k - i + 1


class TestOccurrences:
    def test_a1a1(self):
        starts = occurrences(bword("10011"), bword("1001110011"))
        assert starts.tolist() == [0, 5]

    def test_a1_absent_in_complement_pair(self):
        # Exhaustive oracle agrees: bar(a_1)bar(a_1) has no a_1.
        x, w = bword("10011"), bword("0110001100")
        assert naive_occurrences(x, w) == []
        assert occurrences(x, w).tolist() == []

    def test_overlapping(self):
        a = Alphabet("ab")
        starts = occurrences(a.word("aa"), a.word("aaaa"))
        assert starts.tolist() == [0, 1, 2]

    def test_empty_pattern_rejected(self):
        with pytest.raises(EmptyPatternError):
            occurrences(BINARY.word(""), bword("1"))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetError):
            occurrences(Alphabet("ab").word("a"), bword("101"))

    def test_exhaustive_small_words(self):
        # All binary words up to length 10, all patterns up to length 3.
        for n in range(1, 11):
            for bits in range(2**n):
                w = FiniteWord(
                    BINARY, [(bits >> i) & 1 for i in range(n)]
                )
                for m in range(1, 4):
                    for pbits in range(2**m):
                        x = FiniteWord(
                            BINARY, [(pbits >> i) & 1 for i in range(m)]
                        )
                        assert occurrences(x, w).tolist() == naive_occurrences(x, w)

    @given(
        st.text(alphabet="01", min_size=1, max_size=64),
        st.text(alphabet="01", min_size=1, max_size=6),
    )
    @example("0" * 64, "00000")  # unary: every position survives the mask filter
    @example("0110" * 16, "01101")  # periodic: every fourth position survives it
    @settings(max_examples=300)
    def test_matches_naive_randomized(self, wtext, xtext):
        w, x = bword(wtext), bword(xtext)
        assert occurrences(x, w).tolist() == naive_occurrences(x, w)


class TestEmissionTable:
    # Longer than the cells of one gather block, so each block holds one key.
    LONG = (np.arange(EmissionTable.BLOCK_CELLS + 3) % 7).tolist()

    @given(
        st.lists(st.lists(st.integers(0, 255), max_size=5), min_size=1, max_size=6),
        st.lists(st.integers(0, 10**6), max_size=300),
        st.booleans(),
    )
    @example([[1, 2], [3]], [], False)  # no keys
    @example([[], []], [0, 1, 1, 0], False)  # every emission empty
    @example([[], [5, 6, 7]], [2, 0, 1, 2, 1], True)  # several gather blocks
    # Uniform tables: every row one length, so no cell is masked out.
    @example([[0], [1], [2]], [2, 0, 1, 1], False)
    @example([[0, 1], [1, 0]], [0, 1, 1, 0], False)
    @example([[0, 0, 0], [1, 0, 1]], [1, 1, 0], False)
    @example([list(range(9)), [8] * 9], [0, 1, 0], False)
    @example([[7, 8, 9]], [0, 0, 0], False)  # one row
    @example([LONG], [0, 0, 0], False)  # one key per gather block
    @example([LONG, LONG[::-1]], [1, 0, 1], False)
    @settings(max_examples=200, deadline=None)
    def test_expand_matches_concatenation(self, rows, picks, with_long):
        if with_long:
            # Few picks, so that the long word is expanded only a few times.
            rows, picks = [*rows, self.LONG], picks[:20]
        words = [np.array(r, np.uint8) for r in rows]
        keys = np.array([p % len(words) for p in picks], np.int64)
        table = EmissionTable(words)
        out = table.expand(keys)
        assert out.dtype == np.uint8
        assert np.array_equal(
            out, np.concatenate([np.empty(0, np.uint8), *(words[k] for k in keys)])
        )
        assert table.lengths.tolist() == [w.shape[0] for w in words]
        for k, w in enumerate(words):
            assert np.array_equal(table[k], w)

    @pytest.mark.parametrize("width", range(10))
    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.intp])
    def test_expand_at_every_width(self, width, uniform, dtype):
        # Rows of 1, 2, 4 and 8 bytes gather as native integers, and rows
        # with padding are padded up to those widths.
        rng = np.random.default_rng(width)
        lengths = [width] * 4 if uniform else [0, width, *rng.integers(0, width + 1, 4)]
        words = [rng.integers(0, 256, m).astype(np.uint8) for m in lengths]
        keys = rng.integers(0, len(words), 1000).astype(dtype)
        table = EmissionTable(words)
        out = table.expand(keys)
        assert out.dtype == np.uint8
        assert np.array_equal(
            out, np.concatenate([np.empty(0, np.uint8), *(words[k] for k in keys)])
        )
        # A uniform table has no padding to select away.
        assert (table._cells is None) == (uniform or width == 0)

    @pytest.mark.parametrize("width", range(17))
    @pytest.mark.parametrize("uniform", [True, False])
    def test_expand_across_block_edges(self, monkeypatch, width, uniform):
        # Blocks of a few keys: rows of 1, 2, 4 and 8 bytes gather as
        # native integers and rows of 9-16 bytes as np.void items; the
        # padded tables hold empty words.  Key counts fall on either side
        # of the first three block edges.
        monkeypatch.setattr(EmissionTable, "BLOCK_CELLS", 48)
        rng = np.random.default_rng(width)
        lengths = [width] * 5 if uniform else [0, width, 0, *rng.integers(0, width + 1, 3)]
        words = [rng.integers(0, 256, m).astype(np.uint8) for m in lengths]
        table = EmissionTable(words)
        block = 48 // table._rows.itemsize if width else 1
        for n in [j * block + d for j in (1, 2, 3) for d in (-1, 0, 1)]:
            picks = rng.integers(0, len(words), n)
            want = np.concatenate([np.empty(0, np.uint8), *(words[k] for k in picks)])
            keys = [picks.astype(dtype) for dtype in (np.uint8, np.uint16, np.int32, np.intp)]
            for dtype in (np.int32, np.intp):
                spread = np.zeros(2 * n, dtype)
                spread[::2] = picks
                keys.append(spread[::2])  # a strided view
            for k in keys:
                out = table.expand(k)
                assert out.dtype == np.uint8
                assert np.array_equal(out, want), (n, k.dtype, k.strides)

    def test_expand_builds_no_index_per_cell(self):
        # A width-3 transducer table: rows and mask gather at 4 bytes a key
        # each, and the output is 1.5 bytes a key.  An intp index of the
        # kept cells (np.compress) would add 12 bytes a key, an intp copy of
        # int32 keys (take) 8.
        rng = np.random.default_rng(0)
        words = [rng.integers(0, 2, m).astype(np.uint8) for m in (0, 0, 1, 1, 2, 2, 3, 3)]
        table = EmissionTable(words)
        keys = rng.integers(0, len(words), 200_000).astype(np.int32)
        tracemalloc.start()
        try:
            out = table.expand(keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.size == table.lengths[keys].sum()
        assert peak < 11 * keys.size


class TestConcat:
    def test_examples(self):
        assert concat(BINARY.word(""), bword("1")).to_text() == "1"
        assert concat(bword("10011"), bword("01100")).to_text() == "1001101100"
        a = Alphabet("ab")
        assert concat(a.word("a"), a.word("b")).to_text() == "ab"

    def test_prefix_of_a2(self):
        assert A2.startswith("1001101100")

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetError):
            concat(bword("1"), Alphabet("ab").word("a"))


class TestSerialization:
    def test_header_round_trip(self):
        w = bword("10011")
        text = format_word(w)
        assert text == "alphabet: 0 1\n10011\n"
        assert parse_word(text) == w

    def test_multichar_round_trip(self):
        a = Alphabet(("lo", "hi"))
        w = FiniteWord.from_text(a, "hi lo hi")
        assert parse_word(format_word(w)) == w

    def test_inferred_alphabet(self):
        w = parse_word("0110")
        assert w.alphabet == BINARY
        assert w.to_text() == "0110"

    @pytest.mark.parametrize(
        "text", ["0101\n0101", "0101\n0101\n", "alphabet: 0 1\n0101\n0101\n"]
    )
    def test_wrapped_word_lines_concatenate(self, text):
        assert parse_word(text) == bword("01010101")

    def test_wrapped_multichar_word(self):
        a = Alphabet(("lo", "hi"))
        assert parse_word("alphabet: lo hi\nhi lo\nhi\n") == a.word("hi lo hi")

    @pytest.mark.parametrize("text", ["0é0日", "0 é 0 日", "alphabet: 0 é 日\n0é\n0日\n"])
    def test_one_character_labels_beyond_ascii(self, text):
        # An unspaced word is read one character per symbol, as in ASCII.
        assert parse_word(text) == Alphabet(("0", "é", "日")).word("0 é 0 日")

    def test_whitespace_symbol_is_format_error(self):
        with pytest.raises(FormatError):
            parse_word("01\t10")
