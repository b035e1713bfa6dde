"""One pattern check per scan, and the serialization options that were
dropped: which error a call with more than one fault raises, and what
``parse_word``, ``format_word`` and ``tau_from_table`` do with one argument."""

import inspect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apwords import (
    BINARY,
    Alphabet,
    AlphabetError,
    EmptyPatternError,
    FiniteWord,
    FormatError,
    check_window,
    format_word,
    parse_word,
    recurrence_stability,
    tau_from_table,
)

# Labels as an alphabet accepts them, with some starting with '#'.
LABEL = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=3)
LABELS = st.lists(st.one_of(LABEL, LABEL.map("#".__add__)), min_size=1, max_size=6, unique=True)


class TestPatternCheckedFirst:
    def test_empty_pattern_before_a_window_past_the_word(self):
        with pytest.raises(EmptyPatternError):
            check_window(BINARY.word(""), BINARY.word("0110"), 5)

    def test_foreign_pattern_before_a_window_length_of_zero(self):
        with pytest.raises(AlphabetError):
            check_window(Alphabet("xy").word("x"), BINARY.word("01"), 0)

    def test_empty_required_factor(self):
        with pytest.raises(EmptyPatternError, match="empty word"):
            recurrence_stability(BINARY.word("0110"), 2, required=[BINARY.word("")])

    def test_empty_required_factor_over_another_alphabet(self):
        with pytest.raises(EmptyPatternError):
            recurrence_stability(BINARY.word("0110"), 2, required=[Alphabet("xy").word("")])

    def test_foreign_required_factor(self):
        with pytest.raises(AlphabetError, match="different alphabets"):
            recurrence_stability(BINARY.word("0110"), 2, required=[Alphabet("01x").word("0")])


class TestOneArgument:
    @pytest.mark.parametrize("fn", [parse_word, format_word, tau_from_table])
    def test_takes_one_parameter(self, fn):
        assert len(inspect.signature(fn).parameters) == 1

    def test_no_is_empty(self):
        assert not hasattr(FiniteWord, "is_empty")

    @pytest.mark.parametrize("text", ["", "# note\n"])
    def test_empty_input(self, text):
        with pytest.raises(FormatError, match="empty word input"):
            parse_word(text)

    def test_header_alone_is_the_empty_word(self):
        assert parse_word("alphabet: 0 1\n") == BINARY.word("")

    def test_header_always_written(self):
        assert format_word(BINARY.word("")) == "alphabet: 0 1\n\n"

    def test_rows_past_the_table_are_ten(self):
        tau = tau_from_table([9])
        assert (tau(0), tau(5)) == (9, 10)


class TestFormatWordReadsBack:
    @given(LABELS, st.lists(st.integers(0, 5), max_size=8))
    @example(["#", "a"], [0, 1, 0])
    @example(["a", "#"], [0, 1, 0])
    @example(["lo", "#hi"], [1, 0])
    @settings(max_examples=300, deadline=None)
    def test_round_trip_or_format_error(self, labels, indices):
        a = Alphabet(labels)
        w = FiniteWord(a, [i % len(a) for i in indices])
        try:
            text = format_word(w)
        except FormatError as e:
            assert w[0].startswith("#")
            assert repr(w[0]) in str(e)
        else:
            assert parse_word(text) == w
