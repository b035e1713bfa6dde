"""Emissions given to the dict constructors as FiniteWords, label lists or
both are encoded into one table, and a fault names its own word."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apwords import Alphabet, AlphabetError, FiniteWord, Homomorphism, Transducer
from apwords.words import EmissionTable

OUT = Alphabet(["é", "lo", "ü", "x", "xy"])
INP = Alphabet(["ab", "cd"])


def assert_table(table, words):
    """``table`` is the EmissionTable of ``words`` (lists of indices)."""
    expected = EmissionTable(np.array(w, np.uint8) for w in words)
    assert table.lengths.tolist() == [len(w) for w in words]
    assert np.array_equal(table._padded, expected._padded)
    for k, w in enumerate(words):
        assert table[k].tolist() == w


def given_as(alphabet, indices, form):
    """The emission of ``indices`` as a FiniteWord, a label list or a label tuple."""
    if form == "word":
        return FiniteWord(alphabet, indices)
    labels = [alphabet.label(i) for i in indices]
    return labels if form == "list" else tuple(labels)


emissions = st.lists(
    st.tuples(
        st.lists(st.integers(0, len(OUT) - 1), max_size=6),
        st.sampled_from(["word", "list", "tuple"]),
    ),
    min_size=1,
    max_size=12,
)


@given(emissions)
@settings(max_examples=200, deadline=None)
def test_transducer_table(drawn):
    # One input symbol per key is enough: state i reads "ab" and "cd".
    drawn = drawn + drawn[: len(drawn) % 2]
    states = [f"q{i}" for i in range(len(drawn) // 2)]
    keys = [(q, a) for q in states for a in INP]
    transitions = {
        key: (states[0], given_as(OUT, w, form)) for key, (w, form) in zip(keys, drawn)
    }
    t = Transducer(INP, OUT, states, states[0], transitions)
    assert_table(t._emit, [w for w, _ in drawn])


@given(emissions)
@settings(max_examples=200, deadline=None)
def test_homomorphism_table(drawn):
    source = Alphabet([f"s{i}" for i in range(len(drawn))])
    h = Homomorphism(source, OUT, {s: given_as(OUT, w, form) for s, (w, form) in zip(source, drawn)})
    assert_table(h._images, [w for w, _ in drawn])


def test_mixed_example():
    t = Transducer(
        INP, OUT, ["u", "v"], "u",
        {
            ("u", "ab"): ("v", OUT.word("lo é xy")),
            ("u", "cd"): ("u", ["xy", "x"]),
            ("v", "ab"): ("u", OUT.word("")),
            ("v", "cd"): ("v", []),
        },
    )
    assert_table(t._emit, [[1, 0, 4], [4, 3], [], []])


def test_bad_label_after_a_word_names_its_own_position():
    with pytest.raises(AlphabetError, match="symbol 'y' at position 2 is not in alphabet é lo ü x xy"):
        Transducer(
            INP, OUT, ["u"], "u",
            {("u", "ab"): ("u", OUT.word("lo é xy ü")), ("u", "cd"): ("u", ["x", "xy", "y"])},
        )
    with pytest.raises(AlphabetError, match="symbol 'l' at position 0 is not in alphabet"):
        Homomorphism(
            INP, OUT, {"ab": OUT.word("xy xy xy"), "cd": ("l", "o")},
        )


@pytest.mark.parametrize("other", [Alphabet(["é", "lo"]), Alphabet(["lo", "é", "ü", "x", "xy"])])
def test_word_over_another_alphabet(other):
    with pytest.raises(AlphabetError, match="over wrong alphabet"):
        Transducer(
            INP, OUT, ["u"], "u",
            {("u", "ab"): ("u", ["lo"]), ("u", "cd"): ("u", other.word("lo é"))},
        )
    with pytest.raises(AlphabetError, match="over wrong alphabet"):
        Homomorphism(INP, OUT, {"ab": other.word("é"), "cd": ["x"]})
