"""Symbol indices are checked before they are cast to uint8: a value
outside 0..|A|-1 raises AlphabetError, and data that is not a
one-dimensional array of integers or bools raises ValueError."""

import numpy as np
import pytest

from apwords import BINARY, Alphabet, AlphabetError, FiniteWord
from apwords.words import render_symbols


@pytest.mark.parametrize(
    "data",
    [np.array([256, 257, -255]), [256], [-1], np.array([2], np.uint16), np.array([-256, 1])],
)
def test_out_of_range_indices_raise(data):
    with pytest.raises(AlphabetError, match="out of range"):
        FiniteWord(BINARY, data)


@pytest.mark.parametrize("data", [[1.7], np.array([0.0, 1.0]), [[0, 1]], ["1"], 1])
def test_non_integer_data_raises(data):
    with pytest.raises(ValueError, match="one-dimensional"):
        FiniteWord(BINARY, data)


@pytest.mark.parametrize("alphabet", [BINARY, Alphabet("xqz"), Alphabet(["ab", "c"])])
@pytest.mark.parametrize("data", [np.array([256]), np.array([259]), np.array([-1])])
def test_render_checks_before_the_cast(alphabet, data):
    with pytest.raises(AlphabetError, match="out of range"):
        render_symbols(alphabet, data)


@pytest.mark.parametrize(
    "data, text",
    [
        (np.array([1, 0, 1], np.int64), "101"),
        (np.array([True, False, True]), "101"),
        (np.array([1, 0], np.uint64), "10"),
        (np.array([0, 1, 1], np.int8), "011"),
        ([], ""),
    ],
)
def test_in_range_data_builds(data, text):
    w = FiniteWord(BINARY, data)
    assert w.to_text() == text
    assert w.data.dtype == np.uint8
    assert render_symbols(BINARY, data) == text
