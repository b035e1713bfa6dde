"""``output_infinite_check`` against its per-symbol definition
(``conftest.naive_output_infinite_check``): periodic, morphic and random
sources over 1-20 labels, images all empty, none empty and mixed, and
emitting symbols placed around the prefix's half."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apwords import Alphabet, FiniteWord, Homomorphism
from apwords.generators import morphic_source, periodic_source
from apwords.machines import output_infinite_check
from conftest import naive_output_infinite_check

A = Alphabet("a")


def image_map(alphabet, lengths):
    """The homomorphism onto ``a`` whose image of symbol i has ``lengths[i]`` symbols."""
    return Homomorphism(alphabet, A, {s: ["a"] * n for s, n in zip(alphabet, lengths)})


@st.composite
def checks(draw):
    k = draw(st.integers(1, 20))
    alphabet = Alphabet([f"s{i}" for i in range(k)])
    symbols = st.integers(0, k - 1)
    budget = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["periodic", "morphic", "random"]))
    if kind == "periodic":
        period = draw(st.lists(symbols, min_size=1, max_size=12))
        source = periodic_source(FiniteWord(alphabet, period))
    elif kind == "random":
        # A period as long as the prefix: the prefix is the drawn word.
        word = draw(st.lists(symbols, min_size=budget, max_size=budget))
        source = periodic_source(FiniteWord(alphabet, word))
    else:
        images = [draw(st.lists(symbols, min_size=1, max_size=3)) for _ in range(k)]
        images[0] = [0, *draw(st.lists(symbols, min_size=1, max_size=3))]
        rules = {s: [alphabet.label(j) for j in img] for s, img in zip(alphabet, images)}
        source = morphic_source(Homomorphism(alphabet, alphabet, rules), alphabet.label(0))
    images = draw(st.sampled_from(["all empty", "none empty", "mixed"]))
    if images == "all empty":
        lengths = [0] * k
    elif images == "none empty":
        lengths = draw(st.lists(st.integers(1, 2), min_size=k, max_size=k))
    else:
        lengths = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=k, max_size=k))
    return image_map(alphabet, lengths), source, budget


@given(checks())
@settings(max_examples=300, deadline=None)
def test_matches_the_per_symbol_definition(case):
    h, source, budget = case
    assert output_infinite_check(h, source, budget) == naive_output_infinite_check(h, source, budget)


def placed(budget, positions):
    """The binary source whose first ``budget`` symbols are 1 at
    ``positions`` and 0 elsewhere (then repeat)."""
    word = [0] * budget
    for i in positions:
        word[i] = 1
    return periodic_source(FiniteWord(Alphabet("01"), word))


# Symbol 1 emits, symbol 0 does not; half = budget // 2.
@pytest.mark.parametrize(
    "budget, positions, expected",
    [
        (1, [], "finite-so-far"),
        (1, [0], "unknown"),  # once, at index half = 0
        (300, [], "finite-so-far"),
        (300, [7], "finite-so-far"),  # once, before the half
        (300, [200], "unknown"),  # once, past the half
        (300, [150], "unknown"),  # once, at index half
        (301, [150], "unknown"),
        (300, [3, 149], "finite-so-far"),  # twice, only before the half
        (300, [3, 150], "infinite-evident"),  # twice, the last at index half
        (301, [149, 150], "infinite-evident"),
        (300, [150, 299], "infinite-evident"),  # twice, both past the half
        (8, list(range(8)), "infinite-evident"),
        (9, list(range(4)), "finite-so-far"),
    ],
)
def test_emitting_symbol_around_the_half(budget, positions, expected):
    h = image_map(Alphabet("01"), [0, 1])
    source = placed(budget, positions)
    assert naive_output_infinite_check(h, source, budget) == expected
    assert output_infinite_check(h, source, budget) == expected


@pytest.mark.parametrize("length, expected", [(0, "finite-so-far"), (1, "infinite-evident")])
@pytest.mark.parametrize("budget", [1, 2, 299])
def test_unary_source(length, expected, budget):
    unary = Alphabet("0")
    h, source = image_map(unary, [length]), periodic_source(FiniteWord(unary, [0]))
    assert output_infinite_check(h, source, budget) == expected
    assert naive_output_infinite_check(h, source, budget) == expected


@pytest.mark.parametrize("budget", [1, 2, 299])
def test_unary_source_over_a_wider_alphabet(budget):
    # Only the silent symbol occurs; the emitting one never does.
    h = image_map(Alphabet("01"), [0, 3])
    source = placed(1, [])
    assert output_infinite_check(h, source, budget) == "finite-so-far"
