"""Emissions given to the dict constructors as FiniteWords, label lists or
both are encoded into one table, and a fault names its own word.  A
definition file's emission is split into labels once, and a symbol no
label matches is named with its position and line for every alphabet."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apwords import (
    BINARY,
    Alphabet,
    AlphabetError,
    FiniteWord,
    FormatError,
    Homomorphism,
    MealyMachine,
    Transducer,
    decompose_transducer,
    delay_prepend_automaton,
    parse_homomorphism,
    parse_machine,
    run_transducer,
)
from apwords import machines
from apwords.generators import load_morphism_rules
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


LOXY_MACHINE = (
    "input: 0 1\noutput: lo xy\nstates: s\ninitial: s\n"
    "s 0 -> s loxy\n# a comment line\ns 1 -> s lox\n"
)
LOXY_HOMOMORPHISM = "source: a b\ntarget: lo xy\na -> xylo\nb -> xyl\n"


@pytest.mark.parametrize(
    "parse, text, symbol, position, line",
    [
        (parse_machine, LOXY_MACHINE, "x", 1, 7),
        (parse_machine, LOXY_MACHINE.replace("lox\n", "-xy\n"), "-", 0, 7),
        (parse_homomorphism, LOXY_HOMOMORPHISM, "l", 1, 4),
        (parse_homomorphism, LOXY_HOMOMORPHISM.replace("xylo", "q"), "q", 0, 3),
    ],
)
def test_unsplittable_emission_names_symbol_position_and_line(parse, text, symbol, position, line):
    with pytest.raises(FormatError) as err:
        parse(text)
    assert str(err.value) == f"symbol {symbol!r} at position {position} is not in alphabet lo xy"
    assert err.value.line == line


def test_one_character_labels_keep_their_message(tmp_path):
    with pytest.raises(FormatError) as err:
        parse_machine("input: 0 1\noutput: 0 1\nstates: s\ninitial: s\ns 0 -> s 0\ns 1 -> s 012\n")
    assert (str(err.value), err.value.line) == ("symbol '2' at position 2 is not in alphabet 0 1", 6)
    (tmp_path / "r.rules").write_text("0 -> 01\n1 -> 1x\n")
    with pytest.raises(FormatError) as err:
        load_morphism_rules(tmp_path / "r.rules")
    assert (str(err.value), err.value.line) == ("symbol 'x' at position 1 is not in alphabet 0 1", 2)


def test_split_matches_longest_label_first():
    m = parse_machine(
        "input: 0\noutput: a ab b aab\nstates: s\ninitial: s\ns 0 -> s aabbab\n"
    )
    assert m._emit[0].tolist() == [3, 2, 1]  # aab b ab


def test_mealy_dict_fault_names_position_in_its_one_label_emission():
    with pytest.raises(AlphabetError, match="symbol '2' at position 0 is not in alphabet 0 1"):
        MealyMachine(
            BINARY, BINARY, ["q"], "q", {("q", "0"): ("q", "0"), ("q", "1"): ("q", "2")}
        )


one_label_machines = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.permutations([f"q{i}" for i in range(n)]),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from(OUT.labels)),
            min_size=n * len(INP),
            max_size=n * len(INP),
        ),
        st.lists(st.sampled_from(INP.labels), max_size=20),
    )
)


@given(one_label_machines)
@settings(max_examples=100, deadline=None)
def test_mealy_dict_builds_as_the_transducer_of_one_label_emissions(drawn):
    states, cells, text = drawn
    keys = [(q, a) for q in states for a in INP]
    mealy = MealyMachine(
        INP, OUT, states, states[-1], {k: (states[q2], out) for k, (q2, out) in zip(keys, cells)}
    )
    transducer = Transducer(
        INP, OUT, states, states[-1], {k: (states[q2], [out]) for k, (q2, out) in zip(keys, cells)}
    )
    assert mealy.states == transducer.states and mealy.initial == transducer.initial
    assert np.array_equal(mealy._next, transducer._next)
    rows = range(len(keys))
    assert [mealy._emit[k].tolist() for k in rows] == [transducer._emit[k].tolist() for k in rows]
    word = FiniteWord(INP, [INP.index(a) for a in text])
    assert run_transducer(mealy, word) == run_transducer(transducer, word)


def built_machines():
    """One machine from each way to build one: the dict constructors, the file
    reader, the delay machine and the decomposition."""
    t = Transducer(
        BINARY, OUT, ["v", "u", "w"], "u",
        {
            ("u", "0"): ("v", ["lo", "x"]), ("u", "1"): ("u", []),
            ("v", "0"): ("u", ["é"]), ("v", "1"): ("w", ["xy"]),
            ("w", "0"): ("w", ["ü"]), ("w", "1"): ("u", ["x", "x"]),
        },
    )
    yield t
    yield MealyMachine(BINARY, BINARY, ["b", "a"], "a", {
        ("a", "0"): ("b", "1"), ("a", "1"): ("a", "0"),
        ("b", "0"): ("a", "0"), ("b", "1"): ("b", "1"),
    })
    yield parse_machine(LOXY_MACHINE.replace("lox\n", "xy\n"))
    yield delay_prepend_automaton(BINARY.word("0110"))
    yield decompose_transducer(t)[0]


@pytest.mark.parametrize("machine", list(built_machines()), ids=lambda m: type(m).__name__)
def test_states_are_the_state_index_in_order(machine):
    assert machine.states == tuple(machine._state_idx)
    assert list(machine._state_idx.values()) == list(range(len(machine.states)))


def test_a_valid_file_indexes_its_states_once_and_encodes_in_one_pass(monkeypatch):
    calls = Counter()
    for name in ("_state_index", "_lookup", "_encode"):
        def counted(*args, _name=name, _f=getattr(machines, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(machines, name, counted)
    parse_machine(LOXY_MACHINE.replace("lox\n", "xy\n"))
    assert calls == {"_state_index": 1, "_lookup": 1}
