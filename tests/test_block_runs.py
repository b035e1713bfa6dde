"""Machine runs over generated words, read through their block structure,
and over raw input, read through chunks, against the step-by-step
transducer oracle (``conftest.naive_transducer_run``).

A run over a source's prefix lifts the machine through phi^J, phi the
source's morphism, with J the most levels whose rows fit the cells
``InfiniteWordSource._blocks`` is given.  ``TestSourceLifts`` gives the
cells of exactly J levels and draws lengths below one block, at the edges
j * |phi|^J - 1, j * |phi|^J and j * |phi|^J + 1 of the top letters, and,
for the paper's family, at the ends l_index(i) - 1, l_index(i) and
l_index(i) + 1 of the head c_0 ... c_{J-1} and of its blocks.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apwords import (
    BINARY,
    Alphabet,
    CounterexampleFamily,
    FiniteWord,
    Transducer,
    delay_prepend_automaton,
    morphic_source,
    periodic_source,
    run_transducer,
    thue_morse_source,
)
from apwords import _kernels, cli, sources
from apwords.generators import tau_from_table
from apwords.machines import Homomorphism
from apwords.words import EmissionTable
from conftest import naive_transducer_run

# 0 -> 01, 1 -> 0: images of two lengths, run through the chunk lift.
FIBONACCI = Homomorphism(BINARY, BINARY, {"0": "01", "1": "0"})
UNIFORM3 = Homomorphism(BINARY, BINARY, {"0": "001", "1": "110"})
REVERSED = Alphabet(["1", "0"])


def drawn_machine(rng, nq, inputs=BINARY):
    """A transducer of nq states over ``inputs`` whose emissions, 0 to 3
    symbols each, include empty ones, and the list of lists of them."""
    na = len(inputs)
    next_state = rng.integers(0, nq, (nq, na))
    emissions = [
        [rng.integers(0, 2, rng.integers(0, 4)).tolist() for _ in range(na)] for _ in range(nq)
    ]
    labels = [f"s{q}" for q in range(nq)]
    transitions = {
        (labels[q], inputs.label(a)): (labels[next_state[q, a]], [str(b) for b in emissions[q][a]])
        for q in range(nq)
        for a in range(na)
    }
    return Transducer(inputs, BINARY, labels, labels[int(rng.integers(nq))], transitions), emissions


def check_run(machine, emissions, source, n):
    """The run over the length-n prefix of ``source`` read as blocks equals
    the oracle's."""
    word = source.prefix(n)
    if word.alphabet != machine.input_alphabet:
        word = cli._relabel(word, machine.input_alphabet)
    trace = run_transducer(machine, word, _source=source)
    states, _, out, lengths = naive_transducer_run(
        machine._next, emissions, machine._initial_idx, word.data
    )
    assert np.array_equal(trace.state_index, states)
    assert np.array_equal(trace.output.data, out)
    assert np.array_equal(trace.step_lengths, lengths)


def lifted(source, n, nq):
    """Whether a run of nq states over the length-n prefix of ``source``
    reads it as blocks (``machines._run``)."""
    return source._blocks(n, n // (8 * nq)) is not None


def binary_period(text):
    return periodic_source(FiniteWord.from_text(BINARY, text))


# kind -> (source, cells per state at level 0, growth a level)
SOURCES = {
    "thue-morse": (thue_morse_source, 2, 2),
    "uniform3": (lambda: morphic_source(UNIFORM3, "0"), 2, 3),
    "period-1": (lambda: binary_period("1"), 1, 2),
    "period-01101": (lambda: binary_period("01101"), 5, 2),
    "paper": (None, 2, 5),
}


class TestSourceLifts:
    """The kernel over a source's blocks of exactly J levels."""

    @given(
        kind=st.sampled_from(sorted(SOURCES)),
        tau=st.lists(st.sampled_from([9, 10]), max_size=6),
        levels=st.integers(1, 5),
        nq=st.sampled_from([1, 2, 3, 5, 24, 25]),
        at=st.sampled_from(["below", "letter", "head"]),
        j=st.integers(0, 400),
        edge=st.sampled_from([-1, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    # The body's first blocks, c'_0 c'_1 c'_2, with tau shifted by J = 2.
    @example(kind="paper", tau=[9, 10, 9, 10, 9, 10], levels=2, nq=3, at="letter", j=300, edge=1, seed=8)
    @example(kind="paper", tau=[9, 10], levels=3, nq=4, at="head", j=3, edge=-1, seed=0)
    @example(kind="paper", tau=[9, 9, 9], levels=3, nq=4, at="head", j=3, edge=1, seed=1)
    @example(kind="paper", tau=[10, 9], levels=2, nq=2, at="letter", j=7, edge=0, seed=2)
    @example(kind="paper", tau=[], levels=4, nq=3, at="below", j=0, edge=0, seed=3)
    @example(kind="thue-morse", tau=[], levels=5, nq=2, at="letter", j=9, edge=-1, seed=4)
    @example(kind="uniform3", tau=[], levels=3, nq=25, at="letter", j=4, edge=1, seed=5)
    @example(kind="period-1", tau=[], levels=4, nq=5, at="letter", j=12, edge=1, seed=6)
    @example(kind="period-01101", tau=[], levels=2, nq=24, at="letter", j=5, edge=-1, seed=7)
    @settings(max_examples=80, deadline=None)
    def test_matches_naive(self, kind, tau, levels, nq, at, j, edge, seed):
        build, width, size = SOURCES[kind]
        rng = np.random.default_rng(seed)
        if kind == "paper":
            family = CounterexampleFamily(tau_from_table(tau))
            source, head = family.source(), family.l_index(levels)
        else:
            source, head = build(), 0
        # One top letter's symbols: the period's length is its cells at level 0.
        block = (width if kind.startswith("period") else 1) * size**levels
        if at == "below":
            n = int(rng.integers(block))
        elif at == "letter":
            # At most 60000 symbols, for the oracle's sake.
            n = max(0, head + j % (60_000 // block + 1) * block + edge)
        else:
            i = j % (levels + 1)
            n = max(0, (family.l_index(i) if kind == "paper" else i * block) + edge)
        machine, emissions = drawn_machine(rng, nq)
        inp = source.prefix_array(n)
        # Any period is lifted, however short the prefix.
        with mock.patch.object(sources, "_PERIOD_SHARE", 0):
            blocks = source._blocks(n, width * size**levels)
        assert blocks is not None and max(j for j, _ in blocks[2]) == levels
        states, keys, out = _kernels.mealy_run(
            machine._next, machine._emit, machine._initial_idx, inp, blocks
        )
        want_states, want_keys, want_out, _ = naive_transducer_run(
            machine._next, emissions, machine._initial_idx, inp
        )
        assert np.array_equal(states, want_states)
        assert np.array_equal(keys, want_keys)
        assert np.array_equal(out, want_out)


class TestRunOverSources:
    """``run_transducer`` over a source's prefix, at the levels ``_run``
    picks, on binary machines and on the machine whose input alphabet is
    ``1 0``: the source's letters are relabeled into it."""

    @given(
        kind=st.sampled_from(sorted(SOURCES)),
        nq=st.sampled_from([1, 2, 3, 5, 24, 25]),
        reverse=st.booleans(),
        n=st.integers(0, 20_000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="paper", nq=2, reverse=True, n=20_000, seed=0)
    @example(kind="period-1", nq=3, reverse=False, n=10_000, seed=1)
    @example(kind="thue-morse", nq=4, reverse=True, n=15_000, seed=2)
    @settings(max_examples=30, deadline=None)
    def test_matches_naive(self, kind, nq, reverse, n, seed):
        build = SOURCES[kind][0] or (lambda: CounterexampleFamily().source())
        source = build()
        machine, emissions = drawn_machine(
            np.random.default_rng(seed), nq, REVERSED if reverse else BINARY
        )
        period = SOURCES[kind][1] if kind.startswith("period") else 0
        if n >= max(1000 * nq, sources._PERIOD_SHARE * period):
            assert lifted(source, n, nq)
        check_run(machine, emissions, source, n)


def test_word_of_another_source_raises():
    # A binary machine over the paper's prefix, run as Thue-Morse's blocks.
    machine, _ = drawn_machine(np.random.default_rng(0), 2)
    word = CounterexampleFamily().source().prefix(20_000)
    with pytest.raises(ValueError, match="not the prefix of its source"):
        run_transducer(machine, word, _source=thue_morse_source())


class TestRawSources:
    """A non-uniform morphism, and a period over a sub-alphabet, run
    through the chunk lift."""

    @given(nq=st.integers(1, 30), n=st.integers(0, 5000), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fibonacci_matches_naive(self, nq, n, seed):
        source = morphic_source(FIBONACCI, "0")
        assert not lifted(source, 10**6, 1)
        machine, emissions = drawn_machine(np.random.default_rng(seed), nq)
        check_run(machine, emissions, source, n)

    def test_long_period_runs_raw(self):
        # A period held fewer than sources._PERIOD_SHARE times is run as raw
        # input.
        source = binary_period("01" * 32 + "1")
        assert not lifted(source, 65 * 1024 - 1, 1)
        assert lifted(source, 65 * 1024, 1)
        machine, emissions = drawn_machine(np.random.default_rng(0), 3)
        check_run(machine, emissions, source, 5000)

    def test_letter_the_machine_lacks(self):
        # The period's alphabet holds a letter no symbol of the prefix
        # uses and the machine cannot read: the run reads the raw prefix.
        inputs = Alphabet("ab")
        machine, emissions = drawn_machine(np.random.default_rng(1), 3, inputs)
        source = periodic_source(FiniteWord.from_text(Alphabet("abc"), "ab" * 20 + "c"))
        check_run(machine, emissions, source, 40)


def cli_run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


class TestCliRuns:
    """``run --gen`` gives what ``run --input-file`` gives on the same
    prefix, with and without ``--emit-states``, for a machine with empty
    emissions."""

    MACHINE = (
        "input: 0 1\noutput: 0 1\nstates: p q r\ninitial: p\n"
        "p 0 -> q -\np 1 -> r 1\nq 0 -> r 01\nq 1 -> p -\nr 0 -> p 110\nr 1 -> q -\n"
    )

    def test_generated_matches_raw(self, capsys, tmp_path):
        path = tmp_path / "m.machine"
        path.write_text(self.MACHINE)
        (tmp_path / "fib.rules").write_text("0 -> 01\n1 -> 0\n")
        (tmp_path / "tm.rules").write_text("0 -> 01\n1 -> 10\n")
        family = CounterexampleFamily()
        specs = {
            "paper": family.source(),
            "periodic:1": binary_period("1"),
            "periodic:01101": binary_period("01101"),
            f"morphic:{tmp_path}/fib.rules:0": morphic_source(FIBONACCI, "0"),
            "morphic:" + str(tmp_path / "tm.rules") + ":0": thue_morse_source(),
        }
        for spec, source in specs.items():
            for n in (0, 7, family.l_index(3) - 1, family.l_index(3) + 1, 25_000):
                prefix = tmp_path / "prefix.txt"
                prefix.write_text(source.prefix(n).to_text())
                for emit in ([], ["--emit-states"]):
                    generated = cli_run(
                        capsys, "run", "--machine", str(path), "--gen", spec, "--length", str(n), *emit
                    )
                    raw = cli_run(capsys, "run", "--machine", str(path), "--input-file", str(prefix), *emit)
                    assert generated == raw, (spec, n, emit)


class TestChunkLift:
    """Raw input at the chunk edges j * k - 1, j * k and j * k + 1, k the
    stride (``_kernels._stride``), with 1, 2, 24, 25 and 257 states: 257
    states need rows of two bytes."""

    @given(
        nq=st.sampled_from([1, 2, 24, 25, 257]),
        n=st.integers(0, 40_000),
        edge=st.sampled_from([-1, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(nq=257, n=40_000, edge=1, seed=0)
    @example(nq=257, n=20_000, edge=-1, seed=1)
    @example(nq=24, n=30_000, edge=0, seed=2)
    @example(nq=25, n=30_000, edge=1, seed=3)
    @example(nq=1, n=1, edge=0, seed=4)
    @settings(max_examples=25, deadline=None)
    def test_matches_naive(self, nq, n, edge, seed):
        k = _kernels._stride(n, nq, 2)
        n = max(0, n // k * k + edge)
        rng = np.random.default_rng(seed)
        next_state = rng.integers(0, nq, (nq, 2)).astype(np.int32)
        emissions = [[rng.integers(0, 2, rng.integers(0, 3)).tolist() for _ in range(2)] for _ in range(nq)]
        inp = rng.integers(0, 2, n).astype(np.uint8)
        table = EmissionTable([word for row in emissions for word in row])
        states, keys, out = _kernels.mealy_run(next_state, table, 0, inp)
        want_states, want_keys, want_out, _ = naive_transducer_run(next_state, emissions, 0, inp)
        assert np.array_equal(states, want_states)
        assert np.array_equal(keys, want_keys)
        assert np.array_equal(out, want_out)

    def test_widest_delay_machine_emits_its_states(self, capsys, tmp_path):
        # 2^16 states: the state after step i holds symbols i + 1 to i + 16
        # of the delay word followed by the input.
        delay = "0110100110010110"
        assert len(delay_prepend_automaton(FiniteWord.from_text(BINARY, delay)).states) == 1 << 16
        text = "".join(np.random.default_rng(0).choice(["0", "1"], 3000).tolist())
        path = tmp_path / "input.txt"
        path.write_text(text)
        out = cli_run(capsys, "run", "--delay-prepend", delay, "--input-file", str(path), "--emit-states")
        buffer = delay + text
        want = " ".join(f"@{buffer[i : i + 16]} {buffer[i]}" for i in range(len(text)))
        assert out == want + "\n"


class TestRawLift:
    """Raw input lifts through ``_kernels._lift`` over the digits of its
    chunks, sized by ``_kernels._stride``: the rows hold at most
    n / ``_LIFT_SHARE`` cells whenever k > 1."""

    @given(
        na=st.sampled_from([1, 2, 3, 17]),
        nq=st.sampled_from([1, 2, 24, 25, 257]),
        n=st.integers(0, 40_000),
        edge=st.sampled_from([-1, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(na=1, nq=2, n=40_000, edge=1, seed=0)
    @example(na=3, nq=2, n=40_000, edge=-1, seed=1)
    @example(na=17, nq=1, n=40_000, edge=0, seed=2)
    @example(na=2, nq=257, n=40_000, edge=1, seed=3)
    @example(na=2, nq=25, n=30_000, edge=-1, seed=4)
    @example(na=17, nq=24, n=0, edge=1, seed=5)
    @settings(max_examples=40, deadline=None)
    def test_matches_naive(self, na, nq, n, edge, seed):
        # j * k - 1, j * k or j * k + 1 symbols, k the stride for n.
        k = _kernels._stride(n, nq, na)
        n = max(0, n // k * k + edge)
        rng = np.random.default_rng(seed)
        next_state = rng.integers(0, nq, (nq, na)).astype(np.int32)
        # Every other emission is empty.
        emissions = [
            [rng.integers(0, 2, (q + a) % 2 * rng.integers(1, 4)).tolist() for a in range(na)]
            for q in range(nq)
        ]
        initial = int(rng.integers(nq))
        inp = rng.integers(0, na, n).astype(np.uint8)
        table = EmissionTable([word for row in emissions for word in row])
        states, keys, out = _kernels.mealy_run(next_state, table, initial, inp)
        want_states, want_keys, want_out, _ = naive_transducer_run(next_state, emissions, initial, inp)
        assert np.array_equal(states, want_states)
        assert np.array_equal(keys, want_keys)
        assert np.array_equal(out, want_out)

    @pytest.mark.parametrize("na", [1, 2, 3, 17])
    @pytest.mark.parametrize("nq", [1, 2, 24, 300])
    def test_lift_holds_its_share(self, na, nq):
        rng = np.random.default_rng(nq * 100 + na)
        next_state = rng.integers(0, nq, (nq, na)).astype(np.int32)
        for n in (10**3, 10**5, 10**6):
            inp = rng.integers(0, na, n).astype(np.uint8)
            with mock.patch.object(_kernels, "_walk", wraps=_kernels._walk) as walk:
                _kernels._run_states(next_state, 0, inp)
            rows = walk.call_args.args[0]
            k = rows.shape[1]
            assert rows.shape[0] == nq * na**k
            # k is the largest stride whose lift fits the share.
            assert nq * (k + 1) * max(na, 2) ** (k + 1) * _kernels._LIFT_SHARE > n
            if k > 1:
                assert rows.size * _kernels._LIFT_SHARE <= n

    @given(
        nq=st.integers(1, 6),
        na=st.integers(1, 4),
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_over_digits_step_by_step(self, nq, na, k, seed):
        # Row q * |A|^k + c holds the k states visited from q on the chunk
        # of code c, its first symbol most significant.
        next_state = np.random.default_rng(seed).integers(0, nq, (nq, na)).astype(np.int32)
        chunks = list(itertools.product(range(na), repeat=k))
        (rows,) = _kernels._lift(next_state, np.array(chunks, np.uint8), None, 0)
        want = []
        for q in range(nq):
            for chunk in chunks:
                visited, state = [], q
                for a in chunk:
                    state = int(next_state[state, a])
                    visited.append(state)
                want.append(visited)
        assert np.array_equal(rows, want)
