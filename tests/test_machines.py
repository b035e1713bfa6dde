import time
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apwords import (
    BINARY,
    Alphabet,
    AlphabetError,
    BudgetError,
    FiniteWord,
    FormatError,
    Homomorphism,
    MealyMachine,
    Transducer,
    apply_homomorphism,
    concat,
    decompose_transducer,
    delay_prepend_automaton,
    format_homomorphism,
    format_machine,
    output_infinite_check,
    parse_homomorphism,
    parse_machine,
    periodic_source,
    recurrence_stability,
    run_mealy,
    run_mealy_stream,
    run_transducer,
    thue_morse_source,
)
from apwords import _kernels
from apwords.words import EmissionTable
from conftest import (
    bword,
    delay_machine_bfs,
    naive_mealy_run,
    naive_transducer_run,
    omega_prefix,
    periodic_output,
)


def identity_machine():
    return MealyMachine(
        BINARY,
        BINARY,
        ["q"],
        "q",
        {("q", "0"): ("q", "0"), ("q", "1"): ("q", "1")},
    )


def toggle_machine():
    # Two states labeled by the output they emit; input 1 toggles the
    # state, and the label of the state before the toggle is emitted.
    return MealyMachine(
        BINARY,
        BINARY,
        ["0", "1"],
        "0",
        {
            ("0", "0"): ("0", "0"),
            ("0", "1"): ("1", "0"),
            ("1", "0"): ("1", "1"),
            ("1", "1"): ("0", "1"),
        },
    )


def random_machine(rng, n_states=3):
    states = [f"s{i}" for i in range(n_states)]
    trans = {}
    for q in states:
        for a in BINARY:
            trans[(q, a)] = (
                states[rng.integers(n_states)],
                str(rng.integers(2)),
            )
    return MealyMachine(BINARY, BINARY, states, states[0], trans)


def random_transducer(rng, n_states, n_in, n_out, max_emit):
    inp = Alphabet([str(i) for i in range(n_in)])
    out = Alphabet([chr(ord("a") + i) for i in range(n_out)])
    states = [f"t{i}" for i in range(n_states)]
    trans = {}
    for q in states:
        for a in inp:
            emit = [
                out.label(rng.integers(n_out))
                for _ in range(rng.integers(max_emit + 1))
            ]
            trans[(q, a)] = (states[rng.integers(n_states)], emit)
    return Transducer(inp, out, states, states[0], trans)


class TestRunMealy:
    def test_identity(self):
        trace = run_mealy(identity_machine(), bword("0110"))
        assert trace.output.to_text() == "0110"
        assert len(trace.states) == 5
        assert trace.consumed == 4

    def test_toggle_hand_stepped(self):
        # q0 --1--> q1 (out 0), q1 --1--> q0 (out 1), q0 --0--> q0 (out 0),
        # q0 --1--> q1 (out 0)
        trace = run_mealy(toggle_machine(), bword("1101"))
        assert trace.output.to_text() == "0100"
        assert trace.states == ("0", "1", "0", "0", "1")

    def test_trace_equality_and_state_index(self):
        m = toggle_machine()
        trace = run_mealy(m, bword("1101"))
        same = run_mealy(m, bword("1101"))
        assert trace == same and hash(trace) == hash(same)
        assert trace != run_mealy(m, bword("1100"))
        assert trace.state_index.tolist() == [0, 1, 0, 0, 1]

    def test_empty_input(self):
        trace = run_mealy(toggle_machine(), BINARY.word(""))
        assert len(trace.output) == 0
        assert trace.states == ("0",)

    def test_wrong_alphabet(self):
        with pytest.raises(AlphabetError):
            run_mealy(identity_machine(), Alphabet("ab").word("ab"))

    def test_length_preserved(self):
        rng = np.random.default_rng(7)
        m = random_machine(rng)
        w = FiniteWord(BINARY, rng.integers(0, 2, 500))
        trace = run_mealy(m, w)
        assert len(trace.output) == len(w)
        assert len(trace.states) == len(w) + 1

    def test_trace_prefix_property(self):
        rng = np.random.default_rng(8)
        m = random_machine(rng)
        w = FiniteWord(BINARY, rng.integers(0, 2, 100))
        full = run_mealy(m, w)
        part = run_mealy(m, w[:40])
        assert part.states == full.states[:41]
        assert part.output == full.output[:40]


class TestMealyKernel:
    """The machine-run kernel against the step-by-step oracle, at strides
    (chunk lengths) from 1 to 7."""

    @given(
        nq=st.integers(1, 80),
        na=st.integers(1, 4),
        n=st.integers(0, 3000),
        counter=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(nq=1, na=2, n=1000, counter=False, seed=0)  # one state
    @example(nq=7, na=1, n=999, counter=False, seed=1)  # unary input
    @example(nq=64, na=2, n=3000, counter=True, seed=2)  # a 64-state counter
    @example(nq=65, na=2, n=3000, counter=True, seed=3)  # a 65-state counter
    # Chunk edges: at 5 states and 2 labels the stride is 4, so 1600 symbols
    # are 400 whole chunks, 1601 leave one symbol in the last chunk and 1599
    # three.
    @example(nq=5, na=2, n=1600, counter=False, seed=4)
    @example(nq=5, na=2, n=1601, counter=False, seed=5)
    @example(nq=5, na=2, n=1599, counter=True, seed=6)
    @example(nq=3, na=3, n=16, counter=False, seed=7)
    @example(nq=3, na=3, n=0, counter=False, seed=8)
    @settings(max_examples=150, deadline=None)
    def test_matches_naive(self, nq, na, n, counter, seed):
        rng = np.random.default_rng(seed)
        if counter:
            # Counts the input symbols' sum modulo nq: a permutation per
            # symbol, so no two states ever merge.
            next_state = (np.arange(nq)[:, None] + np.arange(na)) % nq
        else:
            next_state = rng.integers(0, nq, (nq, na))
        next_state = next_state.astype(np.int32)
        out_symbol = rng.integers(0, 256, (nq, na)).astype(np.uint8)
        initial = int(rng.integers(nq))
        inp = rng.integers(0, na, n).astype(np.uint8)
        want_states, want_out = naive_mealy_run(next_state, out_symbol, initial, inp)
        table = EmissionTable(out_symbol.reshape(-1, 1))
        states, _, out = _kernels.mealy_run(next_state, table, initial, inp)
        assert states.dtype == np.int32 and out.dtype == np.uint8
        assert np.array_equal(states, want_states)
        assert np.array_equal(out, want_out)


class TestTransducerKernel:
    """The machine-run kernel and run_transducer against the step-by-step
    transducer oracle: emission lengths mixed (0-3) or uniform (width 0, 1
    or 2), with 1 to 80 states."""

    @given(
        nq=st.integers(1, 80),
        na=st.integers(1, 3),
        width=st.sampled_from([None, 0, 1, 2]),
        n=st.integers(0, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(nq=1, na=2, width=2, n=4, seed=0)  # a doubler: step lengths all 2
    @example(nq=64, na=2, width=None, n=1600, seed=1)  # stride 1
    @example(nq=65, na=2, width=None, n=1601, seed=2)
    @example(nq=64, na=3, width=2, n=1599, seed=3)
    @example(nq=65, na=2, width=2, n=1600, seed=4)
    @example(nq=64, na=2, width=0, n=1601, seed=5)
    @example(nq=65, na=1, width=0, n=16, seed=6)
    @example(nq=64, na=2, width=1, n=1600, seed=7)
    @example(nq=3, na=2, width=None, n=0, seed=8)
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, nq, na, width, n, seed):
        rng = np.random.default_rng(seed)
        next_state = rng.integers(0, nq, (nq, na)).astype(np.int32)
        lengths = rng.integers(0, 4, (nq, na)) if width is None else np.full((nq, na), width)
        emissions = [
            [rng.integers(0, 3, lengths[q, a]).tolist() for a in range(na)]
            for q in range(nq)
        ]
        initial = int(rng.integers(nq))
        inp = rng.integers(0, na, n).astype(np.uint8)
        want_states, want_keys, want_out, want_lengths = naive_transducer_run(
            next_state, emissions, initial, inp
        )

        table = EmissionTable([word for row in emissions for word in row])
        states, keys, out = _kernels.mealy_run(next_state, table, initial, inp)
        assert states.dtype == np.int32 and out.dtype == np.uint8
        assert np.array_equal(states, want_states)
        assert np.array_equal(keys, want_keys)
        assert np.array_equal(out, want_out)

        inputs = Alphabet([str(a) for a in range(na)])
        outputs = Alphabet("abc")
        labels = [f"t{q}" for q in range(nq)]
        transitions = {
            (labels[q], inputs.label(a)): (
                labels[next_state[q, a]],
                [outputs.label(b) for b in emissions[q][a]],
            )
            for q in range(nq)
            for a in range(na)
        }
        if width == 1:
            machine = MealyMachine(
                inputs,
                outputs,
                labels,
                labels[initial],
                {key: (q2, em[0]) for key, (q2, em) in transitions.items()},
            )
        else:
            machine = Transducer(inputs, outputs, labels, labels[initial], transitions)
        trace = run_transducer(machine, FiniteWord(inputs, inp))
        assert np.array_equal(trace.state_index, want_states)
        assert np.array_equal(trace.output.data, want_out)
        assert np.array_equal(trace.step_lengths, want_lengths)
        assert trace.consumed == n

    def test_run_makes_no_intp_copy_of_its_keys(self):
        # A width-3 transducer over 10^6 symbols: the run holds int32 states
        # and keys (8 bytes a symbol), its output (1.67 bytes a symbol), the
        # output's blocks until they are joined, and one byte of step length
        # a symbol; about 11.7 bytes a symbol in all.  An intp copy of the
        # keys, for the emissions or the step lengths, would add 8.
        inp, out = BINARY, Alphabet("ab")
        transitions = {
            ("p", "0"): ("q", []),
            ("p", "1"): ("r", ["a"]),
            ("q", "0"): ("r", ["a", "b"]),
            ("q", "1"): ("p", ["b", "a", "b"]),
            ("r", "0"): ("p", ["b"]),
            ("r", "1"): ("q", ["a", "a", "b"]),
        }
        machine = Transducer(inp, out, ["p", "q", "r"], "p", transitions)
        n = 10**6
        word = FiniteWord(inp, np.random.default_rng(0).integers(0, 2, n))
        tracemalloc.start()
        try:
            trace = run_transducer(machine, word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.step_lengths.sum() == len(trace.output)
        assert peak < 14 * n


class TestRunStrides:
    """The machine-run kernel against the step-by-step transducer oracle on
    inputs long enough for strides of 3 and more, cut at the chunk edges of
    the stride the run picks.  The run goes ``_CHUNK`` symbols at a time;
    smaller values put those edges inside the input."""

    @given(
        nq=st.integers(1, 40),
        na=st.integers(1, 4),
        n=st.integers(0, 20_000),
        edge=st.sampled_from([None, -1, 0, 1]),
        counter=st.booleans(),
        chunk=st.sampled_from([1, 100, 1000, _kernels._CHUNK]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(nq=1, na=1, n=20_000, edge=0, counter=False, chunk=1000, seed=0)  # unary
    @example(nq=6, na=1, n=19_999, edge=1, counter=True, chunk=100, seed=1)  # unary counter
    @example(nq=3, na=2, n=20_000, edge=-1, counter=True, chunk=1000, seed=2)
    @example(nq=3, na=2, n=20_000, edge=1, counter=False, chunk=_kernels._CHUNK, seed=3)
    @example(nq=2, na=3, n=20_000, edge=0, counter=True, chunk=100, seed=4)
    @example(nq=2, na=4, n=20_000, edge=1, counter=False, chunk=1000, seed=5)
    @example(nq=40, na=2, n=2_000, edge=-1, counter=False, chunk=1, seed=6)  # stride 1
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, nq, na, n, edge, counter, chunk, seed):
        if edge is not None:
            # j * k - 1, j * k or j * k + 1 symbols, k the stride for n.
            k = _kernels._stride(n, nq, na)
            n = max(0, n // k * k + edge)
        rng = np.random.default_rng(seed)
        if counter:
            # A permutation per symbol: no two states ever merge.
            next_state = (np.arange(nq)[:, None] + np.arange(na)) % nq
        else:
            next_state = rng.integers(0, nq, (nq, na))
        next_state = next_state.astype(np.int32)
        emissions = [
            [rng.integers(0, 3, rng.integers(0, 3)).tolist() for a in range(na)]
            for q in range(nq)
        ]
        initial = int(rng.integers(nq))
        inp = rng.integers(0, na, n).astype(np.uint8)
        want_states, want_keys, want_out, _ = naive_transducer_run(
            next_state, emissions, initial, inp
        )
        table = EmissionTable([word for row in emissions for word in row])
        with patch.object(_kernels, "_CHUNK", chunk):
            states, keys, out = _kernels.mealy_run(next_state, table, initial, inp)
        assert states.dtype == np.int32 and out.dtype == np.uint8
        assert np.array_equal(states, want_states)
        assert np.array_equal(keys, want_keys)
        assert np.array_equal(out, want_out)

    def test_wide_delay_machine_in_bounded_time(self):
        # 4096 states run at stride 1 here; a run that steps every state
        # through every symbol took 3.2-3.5 s (2 vCPU, numpy 2.4).
        machine = delay_prepend_automaton(bword("010011000111"))
        nq = len(machine.states)
        assert nq == 4096
        inp = np.random.default_rng(0).integers(0, 2, 200_000).astype(np.uint8)
        t0 = time.perf_counter()
        states, keys, out = _kernels.mealy_run(
            machine._next, machine._emit, machine._initial_idx, inp
        )
        assert time.perf_counter() - t0 < 2.0
        emissions = [[machine._emit[q * 2 + a].tolist() for a in range(2)] for q in range(nq)]
        want_states, want_keys, want_out, _ = naive_transducer_run(
            machine._next, emissions, machine._initial_idx, inp
        )
        assert np.array_equal(states, want_states)
        assert np.array_equal(keys, want_keys)
        assert np.array_equal(out, want_out)


class TestRunBlocks:
    """The machine-run kernel against the step-by-step transducer oracle
    where its walk composes blocks of K chunks (``_kernels._blocking``).
    ``_CHUNK`` is patched small, so that the run has several replay blocks,
    each walking its own blocks, and the last one holds j * K - 1, j * K or
    j * K + 1 chunks.  The machines have up to 4 states, or one state
    fewer, as many or one more than ``_COMPOSE_STATES``, where the walk
    stops composing."""

    LIMIT = _kernels._COMPOSE_STATES

    @given(
        nq=st.sampled_from([1, 2, 3, 4, LIMIT - 1, LIMIT, LIMIT + 1]),
        na=st.sampled_from([1, 2, 17]),
        replays=st.integers(1, 3),
        j=st.integers(1, 3),
        edge=st.sampled_from([-1, 0, 1]),
        short=st.integers(0, 20),
        chunk=st.sampled_from([1 << 12, 1 << 13]),
        counter=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(nq=2, na=17, replays=2, j=2, edge=-1, short=0, chunk=1 << 12, counter=False, seed=0)
    @example(nq=4, na=17, replays=1, j=1, edge=1, short=1, chunk=1 << 13, counter=True, seed=1)
    @example(nq=3, na=17, replays=3, j=3, edge=0, short=0, chunk=1 << 12, counter=False, seed=2)
    @example(nq=1, na=1, replays=2, j=1, edge=0, short=0, chunk=1 << 12, counter=False, seed=3)
    @example(nq=5, na=1, replays=1, j=2, edge=1, short=0, chunk=1 << 12, counter=True, seed=4)
    @example(nq=LIMIT, na=2, replays=2, j=1, edge=-1, short=3, chunk=1 << 12, counter=True, seed=5)
    @example(
        nq=LIMIT + 1, na=2, replays=1, j=2, edge=1, short=0, chunk=1 << 13, counter=False, seed=6
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, nq, na, replays, j, edge, short, chunk, counter, seed):
        # The stride depends on n, so n is fixed in two rounds: from the
        # stride of a guess, then from the stride of the first answer.
        n = replays * chunk
        for _ in range(2):
            k = _kernels._stride(n, nq, na)
            per = max(1, chunk // k)
            blocking = _kernels._blocking(per, nq)
            last = j * blocking + edge
            n = max(0, (replays * per + last) * k - short % k)
        assume(_kernels._stride(n, nq, na) == k and last > 0)
        assert nq > self.LIMIT or blocking > 1
        rng = np.random.default_rng(seed)
        if counter:
            next_state = (np.arange(nq)[:, None] + np.arange(na)) % nq
        else:
            next_state = rng.integers(0, nq, (nq, na))
        next_state = next_state.astype(np.int32)
        emissions = [
            [rng.integers(0, 3, rng.integers(0, 3)).tolist() for a in range(na)]
            for q in range(nq)
        ]
        initial = int(rng.integers(1, nq)) if nq > 1 else 0
        inp = rng.integers(0, na, n).astype(np.uint8)
        want_states, want_keys, want_out, _ = naive_transducer_run(
            next_state, emissions, initial, inp
        )
        table = EmissionTable([word for row in emissions for word in row])
        with patch.object(_kernels, "_CHUNK", chunk):
            states, keys, out = _kernels.mealy_run(next_state, table, initial, inp)
        assert np.array_equal(states, want_states)
        assert np.array_equal(keys, want_keys)
        assert np.array_equal(out, want_out)


class TestMealyStream:
    def test_identity_on_omega(self, family):
        out = run_mealy_stream(identity_machine(), family.source())
        assert out.prefix(10).to_text() == "1111111111"

    def test_prefix_consistency(self, family):
        rng = np.random.default_rng(9)
        for _ in range(5):
            m = random_machine(rng)
            src = family.source()
            stream = run_mealy_stream(m, src)
            assert stream.prefix(100) == run_mealy(m, src.prefix(100)).output

    def test_delay_on_periodic(self):
        machine = delay_prepend_automaton(bword("01"))
        stream = run_mealy_stream(machine, periodic_source(bword("1")))
        assert stream.prefix(5).to_text() == "01111"

    def test_rejects_transducer(self, family):
        doubler = Transducer(
            BINARY, BINARY, ["q"], "q",
            {("q", "0"): ("q", ["0", "0"]), ("q", "1"): ("q", ["1", "1"])},
        )
        with pytest.raises(ValueError):
            run_mealy_stream(doubler, family.source())


@st.composite
def delay_words(draw):
    """Words of 1-12 symbols over 1-4 labels of 1-2 characters whose delay
    machine has at most 4096 states."""
    labels = draw(
        st.lists(st.text("ab,é", min_size=1, max_size=2), min_size=1, max_size=4, unique=True)
    )
    sigma = len(labels)
    longest = max(n for n in range(1, 13) if sigma**n <= 4096)
    symbols = draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=longest))
    return FiniteWord(Alphabet(labels), symbols)


class TestDelayPrepend:
    def test_one_symbol(self):
        machine = delay_prepend_automaton(bword("1"))
        out = run_mealy(machine, bword("0000")).output
        assert out.to_text() == "1000"

    def test_two_symbols_hand_stepped(self):
        machine = delay_prepend_automaton(bword("01"))
        out = run_mealy(machine, bword("110")).output
        assert out.to_text() == "011"

    def test_output_is_delayed_input(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = FiniteWord(BINARY, rng.integers(0, 2, rng.integers(1, 5)))
            w = FiniteWord(BINARY, rng.integers(0, 2, 200))
            machine = delay_prepend_automaton(a)
            out = run_mealy(machine, w).output
            assert out == concat(a, w)[: len(w)]

    def test_state_count_bound(self):
        for text in ("0", "01", "011", "0110"):
            machine = delay_prepend_automaton(bword(text))
            assert len(machine.states) <= 2 ** len(text)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            delay_prepend_automaton(BINARY.word(""))

    @given(delay_words())
    @settings(max_examples=60, deadline=None)
    def test_matches_bfs_oracle(self, word):
        labels, next_state, emitted = delay_machine_bfs(word)
        if len(set(labels)) < len(labels):
            # Labels holding ',' can join into one state label.
            with pytest.raises(FormatError, match="duplicate state label"):
                delay_prepend_automaton(word)
            return
        machine = delay_prepend_automaton(word)
        sigma = len(word.alphabet)
        assert type(machine) is MealyMachine
        assert machine.states == labels and machine.initial == labels[0]
        assert machine._next.tolist() == next_state
        keys = np.arange(len(labels) * sigma)
        assert machine._emit.expand(keys).tolist() == np.repeat(emitted, sigma).tolist()

    @pytest.mark.parametrize(
        "word, power",
        [(bword("0" * 17), "2^17"), (Alphabet("0123").word("012301230"), "4^9")],
    )
    def test_oversized_machine_is_budget_error(self, word, power):
        # Raised before any of the sigma^L states is built.
        with pytest.raises(BudgetError) as exc:
            delay_prepend_automaton(word)
        assert f"sigma^L = {power} states" in str(exc.value)


class TestTransducer:
    def test_eraser(self):
        t = Transducer(
            BINARY, BINARY, ["q"], "q",
            {("q", "0"): ("q", []), ("q", "1"): ("q", [])},
        )
        assert run_transducer(t, bword("0101")).output.to_text() == ""

    def test_doubler(self):
        t = Transducer(
            BINARY, BINARY, ["q"], "q",
            {("q", "0"): ("q", ["0", "0"]), ("q", "1"): ("q", ["1", "1"])},
        )
        assert run_transducer(t, bword("01")).output.to_text() == "0011"

    def test_selective_emitter(self):
        out = Alphabet("x")
        t = Transducer(
            BINARY, out, ["q"], "q",
            {("q", "0"): ("q", ["x"]), ("q", "1"): ("q", [])},
        )
        assert run_transducer(t, bword("0110")).output.to_text() == "xx"

    @pytest.mark.parametrize("longest, dtype", [(2, np.uint8), (300, np.uint16)])
    def test_step_lengths_in_narrowest_dtype(self, longest, dtype):
        # One byte a step while the longest emission fits in a byte.
        t = Transducer(
            BINARY, BINARY, ["q"], "q",
            {("q", "0"): ("q", []), ("q", "1"): ("q", ["1"] * longest)},
        )
        trace = run_transducer(t, bword("0110"))
        assert trace.step_lengths.dtype == dtype
        assert trace.step_lengths.tolist() == [0, longest, longest, 0]

    def test_output_length_is_sum_of_emissions(self):
        rng = np.random.default_rng(11)
        t = random_transducer(rng, 3, 2, 2, 3)
        w = FiniteWord(t.input_alphabet, rng.integers(0, 2, 300))
        trace = run_transducer(t, w)
        total = sum(
            len(t.transition(q, t.input_alphabet.label(int(a)))[1])
            for q, a in zip(trace.states[:-1], w.data)
        )
        assert len(trace.output) == total


    def test_emissions_mix_words_and_labels(self, ab):
        t = Transducer(
            BINARY, ab, ["q", "r"], "q",
            {
                ("q", "0"): ("r", ab.word("ab")), ("q", "1"): ("q", ["b"]),
                ("r", "0"): ("q", []), ("r", "1"): ("r", ab.word("")),
            },
        )
        assert run_transducer(t, bword("0101")).output.to_text() == "abb"

    @pytest.mark.parametrize(
        "emission, message",
        [
            (["b", "c"], "symbol 'c' at position 1 is not in alphabet a b"),
            (bword("0"), "over wrong alphabet"),
        ],
    )
    def test_emission_off_the_output_alphabet(self, ab, emission, message):
        with pytest.raises(AlphabetError, match=message):
            Transducer(
                BINARY, ab, ["q"], "q",
                {("q", "0"): ("q", ["a"]), ("q", "1"): ("q", emission)},
            )


class TestHomomorphism:
    def test_examples(self, ab):
        h = Homomorphism(BINARY, ab, {"0": "ab", "1": ""})
        assert apply_homomorphism(h, bword("010")).to_text() == "abab"
        ident = Homomorphism(ab, ab, {"a": "a", "b": "b"})
        assert apply_homomorphism(ident, ab.word("abba")).to_text() == "abba"

    @given(st.text(alphabet="01", max_size=40), st.integers(0, 40))
    def test_multiplicative(self, text, split):
        h = Homomorphism(BINARY, BINARY, {"0": "011", "1": ""})
        w = bword(text)
        split = min(split, len(w))
        u, v = w[:split], w[split:]
        assert apply_homomorphism(h, concat(u, v)) == concat(
            apply_homomorphism(h, u), apply_homomorphism(h, v)
        )

    def test_wrong_alphabet(self, ab):
        h = Homomorphism(ab, ab, {"a": "ab", "b": "a"})
        with pytest.raises(AlphabetError):
            apply_homomorphism(h, bword("01"))


class TestDecompose:
    def test_identity_transducer(self):
        t = Transducer(
            BINARY, BINARY, ["q"], "q",
            {("q", "0"): ("q", ["0"]), ("q", "1"): ("q", ["1"])},
        )
        automaton, hom = decompose_transducer(t)
        assert len(automaton.output_alphabet) == 2  # |Q| * |A| reachable pairs
        w = bword("0110")
        round_trip = apply_homomorphism(hom, run_mealy(automaton, w).output)
        assert round_trip == run_transducer(t, w).output == w

    def test_eraser(self):
        t = Transducer(
            BINARY, BINARY, ["q"], "q",
            {("q", "0"): ("q", []), ("q", "1"): ("q", [])},
        )
        automaton, hom = decompose_transducer(t)
        w = bword("0101")
        assert len(apply_homomorphism(hom, run_mealy(automaton, w).output)) == 0

    def test_colliding_pair_labels(self):
        # (x, "0,1") and ("x,0", 1) would both be the pair "x,0,1".
        t = Transducer(
            Alphabet(["0", "0,1", "1"]), BINARY, ["x", "x,0"], "x",
            {(q, a): ("x,0", []) for q in ("x", "x,0") for a in ("0", "0,1", "1")},
        )
        with pytest.raises(AlphabetError, match="duplicate symbol labels"):
            decompose_transducer(t)

    def test_random_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            t = random_transducer(
                rng,
                n_states=int(rng.integers(1, 5)),
                n_in=int(rng.integers(1, 4)),
                n_out=int(rng.integers(1, 4)),
                max_emit=3,
            )
            w = FiniteWord(
                t.input_alphabet,
                rng.integers(0, len(t.input_alphabet), 1000),
            )
            automaton, hom = decompose_transducer(t)
            assert apply_homomorphism(
                hom, run_mealy(automaton, w).output
            ) == run_transducer(t, w).output


class TestOutputInfiniteCheck:
    def test_all_images_nonempty(self, family):
        h = Homomorphism(BINARY, BINARY, {"0": "0", "1": "10"})
        assert output_infinite_check(h, family.source(), 16) == "infinite-evident"

    def test_silenced_periodic(self):
        h = Homomorphism(BINARY, Alphabet("a"), {"0": "", "1": "a"})
        src = periodic_source(bword("0"))
        assert output_infinite_check(h, src, 64) == "finite-so-far"

    def test_thue_morse_recurs(self):
        h = Homomorphism(BINARY, Alphabet("a"), {"0": "", "1": "a"})
        assert output_infinite_check(h, thue_morse_source(), 64) == "infinite-evident"


@st.composite
def machines_on_periods(draw, mealy=False):
    """A machine of at most 8 states over 1-3 input and 1-3 output letters,
    and an input period of at most 6 symbols.  A transducer emits 0-2
    symbols a step, in half of the draws mostly none, so that finite
    outputs are common."""
    inp = Alphabet("abc"[: draw(st.integers(1, 3))])
    out = Alphabet("xyz"[: draw(st.integers(1, 3))])
    states = [f"q{i}" for i in range(draw(st.integers(1, 8)))]
    lengths = [1] if mealy else draw(st.sampled_from([[0, 1, 2], [0, 0, 0, 1]]))
    transitions = {}
    for q in states:
        for a in inp:
            emitted = [
                draw(st.sampled_from(out.labels))
                for _ in range(draw(st.sampled_from(lengths)))
            ]
            transitions[(q, a)] = (draw(st.sampled_from(states)), emitted)
    if mealy:
        transitions = {key: (q2, em[0]) for key, (q2, em) in transitions.items()}
    machine = (MealyMachine if mealy else Transducer)(inp, out, states, states[0], transitions)
    period = FiniteWord.from_text(inp, draw(st.text(inp.labels, min_size=1, max_size=6)))
    return machine, period


# On (aab)^ω: the transient emits on (E, a) at offsets 1 and 3, then the
# run falls into the silent state S, so u = xx and v is empty.
REPEATED_TRANSIENT = (
    Transducer(
        Alphabet("ab"), Alphabet("x"), ["q0", "E", "F", "H", "S"], "q0",
        {
            ("q0", "a"): ("E", []), ("q0", "b"): ("S", []),
            ("E", "a"): ("F", ["x"]), ("E", "b"): ("S", []),
            ("F", "a"): ("H", []), ("F", "b"): ("E", []),
            ("H", "a"): ("S", []), ("H", "b"): ("S", []),
            ("S", "a"): ("S", []), ("S", "b"): ("S", []),
        },
    ),
    FiniteWord.from_text(Alphabet("ab"), "aab"),
)


class TestPeriodicInputOracle:
    """Machines on periodic input p^ω against ``conftest.periodic_output``,
    their exact output u·v^ω."""

    @given(machines_on_periods(), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_run_and_decomposition(self, case, extra):
        machine, period = case
        u, v = periodic_output(machine, period)
        # 2|Q| periods run the transient and at least one whole cycle.
        reps = 2 * len(machine.states) + extra
        word = FiniteWord(period.alphabet, np.tile(period.data, reps))
        automaton, hom = decompose_transducer(machine)
        for out in (
            run_transducer(machine, word).output,
            apply_homomorphism(hom, run_mealy(automaton, word).output),
        ):
            out = out.data.tolist()
            assert len(out) >= len(u) + len(v)
            assert out == omega_prefix(u, v, len(out))

    @given(machines_on_periods(mealy=True), st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_mealy_stream(self, case, n):
        machine, period = case
        u, v = periodic_output(machine, period)
        stream = run_mealy_stream(machine, periodic_source(period))
        assert stream.prefix_array(n).tolist() == omega_prefix(u, v, n)

    @given(machines_on_periods(), st.integers(0, 50))
    @example(REPEATED_TRANSIENT, 0)
    @settings(max_examples=60, deadline=None)
    def test_output_infinite_check_agrees(self, case, extra):
        # Past 4|Q||p| symbols the second half lies beyond the transient
        # and holds a whole cycle, so neither answer can be wrong.
        machine, period = case
        _, v = periodic_output(machine, period)
        automaton, hom = decompose_transducer(machine)
        pairs = run_mealy_stream(automaton, periodic_source(period))
        budget = 4 * len(machine.states) * len(period) + extra
        answer = output_infinite_check(hom, pairs, budget)
        assert answer != ("finite-so-far" if v else "infinite-evident")

    @given(machines_on_periods(), st.integers(1, 4), st.integers(0, 8), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_periodic_part_is_stable(self, case, k, extra, odd):
        machine, period = case
        _, v = periodic_output(machine, period)
        assume(v)
        half = 2 * len(v) + k + extra
        w = FiniteWord(machine.output_alphabet, omega_prefix([], v, 2 * half + odd))
        assert recurrence_stability(w, k).all_stable


MACHINE_TEXT = """\
# toggle machine
input: 0 1
output: 0 1
states: q0 q1
initial: q0
q0 0 -> q0 0
q0 1 -> q1 0
q1 0 -> q1 1
q1 1 -> q0 1
"""

TRANSDUCER_TEXT = """\
input: 0 1
output: a b
states: q
initial: q
q 0 -> q ab
q 1 -> q -
"""


# Labels that a definition file can misread: "a ba" runs together as
# "aba", which splits as "ab a"; "-" alone is the empty word's token; "#"
# starts a comment.
FILE_LABELS = ["a", "ab", "b", "ba", "-", "a#", "0", "1"]
FILE_ALPHABETS = st.lists(st.sampled_from(FILE_LABELS), min_size=1, max_size=4, unique=True)


@st.composite
def written_machines(draw):
    """A Mealy machine, transducer or homomorphism with 1-3 states and
    1-4 labels per alphabet, drawn from FILE_LABELS."""
    kind = draw(st.sampled_from([MealyMachine, Transducer, Homomorphism]))
    source = Alphabet(draw(FILE_ALPHABETS))
    target = Alphabet(draw(FILE_ALPHABETS))
    if kind is MealyMachine:
        emissions = st.sampled_from(target.labels)
    else:
        emissions = st.lists(st.sampled_from(target.labels), max_size=3)
    if kind is Homomorphism:
        return Homomorphism(source, target, {s: draw(emissions) for s in source})
    # A state label is any string: one holding a space, or an empty one,
    # cannot be written.
    state_labels = st.sampled_from([*FILE_LABELS, "q 0", ""])
    states = draw(st.lists(state_labels, min_size=1, max_size=3, unique=True))
    transitions = {
        (q, a): (draw(st.sampled_from(states)), draw(emissions)) for q in states for a in source
    }
    # A transducer emitting one symbol on every step reads back as Mealy.
    assume(kind is MealyMachine or any(len(e) != 1 for _, e in transitions.values()))
    return kind(source, target, states, draw(st.sampled_from(states)), transitions)


def written_tables(m):
    """Everything a definition file holds of a machine or homomorphism."""
    if isinstance(m, Homomorphism):
        return m.source, m.target, [m.image(s) for s in m.source]
    keys = range(m._next.size)
    return (
        type(m), m.input_alphabet, m.output_alphabet, m.states, m.initial,
        m._next.tolist(), [m._emit[k].tolist() for k in keys],
    )


class TestDefinitionFiles:
    @given(written_machines())
    @example(  # "a ba" is written "aba", which reads back as "ab a"
        Transducer(
            Alphabet("x"), Alphabet(["a", "ab", "b", "ba"]), ["q"], "q",
            {("q", "x"): ("q", ["a", "ba"])},
        )
    )
    @example(  # "-" emitted alone reads back as the empty word
        MealyMachine(
            Alphabet("x"), Alphabet(["-", "a"]), ["q"], "q", {("q", "x"): ("q", "-")}
        )
    )
    @example(  # "a#" is cut at the comment, so the file is over "a"
        MealyMachine(Alphabet("x"), Alphabet(["a#"]), ["q"], "q", {("q", "x"): ("q", "a#")})
    )
    @settings(deadline=None)
    def test_written_file_reads_back_as_written(self, m):
        if isinstance(m, Homomorphism):
            write, read = format_homomorphism, parse_homomorphism
            inputs, outputs, states = m.source, m.target, ()
        else:
            write, read = format_machine, parse_machine
            inputs, outputs, states = m.input_alphabet, m.output_alphabet, m.states
        try:
            text = write(m)
        except FormatError:
            # Only a label that a file can misread makes the writer refuse.
            assert (
                any("#" in s or s.split() != [s] for s in (*inputs, *outputs, *states))
                or "-" in outputs
                or not outputs.single_char
            )
            return
        assert written_tables(read(text)) == written_tables(m)


    def test_parse_mealy(self):
        machine = parse_machine(MACHINE_TEXT)
        assert isinstance(machine, MealyMachine)
        assert run_mealy(machine, bword("1101")).output.to_text() == "0100"

    def test_parse_transducer_with_dash(self):
        machine = parse_machine(TRANSDUCER_TEXT)
        assert isinstance(machine, Transducer)
        out = run_transducer(machine, bword("010")).output
        assert out.to_text() == "abab"

    def test_round_trip(self):
        machine = parse_machine(MACHINE_TEXT)
        again = parse_machine(format_machine(machine))
        for text in ("", "0", "1101", "111000"):
            assert (
                run_mealy(machine, bword(text)).output
                == run_mealy(again, bword(text)).output
            )

    def test_transducer_round_trip(self):
        machine = parse_machine(TRANSDUCER_TEXT)
        again = parse_machine(format_machine(machine))
        assert isinstance(again, Transducer)
        assert (
            run_transducer(again, bword("010")).output.to_text() == "abab"
        )

    def test_partial_table_rejected(self):
        broken = MACHINE_TEXT.replace("q1 1 -> q0 1\n", "")
        with pytest.raises(FormatError):
            parse_machine(broken)

    def test_bad_transition_line_number(self):
        broken = MACHINE_TEXT.replace("q1 0 -> q1 1", "q1 0 q1 1")
        with pytest.raises(FormatError) as err:
            parse_machine(broken)
        assert err.value.line == 8

    def test_undeclared_state(self):
        broken = MACHINE_TEXT.replace("q0 1 -> q1 0", "q0 1 -> q9 0")
        with pytest.raises(FormatError):
            parse_machine(broken)

    def test_homomorphism_round_trip(self, ab):
        h = Homomorphism(BINARY, ab, {"0": "ab", "1": ""})
        again = parse_homomorphism(format_homomorphism(h))
        assert apply_homomorphism(again, bword("0101")).to_text() == "abab"
