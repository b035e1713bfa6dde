"""Mealy machines, finite transducers and homomorphisms.

Machines are validated eagerly on construction (totality of the
transition table, declared states and symbols) and are immutable
afterwards; runs are pure functions of machine and input.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import AlphabetError, BudgetError, FormatError
from .sources import InfiniteWordSource
from .words import Alphabet, EmissionTable, FiniteWord, _encode, _gather, _lookup

INFINITE_EVIDENT = "infinite-evident"
FINITE_SO_FAR = "finite-so-far"
UNKNOWN = "unknown"

MAX_DELAY_STATES = 1 << 16


@dataclass(frozen=True, eq=False)
class RunTrace:
    """States visited (starting at the initial state), output, symbols read.

    ``state_index`` holds the states visited as indices into
    ``state_labels``; ``states``, the tuple of their labels, is built on
    first access.  The output is the machine's emissions on each step,
    concatenated; ``step_lengths[i]`` is the number of output symbols
    emitted by step i, in the narrowest unsigned dtype that holds the
    longest emission (a read-only broadcast of one value when every
    emission has the same length, as in a Mealy machine).  Two traces are
    equal when their states, outputs and symbol counts are.
    """

    state_labels: tuple[str, ...] = field(repr=False)
    state_index: np.ndarray = field(repr=False)
    output: FiniteWord
    consumed: int
    step_lengths: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.state_index.flags.writeable = False

    @cached_property
    def states(self) -> tuple[str, ...]:
        return tuple(np.array(self.state_labels, object)[self.state_index].tolist())

    def _key(self):
        return self.states, self.output, self.consumed

    def __eq__(self, other):
        if not isinstance(other, RunTrace):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _state_label(alphabet: Alphabet, indices) -> str:
    sep = "" if alphabet.single_char else ","
    return sep.join(map(alphabet.labels.__getitem__, indices))


def _emissions(words, alphabet: Alphabet) -> EmissionTable:
    """The table of ``words``, each a FiniteWord or a sequence of labels
    over ``alphabet``.  The label sequences are encoded in one pass; the
    first symbol ``alphabet`` lacks raises AlphabetError naming it and its
    position in its word."""
    lengths = np.fromiter(map(len, words), np.int64, len(words))
    spelled = [w for w in words if not isinstance(w, FiniteWord)]
    codes = _lookup(alphabet, list(chain.from_iterable(spelled)))
    if (codes < 0).any():
        for w in spelled:
            _encode(alphabet, w)
    cells = codes.astype(np.uint8)
    if len(spelled) < len(words):
        given = [w for w in words if isinstance(w, FiniteWord)]
        for w in given:
            if w.alphabet != alphabet:
                raise AlphabetError(f"emission {w!r} over wrong alphabet")
        in_spelled = np.repeat([not isinstance(w, FiniteWord) for w in words], lengths)
        cells = np.empty(in_spelled.shape[0], np.uint8)
        cells[in_spelled] = codes
        cells[~in_spelled] = np.concatenate([np.empty(0, np.uint8), *(w.data for w in given)])
    return EmissionTable.from_cells(lengths, cells)


class Transducer:
    """Finite automaton that emits a word (possibly empty) on each step.

    The emissions live in one :class:`EmissionTable` under the key
    ``state index * |input alphabet| + input symbol``.
    """

    def __init__(self, input_alphabet, output_alphabet, states, initial, transitions):
        """``transitions`` maps (state label, input label) to
        (next state label, output FiniteWord-or-label-list)."""
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise FormatError(f"duplicate state labels in {self.states}")
        if initial not in self.states:
            raise FormatError(f"initial state {initial!r} not declared")
        self.initial = initial
        state_idx = {q: i for i, q in enumerate(self.states)}
        nq, na = len(self.states), len(input_alphabet)
        next_state = [-1] * (nq * na)
        emissions = [None] * (nq * na)
        for (q, a), (q2, out) in transitions.items():
            if q not in state_idx:
                raise FormatError(f"transition from undeclared state {q!r}")
            if q2 not in state_idx:
                raise FormatError(f"transition to undeclared state {q2!r}")
            key = state_idx[q] * na + input_alphabet.index(a)
            next_state[key] = state_idx[q2]
            emissions[key] = out
        missing = [
            (self.states[k // na], input_alphabet.label(k % na))
            for k, emitted in enumerate(emissions)
            if emitted is None
        ]
        if missing:
            raise FormatError(f"transition table not total; missing {missing[:5]}")
        self._next = np.array(next_state, np.int32).reshape(nq, na)
        self._emit = _emissions(emissions, output_alphabet)
        self._initial_idx = state_idx[self.initial]
        self._state_idx = state_idx

    def transition(self, state: str, symbol: str) -> tuple[str, FiniteWord]:
        qi = self._state_idx[state]
        ai = self.input_alphabet.index(symbol)
        emitted = self._emit[qi * len(self.input_alphabet) + ai]
        return self.states[self._next[qi, ai]], FiniteWord(self.output_alphabet, emitted)


class MealyMachine(Transducer):
    """Transducer emitting exactly one output symbol per input symbol."""

    def __init__(self, input_alphabet, output_alphabet, states, initial, transitions):
        """``transitions`` maps (state label, input label) to
        (next state label, output label)."""
        super().__init__(
            input_alphabet,
            output_alphabet,
            states,
            initial,
            {key: (q2, [b]) for key, (q2, b) in transitions.items()},
        )

    def transition(self, state: str, symbol: str) -> tuple[str, str]:
        q2, out = super().transition(state, symbol)
        return q2, out[0]


class Homomorphism:
    """A word map determined by per-symbol images: h(uv) = h(u)h(v)."""

    def __init__(self, source: Alphabet, target: Alphabet, images):
        """``images`` maps every source label to a FiniteWord or label list."""
        self.source = source
        self.target = target
        for s in source:
            if s not in images:
                raise FormatError(f"no image for symbol {s!r}")
        self._images = _emissions([images[s] for s in source], target)

    def image(self, label: str) -> FiniteWord:
        return FiniteWord(self.target, self._images[self.source.index(label)])

    def image_lengths(self) -> np.ndarray:
        return self._images.lengths

    def __call__(self, w: FiniteWord) -> FiniteWord:
        return apply_homomorphism(self, w)


def apply_homomorphism(h: Homomorphism, w: FiniteWord) -> FiniteWord:
    if w.alphabet != h.source:
        raise AlphabetError("word is not over the homomorphism's source alphabet")
    return FiniteWord._wrap(h.target, h._images.expand(w.data))


def _run(machine: Transducer, data: np.ndarray):
    """States visited, step keys and output of ``machine`` on the input
    symbols ``data``."""
    return _kernels.mealy_run(machine._next, machine._emit, machine._initial_idx, data)


def run_transducer(machine: Transducer, word: FiniteWord) -> RunTrace:
    if word.alphabet != machine.input_alphabet:
        raise AlphabetError("input word is not over the machine's input alphabet")
    states, keys, out = _run(machine, word.data)
    lengths = machine._emit.lengths
    if np.ptp(lengths):
        step_lengths = _gather(lengths.astype(np.min_scalar_type(lengths.max())), keys)
    else:
        step_lengths = np.broadcast_to(lengths[0], keys.shape)
    return RunTrace(
        state_labels=machine.states,
        state_index=states,
        output=FiniteWord._wrap(machine.output_alphabet, out),
        consumed=len(word),
        step_lengths=step_lengths,
    )


# A Mealy machine is a transducer whose emissions all have length 1.
run_mealy = run_transducer


class MealyStreamSource(InfiniteWordSource):
    """Lazy automaton image of an infinite input word."""

    def __init__(self, machine: MealyMachine, inp: InfiniteWordSource):
        # One output symbol per input symbol keeps the output prefix of
        # length n the image of the input prefix of length n.
        if not isinstance(machine, MealyMachine):
            raise ValueError("a machine stream needs a Mealy machine")
        if inp.alphabet != machine.input_alphabet:
            raise AlphabetError("input source is not over the machine's input alphabet")
        super().__init__(machine.output_alphabet, budget=inp.budget)
        self.machine = machine
        self.input = inp

    def _prefix(self, n: int) -> np.ndarray:
        return _run(self.machine, self.input.prefix_array(n))[2]


def run_mealy_stream(machine: MealyMachine, inp: InfiniteWordSource) -> MealyStreamSource:
    return MealyStreamSource(machine, inp)


def delay_prepend_automaton(a: FiniteWord) -> MealyMachine:
    """Machine that buffers the last |a| inputs, so its output is a
    followed by the input stream (delayed by |a|).  Its sigma^L states
    (L = |a|) are not built past ``MAX_DELAY_STATES``: BudgetError."""
    if len(a) == 0:
        raise ValueError("delay word must be nonempty")
    alph = a.alphabet
    # sigma >= 2 passes the bound by L = 17; a unary word has one state.
    if len(alph) ** min(len(a), 17) > MAX_DELAY_STATES:
        raise BudgetError(
            f"the delay machine of {len(a)} symbols over {len(alph)} letters has "
            f"sigma^L = {len(alph)}^{len(a)} states, over the bound {MAX_DELAY_STATES}"
        )
    start = tuple(a.data.tolist())
    names = alph.labels
    transitions = {}
    # State tuple -> label, filled when the search first meets the state;
    # its insertion order is the BFS order of the states.
    labels = {start: _state_label(alph, start)}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for s, name in enumerate(names):
            v = u[1:] + (s,)
            if v not in labels:
                labels[v] = _state_label(alph, v)
                queue.append(v)
            transitions[(labels[u], name)] = (labels[v], names[u[0]])
    return MealyMachine(alph, alph, labels.values(), labels[start], transitions)


def reachable_states(machine) -> tuple[str, ...]:
    """States reachable from the initial state, in BFS order."""
    idx_to_label = machine.states
    seen = [False] * len(idx_to_label)
    order = []
    queue = deque([machine._initial_idx])
    seen[machine._initial_idx] = True
    while queue:
        q = queue.popleft()
        order.append(idx_to_label[q])
        for ai in range(len(machine.input_alphabet)):
            q2 = int(machine._next[q, ai])
            if not seen[q2]:
                seen[q2] = True
                queue.append(q2)
    return tuple(order)


def decompose_transducer(transducer: Transducer) -> tuple[MealyMachine, Homomorphism]:
    """Split a transducer into a Mealy machine over the pair alphabet
    (state, input symbol) and a homomorphism mapping each pair to the
    word the transducer emits on that transition.

    For every input w: h(run_mealy(F, w).output) == run_transducer(T, w).output.
    """
    reach = reachable_states(transducer)
    images = {}
    transitions = {}
    for q in reach:
        for a in transducer.input_alphabet:
            label = f"{q},{a}"
            # The base method returns the emitted word, also for a MealyMachine.
            q2, images[label] = Transducer.transition(transducer, q, a)
            transitions[(q, a)] = (q2, label)
    automaton = MealyMachine(
        transducer.input_alphabet,
        Alphabet(images),
        reach,
        transducer.initial,
        transitions,
    )
    hom = Homomorphism(automaton.output_alphabet, transducer.output_alphabet, images)
    return automaton, hom


def output_infinite_check(h: Homomorphism, source: InfiniteWordSource, budget: int) -> str:
    """Heuristic tri-state check whether h applied to the source yields an
    infinite word.  Only the length-`budget` prefix is scanned; the answer
    never claims more than that prefix can witness."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if source.alphabet != h.source:
        raise AlphabetError("source is not over the homomorphism's source alphabet")
    lengths = h.image_lengths()
    if np.all(lengths > 0):
        return INFINITE_EVIDENT
    data = source.prefix_array(budget)
    emitting = _gather(lengths > 0, data)
    half = budget // 2
    for s in np.unique(data[emitting]):
        pos = np.nonzero(data == s)[0]
        if pos.size >= 2 and int(pos[-1]) >= half:
            return INFINITE_EVIDENT
    if not np.any(emitting[half:]):
        return FINITE_SO_FAR
    return UNKNOWN


# ---------------------------------------------------------------------------
# definition file formats


def _split_emission(token: str, alphabet: Alphabet, empty: str | None) -> list[str]:
    if token == empty:
        return []
    if token in alphabet:
        return [token]
    if alphabet.single_char:
        return list(token)
    # Greedy longest-match tokenization for multi-character labels.
    out = []
    rest = token
    labels = sorted(alphabet.labels, key=len, reverse=True)
    while rest:
        for lab in labels:
            if rest.startswith(lab):
                out.append(lab)
                rest = rest[len(lab):]
                break
        else:
            raise FormatError(f"cannot split emission token {token!r} into symbols")
    return out


def _emission_word(token: str, alphabet: Alphabet, no: int, empty="-") -> FiniteWord:
    """The word emission ``token`` on line ``no`` spells over ``alphabet``;
    ``empty`` is the token for the empty word (None for no such token)."""
    try:
        labels = _split_emission(token, alphabet, empty)
        return FiniteWord._wrap(alphabet, _encode(alphabet, labels))
    except (FormatError, AlphabetError) as e:
        raise FormatError(str(e), line=no) from e


def _header(lines, lineno, key):
    if lineno >= len(lines):
        raise FormatError(f"missing {key!r} header line", line=lineno + 1)
    no, text = lines[lineno]
    if not text.startswith(key + ":"):
        raise FormatError(f"expected {key!r} header, got {text!r}", line=no)
    return no, text.split(":", 1)[1].split()


def _header_alphabet(lines, lineno, key) -> Alphabet:
    """The alphabet a header line declares; a fault carries that line."""
    no, labels = _header(lines, lineno, key)
    try:
        return Alphabet(labels)
    except AlphabetError as e:
        raise FormatError(str(e), line=no) from e


def _content_lines(text: str):
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((no, stripped))
    return out


def parse_machine(text: str):
    """Parse a machine definition file; returns a MealyMachine when every
    emission is a single output symbol, otherwise a Transducer."""
    lines = _content_lines(text)
    input_alphabet = _header_alphabet(lines, 0, "input")
    output_alphabet = _header_alphabet(lines, 1, "output")
    no, state_labels = _header(lines, 2, "states")
    declared = set(state_labels)
    if len(declared) != len(state_labels):
        raise FormatError(f"duplicate state labels in {tuple(state_labels)}", line=no)
    no, initial = _header(lines, 3, "initial")
    if len(initial) != 1:
        raise FormatError("initial header must name exactly one state", line=no)
    if initial[0] not in declared:
        raise FormatError(f"initial state {initial[0]!r} not declared", line=no)
    transitions = {}
    mealy = True
    for no, line in lines[4:]:
        tokens = line.split()
        if len(tokens) != 5 or tokens[2] != "->":
            raise FormatError(
                f"expected '<state> <sym> -> <state> <emission>', got {line!r}",
                line=no,
            )
        q, a, _, q2, emission = tokens
        if (q, a) in transitions:
            raise FormatError(f"duplicate transition for ({q!r}, {a!r})", line=no)
        if q not in declared or q2 not in declared or a not in input_alphabet:
            raise FormatError(f"undeclared state or input symbol in {line!r}", line=no)
        emitted = _emission_word(emission, output_alphabet, no)
        if len(emitted) != 1 or emission not in output_alphabet:
            mealy = False
        transitions[(q, a)] = (q2, emitted)
    if mealy:
        transitions = {k: (q2, em[0]) for k, (q2, em) in transitions.items()}
    kind = MealyMachine if mealy else Transducer
    return kind(input_alphabet, output_alphabet, state_labels, initial[0], transitions)


def format_machine(machine) -> str:
    lines = [
        "input: " + " ".join(machine.input_alphabet.labels),
        "output: " + " ".join(machine.output_alphabet.labels),
        "states: " + " ".join(machine.states),
        "initial: " + machine.initial,
    ]
    for q in machine.states:
        for a in machine.input_alphabet:
            q2, out = Transducer.transition(machine, q, a)
            lines.append(f"{q} {a} -> {q2} {out.to_text().replace(' ', '') or '-'}")
    return "\n".join(lines) + "\n"


def _image_lines(lines) -> list[tuple[int, str, str]]:
    """``(line number, symbol, image token)`` of each ``sym -> image`` line
    of a homomorphism or rules file; a symbol may have one line only."""
    rules = {}
    for no, line in lines:
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] != "->":
            raise FormatError(f"expected '<symbol> -> <image>', got {line!r}", line=no)
        sym, _, image = tokens
        if sym in rules:
            raise FormatError(f"duplicate image for {sym!r}", line=no)
        rules[sym] = (no, sym, image)
    return list(rules.values())


def parse_homomorphism(text: str) -> Homomorphism:
    lines = _content_lines(text)
    source = _header_alphabet(lines, 0, "source")
    target = _header_alphabet(lines, 1, "target")
    images = {}
    for no, sym, image in _image_lines(lines[2:]):
        if sym not in source:
            raise FormatError(f"image for {sym!r}, which is not a source symbol", line=no)
        images[sym] = _emission_word(image, target, no)
    return Homomorphism(source, target, images)


def format_homomorphism(h: Homomorphism) -> str:
    lines = [
        "source: " + " ".join(h.source.labels),
        "target: " + " ".join(h.target.labels),
    ]
    for s in h.source:
        token = h.image(s).to_text().replace(" ", "") or "-"
        lines.append(f"{s} -> {token}")
    return "\n".join(lines) + "\n"
