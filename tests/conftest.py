from collections import deque

import numpy as np
import pytest

from apwords import BINARY, Alphabet, CounterexampleFamily, FiniteWord, Transducer
from apwords.analysis import min_window_from_starts


@pytest.fixture
def family():
    return CounterexampleFamily()


@pytest.fixture
def ab():
    return Alphabet("ab")


def bword(text):
    return FiniteWord.from_text(BINARY, text)


def naive_occurrences(x, w):
    """Quadratic reference scan (oracle for the production scanner)."""
    xd, wd = x.data, w.data
    m, n = len(xd), len(wd)
    return [
        i for i in range(n - m + 1) if bool(np.array_equal(wd[i : i + m], xd))
    ]


def naive_mealy_run(next_state, out_symbol, initial, inp):
    """Step-by-step machine run (oracle for the machine-run kernel): in state
    q on symbol a, emit out_symbol[q, a] and move to next_state[q, a]."""
    states, out = [int(initial)], []
    for a in inp.tolist():
        q = states[-1]
        out.append(int(out_symbol[q, a]))
        states.append(int(next_state[q, a]))
    return np.array(states, np.int32), np.array(out, np.uint8)


def naive_transducer_run(next_state, emissions, initial, inp):
    """Step-by-step transducer run (oracle for the machine-run kernel and
    run_transducer): in state q on symbol a, emit the word emissions[q][a]
    (a list of symbol indices) and move to next_state[q, a].  Returns the
    states visited, each step's key q * |A| + a, the concatenated output
    and each step's emission length."""
    na = next_state.shape[1]
    states, keys, out, lengths = [int(initial)], [], [], []
    for a in inp.tolist():
        q = states[-1]
        keys.append(q * na + a)
        out.extend(emissions[q][a])
        lengths.append(len(emissions[q][a]))
        states.append(int(next_state[q, a]))
    return (
        np.array(states, np.int32),
        np.array(keys, np.int64),
        np.array(out, np.uint8),
        np.array(lengths, np.int64),
    )


def naive_stability(w, k, required=()):
    """Stability rows (factor text, count, min window over the first half,
    over all of w) from the definition (oracle for recurrence_stability):
    the distinct factors of length <= k of the first half, listed as
    tuples of symbols, plus the required factors; starts by
    naive_occurrences, windows by min_window_from_starts."""
    n, half = len(w), len(w) // 2
    head = tuple(w.data[:half].tolist())
    factors = {head[i : i + m] for m in range(1, k + 1) for i in range(half - m + 1)}
    factors |= {tuple(r.data.tolist()) for r in required}
    rows = []
    for symbols in sorted(factors, key=lambda f: (len(f), f)):
        x = FiniteWord(w.alphabet, symbols)
        starts = np.array(naive_occurrences(x, w), np.int64)
        in_half = starts[starts + len(x) <= half]
        rows.append(
            (
                x.to_text(),
                len(starts),
                min_window_from_starts(in_half, half, len(x)),
                min_window_from_starts(starts, n, len(x)),
            )
        )
    return rows


def naive_cut_search(w, k, cuts, required=()):
    """Smallest cut whose suffix has only stable rows in naive_stability
    (oracle for eap_cut_search); None when there is none."""
    for c in cuts:
        rows = naive_stability(w[c:], k, required)
        if all(half is not None and half == full for _, _, half, full in rows):
            return c
    return None


def periodic_output(machine, period):
    """The output of ``machine`` on the input ``period``^ω, exactly, as
    ``(u, v)`` with output u·v^ω (lists of output symbol indices): the
    period-boundary map q ↦ δ*(q, period) is iterated from the initial
    state, one transition at a time, until a state repeats, at most |Q|
    steps (oracle for runs over periodic input).  The output is finite,
    u alone, iff v is empty."""
    labels = [period.alphabet.label(int(a)) for a in period.data]
    seen, blocks = {}, []
    q = machine.initial
    while q not in seen:
        seen[q] = len(blocks)
        block = []
        for a in labels:
            q, emitted = Transducer.transition(machine, q, a)
            block += emitted.data.tolist()
        blocks.append(block)
    cycle = seen[q]
    return sum(blocks[:cycle], []), sum(blocks[cycle:], [])


# phi(0) = 01100, phi(1) = 10011: a_n = phi^n(1) (see family_word).
PHI = np.array([[0, 1, 1, 0, 0], [1, 0, 0, 1, 1]], np.uint8)


def phi_power(word, n):
    """phi^n of ``word``, a sequence of 0/1 symbols."""
    out = np.asarray(word, np.uint8)
    for _ in range(n):
        out = PHI[out].ravel()
    return out


def family_word(tau, n, level=0):
    """The first n symbols of the counterexample family's word for the
    repetition counts ``tau`` (a callable), from its morphism (oracle for
    CounterexampleFamily.prefix_array).  Block k is
    c_k = a_k^tau(k) = phi^k(1^tau(k)), so the word is S-adic:
    omega = 1^tau(0) . phi(omega'), where omega' is the word of the shifted
    table k -> tau(k + 1).  ``level`` is how often tau was shifted."""
    head = min(tau(level), n)
    if head == n:
        return np.ones(n, np.uint8)
    inner = family_word(tau, -(-(n - head) // 5), level + 1)
    return np.concatenate([np.ones(head, np.uint8), PHI[inner].ravel()[: n - head]])


def delay_machine_bfs(a):
    """The delay machine of the word ``a`` by breadth-first search over
    buffer tuples (oracle for ``delay_prepend_automaton``, which builds it
    as a shift register): the state labels in BFS order, the next-state
    table as lists of state indices, and the symbol each state emits (the
    first of its buffer)."""
    alph = a.alphabet
    sep = "" if alph.single_char else ","
    names = alph.labels
    if sep and any("," in label for label in names):
        names = [label.replace("\\", "\\\\").replace(",", "\\,") for label in names]
    start = tuple(a.data.tolist())
    # State tuple -> index, filled when the search first meets the state.
    index = {start: 0}
    queue = deque([start])
    next_state = {}
    while queue:
        u = queue.popleft()
        for s in range(len(alph)):
            v = u[1:] + (s,)
            if v not in index:
                index[v] = len(index)
                queue.append(v)
            next_state[u, s] = index[v]
    labels = tuple(sep.join(names[s] for s in u) for u in index)
    table = [[next_state[u, s] for s in range(len(alph))] for u in index]
    return labels, table, [u[0] for u in index]


def omega_prefix(u, v, n):
    """The first n symbols of u·v^ω, or all of u when v is empty."""
    reps = -(-max(n - len(u), 0) // len(v)) if v else 0
    return (u + v * reps)[:n]


def naive_output_infinite_check(h, source, budget):
    """The infinite-output check by its first definition, one scan of the
    prefix per emitting symbol (oracle for ``output_infinite_check``)."""
    lengths = h.image_lengths().tolist()
    if all(n > 0 for n in lengths):
        return "infinite-evident"
    data = source.prefix_array(budget).tolist()
    half = budget // 2
    for s in sorted({s for s in data if lengths[s] > 0}):
        pos = [i for i, t in enumerate(data) if t == s]
        if len(pos) >= 2 and pos[-1] >= half:
            return "infinite-evident"
    if not any(lengths[s] > 0 for s in data[half:]):
        return "finite-so-far"
    return "unknown"
