import numpy as np
import pytest

from apwords import BINARY, Alphabet, CounterexampleFamily, FiniteWord


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
