"""Reference words and machine walks, written from the definitions alone.

Nothing here imports apwords: the benchmark checks the program's outputs
against these.

* The counterexample family: a_0 = 1, a_{n+1} = a_n bar(a_n) bar(a_n) a_n a_n,
  block n = a_n repeated tau(n) times (tau(n) = 10 past the table).
* Thue-Morse: symbol i is popcount(i) mod 2.
* Periodic words and other morphic fixed points: string repetition and
  iterated string substitution.
* Machines: the definition file is parsed here and walked step by step.
"""

from __future__ import annotations

from workloads import COMPLEMENT, Source, thue_morse_prefix


def paper_prefix(length: int, tau: tuple[int, ...] = ()) -> str:
    pieces, total, n, a = [], 0, 0, "1"
    while total < length:
        reps = tau[n] if n < len(tau) else 10
        need = length - total
        piece = (a * min(reps, -(-need // len(a))))[:need]
        pieces.append(piece)
        total += len(piece)
        b = a.translate(COMPLEMENT)
        a = a + b + b + a + a
        n += 1
    return "".join(pieces)


def morphic_prefix(length: int, rules, seed: str) -> str:
    table = str.maketrans(dict(rules))
    w = seed
    while len(w) < length:
        w = w.translate(table)
    return w[:length]


def prefix(src: Source, length: int) -> str:
    """The first `length` symbols of the source's infinite word."""
    if src.kind == "paper":
        return paper_prefix(length, src.tau)
    if src.kind == "periodic":
        p = src.period
        return (p * (length // len(p) + 1))[:length]
    if src.thue_morse:
        return thue_morse_prefix(length)
    return morphic_prefix(length, src.rules, src.seed)


class Machine:
    """A machine definition file: header lines, then `q a -> q2 emission`."""

    def __init__(self, text: str):
        lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln]
        head = {}
        for key, line in zip(("input", "output", "states", "initial"), lines):
            name, _, rest = line.partition(":")
            if name != key:
                raise ValueError(f"expected {key!r} header, got {line!r}")
            head[key] = rest.split()
        self.inputs, self.outputs = head["input"], head["output"]
        self.states, self.initial = head["states"], head["initial"][0]
        self.delta = {}
        for line in lines[4:]:
            q, a, arrow, q2, emission = line.split()
            if arrow != "->":
                raise ValueError(f"bad transition line {line!r}")
            self.delta[(q, a)] = (q2, self._symbols(emission))

    def _symbols(self, token: str) -> list[str]:
        if token == "-":
            return []
        if token in self.outputs:
            return [token]
        return list(token)  # a word over one-character output labels

    def walk(self, symbols) -> tuple[list[str], list[list[str]]]:
        """States before each step (plus the final one) and each step's emission."""
        q, states, emitted = self.initial, [self.initial], []
        for a in symbols:
            q, out = self.delta[(q, a)]
            states.append(q)
            emitted.append(out)
        return states, emitted


def parse_homomorphism(text: str) -> dict[str, list[str]]:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not (lines[0].startswith("source:") and lines[1].startswith("target:")):
        raise ValueError("homomorphism file needs source: and target: headers")
    target = lines[1].split(":", 1)[1].split()
    images = {}
    for line in lines[2:]:
        sym, arrow, image = line.split()
        if arrow != "->":
            raise ValueError(f"bad image line {line!r}")
        if image == "-":
            images[sym] = []
        elif image in target:
            images[sym] = [image]
        else:
            images[sym] = list(image)
    return images


def delay_run(word: str, symbols) -> tuple[list[str], list[list[str]]]:
    """Walk the delay machine for `word`: its state is the last |word|
    symbols read (initially `word`), and each step emits the oldest."""
    q, states, emitted = word, [word], []
    for a in symbols:
        emitted.append([q[0]])
        q = q[1:] + a
        states.append(q)
    return states, emitted
