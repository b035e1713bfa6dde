"""Output checks, one per verb, made apart from the program.

Each check rebuilds what the operation should print from `reference` and
from the definitions below, never from a stored copy of an earlier output.
`check(op, out, code, ctx)` returns a list of problems; an empty list means
the output and the exit code are right.  Each `check_<verb>` returns the
exit code the operation should have given and the problems with its stdout.

Window lengths come from the definition: window [i, i+l-1] contains x iff
some occurrence start p has i <= p <= i+l-|x|.  Between two consecutive
starts the first window after a start is the hardest one, so only the
windows starting at 0 and at p+1 for each start p need testing.
"""

from __future__ import annotations

import random

import numpy as np

import reference
from workloads import Op, Source

_NONE = np.int64(1) << 62  # "no further occurrence"


# ---------------------------------------------------------------------------
# occurrences and windows


def find_starts(text: bytes, pattern: bytes) -> np.ndarray:
    """Every (overlapping) start of pattern in text, by bytes.find."""
    out, i = [], text.find(pattern)
    while i != -1:
        out.append(i)
        i = text.find(pattern, i + 1)
    return np.array(out, np.int64)


def _critical(starts: np.ndarray):
    crit = np.concatenate(([0], starts + 1))
    nxt = np.concatenate((starts, [_NONE]))
    return crit, nxt


def first_bad_window(starts: np.ndarray, n: int, m: int, length: int) -> int | None:
    """Smallest start of a length-`length` window of an n-symbol word that
    holds no occurrence of an m-symbol pattern; None if there is none."""
    if length < m:
        return 0
    crit, nxt = _critical(starts)
    bad = (crit <= n - length) & (nxt - crit > length - m)
    idx = np.flatnonzero(bad)
    return int(crit[idx[0]]) if idx.size else None


def min_window(starts: np.ndarray, n: int, m: int) -> int | None:
    """Smallest l such that every length-l window holds an occurrence.

    Window i = crit_j binds only while crit_j <= n - l, and then needs
    l >= nxt_j - crit_j + m; so l must be at least
    min(n - crit_j + 1, nxt_j - crit_j + m) for every j, and at least m.
    """
    if starts.size == 0:
        return None
    crit, nxt = _critical(starts)
    need = np.minimum(n - crit + 1, nxt - crit + m)
    return max(m, int(need.max()))


# ---------------------------------------------------------------------------
# factor tables for stability and cut-search


class FactorTable:
    """Every window of a word as an integer code, per length, grouped so the
    starts of each distinct factor are at hand."""

    def __init__(self, text: bytes):
        raw = np.frombuffer(text, np.uint8)
        symbols, self.sym = np.unique(raw, return_inverse=True)
        self.lut = {chr(s): i for i, s in enumerate(symbols)}
        self.bits = max(1, (len(symbols) - 1).bit_length())
        self.sym = self.sym.astype(np.int64)
        self.n = raw.size
        self._codes = {1: self.sym}
        self._groups = {}

    def codes(self, length: int) -> np.ndarray:
        if length * self.bits > 62:
            raise ValueError(f"factor length {length} too long to pack")
        top = max(self._codes)
        while top < length:
            prev = self._codes[top]
            self._codes[top + 1] = (prev[:-1] << self.bits) | self.sym[top:]
            top += 1
        return self._codes[length]

    def encode(self, factor: str) -> int | None:
        code = 0
        for ch in factor:
            if ch not in self.lut:
                return None  # a symbol the word never uses
            code = (code << self.bits) | self.lut[ch]
        return code

    def starts(self, length: int, code: int | None) -> np.ndarray:
        if code is None or length > self.n:
            return np.empty(0, np.int64)
        if length not in self._groups:
            codes = self.codes(length)
            order = np.argsort(codes, kind="stable")
            self._groups[length] = (codes[order], order)
        keys, order = self._groups[length]
        lo, hi = np.searchsorted(keys, [code, code + 1])
        return order[lo:hi].astype(np.int64)

    def half_codes(self, length: int, half: int) -> np.ndarray:
        """Distinct codes of the length-`length` factors of the first half."""
        return np.unique(self.codes(length)[: max(0, half - length + 1)])

    def windows(self, length: int, code: int | None):
        """(count, min window over the first half, min window over the word)."""
        full = self.starts(length, code)
        half = self.n // 2
        in_half = full[full <= half - length]
        return (
            int(full.size),
            min_window(in_half, half, length),
            min_window(full, self.n, length),
        )


def stable(entry) -> bool:
    _, half, full = entry
    return half is not None and half == full


def all_stable(table: FactorTable, k: int, required: tuple[str, ...]) -> bool:
    half = table.n // 2
    for r in required:
        if not stable(table.windows(len(r), table.encode(r))):
            return False
    for length in range(1, k + 1):
        for code in table.half_codes(length, half):
            if not stable(table.windows(length, int(code))):
                return False
    return True


def thue_morse_complexity(n: int) -> int:
    """Number of distinct length-n factors of Thue-Morse (Brlek 1989; de Luca
    and Varricchio 1989): 2, 4, 6 for n = 1..3; for n = 2^r + q + 1 with
    0 < q <= 2^r, 6*2^(r-1) + 4q if q <= 2^(r-1), else 8*2^(r-1) + 2q."""
    if n <= 3:
        return (1, 2, 4, 6)[n]
    r = (n - 2).bit_length() - 1
    q = n - 2**r - 1
    half = 2 ** (r - 1)
    return 6 * half + 4 * q if q <= half else 8 * half + 2 * q


# ---------------------------------------------------------------------------


class Context:
    """Reference texts for one workload, built once per source at the
    longest length its operations use."""

    def __init__(self, ops: list[Op]):
        self._need: dict[Source, int] = {}
        for op in ops:
            n = op.params.get("length")
            if op.source is not None and n:
                self._need[op.source] = max(self._need.get(op.source, 0), n)
        self._text: dict[Source, str] = {}
        self._bytes: dict[Source, bytes] = {}

    def text(self, src: Source, length: int) -> str:
        if src not in self._text:
            self._text[src] = reference.prefix(src, max(length, self._need.get(src, 0)))
        return self._text[src][:length]

    def data(self, src: Source, length: int) -> bytes:
        if src not in self._bytes:
            self._bytes[src] = self.text(src, self._need.get(src, length)).encode("ascii")
        return self._bytes[src][:length]


def _expect(problems, what, got, want):
    if got == want:
        return
    if isinstance(got, str) and isinstance(want, str):
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        what = f"{what} (lengths {len(got)}/{len(want)}, first difference at {i})"
        got, want = got[i : i + 40], want[i : i + 40]
    problems.append(f"{what}: got {repr(got)[:80]}, expected {repr(want)[:80]}")


def check_gen(op, out, ctx):
    problems = []
    _expect(problems, "prefix", out, ctx.text(op.source, op.params["length"]) + "\n")
    return 0, problems


def _starts(op, ctx):
    text = ctx.data(op.source, op.params["length"])
    return find_starts(text, op.params["pattern"].encode("ascii")), len(text)


def check_occ(op, out, ctx):
    problems = []
    starts, _ = _starts(op, ctx)
    _expect(problems, "starts", out, " ".join(map(str, starts.tolist())) + "\n")
    return 0, problems


def check_minwindow(op, out, ctx):
    problems = []
    starts, n = _starts(op, ctx)
    best = min_window(starts, n, len(op.params["pattern"]))
    _expect(problems, "min window", out, ("absent" if best is None else str(best)) + "\n")
    return 0, problems


def check_window(op, out, ctx):
    problems = []
    starts, n = _starts(op, ctx)
    bad = first_bad_window(starts, n, len(op.params["pattern"]), op.params["window"])
    _expect(problems, "window", out, "PASS\n" if bad is None else f"violation at {bad}\n")
    return (0 if bad is None else 1), problems


def _parse_report(out):
    lines = out.splitlines()
    if not lines or lines[0] != "factor\tcount\tmin_window_half\tmin_window_full\tstable":
        raise ValueError("missing stability header")
    rows = []
    for line in lines[1:]:
        factor, count, half, full, flag = line.split("\t")
        rows.append((factor, int(count), _window_cell(half), _window_cell(full), flag))
    return rows


def _window_cell(text):
    return None if text == "absent" else int(text)


def check_stability(op, out, ctx):
    problems = []
    try:
        rows = _parse_report(out)
    except ValueError as e:
        return 0, [f"unreadable report: {e}"]
    k, required = op.params["k"], op.params["required"]
    table = FactorTable(ctx.data(op.source, op.params["length"]))
    half = table.n // 2

    # 1. Each length's factors are the distinct factors of the first half,
    #    plus the required factors; sorted by length, then lexicographically.
    _expect(problems, "row order", [r[0] for r in rows],
            sorted((r[0] for r in rows), key=lambda f: (len(f), f)))
    listed: dict[int, set] = {}
    for factor, *_ in rows:
        listed.setdefault(len(factor), set()).add(factor)
    _expect(problems, "row count", len(rows), sum(len(s) for s in listed.values()))
    for length in range(1, max([k, *map(len, required)]) + 1):
        want = set()
        if length <= k:
            want = {int(c) for c in table.half_codes(length, half)}
        want |= {table.encode(r) for r in required if len(r) == length}
        got = {table.encode(f) for f in listed.get(length, ())}
        if got != want:
            problems.append(f"factors of length {length}: {len(got ^ want)} differ")

    # 2. Every row is recomputed: its count, both windows and the flag.
    for factor, count, h, f, flag in rows:
        entry = table.windows(len(factor), table.encode(factor))
        _expect(problems, f"entry {factor}", (count, h, f), entry)
        _expect(problems, f"stable flag of {factor}", flag, "yes" if stable(entry) else "no")

    # 3. Thue-Morse has a known number of factors of each length.
    if op.source.thue_morse:
        for length in range(1, k + 1):
            n_half = sum(1 for r in rows if len(r[0]) == length and r[2] is not None)
            _expect(problems, f"Thue-Morse factors of length {length}",
                    n_half, thue_morse_complexity(length))
    return 0, problems


def check_cut_search(op, out, ctx):
    problems = []
    cuts, k, required = op.params["cuts"], op.params["k"], op.params["required"]
    text = ctx.data(op.source, op.params["length"])
    if out == "absent\n":
        found = None
    elif out.startswith("cut ") and out[4:].strip().isdigit():
        found = int(out[4:])
    else:
        return 0, [f"unreadable cut-search output {out[:40]!r}"]
    if found is not None and found not in cuts:
        return 0, [f"cut {found} is not one of the listed cuts"]
    for c in cuts:
        if found is not None and c > found:
            break
        ok = all_stable(FactorTable(text[c:]), k, required)
        if ok != (c == found):
            problems.append(f"cut {c} is {'stable' if ok else 'unstable'}, "
                            f"but the output is {out.strip()!r}")
    return 0, problems


def check_run(op, out, ctx):
    problems = []
    symbols = ctx.text(op.source, op.params["length"])
    if "delay" in op.params:
        a = op.params["delay"]
        states, emitted = reference.delay_run(a, symbols)
        if not op.params["emit"]:
            _expect(problems, "a . input", out, a + symbols[: len(symbols) - len(a)] + "\n")
    else:
        states, emitted = reference.Machine(op.params["machine"]).walk(symbols)
    if op.params["emit"]:
        tokens = []
        for q, em in zip(states, emitted):
            tokens.append("@" + q)
            tokens.extend(em)
        want = " ".join(tokens) + "\n"
    else:
        want = "".join(s for em in emitted for s in em) + "\n"
    _expect(problems, "run output", out, want)
    return 0, problems


def check_decompose(op, out, ctx):
    problems = []
    if op.params["outputs"]:
        auto_path, hom_path = op.params["outputs"]
        with open(auto_path, encoding="utf-8") as fh:
            auto_text = fh.read()
        with open(hom_path, encoding="utf-8") as fh:
            hom_text = fh.read()
        _expect(problems, "stdout", out, "")
    else:
        cut = out.find("\nsource:")
        if cut < 0:
            return 0, ["no homomorphism in the output"]
        auto_text, hom_text = out[: cut + 1], out[cut + 1 :]
    automaton = reference.Machine(auto_text)
    h = reference.parse_homomorphism(hom_text)
    machine = reference.Machine(op.params["machine"])
    if any(len(em) != 1 for _, em in automaton.delta.values()):
        problems.append("the automaton is not a Mealy machine")
    rng = random.Random(" ".join(op.argv))
    words = ["".join(rng.choice("01") for _ in range(500)) for _ in range(3)]
    words.append(reference.paper_prefix(2000))
    for w in words:
        _, pairs = automaton.walk(w)
        mapped = "".join(s for p in pairs for label in p for s in h[label])
        _, emitted = machine.walk(w)
        if mapped != "".join(s for em in emitted for s in em):
            problems.append("h(F(w)) differs from T(w)")
            break
    return 0, problems


def check_verify(op, out, ctx):
    problems = []
    max_n, tamper = op.params["max_n"], op.params["tamper"]
    labels = [f"block-layout n={n}" for n in range(max_n + 1)]
    for n in range(1, max_n + 1):
        labels += [f"{c} n={n}" for c in
                   ("pair-containment", "alignment", "c-absent", "window-bound")]
    lines = out.splitlines()
    _expect(problems, "check labels", [ln.split(" ", 1)[-1] for ln in lines], labels)
    verdicts = [ln.split(" ", 1)[0] for ln in lines]
    if tamper is None:
        _expect(problems, "verdicts", verdicts, ["PASS"] * len(labels))
        return 0, problems
    if "FAIL" not in verdicts:
        problems.append(f"tamper index {tamper} gave no FAIL line")
    return 1, problems


CHECKS = {
    "gen": check_gen,
    "occ": check_occ,
    "minwindow": check_minwindow,
    "window": check_window,
    "stability": check_stability,
    "cut-search": check_cut_search,
    "run": check_run,
    "decompose": check_decompose,
    "verify-thm1": check_verify,
}


def check(op: Op, out: str, code: int | None, ctx: Context) -> list[str]:
    """Problems with one operation's stdout and exit code; [] when right."""
    want, problems = CHECKS[op.verb](op, out, ctx)
    _expect(problems, "exit code", code, want)
    return problems
