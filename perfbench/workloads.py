"""Seeded operation lists for the three workloads.

Everything here is plain Python (no numpy, no apwords), so the workload
process and the checking process build the same list from the same seed.
A workload is a list of `Op`s plus the input files they read; the files are
written by the workload process, which passes only their paths and plain
arguments to the program.

Sizes and the mix of verbs are fixed per workload; the seed picks the
contents (tau tables, morphisms, machines, patterns, cuts) and jitters each
length by at most 1%, so two seeds load the program alike.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("recurrence", "scan", "transduce")

INPUT_DIR = "inputs"  # under the run's work directory
OUTPUT_DIR = "outputs"


@dataclass(frozen=True)
class Source:
    """An infinite word the program generates from `gen` (its --gen spec).

    kind is "paper", "periodic" or "morphic"; the other fields are what a
    reference builder needs: the tau table, the period word, or the morphism
    rules in file order and the seed symbol.
    """

    kind: str
    gen: str
    tau: tuple[int, ...] = ()
    period: str = ""
    rules: tuple[tuple[str, str], ...] = ()
    seed: str = ""

    @property
    def thue_morse(self) -> bool:
        return self.kind == "morphic" and self.rules == TM_RULES and self.seed == "0"


@dataclass
class Op:
    """One call of `apwords.cli.main(argv)`.

    `size` is the input size reported per operation (symbols of the input
    word, or transitions for `decompose`); `params` holds what the output
    check needs beyond the argv.
    """

    verb: str
    argv: list[str]
    size: int
    source: Source | None = None
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    files: dict[str, str]  # path (relative to the repository root) -> content
    ops: list[Op]


TM_RULES = (("0", "01"), ("1", "10"))
COMPLEMENT = str.maketrans("01", "10")


def a_word(n: int) -> str:
    """a_0 = 1, a_{n+1} = a_n bar(a_n) bar(a_n) a_n a_n."""
    a = "1"
    for _ in range(n):
        b = a.translate(COMPLEMENT)
        a = a + b + b + a + a
    return a


def l_index(n: int, tau: tuple[int, ...] = ()) -> int:
    """Start of block n: sum of tau(k) * 5^k over k < n (tau defaults to 10)."""
    return sum((tau[k] if k < len(tau) else 10) * 5**k for k in range(n))


def window_bound(n: int) -> int:
    """The window length the paper's bound gives for a_n (as verify-thm1 uses)."""
    return 5 * (5 ** (n + 2) - 1) // 2 + 2 * 5 ** (n + 2)


def thue_morse_prefix(n: int) -> str:
    return "".join("1" if i.bit_count() & 1 else "0" for i in range(n))


class _Builder:
    """Collects files and ops while drawing every choice from one seeded RNG."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.rng = random.Random(f"{name}:{seed}")
        self.indir = f"{workdir}/{INPUT_DIR}"
        self.outdir = f"{workdir}/{OUTPUT_DIR}"
        self.files: dict[str, str] = {}
        self.ops: list[Op] = []

    def length(self, base: int) -> int:
        return round(base * self.rng.uniform(0.99, 1.01))

    def file(self, name: str, content: str) -> str:
        path = f"{self.indir}/{name}"
        self.files[path] = content
        return path

    def op(self, verb, args, size, source=None, **params):
        self.ops.append(Op(verb, [verb, *args], size, source, params))

    # -- sources ---------------------------------------------------------

    def paper(self) -> Source:
        return Source("paper", "paper")

    def paper_tau(self, tag: str) -> Source:
        tau = tuple(self.rng.choice((9, 10)) for _ in range(12))
        path = self.file(f"tau_{tag}.txt", "".join(f"{t}\n" for t in tau))
        return Source("paper", f"paper:{path}", tau=tau)

    def thue_morse(self) -> Source:
        path = self.file("tm.rules", "".join(f"{s} -> {img}\n" for s, img in TM_RULES))
        return Source("morphic", f"morphic:{path}:0", rules=TM_RULES, seed="0")

    def periodic(self, length: int) -> Source:
        # A primitive binary word with both symbols, so every workload seed
        # gives `length` distinct long factors.
        while True:
            p = "".join(self.rng.choice("01") for _ in range(length))
            if "0" in p and "1" in p and (p + p).find(p, 1) == length:
                return Source("periodic", f"periodic:{p}", period=p)

    # -- patterns --------------------------------------------------------

    def binary(self, m: int) -> str:
        """A seeded word holding both 0 and 1 (the program infers an inline
        word's alphabet from the symbols it holds)."""
        while True:
            w = "".join(self.rng.choice("01") for _ in range(m))
            if "0" in w and "1" in w:
                return w

    def factor(self, src: Source, lo: int, hi: int) -> str:
        """A seeded factor of the source's word, cut from a short stretch
        that is known to occur in it."""
        m = self.rng.randint(lo, hi)
        if src.kind == "paper":
            stretch = a_word(4)  # every a_n with n >= 1 occurs in the word
        elif src.kind == "periodic":
            stretch = src.period * (m // len(src.period) + 2)
        else:
            stretch = thue_morse_prefix(4096)
        i = self.rng.randrange(len(stretch) - m + 1)
        return stretch[i : i + m]

    def absent(self, src: Source, m: int) -> str:
        """A seeded pattern that cannot occur: 0000 never occurs in the paper
        family (its blocks are runs of 1 and words over a_1, bar(a_1)), 000
        never occurs in Thue-Morse (it is cube-free)."""
        core = "0000" if src.kind == "paper" else "000"
        bits = "".join(self.rng.choice("01") for _ in range(m - len(core)))
        i = self.rng.randint(0, len(bits))
        return bits[:i] + core + bits[i:]


# ---------------------------------------------------------------------------
# recurrence: stability and cut-search over 10^4..10^5-symbol prefixes


def _recurrence(b: _Builder) -> None:
    sources = [b.paper(), b.paper_tau("r"), b.thue_morse(), b.periodic(13)]
    for src in sources:
        gen = ["--gen", src.gen]
        for base, k in ((10_000, 20), (30_000, 12), (100_000, 6), (100_000, 12)):
            n = b.length(base)
            b.op("stability", ["--max-len", str(k), *gen, "--length", str(n)], n, src,
                 k=k, length=n, required=())
        # With --require; on the aperiodic words at the size of the largest
        # plain run, so that the slowest tenth of the operations are alike
        # and op_p90_ms does not sit on a gap between two sizes.
        aperiodic = src.kind != "periodic"
        n, k = (b.length(100_000), 12) if aperiodic else (b.length(10_000), 8)
        required = (b.factor(src, 9, 14),)
        if aperiodic:
            required += (b.absent(src, 8),)
        req_args = [a for r in required for a in ("--require", r)]
        b.op("stability", ["--max-len", str(k), *req_args, *gen, "--length", str(n)], n, src,
             k=k, length=n, required=required)
        n = b.length(30_000)
        cuts = sorted(b.rng.sample(range(0, 2000), 4))
        b.op("cut-search", ["--max-len", "8", "--cuts", ",".join(map(str, cuts)),
                            *gen, "--length", str(n)], n, src,
             k=8, length=n, cuts=tuple(cuts), required=())
        n = b.length(100_000)
        cuts = sorted(b.rng.sample(range(0, 5000), 3))
        required = (b.factor(src, 10, 16),)
        b.op("cut-search", ["--max-len", "10", "--cuts", ",".join(map(str, cuts)),
                            "--require", required[0], *gen, "--length", str(n)], n, src,
             k=10, length=n, cuts=tuple(cuts), required=required)


# ---------------------------------------------------------------------------
# scan: few long scans over 10^6..10^7-symbol prefixes


def _scan(b: _Builder) -> None:
    paper, tau = b.paper(), b.paper_tau("s")
    tm, per = b.thue_morse(), b.periodic(11)
    zeros = Source("periodic", "periodic:0", period="0")

    def word(src, base):
        n = b.length(base)
        return ["--gen", src.gen, "--length", str(n)], n

    n = b.length(10**7)
    b.op("gen", ["--family", "paper", "--length", str(n)], n, paper, length=n)
    n = b.length(10**7)
    b.op("gen", ["--family", "paper", "--tau-file", tau.gen.split(":", 1)[1],
                 "--length", str(n)], n, tau, length=n)
    n = b.length(10**7)
    b.op("gen", ["--family", "periodic", "--word", per.period, "--length", str(n)],
         n, per, length=n)
    n = b.length(10**6)
    rules = tm.gen.split(":")[1]
    b.op("gen", ["--family", "morphic", "--rules", rules, "--seed", "0",
                 "--length", str(n)], n, tm, length=n)

    def occ(pattern, src, base):
        args, n = word(src, base)
        b.op("occ", ["--pattern", pattern, *args], n, src, pattern=pattern, length=n)

    def minwindow(pattern, src, base):
        args, n = word(src, base)
        b.op("minwindow", ["--pattern", pattern, *args], n, src, pattern=pattern, length=n)

    def window(pattern, wl, src, base):
        args, n = word(src, base)
        b.op("window", ["--pattern", pattern, "--window-length", str(wl), *args], n, src,
             pattern=pattern, window=wl, length=n)

    a = {i: a_word(i) for i in (1, 2, 3)}
    bar = {i: w.translate(COMPLEMENT) for i, w in a.items()}
    occ(a[1], paper, 10**6)
    occ(bar[1], tau, 10**6)
    occ(a[2], tau, 10**7)
    occ(a[3], paper, 10**7)
    occ(bar[3], tau, 10**7)
    occ(b.factor(paper, 10, 16), paper, 10**6)
    occ(b.factor(tm, 8, 12), tm, 10**6)
    occ(b.factor(per, 12, 20), per, 10**6)
    occ(b.absent(paper, 24), paper, 10**7)
    for i in (1, 2, 3):
        minwindow(a[i], paper if i != 2 else tau, 10**7)
    minwindow(bar[1], tau, 10**7)
    minwindow(b.factor(tm, 6, 9), tm, 10**6)
    minwindow(b.absent(paper, 20), paper, 10**6)
    minwindow(b.factor(per, 12, 20), per, 10**6)
    # The highly periodic case, 0^m over 0^n, costs about m scans of the
    # text; m stays near 100 so these take as long as the other slow scans.
    minwindow("0" * (100 + b.rng.randint(-3, 3)), zeros, 10**6)
    window("0" * (80 + b.rng.randint(-3, 3)), 80 + b.rng.randint(10, 40), zeros, 10**6)
    # Window lengths at the paper's bound hold; ones just above |x| break early.
    window(a[1], window_bound(1) + b.rng.randint(0, 50), paper, 10**7)
    window(bar[1], window_bound(1) + b.rng.randint(0, 50), tau, 10**7)
    window(a[2], window_bound(2) + b.rng.randint(0, 50), paper, 10**7)
    window(a[2], 25 + b.rng.randint(0, 10), tau, 10**7)
    window(b.factor(per, 8, 12), 11 + 12 + b.rng.randint(0, 5), per, 10**6)

    def verify(max_n, base, src, tamper):
        horizon = b.length(base)
        args = ["--max-n", str(max_n), "--horizon", str(horizon)]
        if src.tau:
            args += ["--tau-file", src.gen.split(":", 1)[1]]
        index = None
        if tamper:
            index = b.rng.randrange(l_index(max_n + 1, src.tau))
            args += ["--tamper-index", str(index)]
        b.op("verify-thm1", args, horizon, src, max_n=max_n, tamper=index)

    verify(3, 10**6, paper, False)
    verify(4, 15 * 10**5, tau, False)
    verify(3, 10**6, tau, True)
    verify(3, 2 * 10**6, paper, True)


# ---------------------------------------------------------------------------
# transduce: machine runs, decomposition and morphic expansion


def _machine_text(states, transitions) -> str:
    lines = ["input: 0 1", "output: 0 1", "states: " + " ".join(states),
             "initial: " + states[0]]
    lines += [f"{q} {a} -> {q2} {em or '-'}" for (q, a), (q2, em) in transitions.items()]
    return "\n".join(lines) + "\n"


def _mealy(b: _Builder, tag: str, nstates: int) -> str:
    states = [f"m{i}" for i in range(nstates)]
    transitions = {
        (q, a): (b.rng.choice(states), b.rng.choice("01")) for q in states for a in "01"
    }
    return b.file(f"mealy_{tag}.machine", _machine_text(states, transitions))


def _transducer(b: _Builder, tag: str) -> str:
    # Four states, eight transitions; the emission lengths are always
    # 0, 0, 1, 1, 2, 2, 3, 3 in a seeded order, so the file is a transducer
    # with empty and multi-symbol emissions whatever the seed.
    states = [f"t{i}" for i in range(4)]
    lengths = [0, 0, 1, 1, 2, 2, 3, 3]
    b.rng.shuffle(lengths)
    transitions = {}
    for (q, a), m in zip(((q, a) for q in states for a in "01"), lengths):
        emission = "".join(b.rng.choice("01") for _ in range(m))
        transitions[(q, a)] = (b.rng.choice(states), emission)
    return b.file(f"trans_{tag}.machine", _machine_text(states, transitions))


def _transduce(b: _Builder) -> None:
    paper, tau, tm = b.paper(), b.paper_tau("t"), b.thue_morse()
    ones = Source("periodic", "periodic:1", period="1")
    delay2, delay4 = b.binary(2), b.binary(4)  # 4 and 16 states
    mealy = [_mealy(b, str(i), 5) for i in range(2)]
    trans = [_transducer(b, str(i)) for i in range(2)]
    texts = b.files

    def run(machine_args, src, base, emit=False, **params):
        n = b.length(base)
        args = [*machine_args, "--gen", src.gen, "--length", str(n)]
        if emit:
            args.append("--emit-states")
        b.op("run", args, n, src, length=n, emit=emit, **params)

    def run_delay(word, src, base, emit=False):
        run(["--delay-prepend", word], src, base, emit, delay=word)

    def run_machine(path, src, base, emit=False):
        run(["--machine", path], src, base, emit, machine=texts[path])

    run_delay(delay4, paper, 10**5)
    run_delay(delay4, tau, 10**5)
    run_delay(delay2, tm, 10**5)
    run_delay(delay2, paper, 10**5, emit=True)
    run_delay(delay4, tau, 10**5, emit=True)
    run_delay(delay4, ones, 10**5)
    run_delay(delay2, ones, 10**5, emit=True)
    for path in mealy:
        run_machine(path, paper, 10**5)
        run_machine(path, tm, 10**5, emit=True)
        run_machine(path, ones, 10**5)
    for path in trans:
        run_machine(path, paper, 10**5)
        run_machine(path, tm, 10**5)
        run_machine(path, paper, 2 * 10**4, emit=True)
        run_machine(path, ones, 10**5)
    # The long runs, sized to take about as long as each other and as the
    # 10^6-symbol Thue-Morse expansion below, so that the slowest tenth of
    # the operations are alike and op_p90_ms does not sit on a gap.
    run_delay(delay4, paper, 5 * 10**5)
    run_delay(delay2, tau, 5 * 10**5)
    run_machine(mealy[0], paper, 4 * 10**5)
    run_machine(trans[0], tau, 3 * 10**5)
    run_machine(trans[1], paper, 3 * 10**5)
    for i, path in enumerate(trans):
        b.op("decompose", ["--machine", path], 8, machine=texts[path], outputs=None)
        auto = f"{b.outdir}/decomposed_{i}.machine"
        hom = f"{b.outdir}/decomposed_{i}.hom"
        b.op("decompose", ["--machine", path, "--automaton-out", auto,
                           "--homomorphism-out", hom], 8,
             machine=texts[path], outputs=(auto, hom))

    # Morphic expansion: Thue-Morse and a seeded uniform morphism of length
    # 3 (uniform, so the expansion costs the same for every seed).
    rules = tm.gen.split(":")[1]
    for base in (10**5, 10**6):
        n = b.length(base)
        b.op("gen", ["--family", "morphic", "--rules", rules, "--seed", "0",
                     "--length", str(n)], n, tm, length=n)
    images = (("0", "0" + "".join(b.rng.choice("01") for _ in range(2))),
              ("1", "".join(b.rng.choice("01") for _ in range(3))))
    path = b.file("uniform3.rules", "".join(f"{s} -> {img}\n" for s, img in images))
    seeded = Source("morphic", f"morphic:{path}:0", rules=images, seed="0")
    n = b.length(5 * 10**5)
    b.op("gen", ["--family", "morphic", "--rules", path, "--seed", "0",
                 "--length", str(n)], n, seeded, length=n)


_BUILDERS = {"recurrence": _recurrence, "scan": _scan, "transduce": _transduce}


def build(name: str, seed: int, workdir: str) -> Workload:
    """The seeded workload `name`; input paths are under `workdir`."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    b = _Builder(name, seed, workdir)
    _BUILDERS[name](b)
    return Workload(b.files, b.ops)
