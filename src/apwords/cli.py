"""Command-line surface.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or parse error, 3 budget or insufficient data, 4 data mismatch
(wrong alphabet), each error's code from the one table ``EXIT_CODES``.
Long outputs (``gen``, ``occ``, ``run``) are written in slices by ``_write``.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import analysis
from .analysis import check_window, eap_cut_search, min_window, recurrence_stability
from .errors import (
    AlphabetError,
    ApwordsError,
    BudgetError,
    EmptyPatternError,
    FormatError,
    InsufficientDataError,
)
from .generators import (
    CounterexampleFamily,
    load_morphism_rules,
    load_tau_table,
    morphic_source,
    periodic_source,
)
from .machines import (
    MealyMachine,
    decompose_transducer,
    delay_prepend_automaton,
    format_homomorphism,
    format_machine,
    parse_machine,
    run_transducer,
)
from .words import (
    Alphabet,
    FiniteWord,
    _encode,
    _gather,
    _lookup,
    occurrences,
    parse_word,
    render_starts,
    render_symbols,
    render_tokens,
    token_table,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4

# The exit code of each error class main reports; the first match wins.
EXIT_CODES = (
    ((BudgetError, InsufficientDataError), EXIT_BUDGET),
    (AlphabetError, EXIT_MISMATCH),
    ((ApwordsError, OSError, ValueError), EXIT_USAGE),
)

CHUNK = 1 << 20


class _TamperedFamily(CounterexampleFamily):
    """Test hook: flips one symbol of every materialized prefix."""

    def __init__(self, index, **kwargs):
        super().__init__(**kwargs)
        self.tamper_index = int(index)

    def prefix_array(self, length):
        arr = super().prefix_array(length)
        if self.tamper_index < arr.shape[0]:
            arr[self.tamper_index] ^= 1
        return arr


def _relabel(word: FiniteWord, alphabet: Alphabet) -> FiniteWord:
    """``word`` mapped label by label onto ``alphabet``: one gather through
    the indices of the word's labels in ``alphabet``, reporting the first
    symbol that ``alphabet`` lacks and its position."""
    codes = _gather(_lookup(alphabet, word.alphabet.labels), word.data)
    return FiniteWord._wrap(alphabet, _encode(alphabet, word, codes))


def _family_source(family: str, arg: str | None, seed: str | None):
    """The source of a generator family: 'paper' with an optional tau
    file, 'periodic' with its period word, 'morphic' with its rules file
    and seed symbol."""
    if family == "paper":
        tau = load_tau_table(arg) if arg else None
        return CounterexampleFamily(tau=tau).source()
    if family == "periodic":
        return periodic_source(parse_word(arg))
    return morphic_source(load_morphism_rules(arg), seed)


def _build_source(spec: str):
    """Build a source from a generator spec: 'paper', 'paper:TAUFILE',
    'periodic:WORD' or 'morphic:RULESFILE:SEED'."""
    kind, _, rest = spec.partition(":")
    seed = None
    if kind == "periodic" and not rest:
        raise FormatError("periodic spec needs a period word: periodic:WORD")
    if kind == "morphic":
        # Seeds are one character (rule symbols are); the path may hold colons.
        rest, colon, seed = rest[:-2], rest[-2:-1], rest[-1:]
        if not rest or colon != ":":
            raise FormatError("morphic spec needs morphic:RULESFILE:SEED (one-symbol SEED)")
    elif kind not in ("paper", "periodic"):
        raise FormatError(f"unknown generator family {kind!r}")
    return _family_source(kind, rest, seed)


def _input_word(args, parser) -> FiniteWord:
    """Resolve the shared word-input options to a finite word."""
    if [args.word, args.word_file, args.gen].count(None) != 2:
        parser.error("give exactly one of --word, --word-file, --gen")
    word = _generated_word(args, parser)
    if word is not None:
        return word
    if args.word is not None:
        return parse_word(args.word)
    with open(args.word_file, "r", encoding="utf-8") as fh:
        return parse_word(fh.read())


def _generated_word(args, parser) -> FiniteWord | None:
    """The ``--length`` prefix of the ``--gen`` word; None without
    ``--gen``, where ``--length`` is a usage error."""
    if args.gen is None:
        if args.length is not None:
            parser.error("--length needs --gen")
        return None
    if args.length is None:
        parser.error("--gen needs --length")
    if args.length < 0:
        parser.error("--length must be >= 0")
    return _build_source(args.gen).prefix(args.length)


def _write(render, items, sep, step=CHUNK):
    """Write ``render`` of each ``step``-item slice of ``items`` to stdout,
    joined by ``sep``, then a newline: the whole text is never held at once."""
    out = sys.stdout
    for i in range(0, len(items), step):
        if i:
            out.write(sep)
        out.write(render(items[i : i + step]))
    out.write("\n")


def _write_word(alphabet: Alphabet, data):
    """Write the labels of ``data``, unseparated when each is one character."""
    sep = "" if alphabet.single_char else " "
    _write(functools.partial(render_symbols, alphabet), data, sep)


def _add_word_input(parser):
    parser.add_argument("--word", help="word given inline")
    parser.add_argument("--word-file", help="word file (optional 'alphabet:' header)")
    parser.add_argument(
        "--gen",
        help="generator spec: paper[:TAUFILE], periodic:WORD, morphic:RULES:SEED",
    )
    parser.add_argument("--length", type=int, help="prefix length for --gen")


# ---------------------------------------------------------------------------
# subcommands


# The options of ``gen`` that each family reads, its source argument first.
_FAMILY_OPTIONS = {"paper": ("tau_file",), "periodic": ("word",), "morphic": ("rules", "seed")}


def cmd_gen(args, parser):
    options = _FAMILY_OPTIONS[args.family]
    for name in sorted({n for o in _FAMILY_OPTIONS.values() for n in o} - set(options)):
        if getattr(args, name) is not None:
            parser.error(f"--family {args.family} does not read --{name.replace('_', '-')}")
    if args.family == "periodic" and not args.word:
        parser.error("--family periodic needs --word")
    if args.family == "morphic" and not (args.rules and args.seed):
        parser.error("--family morphic needs --rules and --seed")
    src = _family_source(args.family, getattr(args, options[0]), args.seed)
    if args.length < 1:
        parser.error("--length must be >= 1")
    _write_word(src.alphabet, src.prefix_array(args.length))
    return EXIT_OK


def _pattern_and_word(args, parser) -> tuple[FiniteWord, FiniteWord]:
    """``--pattern``, nonempty, over the alphabet of the input word."""
    w = _input_word(args, parser)
    x = FiniteWord.from_text(w.alphabet, args.pattern)
    if len(x) == 0:
        raise EmptyPatternError("pattern must be nonempty")
    return x, w


def cmd_occ(args, parser):
    x, w = _pattern_and_word(args, parser)
    _write(render_starts, occurrences(x, w), " ", CHUNK >> 2)
    return EXIT_OK


def cmd_minwindow(args, parser):
    x, w = _pattern_and_word(args, parser)
    result = min_window(x, w)
    print("absent" if result is None else result)
    return EXIT_OK


def cmd_window(args, parser):
    x, w = _pattern_and_word(args, parser)
    violation = check_window(x, w, args.window_length)
    if violation is None:
        print("PASS")
        return EXIT_OK
    print(f"violation at {violation}")
    return EXIT_VERIFY_FAIL


def cmd_run(args, parser):
    if (args.machine is None) == (args.delay_prepend is None):
        parser.error("give exactly one of --machine, --delay-prepend")
    if [args.input, args.input_file, args.gen].count(None) < 2:
        parser.error("give at most one of --input, --input-file, --gen")
    if args.machine is not None:
        with open(args.machine, "r", encoding="utf-8") as fh:
            machine = parse_machine(fh.read())
    else:
        machine = delay_prepend_automaton(parse_word(args.delay_prepend))
    word = _generated_word(args, parser)
    if word is not None:
        if word.alphabet != machine.input_alphabet:
            # The generated alphabet may be a sub-alphabet of the machine's.
            word = _relabel(word, machine.input_alphabet)
    else:
        if args.input is not None:
            text = args.input
        elif args.input_file is not None:
            with open(args.input_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        word = FiniteWord.from_text(machine.input_alphabet, text)
    trace = run_transducer(machine, word)
    if args.emit_states:
        # One token per transition the run takes, "@state" then its labels,
        # under the transition's rank among those taken (and transition 0,
        # so that an empty run has a table).
        na, states = len(machine.input_alphabet), machine.states
        labels = machine.output_alphabet.labels
        keys = trace.state_index[:-1] * na + word.data
        taken = np.zeros(len(states) * na, bool)
        taken[keys] = taken[0] = True
        tokens = token_table(
            " ".join(["@" + states[t // na], *(labels[i] for i in machine._emit[t].tolist())])
            for t in np.flatnonzero(taken).tolist()
        )
        keys = (np.cumsum(taken) - 1)[keys]
        _write(functools.partial(render_tokens, tokens), keys, " ")
    else:
        _write_word(trace.output.alphabet, trace.output.data)
    return EXIT_OK


def cmd_decompose(args, parser):
    with open(args.machine, "r", encoding="utf-8") as fh:
        machine = parse_machine(fh.read())
    if isinstance(machine, MealyMachine):
        raise FormatError("decompose expects a transducer definition")
    automaton, hom = decompose_transducer(machine)
    auto_text = format_machine(automaton)
    hom_text = format_homomorphism(hom)
    for path, text in ((args.automaton_out, auto_text), (args.homomorphism_out, hom_text)):
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    if not (args.automaton_out or args.homomorphism_out):
        sys.stdout.write(f"{auto_text}\n{hom_text}")
    return EXIT_OK


def _required(args, w: FiniteWord) -> list[FiniteWord]:
    """The ``--require`` factors, over the alphabet of the input word."""
    return [FiniteWord.from_text(w.alphabet, r) for r in args.require or ()]


def cmd_stability(args, parser):
    w = _input_word(args, parser)
    report = recurrence_stability(w, args.max_len, required=_required(args, w))
    sys.stdout.write(report.to_tsv())
    return EXIT_OK


def cmd_cut_search(args, parser):
    w = _input_word(args, parser)
    cuts = [int(c) for c in args.cuts.split(",") if c.strip() != ""]
    cut = eap_cut_search(w, args.max_len, cuts, required=_required(args, w))
    print("absent" if cut is None else f"cut {cut}")
    return EXIT_OK


def cmd_verify_thm1(args, parser):
    if args.max_n < 1:
        parser.error("--max-n must be >= 1")
    tau = load_tau_table(args.tau_file) if args.tau_file else None
    if args.tamper_index is not None:
        fam = _TamperedFamily(args.tamper_index, tau=tau)
    else:
        fam = CounterexampleFamily(tau=tau)
    try:
        checks = analysis.verify_theorem1(fam, args.max_n, args.horizon)
    except InsufficientDataError as e:
        print(f"horizon {args.horizon} insufficient; need at least {e.required}")
        return EXIT_BUDGET
    for check in checks:
        print(f"{'PASS' if check.ok else 'FAIL'} {check.name} n={check.level}")
    return EXIT_OK if all(check.ok for check in checks) else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="apwords",
        description="Generate and analyze almost-periodic infinite words, "
        "and run finite automata and transducers over them.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="emit a prefix of a generated word")
    p.add_argument("--family", required=True, choices=("paper", "periodic", "morphic"))
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--tau-file", help="repetition counts, one per line (paper family)")
    p.add_argument("--word", help="period word (periodic family)")
    p.add_argument("--rules", help="morphism rules file (morphic family)")
    p.add_argument("--seed", help="seed symbol (morphic family)")

    p = sub.add_parser("occ", help="all occurrence positions of a pattern")
    p.add_argument("--pattern", required=True)
    _add_word_input(p)

    p = sub.add_parser("minwindow", help="minimal certifying window length")
    p.add_argument("--pattern", required=True)
    _add_word_input(p)

    p = sub.add_parser("window", help="check that every window of a given length contains the pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--window-length", type=int, required=True)
    _add_word_input(p)

    p = sub.add_parser("run", help="run a machine over an input word")
    p.add_argument("--machine", help="machine definition file")
    p.add_argument("--delay-prepend", help="build the delay machine for this word")
    p.add_argument("--input", help="input word given inline")
    p.add_argument("--input-file", help="input word file (default: stdin)")
    p.add_argument("--gen", help="generator spec for the input word")
    p.add_argument("--length", type=int, help="prefix length for --gen")
    p.add_argument("--emit-states", action="store_true")

    p = sub.add_parser("decompose", help="split a transducer into automaton + homomorphism")
    p.add_argument("--machine", required=True)
    p.add_argument("--automaton-out")
    p.add_argument("--homomorphism-out")

    p = sub.add_parser("stability", help="per-factor window stability report (TSV)")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--require", action="append", help="always report this factor")
    _add_word_input(p)

    p = sub.add_parser("cut-search", help="smallest cut whose suffix is fully stable")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--cuts", required=True, help="comma-separated cut positions")
    p.add_argument("--require", action="append", help="always report this factor")
    _add_word_input(p)

    p = sub.add_parser("verify-thm1", help="run the construction's lemma suite")
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--horizon", type=int, default=100_000)
    p.add_argument("--tau-file")
    p.add_argument("--tamper-index", type=int, help=argparse.SUPPRESS)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # Looked up on each call, not bound into the cached parser, so that a
    # function replaced on this module (a tracer's wrapper) is what runs.
    command = globals()["cmd_" + args.verb.replace("-", "_")]
    try:
        return command(args, parser)
    except (ApwordsError, OSError, ValueError) as e:
        msg = str(e)
        if isinstance(e, FormatError) and e.line:
            msg += f" (line {e.line})"
        if isinstance(e, InsufficientDataError) and e.required is not None:
            msg += f"; minimal sufficient length is {e.required}"
        print(f"error: {msg}", file=sys.stderr)
        return next(code for classes, code in EXIT_CODES if isinstance(e, classes))


if __name__ == "__main__":
    sys.exit(main())
