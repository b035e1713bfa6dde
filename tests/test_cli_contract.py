"""The CLI's exit-code contract over argv drawn from a per-verb grammar:
valid skeletons with bad values, missing, empty and malformed files, and a
closed stdin.  Every call exits 0-4 and lets no exception out of ``main``,
and every exit other than 0 and 1 says why on stderr (README, "Exit
codes"), except ``verify-thm1``'s short-horizon line on stdout."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from make_golden import FILES, call

VERBS = ("gen", "occ", "minwindow", "window", "run", "decompose", "stability",
         "cut-search", "verify-thm1")
BAD_VALUES = ["", " ", "-1", "x", "1.5", "-", "#", "\udcff", "0x10"]
INTS = ["0", "1", "2", "5", "17", "300", "2000", "-3"]
MAX_LENS = ["0", "1", "2", "5", "65"]
WORDS = ["0110", "1", "xqz", "0é0日", "ab cd ab", "01#", "0101010101010101", "a b"]
PATTERNS = ["10011", "0", "11", "qz", "cd ab", "é", "2", "0000"]
SEEDS = ["0", "1", "x", "a", "01"]
CUTS = ["0,10", "0", "5,1", ",", "1,,2", "x", "-1,3", "0,300"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths by kind: good inputs, and (``bad``) a missing file, an empty
    one, malformed text, undecodable bytes and a folder."""
    d = tmp_path_factory.mktemp("contract")
    for name, text in FILES.items():
        (d / name).write_text(text, encoding="utf-8")
    (d / "empty").write_text("")
    (d / "garbage").write_text("this -> is\nnot a file of any kind ->\n:::\n")
    (d / "binary").write_bytes(b"\xff\xfe\x00input: 0 1\n")
    (d / "folder").mkdir()
    return {
        "bad": [str(d / n) for n in ("missing", "empty", "garbage", "binary", "folder")],
        "tau": [str(d / "tau.txt")],
        "rules": [str(d / n) for n in ("tm.rules", "xqz.rules", "long.rules")],
        "machine": [str(d / n) for n in ("toggle.machine", "trans.machine", "xqz.machine",
                                        "multi.machine", "bad.machine")],
        "word": [str(d / n) for n in ("word.txt", "xqz.word", "multi.word")],
        "out": [str(d / "out.txt"), str(d / "folder"), str(d / "none" / "out.txt"), ""],
    }


@st.composite
def argvs(draw, files):
    """A verb's valid skeleton, each value of its own kind or (one time in
    seven) a bad one; mostly one word or input source, sometimes none or
    two; now and then an option the verb does not take."""

    def maybe(p):
        return draw(st.floats(0, 1)) < p

    def pick(values):
        return draw(st.sampled_from(BAD_VALUES if maybe(0.15) else values))

    def path(kind):
        return pick(files[kind] + files["bad"] if maybe(0.8) else files["bad"])

    def some_of(*options):
        """The arguments of one of ``options``, or sometimes of none or two."""
        chosen = draw(st.permutations(options))[: draw(st.sampled_from([1] * 6 + [0, 2]))]
        return [a for option in chosen for a in option()]

    tau, rules = files["tau"][0], files["rules"][0]
    specs = ["paper", f"paper:{tau}", "periodic:01", "periodic:xqz", "periodic:", "periodic",
             f"morphic:{rules}:0", f"morphic:{rules}", f"morphic:{rules}:2",
             f"morphic:{files['rules'][1]}:x", "bogus", "morphic::0",
             *(f"paper:{p}" for p in files["bad"]), *(f"morphic:{p}:0" for p in files["bad"])]

    def generated():
        return ["--gen", pick(specs), "--length", pick(INTS)]

    def word_input():
        return some_of(lambda: ["--word", pick(WORDS)],
                       lambda: ["--word-file", path("word")],
                       generated)

    def required():
        return [a for r in draw(st.lists(st.sampled_from(PATTERNS), max_size=2))
                for a in ("--require", r)]

    verb = draw(st.sampled_from(VERBS))
    if verb == "gen":
        family = pick(["paper", "periodic", "morphic"])
        options = {
            "paper": ["--tau-file", path("tau")] if maybe(0.5) else [],
            "periodic": ["--word", pick(WORDS)],
            "morphic": ["--rules", path("rules"), "--seed", pick(SEEDS)],
        }
        argv = ["--family", family, "--length", pick(INTS), *options.get(family, [])]
        if maybe(0.1):
            argv += draw(st.sampled_from(list(options.values())))
    elif verb in ("occ", "minwindow"):
        argv = ["--pattern", pick(PATTERNS), *word_input()]
    elif verb == "window":
        argv = ["--pattern", pick(PATTERNS), "--window-length", pick(INTS), *word_input()]
    elif verb == "run":
        argv = some_of(lambda: ["--machine", path("machine")],
                       lambda: ["--delay-prepend", pick([*WORDS, "01010101010101010"])])
        # With no input option, run reads the (closed) stdin.
        argv += some_of(lambda: ["--input", pick(WORDS)],
                        lambda: ["--input-file", path("word")],
                        generated)
        if maybe(0.3):
            argv.append("--emit-states")
    elif verb == "decompose":
        argv = ["--machine", path("machine")]
        for flag in ("--automaton-out", "--homomorphism-out"):
            if maybe(0.3):
                # Never a bad value: a relative one would write in the working directory.
                argv += [flag, draw(st.sampled_from(files["out"]))]
    elif verb in ("stability", "cut-search"):
        argv = ["--max-len", pick(MAX_LENS), *required(), *word_input()]
        if verb == "cut-search":
            argv += ["--cuts", pick(CUTS)]
    else:
        argv = []
        for flag, values in (("--max-n", ["0", "1", "2", "5", "-1"]),
                             ("--horizon", ["0", "100", "2000", "20000", "-5"]),
                             ("--tau-file", None),
                             ("--tamper-index", ["0", "5", "-1", "100000"])):
            if maybe(0.5):
                argv += [flag, path("tau") if values is None else pick(values)]
    if maybe(0.05):
        argv += ["--length", pick(INTS)]  # an option some verbs do not take
    return [verb, *argv]


def test_exit_codes_follow_the_contract(files):
    @given(argvs(files))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def check(argv):
        code, out, err = call(argv)
        assert code in (0, 1, 2, 3, 4), (argv, code)
        if code in (0, 1):
            return
        said = any(ln.startswith(("error:", "usage:")) for ln in err.splitlines())
        short = (argv[0] == "verify-thm1" and code == 3
                 and out.startswith("horizon ") and "insufficient" in out)
        assert said or short, (argv, code, out, err)

    check()
