"""Tests of the benchmark's own checks: each passes on the program's real
output and fails on a corrupted one.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import io
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from apwords.cli import main  # noqa: E402
from workloads import Op, Source  # noqa: E402

PAPER = Source("paper", "paper")
TM = workloads.TM_RULES


def cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return out.getvalue(), code


def verdict(op, out, code):
    return checks.check(op, out, code, checks.Context([op]))


def assert_checked(op, corrupt):
    """The check passes on the program's output and fails on each corruption."""
    out, code = cli(op.argv)
    assert verdict(op, out, code) == []
    for bad_out, bad_code in corrupt(out, code):
        assert (bad_out, bad_code) != (out, code)
        assert verdict(op, bad_out, bad_code), (bad_out[:60], bad_code)


def flip(text, i):
    """Flip the first binary symbol at or after index i."""
    while text[i] not in "01":
        i += 1
    return text[:i] + {"0": "1", "1": "0"}[text[i]] + text[i + 1 :]


@pytest.fixture
def files(tmp_path):
    tau = tmp_path / "tau.txt"
    tau.write_text("9\n10\n9\n")
    tm = tmp_path / "tm.rules"
    tm.write_text("0 -> 01\n1 -> 10\n")
    return {
        "tau": Source("paper", f"paper:{tau}", tau=(9, 10, 9)),
        "tau_path": str(tau),
        "tm": Source("morphic", f"morphic:{tm}:0", rules=TM, seed="0"),
        "tm_path": str(tm),
        "dir": tmp_path,
    }


# -- the definitions the checks rest on ---------------------------------------


def brute_windows(w, x):
    starts = [i for i in range(len(w) - len(x) + 1) if w.startswith(x, i)]

    def holds(i, length):
        return any(i <= p <= i + length - len(x) for p in starts)

    def first_bad(length):
        return next((i for i in range(len(w) - length + 1) if not holds(i, length)), None)

    best = next((n for n in range(len(x), len(w) + 1) if first_bad(n) is None), None)
    return starts, first_bad, (best if starts else None)


def test_window_formulas_match_the_definition():
    rng = random.Random(7)
    for _ in range(300):
        w = "".join(rng.choice("01") for _ in range(rng.randint(1, 30)))
        x = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
        starts, first_bad, best = brute_windows(w, x)
        arr = checks.find_starts(w.encode(), x.encode())
        assert arr.tolist() == starts
        assert checks.min_window(arr, len(w), len(x)) == best
        for length in range(len(x), len(w) + 1):
            assert checks.first_bad_window(arr, len(w), len(x), length) == first_bad(length)


def test_factor_table_matches_substrings():
    text = reference.paper_prefix(3000)
    table = checks.FactorTable(text.encode())
    for length in (1, 5, 9):
        half = {text[i : i + length] for i in range(1500 - length + 1)}
        got = {table.encode(f) for f in half}
        assert got == set(table.half_codes(length, 1500).tolist())
        f = sorted(half)[len(half) // 2]
        starts = [i for i in range(len(text) - length + 1) if text.startswith(f, i)]
        assert table.starts(length, table.encode(f)).tolist() == starts


def test_thue_morse_complexity():
    t = workloads.thue_morse_prefix(1 << 14)
    for n in range(1, 21):
        assert checks.thue_morse_complexity(n) == len({t[i : i + n] for i in range(len(t) - n)})


def test_reference_words_match_the_definitions():
    assert reference.paper_prefix(15) == "111111111110011"
    assert reference.paper_prefix(12, (9,)) == "111111111100"
    assert reference.morphic_prefix(8, TM, "0") == workloads.thue_morse_prefix(8) == "01101001"
    assert workloads.a_word(1) == "10011"


# -- each check against the program and against corruptions -------------------


def test_gen(files):
    n = 5000
    for src, args in ((PAPER, []), (files["tau"], ["--tau-file", files["tau_path"]])):
        op = Op("gen", ["gen", "--family", "paper", *args, "--length", str(n)], n, src,
                {"length": n})
        assert_checked(op, lambda out, code: [(flip(out, 2500), code), (out[1:], code)])
    op = Op("gen", ["gen", "--family", "morphic", "--rules", files["tm_path"], "--seed", "0",
                    "--length", str(n)], n, files["tm"], {"length": n})
    assert_checked(op, lambda out, code: [(flip(out, 4999), code), (out, 1)])


def scan_op(verb, pattern, src, n, *extra, **params):
    argv = [verb, "--pattern", pattern, *extra, "--gen", src.gen, "--length", str(n)]
    return Op(verb, argv, n, src, {"pattern": pattern, "length": n, **params})


def test_occ(files):
    op = scan_op("occ", "10011", files["tau"], 20000)

    def corrupt(out, code):
        first, rest = out.split(" ", 1)
        return [(f"{int(first) + 1} {rest}", code), (out.replace(" ", " 0 ", 1), code)]

    assert_checked(op, corrupt)


def test_minwindow(files):
    op = scan_op("minwindow", "1001101100011001001110011", PAPER, 20000)
    assert_checked(op, lambda out, code: [(f"{int(out) - 1}\n", code),
                                          (f"{int(out) + 1}\n", code), ("absent\n", code)])
    op = scan_op("minwindow", "0" * 30, Source("periodic", "periodic:0", period="0"), 2000)
    assert_checked(op, lambda out, code: [("31\n", code)])


def test_window(files):
    op = scan_op("window", "10011", PAPER, 20000, "--window-length", "560", window=560)
    assert_checked(op, lambda out, code: [(out, 1), ("violation at 0\n", 1)])
    a2 = workloads.a_word(2)
    op = scan_op("window", a2, PAPER, 20000, "--window-length", "40", window=40)

    def corrupt(out, code):
        at = int(out.rsplit(" ", 1)[1])
        return [(f"violation at {at + 1}\n", code), (f"violation at {at - 1}\n", code),
                ("PASS\n", 0)]

    assert_checked(op, corrupt)


def stability_op(src, n, k, required=()):
    req = [a for r in required for a in ("--require", r)]
    argv = ["stability", "--max-len", str(k), *req, "--gen", src.gen, "--length", str(n)]
    return Op("stability", argv, n, src, {"k": k, "length": n, "required": required})


def rows(out):
    return out.splitlines(keepends=True)


def test_stability(files):
    def corrupt(out, code):
        lines = rows(out)
        row = lines[3].split("\t")
        count_bumped = "\t".join([row[0], str(int(row[1]) + 1), *row[2:]])
        window_bumped = "\t".join([*row[:3], str(int(row[3]) + 1), row[4]])
        flag = "\t".join([*row[:4], "no\n" if row[4] == "yes\n" else "yes\n"])
        return [
            ("".join(lines[:3] + [count_bumped] + lines[4:]), code),
            ("".join(lines[:3] + [window_bumped] + lines[4:]), code),
            ("".join(lines[:3] + [flag] + lines[4:]), code),
            ("".join(lines[:3] + lines[4:]), code),  # a factor missing
            ("".join(lines + [lines[-1]]), code),  # a factor twice
        ]

    assert_checked(stability_op(files["tau"], 4000, 5, ("0110001100", "00001")), corrupt)
    assert_checked(stability_op(files["tm"], 4000, 8), corrupt)


def cut_op(src, n, k, cuts, required=()):
    req = [a for r in required for a in ("--require", r)]
    argv = ["cut-search", "--max-len", str(k), "--cuts", ",".join(map(str, cuts)), *req,
            "--gen", src.gen, "--length", str(n)]
    return Op("cut-search", argv, n, src,
              {"k": k, "length": n, "cuts": tuple(cuts), "required": required})


def test_cut_search(files):
    periodic = Source("periodic", "periodic:0010111", period="0010111")
    answers = set()
    for op in (cut_op(periodic, 6000, 6, (0, 5, 40)), cut_op(PAPER, 6000, 5, (0, 10, 60)),
               cut_op(PAPER, 6000, 5, (0, 10), ("0000",)),
               cut_op(files["tm"], 6000, 6, (3, 7, 100), ("0110",))):
        others = [f"cut {c}\n" for c in (*op.params["cuts"], 1)] + ["absent\n"]
        answers.add(cli(op.argv)[0])
        assert_checked(op, lambda out, code: [(o, code) for o in others if o != out])
    assert "absent\n" in answers and "cut 0\n" in answers


def run_op(files, machine_args, src, n, emit=False, **params):
    argv = ["run", *machine_args, "--gen", src.gen, "--length", str(n)]
    if emit:
        argv.append("--emit-states")
    return Op("run", argv, n, src, {"length": n, "emit": emit, **params})


TRANSDUCER = """input: 0 1
output: 0 1
states: t0 t1
initial: t0
t0 0 -> t1 01
t0 1 -> t0 -
t1 0 -> t0 110
t1 1 -> t1 1
"""


def test_run(files):
    path = files["dir"] / "t.machine"
    path.write_text(TRANSDUCER)
    ones = Source("periodic", "periodic:1", period="1")
    for emit in (False, True):
        op = run_op(files, ["--delay-prepend", "0110"], PAPER, 3000, emit, delay="0110")
        assert_checked(op, lambda out, code: [(flip(out, 40), code)])
        op = run_op(files, ["--delay-prepend", "10"], ones, 3000, emit, delay="10")
        assert_checked(op, lambda out, code: [(out.replace("1", "0", 1), code)])
        op = run_op(files, ["--machine", str(path)], files["tm"], 3000, emit,
                    machine=TRANSDUCER)
        assert_checked(op, lambda out, code: [(flip(out, 6), code), (out[:-2] + "\n", code)])
        if emit:
            assert_checked(op, lambda out, code: [(out.replace("@t1", "@t0", 1), code)])


def test_decompose(files):
    path = files["dir"] / "t.machine"
    path.write_text(TRANSDUCER)
    op = Op("decompose", ["decompose", "--machine", str(path)], 4, None,
            {"machine": TRANSDUCER, "outputs": None})
    assert_checked(op, lambda out, code: [(out.replace("-> 01", "-> 10"), code),
                                          (out.replace("-> 110", "-> 11"), code)])
    auto, hom = files["dir"] / "a.machine", files["dir"] / "h.hom"
    op = Op("decompose", ["decompose", "--machine", str(path), "--automaton-out", str(auto),
                          "--homomorphism-out", str(hom)], 4, None,
            {"machine": TRANSDUCER, "outputs": (str(auto), str(hom))})
    out, code = cli(op.argv)
    assert verdict(op, out, code) == []
    hom.write_text(hom.read_text().replace("-> -", "-> 0"))
    assert verdict(op, out, code)


def test_verify_thm1(files):
    op = Op("verify-thm1", ["verify-thm1", "--max-n", "2", "--horizon", "20000"], 20000, PAPER,
            {"max_n": 2, "tamper": None})
    assert_checked(op, lambda out, code: [(out.replace("PASS", "FAIL", 1), 1),
                                          (out, 1), ("\n".join(rows(out)[:-1]), code)])
    index = workloads.l_index(3) - 1
    op = Op("verify-thm1", ["verify-thm1", "--max-n", "2", "--horizon", "20000",
                            "--tamper-index", str(index)], 20000, PAPER,
            {"max_n": 2, "tamper": index})
    assert_checked(op, lambda out, code: [(out.replace("FAIL", "PASS"), 0), (out, 0)])


# -- workloads and tracing ----------------------------------------------------


def test_workloads_are_seeded():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 1, "w"), workloads.build(name, 1, "w")
        c = workloads.build(name, 2, "w")
        assert [o.argv for o in a.ops] == [o.argv for o in b.ops] and a.files == b.files
        assert [o.argv for o in a.ops] != [o.argv for o in c.ops]
        assert [o.verb for o in a.ops] == [o.verb for o in c.ops]
        for x, y in zip(a.ops, c.ops):
            assert abs(x.size - y.size) <= 0.021 * x.size


def test_tracer_counts_and_restores():
    import apwords.analysis
    import apwords.cli

    original = apwords.cli.recurrence_stability
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert apwords.cli.recurrence_stability is apwords.analysis.recurrence_stability
        assert apwords.cli.recurrence_stability is not original
        tracer.op = "0:0"
        out, _ = cli(["stability", "--max-len", "4", "--gen", "paper", "--length", "2000"])
        tracer.op = "0:1"
        cli(["run", "--delay-prepend", "01", "--gen", "paper", "--length", "100"])
    finally:
        tracer.uninstall()
    assert apwords.cli.recurrence_stability is original
    m = spans.layer_metrics(tracer.spans, 0, 0)
    assert m["analysis.factors"] == len(out.splitlines()) - 1
    assert m["kernels.scan_calls"] == m["analysis.factors"]
    assert m["analysis.scans_per_factor"] == 1
    assert m["kernels.mealy_symbols"] == m["machines.run_symbols"] == 100
    assert m["machines.output_symbols"] == 100
    assert m["generators.prefix_symbols"] > 0 and m["cli.self_s"] > 0
    assert np.isclose(m["sources.useful_ratio"], 2100 / m["sources.symbols_materialized"])
