"""Rewrite ``tests/golden.tsv`` from the current checkout.

    PYTHONPATH=src python3 tests/make_golden.py

Each row of the table is one call of ``apwords.cli.main`` and pins what the
call gives: its argv (as JSON), exit code, stdout length in UTF-8 bytes and
stdout sha256, then the length and sha256 of each file the call writes.  An
argv names its input files ``{in}/NAME`` (written from ``FILES``) and its
output files ``{out}/NAME``; ``test_golden.py`` and this script put both in
fresh directories.  A change that alters an output on purpose reruns this
script and names each changed row in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from apwords import cli

GOLDEN = Path(__file__).with_name("golden.tsv")
HEADER = "argv\texit\tstdout_bytes\tstdout_sha256\tfiles"

FILES = {
    "tau.txt": "9\n10\n9\n9\n10\n",
    "tm.rules": "0 -> 01\n1 -> 10\n",
    "uniform3.rules": "0 -> 001\n1 -> 110\n",
    # Images of 12 and 1 symbols: padded rows wider than 8 bytes.
    "long.rules": "a -> abbbbbbbbbbb\nb -> a\n",
    # Labels x q z in file order: code points that are not a progression.
    "xqz.rules": "x -> xqz\nq -> zx\nz -> q\n",
    "toggle.machine": (
        "# toggle machine\ninput: 0 1\noutput: 0 1\nstates: q0 q1\ninitial: q0\n"
        "q0 0 -> q0 0\nq0 1 -> q1 0\nq1 0 -> q1 1\nq1 1 -> q0 1\n"
    ),
    "mealy.machine": (
        "input: 0 1\noutput: 0 1\nstates: m0 m1 m2 m3 m4\ninitial: m0\n"
        "m0 0 -> m3 1\nm0 1 -> m1 0\nm1 0 -> m4 0\nm1 1 -> m0 1\nm2 0 -> m2 1\n"
        "m2 1 -> m4 1\nm3 0 -> m1 0\nm3 1 -> m2 0\nm4 0 -> m0 0\nm4 1 -> m3 1\n"
    ),
    # Emission lengths 0, 0, 1, 1, 2, 2, 3, 3, as the benchmark's transducers.
    "trans.machine": (
        "input: 0 1\noutput: 0 1\nstates: t0 t1 t2 t3\ninitial: t0\n"
        "t0 0 -> t2 11\nt0 1 -> t1 -\nt1 0 -> t3 010\nt1 1 -> t0 1\n"
        "t2 0 -> t1 -\nt2 1 -> t3 00\nt3 0 -> t0 0\nt3 1 -> t2 101\n"
    ),
    # Emissions of 10, 12 and 16 symbols beside empty ones.
    "long.machine": (
        "input: 0 1\noutput: 0 1\nstates: p r\ninitial: p\n"
        "p 0 -> r 0110100110\np 1 -> p -\n"
        "r 0 -> p 011010011001\nr 1 -> r 1111000011110000\n"
    ),
    "xqz.machine": (
        "input: x q z\noutput: x q z\nstates: s0 s1\ninitial: s0\n"
        "s0 x -> s1 zq\ns0 q -> s0 -\ns0 z -> s0 xxq\n"
        "s1 x -> s0 q\ns1 q -> s1 zzzqx\ns1 z -> s0 -\n"
    ),
    # Multi-character input labels, non-ASCII and multi-character outputs.
    "multi.machine": (
        "input: ab cd\noutput: é lo ü\nstates: u v\ninitial: u\n"
        "u ab -> v élo\nu cd -> u -\nv ab -> u ü\nv cd -> v loéü\n"
    ),
    "bad.machine": "input: 0 1\noutput: 0 1\nstates: q\ninitial: q\nq 0 q 1\n",
    "word.txt": "alphabet: 0 1\n0110100110010110\n1001011001101001\n",
    "xqz.word": "xqzzqxqzxzqqxzzxqzqx\n",
    "multi.word": "alphabet: ab cd\nab cd cd ab cd ab ab cd cd ab\n",
}

# Factors of the paper's word: a_2 and the complement of a_1.
A2 = "1001101100011001001110011"
BAR_A1 = "01100"

PAPER = ["--gen", "paper", "--length"]
TAU = ["--gen", "paper:{in}/tau.txt", "--length"]
TM = ["--gen", "morphic:{in}/tm.rules:0", "--length"]
XQZ = ["--gen", "periodic:xqzzqx", "--length"]

OPS = [
    # gen: every family, the non-progression, non-ASCII and spaced alphabets
    ["gen", "--family", "paper", "--length", "1000"],
    ["gen", "--family", "paper", "--length", "100000"],
    ["gen", "--family", "paper", "--tau-file", "{in}/tau.txt", "--length", "20000"],
    ["gen", "--family", "periodic", "--word", "01101", "--length", "1000"],
    ["gen", "--family", "periodic", "--word", "xqz", "--length", "1000"],
    ["gen", "--family", "periodic", "--word", "xqzzqx", "--length", "100000"],
    ["gen", "--family", "periodic", "--word", "0é0日", "--length", "50"],
    ["gen", "--family", "periodic", "--word", "ab cd ab", "--length", "20"],
    ["gen", "--family", "morphic", "--rules", "{in}/tm.rules", "--seed", "0", "--length", "100000"],
    ["gen", "--family", "morphic", "--rules", "{in}/uniform3.rules", "--seed", "0", "--length", "50000"],
    ["gen", "--family", "morphic", "--rules", "{in}/long.rules", "--seed", "a", "--length", "5000"],
    ["gen", "--family", "morphic", "--rules", "{in}/xqz.rules", "--seed", "x", "--length", "5000"],
    ["gen", "--family", "paper", "--word", "01", "--length", "10"],
    # occ
    ["occ", "--pattern", "10011", *PAPER, "100000"],
    ["occ", "--pattern", A2, *TAU, "100000"],
    ["occ", "--pattern", BAR_A1, "--gen", "paper", "--length", "20000"],
    ["occ", "--pattern", "0110", *TM, "100000"],
    ["occ", "--pattern", "qz", *XQZ, "10000"],
    ["occ", "--pattern", "zq", "--word-file", "{in}/xqz.word"],
    ["occ", "--pattern", "cd ab", "--word-file", "{in}/multi.word"],
    ["occ", "--pattern", "0é", "--word", "0é0日0é"],
    ["occ", "--pattern", "2", "--word", "0110"],
    ["occ", "--pattern", "10011", *PAPER, "-5"],
    # minwindow and window
    ["minwindow", "--pattern", "10011", *PAPER, "100000"],
    ["minwindow", "--pattern", "0000", *PAPER, "10000"],
    ["minwindow", "--pattern", "0110", *TM, "50000"],
    ["minwindow", "--pattern", "qx", *XQZ, "1000"],
    ["window", "--pattern", "10011", "--window-length", "560", *PAPER, "100000"],
    ["window", "--pattern", "10011", "--window-length", "6", *PAPER, "1000"],
    ["window", "--pattern", "10011", "--window-length", "0", *PAPER, "1000"],
    # stability and cut-search
    ["stability", "--max-len", "6", *PAPER, "10000"],
    ["stability", "--max-len", "4", "--require", "0000", "--require", "10011", *PAPER, "10000"],
    ["stability", "--max-len", "5", *TAU, "10000"],
    ["stability", "--max-len", "4", *TM, "10000"],
    ["stability", "--max-len", "3", *XQZ, "1000"],
    ["stability", "--max-len", "3", "--word-file", "{in}/multi.word"],
    ["stability", "--max-len", "2", "--word", "0é0日0é"],
    ["stability", "--max-len", "0", "--word", "0110"],
    ["cut-search", "--max-len", "8", "--cuts", "0,10,60,310", *PAPER, "30000"],
    ["cut-search", "--max-len", "6", "--cuts", "0,100", "--require", "10011", *TAU, "20000"],
    ["cut-search", "--max-len", "3", "--cuts", "0,2", "--word-file", "{in}/word.txt"],
    ["cut-search", "--max-len", "3", "--cuts", ",", "--word", "0110"],
    # run: delay machines, Mealy machines and transducers, with --emit-states
    ["run", "--delay-prepend", "0110", *PAPER, "100000"],
    ["run", "--delay-prepend", "01", *PAPER, "1000", "--emit-states"],
    ["run", "--delay-prepend", "1011", *TAU, "10000", "--emit-states"],
    ["run", "--delay-prepend", "xqzq", *XQZ, "1000"],
    ["run", "--delay-prepend", "xqz", *XQZ, "200", "--emit-states"],
    ["run", "--delay-prepend", "01010101010101010", *PAPER, "10"],
    ["run", "--machine", "{in}/toggle.machine", "--input", "1101"],
    ["run", "--machine", "{in}/mealy.machine", *TM, "100000"],
    ["run", "--machine", "{in}/mealy.machine", "--input", "0110100", "--emit-states"],
    ["run", "--machine", "{in}/trans.machine", *PAPER, "100000"],
    ["run", "--machine", "{in}/trans.machine", *PAPER, "2000", "--emit-states"],
    ["run", "--machine", "{in}/long.machine", *PAPER, "50000"],
    ["run", "--machine", "{in}/long.machine", *PAPER, "500", "--emit-states"],
    ["run", "--machine", "{in}/xqz.machine", *XQZ, "10000"],
    ["run", "--machine", "{in}/xqz.machine", "--input-file", "{in}/xqz.word"],
    ["run", "--machine", "{in}/xqz.machine", "--input-file", "{in}/xqz.word", "--emit-states"],
    ["run", "--machine", "{in}/multi.machine", "--input", "ab cd cd ab ab"],
    ["run", "--machine", "{in}/multi.machine", "--input", "ab cd cd ab ab", "--emit-states"],
    ["run", "--machine", "{in}/bad.machine", "--input", "01"],
    ["run", "--machine", "{in}/missing.machine", "--input", "01"],
    ["run", "--machine", "{in}/toggle.machine", "--input", "012"],
    # decompose to stdout and to its two files
    ["decompose", "--machine", "{in}/trans.machine"],
    ["decompose", "--machine", "{in}/trans.machine",
     "--automaton-out", "{out}/trans.auto", "--homomorphism-out", "{out}/trans.hom"],
    ["decompose", "--machine", "{in}/long.machine",
     "--automaton-out", "{out}/long.auto", "--homomorphism-out", "{out}/long.hom"],
    ["decompose", "--machine", "{in}/multi.machine"],
    ["decompose", "--machine", "{in}/toggle.machine"],
    # verify-thm1: passing, tampered, a short horizon and past the budget
    ["verify-thm1", "--max-n", "1", "--horizon", "2000"],
    ["verify-thm1", "--max-n", "2", "--horizon", "20000", "--tau-file", "{in}/tau.txt"],
    ["verify-thm1", "--max-n", "1", "--horizon", "2000", "--tamper-index", "5"],
    ["verify-thm1", "--max-n", "2", "--horizon", "100"],
    ["verify-thm1", "--max-n", "5", "--horizon", "100"],
    ["verify-thm1", "--max-n", "0"],
]


def call(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)``, run with stdin closed."""
    out, err, stdin = io.StringIO(), io.StringIO(), io.StringIO()
    stdin.close()
    saved, sys.stdin = sys.stdin, stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse's usage errors
                code = e.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _digest(data: bytes, sep: str) -> str:
    return f"{len(data)}{sep}{hashlib.sha256(data).hexdigest()}"


def run_op(argv: list[str], indir: Path, outdir: Path) -> str:
    """The digest columns of one call of ``main``: exit code, stdout, and
    each ``{out}`` file it names, in argv order ("-" for none)."""
    argv = [a.replace("{in}", str(indir)).replace("{out}", str(outdir)) for a in argv]
    code, out, _ = call(argv)
    stdout = _digest(out.encode("utf-8", "surrogatepass"), "\t")
    files = " ".join(
        f"{Path(p).name}:{_digest(Path(p).read_bytes(), ':')}"
        for p in argv
        if p.startswith(str(outdir))
    )
    return f"{code}\t{stdout}\t{files or '-'}"


def write_inputs(indir: Path) -> None:
    for name, text in FILES.items():
        (indir / name).write_text(text, encoding="utf-8")


def read_table() -> list[tuple[list[str], str]]:
    """The rows of ``golden.tsv``: each argv and its digest columns."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert lines[0] == HEADER, "golden.tsv has an unexpected header"
    rows = []
    for line in lines[1:]:
        argv, digest = line.split("\t", 1)
        rows.append((json.loads(argv), digest))
    return rows


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        indir, outdir = Path(tmp, "in"), Path(tmp, "out")
        indir.mkdir()
        outdir.mkdir()
        write_inputs(indir)
        rows = [HEADER]
        for argv in OPS:
            rows.append(f"{json.dumps(argv, ensure_ascii=False)}\t{run_op(argv, indir, outdir)}")
    GOLDEN.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {len(OPS)} rows to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
