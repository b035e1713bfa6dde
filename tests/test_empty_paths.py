"""An empty path option is a path, of a file that does not exist: each
call exits 2 with an ``error:`` line, like a missing file, and writes
nothing (no file, no stdout)."""

import pytest

from apwords import cli

TRANS = (
    "input: 0 1\noutput: 0 1\nstates: t0 t1\ninitial: t0\n"
    "t0 0 -> t1 11\nt0 1 -> t0 -\nt1 0 -> t0 0\nt1 1 -> t1 010\n"
)

CALLS = [
    ["gen", "--family", "paper", "--tau-file", "", "--length", "10"],
    ["verify-thm1", "--max-n", "1", "--horizon", "2000", "--tau-file", ""],
    ["occ", "--pattern", "10011", "--gen", "paper:", "--length", "1000"],
    ["run", "--delay-prepend", "01", "--gen", "paper:", "--length", "10"],
    ["decompose", "--machine", "{dir}/t.machine", "--automaton-out", ""],
    ["decompose", "--machine", "{dir}/t.machine", "--homomorphism-out", ""],
    ["decompose", "--machine", "{dir}/t.machine",
     "--automaton-out", "", "--homomorphism-out", "{dir}/h.hom"],
]


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_empty_path_is_a_missing_file(argv, tmp_path, capsys):
    (tmp_path / "t.machine").write_text(TRANS, encoding="utf-8")
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "No such file or directory: ''" in err
    assert [p.name for p in tmp_path.iterdir()] == ["t.machine"]

