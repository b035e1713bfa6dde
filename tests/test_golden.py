"""Every CLI op of ``golden.tsv`` gives the exit code, stdout and written
files it pins (rewrite the table with ``tests/make_golden.py``)."""

from make_golden import read_table, run_op, write_inputs


def test_outputs_match_the_digest_table(tmp_path):
    indir, outdir = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    outdir.mkdir()
    write_inputs(indir)
    rows = read_table()
    changed = [
        (argv, digest, got)
        for argv, digest in rows
        if (got := run_op(argv, indir, outdir)) != digest
    ]
    assert rows and not changed, "\n".join(
        f"{' '.join(argv)}\n  table: {digest}\n  now:   {got}" for argv, digest, got in changed
    )
