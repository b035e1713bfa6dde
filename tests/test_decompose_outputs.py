"""``decompose`` writes all of its output files or none: when one does not
open, or both options name one file, it exits 2 with one ``error:`` line,
creates no file and leaves an existing file's bytes as they were."""

import pytest

from make_golden import call

TRANS = (
    "input: 0 1\noutput: 0 1\nstates: t0 t1\ninitial: t0\n"
    "t0 0 -> t1 11\nt0 1 -> t0 -\nt1 0 -> t0 0\nt1 1 -> t1 010\n"
)

OUTS = [
    ("{dir}/a.auto", ""),
    ("{dir}/a.auto", "{dir}/nodir/h.hom"),
    ("", "{dir}/h.hom"),
    ("{dir}/nodir/a.auto", "{dir}/h.hom"),
    ("{dir}/same", "{dir}/same"),
    ("{dir}/same", "{dir}/./same"),
]


def _decompose(tmp_path, auto, hom):
    (tmp_path / "t.machine").write_text(TRANS, encoding="utf-8")
    return call(["decompose", "--machine", str(tmp_path / "t.machine"),
                 "--automaton-out", auto.replace("{dir}", str(tmp_path)),
                 "--homomorphism-out", hom.replace("{dir}", str(tmp_path))])


@pytest.mark.parametrize("auto, hom", OUTS, ids=lambda path: path or "''")
def test_a_failed_output_writes_no_file(auto, hom, tmp_path):
    code, out, err = _decompose(tmp_path, auto, hom)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert [p.name for p in tmp_path.iterdir()] == ["t.machine"]


@pytest.mark.parametrize("auto, hom", OUTS, ids=lambda path: path or "''")
def test_a_failed_output_keeps_existing_bytes(auto, hom, tmp_path):
    old = {name: f"old {name}\n" * 3 for name in ("a.auto", "h.hom", "same")}
    for name, text in old.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert _decompose(tmp_path, auto, hom)[0] == 2
    assert {name: (tmp_path / name).read_text(encoding="utf-8") for name in old} == old


def test_one_file_named_for_both_outputs_is_said(tmp_path):
    _, _, err = _decompose(tmp_path, "{dir}/same", "{dir}/./same")
    assert err == "error: --automaton-out and --homomorphism-out name one file\n"


def test_both_outputs_replace_longer_files(tmp_path):
    (tmp_path / "a.auto").write_text("x" * 10000, encoding="utf-8")
    (tmp_path / "h.hom").write_text("y" * 10000, encoding="utf-8")
    assert _decompose(tmp_path, "{dir}/a.auto", "{dir}/h.hom")[0] == 0
    code, out, _ = call(["decompose", "--machine", str(tmp_path / "t.machine")])
    auto, hom = (tmp_path / "a.auto").read_text(), (tmp_path / "h.hom").read_text()
    assert (code, out) == (0, f"{auto}\n{hom}")
