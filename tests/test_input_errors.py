"""Every file the CLI reads goes through one reader: at each reading site a
missing file, an empty path, a folder and bytes that are not UTF-8 each
exit 2 with one ``error:`` line on stderr and nothing on stdout.  A
negative ``--tamper-index`` exits 2 the same way."""

import pytest

from make_golden import call

TOGGLE = (
    "input: 0 1\noutput: 0 1\nstates: q0 q1\ninitial: q0\n"
    "q0 0 -> q0 0\nq0 1 -> q1 0\nq1 0 -> q1 1\nq1 1 -> q0 1\n"
)

# {path} is the file each call reads; {dir}/toggle.machine is a good machine.
SITES = [
    ["occ", "--pattern", "1", "--word-file", "{path}"],
    ["stability", "--max-len", "2", "--word-file", "{path}"],
    ["run", "--machine", "{dir}/toggle.machine", "--input-file", "{path}"],
    ["run", "--machine", "{path}", "--input", "01"],
    ["decompose", "--machine", "{path}"],
    ["gen", "--family", "paper", "--tau-file", "{path}", "--length", "10"],
    ["verify-thm1", "--max-n", "1", "--horizon", "2000", "--tau-file", "{path}"],
    ["occ", "--pattern", "1", "--gen", "paper:{path}", "--length", "10"],
    ["gen", "--family", "morphic", "--rules", "{path}", "--seed", "0", "--length", "10"],
    ["occ", "--pattern", "0", "--gen", "morphic:{path}:0", "--length", "10"],
]

FAULTS = ["missing", "empty", "folder", "not-utf8"]


def _path(fault, tmp_path):
    if fault == "missing":
        return str(tmp_path / "missing")
    if fault == "empty":
        return ""
    if fault == "folder":
        (tmp_path / "folder").mkdir()
        return str(tmp_path / "folder")
    (tmp_path / "latin1").write_bytes(b"0 -> 01\n1 -> 10\n\xe9\xff\n")
    return str(tmp_path / "latin1")


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("site", SITES, ids=" ".join)
def test_an_unreadable_file_is_one_error_line(site, fault, tmp_path):
    (tmp_path / "toggle.machine").write_text(TOGGLE, encoding="utf-8")
    path = _path(fault, tmp_path)
    argv = [a.replace("{path}", path).replace("{dir}", str(tmp_path)) for a in site]
    code, out, err = call(argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("index", ["-1", "-2000"])
def test_a_negative_tamper_index_is_one_error_line(index):
    code, out, err = call(["verify-thm1", "--max-n", "1", "--horizon", "2000",
                           "--tamper-index", index])
    assert (code, out) == (2, "")
    assert err == f"error: tamper index must be >= 0, got {index}\n"
