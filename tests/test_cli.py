import hashlib
import itertools
import json
import os
import resource
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest

from colorder import refuter
from colorder.cli import run
from colorder.core import (InputError, _file_chunks, _text_chunks, format_struct, parse_struct,
                           read_lines)
from colorder.limit import Approximation, grow, parse_pairs
from golden_cases import CASES, CHECK_CASES, GOLDEN, data


def golden_bytes(name: str) -> bytes:
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name,argv,expected", CASES + CHECK_CASES,
                         ids=[c[0] for c in CASES + CHECK_CASES])
def test_golden_reproduces(tmp_path, name, argv, expected):
    out1 = tmp_path / "run1.txt"
    out2 = tmp_path / "run2.txt"
    assert run(argv + ["--out", str(out1)]) == expected
    assert run(argv + ["--out", str(out2)]) == expected
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == golden_bytes(name)


GOLDEN_RUN = """
import json, os, sys
sys.path[:0] = sys.argv[1:3]
from colorder.cli import run
from golden_cases import CASES, CHECK_CASES
print(json.dumps({name: run(argv + ["--out", os.path.join(sys.argv[3], name)])
                  for name, argv, _ in CASES + CHECK_CASES}))
"""


@pytest.mark.parametrize("seed", ["1", "12345"])
def test_goldens_hold_under_other_hash_seeds(tmp_path, seed):
    """Every golden invocation, run in one child process whose str hashes
    take another seed, writes its golden bytes: no output follows the
    order of a set or dict of strs."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    child = subprocess.run([sys.executable, "-c", GOLDEN_RUN, src, tests, str(tmp_path)],
                           env={**os.environ, "PYTHONHASHSEED": seed},
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    codes = json.loads(child.stdout)
    for name, _, expected in CASES + CHECK_CASES:
        assert (codes[name], (tmp_path / name).read_bytes()) == (expected, golden_bytes(name))


def test_pretty_is_whitespace_only():
    compact = golden_bytes("k_apply_two_point.txt").decode()
    pretty = golden_bytes("k_apply_pretty.txt").decode()
    assert compact != pretty
    assert compact.split() == pretty.split()


def test_stdout_matches_golden(capsys):
    name, argv, expected = CASES[0]
    assert run(argv) == expected
    assert capsys.readouterr().out.encode() == golden_bytes(name)


def test_unknown_flag_exits_1(capsys):
    assert run(["validate", "--frobnicate", data("two_point.txt")]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_unknown_subcommand_exits_1(capsys):
    assert run(["transmogrify"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert run(["validate", data("no_such_file.txt")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate"], ["types", "--budget", "1", "--base"],
    ["check-cert", "--strategy", "constant", "--cert"],
])
def test_undecodable_file_exits_1(tmp_path, capsys, argv):
    """A file that is not UTF-8 is unreadable input, not a crash: every
    file option reads through one reader."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"structure s level 0\npoint \xff\n")
    assert run(argv + [str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot read {bad}: ")
    assert err.count("\n") == 1


def test_unwritable_out_exits_1(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "out.txt"
    assert run(["validate", data("two_point.txt"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert not out.exists()


# the first golden invocation of each subcommand
ONE_PER_COMMAND = {argv[0]: argv for _, argv, _ in reversed(CASES + CHECK_CASES)}
STDOUT_ERRORS = {"full-device": "[Errno 28] No space left on device",
                 "closed-pipe": "[Errno 32] Broken pipe"}


@pytest.mark.parametrize("stdout", sorted(STDOUT_ERRORS))
@pytest.mark.parametrize("command", sorted(ONE_PER_COMMAND))
def test_unwritable_stdout_exits_1(command, stdout):
    """Output that cannot reach stdout, on a full device or on a pipe whose
    read end was closed before the run, ends every subcommand with exit 1
    and one error line: no traceback, and nothing left over for the flush
    at interpreter exit to fail on.  The child's stdout is block-buffered,
    as by default, so the output is still buffered when the write fails."""
    if stdout == "full-device":
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, fd = os.pipe()
        os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                     "src")
    try:
        child = subprocess.run([sys.executable, "-m", "colorder.cli", *ONE_PER_COMMAND[command]],
                               stdout=fd, stderr=subprocess.PIPE, text=True,
                               env=env, timeout=60)
    finally:
        os.close(fd)
    assert (child.returncode, child.stderr) == (
        1, f"error: cannot write <stdout>: {STDOUT_ERRORS[stdout]}\n")


def test_one_process_reuses_the_parser(tmp_path, capsys, monkeypatch):
    """Calls in one process share one parser, and no option value of one
    call carries over to the next."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    k_apply = ["k-apply", "--base", data("two_point.txt"), "--budget", "2"]
    assert run(k_apply + ["--format", "pretty"]) == 0
    assert capsys.readouterr().out.encode() == golden_bytes("k_apply_pretty.txt")
    assert run(k_apply) == 0
    assert capsys.readouterr().out.encode() == golden_bytes("k_apply_two_point.txt")
    assert run(k_apply[:3]) == 1
    assert capsys.readouterr() == ("", (
        "colorder k-apply: the following arguments are required: --budget\n"
        "usage: colorder k-apply [-h] --base BASE --budget BUDGET [--name NAME]\n"
        "                        [--out OUT] [--format {compact,pretty}]\n"))
    name, argv, _ = next(c for c in CASES if c[0] == "refute_constant.txt")
    cert = tmp_path / "cert.txt"
    assert run(argv + ["--out", str(cert)]) == 0
    assert cert.read_bytes() == golden_bytes(name)
    assert run(["check-cert", "--cert", str(cert), "--strategy", "constant"]) == 0
    assert capsys.readouterr() == ("accepted\n", "")


def test_malformed_structure_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("structure s level 0\npoint a\npoint b\n")  # missing pair
    assert run(["validate", str(bad)]) == 1


def traced_peak(fn):
    """``fn()`` and the peak of the memory Python allocated while it ran."""
    tracemalloc.start()
    try:
        got = fn()
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_missing_pairs_fail_before_rows_are_allocated(tmp_path, capsys):
    """5000 points and no colors: the pair count is short, so the first
    missing pair is reported without the 25M row entries."""
    bad = tmp_path / "points.txt"
    bad.write_text("structure s level 0\n"
                   + "".join(f"point p{i}\n" for i in range(5000)))
    code, peak = traced_peak(lambda: run(["validate", str(bad)]))
    assert code == 1
    assert capsys.readouterr() == ("", "error: missing color for pair (p0, p1)\n")
    assert peak < 50 * 2**20


SEPARATORS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029")
CHUNK = 8  # small, so that a short text spans many chunks


def split(chunks) -> list[str]:
    """The lines of ``chunks`` as :func:`read_lines` splits them."""
    return list(itertools.chain.from_iterable(map(str.splitlines, chunks)))


@pytest.mark.parametrize("sep", SEPARATORS, ids=[hex(ord(s[-1])) for s in SEPARATORS])
def test_read_lines_equal_splitlines(sep):
    """Split a chunk at a time, a text gives exactly ``splitlines()``: each
    separator ``splitlines`` knows just before, at and just after a chunk's
    nominal end (with a ``\\n`` there and not), ``\\r\\n`` split across that
    end, no final line end, and several chunks in a row."""
    texts = []
    for at in range(CHUNK - 3, CHUNK + 3):
        for tail in ("", "z", "z\n", sep):
            texts.append("x" * at + sep + "y" * CHUNK + tail)
            texts.append("x" * at + sep + "\n" + "y" * 3 * CHUNK + sep + "w" + tail)
    texts += ["x" * (CHUNK - 1) + "\r\n" + "y", "x" * (CHUNK - 1) + "\r" + sep + "y",
              "", sep, sep * 3 * CHUNK, (sep + "ab\n") * 3 * CHUNK]
    for text in texts:
        assert split(_text_chunks(text, CHUNK)) == text.splitlines(), text
        assert list(read_lines(text)) == text.splitlines(), text


def test_file_lines_equal_the_split_text(tmp_path):
    """A file's lines are read a chunk at a time, each read completed to
    the end of its line: they equal the split of the whole text that the
    CLI read before, with every separator ``splitlines`` knows (CR LF and
    a lone CR on disk among them) around the ends of the reads, and no
    final line end."""
    path = tmp_path / "lines.txt"
    path.write_bytes("".join("x" * k + sep for k in range(12) for sep in SEPARATORS)
                     .encode() + b"\r\rlast")
    want = path.read_text().splitlines()
    for size in (1, 2, 3, 5, 8, 13):
        with open(path) as fh:
            assert split(_file_chunks(fh, size)) == want
    with open(path) as fh:
        assert list(read_lines(fh)) == want


def test_errors_are_found_in_file_order(tmp_path, capsys):
    """A file is read and decoded a chunk at a time, so each error is found
    when the reader reaches it: a bad line is reported before a byte that
    is not UTF-8 some chunks later, and that byte, once reached, is the
    unreadable-file error."""
    pad = "".join(f"point p{i}\n" for i in range(40000)).encode()  # 0.4 MB, past many reads
    early = tmp_path / "early.txt"
    early.write_bytes(b"structure s level 0\nbogus\n" + pad + b"point \xff\n")
    assert run(["validate", str(early)]) == 1
    assert capsys.readouterr() == ("", "error: line 2: unknown directive 'bogus'\n")
    late = tmp_path / "late.txt"
    late.write_bytes(b"structure s level 0\n" + pad + b"point \xff\nbogus\n")
    assert run(["validate", str(late)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot read {late}: ")


def test_a_structure_error_comes_before_a_later_missing_head(tmp_path, capsys):
    """A certificate is read in one pass, so an error in its STRUCTURE
    section is reported before a section head missing after it, which
    alone is the canonical-form error."""
    lines = golden_bytes("refute_index.txt").decode().splitlines(True)
    assert lines[11].startswith("color ") and lines.count("VERDICT\n") == 1
    lines.remove("VERDICT\n")
    cert = tmp_path / "cert.txt"
    cert.write_text("".join(lines))
    check = ["check-cert", "--cert", str(cert), "--strategy", "index-sensitive"]
    assert run(check) == 1
    assert capsys.readouterr() == ("", "error: certificate is not in canonical form\n")
    lines[11] = "color\n"
    cert.write_text("".join(lines))
    assert run(check) == 1
    assert capsys.readouterr() == ("", "error: line 12: bad color line\n")


def test_reading_a_structure_holds_no_list_of_its_lines():
    """``parse_struct`` of the 931-point text (12000 ``grow`` steps at
    budget cap 3, 9.4M characters) splits it a chunk at a time: it peaked
    at 20.3 MiB traced, against 49.3 MiB when it listed every line first."""
    text = format_struct(grow(Approximation(budget_cap=3), 12000).current, "s")
    (_, s), peak = traced_peak(lambda: parse_struct(text))
    assert len(s.points) == 931
    assert peak < 30 * 2**20


def test_check_cert_reads_the_structure_as_it_comes(tmp_path, capsys):
    """``check-cert`` hands the STRUCTURE section's lines to the structure
    reader as the file gives them and keeps only the other lines: on a
    depth-400 ``index-sensitive`` certificate (1,755,290 bytes) it peaked
    at 4.0 MiB traced, against 11.9 MiB when it held the whole text and a
    list of its lines."""
    cert = tmp_path / "cert.txt"
    assert run(["refute", "--base", data("one_point.txt"), "--strategy", "index-sensitive",
                "--type", "type supp=a cut=1 colors=b:0:1 level=0", "--depth", "400",
                "--out", str(cert)]) == 0
    assert cert.stat().st_size == 1755290
    code, peak = traced_peak(lambda: run(["check-cert", "--cert", str(cert),
                                          "--strategy", "index-sensitive"]))
    assert (code, capsys.readouterr()) == (0, ("accepted\n", ""))
    assert peak < 6 * 2**20


@pytest.mark.parametrize("index", ["20000000", "99999999999999999999999"])
def test_large_base_color_index_is_valid(tmp_path, capsys, index):
    """A base color index is a number, not a list length."""
    s = tmp_path / "big.txt"
    s.write_text(f"structure s level 0\npoint a\npoint b\ncolor a b b:0:{index}\n")
    code, peak = traced_peak(lambda: run(["validate", str(s)]))
    assert (code, capsys.readouterr()) == (0, ("valid\n", ""))
    assert peak < 5 * 2**20


def test_invalid_structure_exits_2(capsys):
    assert run(["validate", data("mono3.txt")]) == 2
    out = capsys.readouterr().out
    assert out.startswith("invalid monochromatic-triangle a b c")


def test_tampered_certificate_exits_2(tmp_path, capsys):
    text = golden_bytes("refute_constant.txt").decode()
    tampered = text.replace("color u0 u1 b:0:0", "color u0 u1 b:0:4")
    cert = tmp_path / "cert.txt"
    cert.write_text(tampered)
    assert run(["check-cert", "--cert", str(cert), "--strategy", "constant"]) == 2
    assert capsys.readouterr().out.startswith("rejected")


def test_forged_query_hash_exits_2(tmp_path, capsys):
    text = golden_bytes("refute_constant.txt").decode()
    forged = text.replace("query u0 4dce5977edea091a", "query u0 deadbeefdeadbeef")
    assert forged != text
    cert = tmp_path / "cert.txt"
    cert.write_text(forged)
    assert run(["check-cert", "--cert", str(cert), "--strategy", "constant"]) == 2
    assert capsys.readouterr().out == "rejected hash-mismatch at u0\n"


INDEX_TYPE_LINE = "type type supp=a cut=1 colors=b:0:1 level=0\n"
INDEX_ALPHA = "pair a a\npair u0 u1\npair u1 u2\npair u3 u0\npair u2 u4\n"
INDEX_STEPS = "extend fwd u1 u2\nextend bwd u0 u3\nextend fwd u2 u4\n"


INDEX = ("refute_index.txt", "index-sensitive")
FAULT_TRIANGLE = ("refute_fault_triangle.txt", "constant")


def rejected(reason: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``check-cert`` on a rejected text."""
    return 2, f"rejected {reason}\n", ""


def off_frame(lineno: int) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``check-cert`` on a text whose line
    ``lineno`` is the first that ``refute`` would not write."""
    return 1, "", f"error: line {lineno}: certificate is not in canonical form\n"


@pytest.mark.parametrize("golden,edits,expected", [
    (INDEX, [(INDEX_TYPE_LINE, INDEX_TYPE_LINE.replace("level=0", "level=0 "))],
     rejected("type-not-canonical")),
    (INDEX, [(INDEX_TYPE_LINE, INDEX_TYPE_LINE.replace("type type", "type type "))],
     rejected("type-not-canonical")),
    (INDEX, [(INDEX_ALPHA, "".join(reversed(INDEX_ALPHA.splitlines(True))))], off_frame(37)),
    (INDEX, [(INDEX_ALPHA, "pair a a\npair u0 u1\npair u1 u2\npair u2 u4\npair u3 u0\n"),
             (INDEX_STEPS, "extend fwd u1 u2\nextend fwd u2 u4\nextend bwd u0 u3\n")],
     rejected("transcript-step-order at step 1")),
    (FAULT_TRIANGLE, [("depth 0\nALPHA\n", "depth 7\nALPHA\npair a a\n")], off_frame(11)),
    (FAULT_TRIANGLE, [("VERDICT\n", "extend fwd a a\nVERDICT\n")], off_frame(11)),
], ids=["type-trailing-space", "type-double-space", "alpha-reversed", "bwd-moved",
        "fault-depth-and-alpha", "fault-extend-step"])
def test_certificate_other_than_refute_writes_is_rejected(tmp_path, capsys, golden, edits,
                                                          expected):
    """A certificate spelled or ordered other than ``refute`` writes it:
    the type line off its canonical spelling, the steps out of fwd/bwd
    alternation (ALPHA, which spells them, moved along), alpha in another
    order, or a strategy fault that carries a depth, an alpha pair or a
    step.  The checker rejects the first two; the others are off the
    frame, since ALPHA and the depth spell the steps."""
    name, strategy = golden
    text = golden_bytes(name).decode()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    cert = tmp_path / "cert.txt"
    cert.write_text(text)
    code = run(["check-cert", "--cert", str(cert), "--strategy", strategy])
    assert (code, *capsys.readouterr()) == expected


@pytest.mark.parametrize("lineno,first,last,message,reader,own_message", [
    (12, 4, 25, "bad color line", parse_struct, "bad color line"),
    (38, 37, 41, "certificate is not in canonical form", parse_pairs,
     "expected 'pair <id> <id>'"),
], ids=["structure", "alpha"])
def test_certificate_parse_error_cites_the_file_line(tmp_path, capsys, lineno, first, last,
                                                     message, reader, own_message):
    """A bad line inside the STRUCTURE or ALPHA section is cited by its
    line in the certificate; ALPHA is not read but held to the pairs the
    transcript spells, so its error is the canonical-form one.  The same
    section read as a file of its own cites its line there, as before."""
    lines = golden_bytes("refute_index.txt").decode().splitlines(True)
    lines[lineno - 1] = lines[lineno - 1].rsplit(" ", 1)[0] + "\n"  # drop the last token
    cert = tmp_path / "cert.txt"
    cert.write_text("".join(lines))
    assert run(["check-cert", "--cert", str(cert), "--strategy", "index-sensitive"]) == 1
    assert capsys.readouterr() == ("", f"error: line {lineno}: {message}\n")
    section = "".join(lines[first - 1:last])
    with pytest.raises(InputError, match=f"^line {lineno - first + 1}: {own_message}$"):
        reader(section)


def test_check_cert_wrong_strategy_exits_2(capsys):
    cert = os.path.join(GOLDEN, "refute_constant.txt")
    assert run(["check-cert", "--cert", cert,
                "--strategy", "index-sensitive"]) == 2


def test_refute_requires_exactly_one_type_source(capsys):
    assert run(["refute", "--base", data("one_point.txt"),
                "--strategy", "constant"]) == 1
    assert run(["refute", "--base", data("one_point.txt"),
                "--type", "type supp= cut=0 colors= level=0",
                "--type-file", data("one_point.txt"),
                "--strategy", "constant"]) == 1
    capsys.readouterr()
    # an empty --type is a type text to parse, not a missing one
    assert run(["refute", "--base", data("one_point.txt"), "--type", "",
                "--strategy", "constant"]) == 1
    assert capsys.readouterr().err == "error: bad type text ''\n"


@pytest.mark.parametrize("color,strategy", [("b:1:0", "constant"), ("m:1", "support-echo")])
def test_refute_names_the_ambient_level_of_a_type_color(capsys, color, strategy):
    """A type color above the base's level is reported against that level,
    not against the level of the full type built inside the run."""
    assert run(["refute", "--base", data("one_point.txt"),
                "--type", f"type supp=a cut=1 colors={color} level=1",
                "--strategy", strategy]) == 1
    assert capsys.readouterr() == ("", f"error: type color {color} exceeds ambient level 0\n")


def test_k_apply_point_count(capsys):
    assert run(["k-apply", "--base", data("two_point.txt"),
                "--budget", "2"]) == 0
    out = capsys.readouterr().out
    assert sum(1 for line in out.splitlines()
               if line.startswith("point ")) == 20


@pytest.mark.parametrize("budget,size,digest", [
    (2, 163346, "bdd77495cc4fd47b198cdb6cbfa7bea103952110374a0bf92e23dfd8d342f0db"),
    (3, 1830811, "8440a3a4f99115514636eb20b2a468e6ffdd7e113596d1b828450c63dcaabd73"),
])
def test_k_apply_three_point_bytes(tmp_path, budget, size, digest):
    """Byte pins of larger extensions, whose pair colors span three base
    points; the digests were taken from the pair-structure implementation."""
    out = tmp_path / "k.txt"
    assert run(["k-apply", "--base", data("three_point.txt"), "--budget", str(budget),
                "--out", str(out)]) == 0
    body = out.read_bytes()
    assert (len(body), hashlib.sha256(body).hexdigest()) == (size, digest)


@pytest.mark.parametrize("strategy,size,digest", [
    ("index-sensitive", 437490,
     "7ece0a2b8c54449ee1e6e55bc08215e6c1f3a40458f6c0af968caa6f219ccd32"),
    ("constant", 437477,
     "bf6bc08898ed69bb598b90b6697dd94fbaf231f461aff7f5ecfd5637a0b27c4a"),
])
def test_refute_depth_200_bytes(tmp_path, capsys, strategy, size, digest):
    """Byte pins of depth-200 certificates, whose back-and-forth realizes
    about 200 points; the digests were taken from the step that re-checked
    every transported type.  check-cert accepts both."""
    cert = tmp_path / "cert.txt"
    assert run(["refute", "--base", data("one_point.txt"),
                "--type", "type supp=a cut=1 colors=b:0:1 level=0",
                "--strategy", strategy, "--depth", "200", "--out", str(cert)]) == 0
    body = cert.read_bytes()
    assert (len(body), hashlib.sha256(body).hexdigest()) == (size, digest)
    assert run(["check-cert", "--cert", str(cert), "--strategy", strategy]) == 0
    assert capsys.readouterr().out == "accepted\n"


@pytest.mark.parametrize("name", ["", "a b", "x\ny"], ids=["empty", "space", "newline"])
def test_k_apply_rejects_a_name_its_header_cannot_hold(tmp_path, capsys, name):
    """A structure name is one token of the header line, as a point id is
    of its line; any other name exits 1 and writes nothing."""
    out = tmp_path / "k.txt"
    argv = ["k-apply", "--base", data("two_point.txt"), "--budget", "1", "--name", name]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: bad structure name {name!r}\n")
    assert run(argv + ["--out", str(out)]) == 1
    assert not out.exists()


def test_k_apply_name_reads_back(tmp_path, capsys):
    """The structure part of ``k-apply --name`` output, the lines before
    its ``types`` sidecar, validates under that name."""
    out = tmp_path / "k.txt"
    assert run(["k-apply", "--base", data("two_point.txt"), "--budget", "1",
                "--name", "K.1", "--out", str(out)]) == 0
    structure = out.read_text().split("types\n")[0]
    assert structure.startswith("structure K.1 level 1\n")
    out.write_text(structure)
    assert run(["validate", str(out)]) == 0
    assert capsys.readouterr() == ("valid\n", "")


def test_pair_file_crlf_and_blank_lines_read_as_its_lf_form(tmp_path, capsys):
    """A pair file is read as a stream of lines: with CR LF line ends and a
    blank line it gives the same ``limit-extend-iso`` output as its LF
    form, and a bad line is cited by the same line number."""
    iso = tmp_path / "iso.txt"
    argv = ["limit-extend-iso", "--steps", "40", "--budget", "2", "--seed-file",
            data("two_point.txt"), "--iso", str(iso), "--point", "b"]
    for text, want in (
            ("\npair a a\n", (0, golden_bytes("limit_extend_iso.txt").decode(), "")),
            ("pair a a\n\npair b\n", (1, "", "error: line 3: expected 'pair <id> <id>'\n"))):
        for form in (text, text.replace("\n", "\r\n")):
            iso.write_bytes(form.encode())
            assert (run(argv), *capsys.readouterr()) == want


def test_extend_iso_unknown_point_exits_1(capsys):
    argv = ["limit-extend-iso", "--steps", "5", "--seed-file", data("two_point.txt"),
            "--iso", data("iso_id_a.txt"), "--point", "nope"]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: unknown point 'nope'\n"


@pytest.mark.parametrize("argv", [["types", "--budget", "1"], ["k-apply", "--budget", "1"],
                                  ["k-iterate", "--stages", "1", "--budgets", "1"]])
def test_invalid_base_exits_1(capsys, argv):
    assert run(argv + ["--base", data("mono3.txt")]) == 1
    assert capsys.readouterr() == ("", "error: invalid base structure: monochromatic-triangle\n")


def run_amalgamate(tmp_path, left_map: str | None, right_map: str | None) -> int:
    """``amalgamate`` of the golden's three files, with map files holding
    the given texts."""
    argv = ["amalgamate", "--left", data("amal_left.txt"), "--right", data("amal_right.txt"),
            "--over", data("amal_over.txt")]
    for flag, text in (("--left-map", left_map), ("--right-map", right_map)):
        if text is not None:
            path = tmp_path / f"{flag[2:]}.txt"
            path.write_text(text)
            argv += [flag, str(path)]
    return run(argv)


def test_amalgamate_identity_maps_give_the_golden(tmp_path, capsys):
    assert run_amalgamate(tmp_path, "pair x x\n", "pair x x\n") == 0
    assert capsys.readouterr() == (golden_bytes("amalgamate.txt").decode(), "")


def test_amalgamate_left_map_renames_the_private_point(tmp_path, capsys):
    assert run_amalgamate(tmp_path, "pair x a1\n", None) == 0
    assert capsys.readouterr() == ("structure amalgam level 0\n"
                                   "point x.a\npoint x\npoint b1\n"
                                   "color x.a x b:0:0\ncolor x.a b1 b:0:1\ncolor x b1 b:0:0\n"
                                   "embedding left\npair x x.a\npair a1 x\n"
                                   "embedding right\npair x x\npair b1 b1\n", "")


@pytest.mark.parametrize("text,message", [
    ("pair x x\npair x a1\n", "not an embedding"),
    ("pair x x\npair x x\n", "not an embedding"),
    ("pair zz a1\n", "not an embedding"),
    ("pair x\n", "line 1: expected 'pair <id> <id>'"),
])
@pytest.mark.parametrize("side", ["left", "right"])
def test_bad_amalgamate_map_exits_1(tmp_path, capsys, side, text, message):
    maps = (text, None) if side == "left" else (None, text)
    assert run_amalgamate(tmp_path, *maps) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_type_file_input(tmp_path, capsys):
    tf = tmp_path / "tau.txt"
    tf.write_text("type supp=a cut=1 colors=b:0:1 level=0\n")
    assert run(["refute", "--base", data("one_point.txt"),
                "--type-file", str(tf), "--strategy", "constant"]) == 0
    assert "certificate v1" in capsys.readouterr().out


def test_control_lo_bad_cut_exits_1(capsys):
    assert run(["control-lo", "--size", "1", "--cut", "7"]) == 1


@pytest.mark.parametrize("name", ["cert_bad_alpha.txt", "cert_bad_depth.txt",
                                  "cert_bare_kind.txt", "cert_bare_type.txt"])
def test_malformed_certificate_exits_1(capsys, name):
    assert run(["check-cert", "--cert", data(name), "--strategy", "constant"]) == 1
    assert capsys.readouterr().err.startswith("error:")


TYPE_A = "type supp=a cut=1 colors=b:0:1 level=0"


@pytest.mark.parametrize("command", ["/nonexistent", "", "true",
                                     "sh -c 'sleep 0.2; exit 0'",
                                     r"printf 'answer above \377\n'"])
def test_broken_program_strategy_exits_1(capsys, command):
    assert run(["refute", "--base", data("one_point.txt"), "--type", TYPE_A,
                "--strategy", f"prog:{command}"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv, message", [
    (["k-iterate", "--base", data("one_point.txt"), "--stages", "2", "--budgets", "1,x"],
     "bad budget list '1,x'"),
    (["control-lo", "--size", "-1", "--cut", "0"], "size must be nonnegative"),
    (["refute", "--base", data("one_point.txt"), "--strategy", "constant"],
     "give exactly one of --type and --type-file"),
    (["refute", "--base", data("one_point.txt"), "--strategy", "constant", "--type", TYPE_A,
      "--type-file", data("one_point.txt")], "give exactly one of --type and --type-file"),
    (["k-iterate", "--base", data("one_point.txt"), "--stages", "-1", "--budgets", ""],
     "stages must be nonnegative"),
    (["limit-build", "--steps", "-5"], "steps must be nonnegative"),
])
def test_bad_arguments_exit_1(capsys, argv, message):
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_program_strategy_with_quoted_argument(capsys):
    program = ("import sys\n"
               "for line in sys.stdin:\n"
               "    print('answer above b:0:0', flush=True)\n")
    command = f"{shlex.quote(sys.executable)} -c {shlex.quote(program)}"
    assert run(["refute", "--base", data("one_point.txt"), "--type", TYPE_A,
                "--strategy", f"prog:{command}"]) == 0
    assert "kind MonochromaticTriangle" in capsys.readouterr().out


def test_failing_program_strategy_is_killed_soon(capsys):
    """A reply that fails to parse ends the run within the 1 s grace of a
    program that ignores EOF."""
    command = "sh -c 'echo answer above nonsense; exec sleep 15'"
    start = time.monotonic()
    assert run(["refute", "--base", data("one_point.txt"), "--type", TYPE_A,
                "--strategy", f"prog:{command}"]) == 1
    assert time.monotonic() - start < 5
    assert capsys.readouterr().err == "error: bad color term 'nonsense'\n"


def chain_structure(n: int) -> str:
    """A valid structure on ``n`` points: the pair (p_i, p_j), i < j, has
    color b:0:i, so no triangle is monochromatic."""
    return ("structure s level 0\n" + "".join(f"point p{i}\n" for i in range(n))
            + "".join(f"color p{i} p{j} b:0:{i}\n"
                      for i in range(n) for j in range(i + 1, n)))


@pytest.mark.parametrize("argv", [
    ["types", "--base", data("one_point.txt"), "--budget", "100000000"],
    ["k-apply", "--base", data("one_point.txt"), "--budget", "100000"],
    ["k-iterate", "--base", data("one_point.txt"), "--stages", "3", "--budgets", "1,1,1"],
    ["types", "--base", "chain14", "--budget", "2"],
], ids=["types-budget", "k-apply-budget", "k-iterate-stage3", "types-counted"])
def test_enumeration_past_the_cap_exits_1(tmp_path, capsys, argv):
    """A size bound rejects the first three before reading the base (the
    third at stage 3, over the 9300 points of stage 2); the 14-point chain
    passes that bound and is stopped by the count."""
    chain = tmp_path / "chain14.txt"
    chain.write_text(chain_structure(14))
    argv = [str(chain) if a == "chain14" else a for a in argv]
    start = time.monotonic()
    code, peak = traced_peak(lambda: run(argv))
    assert code == 1
    assert capsys.readouterr() == ("", "error: more than 100000 types\n")
    assert peak < 40 * 2**20
    assert time.monotonic() - start < 20


CAPPED_RUN = """
import contextlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, sys.argv[1])
from colorder.cli import run
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = run(sys.argv[2:])
print(json.dumps([code, out.getvalue(), time.perf_counter() - start]))
"""


def capped_run(argv: list[str]) -> tuple[int, str, float]:
    """Exit code, stdout and seconds of ``cli.run(argv)`` in a child whose
    address space is capped at 1 GiB; a traceback fails the test."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    child = subprocess.run([sys.executable, "-c", CAPPED_RUN, src, *argv],
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0 and "Traceback" not in child.stderr, child.stderr
    return tuple(json.loads(child.stdout))


@pytest.mark.parametrize("argv,option,small", [
    (["types", "--base", data("empty.txt"), "--budget", "1"], "--level", 0),
    (["types", "--base", data("two_point.txt"), "--budget", "0"], "--level", 0),
    (["k-apply", "--base", data("empty.txt")], "--budget", 1),
], ids=["types-empty-level", "types-budget-0-level", "k-apply-empty-budget"])
def test_unused_color_pool_is_not_built(argv, option, small):
    """Over an empty base, or with budget 0, no type has a base color to
    draw, so a huge level or budget costs nothing: the output is the small
    value's, with the enumeration level printed in each type line."""
    huge = 100_000_000
    code, out, seconds = capped_run([*argv, option, str(huge)])
    want_code, want, _ = capped_run([*argv, option, str(small)])
    if option == "--level":
        want = want.replace(f"level={small}\n", f"level={huge}\n")
    assert code == want_code == 0 and out == want
    assert seconds < 1


def test_k_apply_at_2255_points_streams_within_1_gib():
    """``k-apply`` of the five-point base at budget 3 writes 604 MB over
    2255 points.  Streamed row by row, it runs in a child capped at 1 GiB
    of address space; joining the whole text first needs about 1.9 GB."""
    code, out, _ = capped_run(["k-apply", "--base", data("five_point.txt"), "--budget", "3",
                               "--out", os.devnull])
    assert (code, out) == (0, "")


@pytest.mark.parametrize("fmt,want", [("compact", ""), ("pretty", "\n")])
def test_empty_output_prints_as_before(capsys, fmt, want):
    """Zero stages print nothing, and one empty line in the pretty style."""
    argv = ["k-iterate", "--base", data("empty.txt"), "--stages", "0", "--budgets", ""]
    assert run(argv + ["--format", fmt]) == 0
    assert capsys.readouterr() == (want, "")


def test_running_out_of_memory_exits_1():
    """A run that exhausts its address space ends with exit 1 and one
    error line, not a traceback.  The cap is set in the child alone."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    child = subprocess.run(
        [sys.executable, "-m", "colorder.cli", "control-lo", "--size", "100000000",
         "--cut", "0", "--samples", "0"],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap,
        capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stdout, child.stderr) == (1, "", "error: out of memory\n")


@pytest.mark.parametrize("command", ["refute", "check-cert"])
def test_silent_program_strategy_times_out(monkeypatch, capsys, command):
    """A program that never replies ends the run after the per-reply
    deadline, and is killed on the 1 s path of a failed run."""
    monkeypatch.setattr(refuter, "ANSWER_DEADLINE_S", 0.5)
    argv = {"refute": ["refute", "--base", data("one_point.txt"), "--type", TYPE_A],
            "check-cert": ["check-cert", "--cert",
                           os.path.join(GOLDEN, "refute_constant.txt")]}[command]
    start = time.monotonic()
    assert run(argv + ["--strategy", "prog:sleep 30"]) == 1
    assert time.monotonic() - start < 5
    assert capsys.readouterr() == (
        "", "error: strategy 'prog:sleep' did not answer within 0.5 s\n")


@pytest.mark.parametrize("old,new,lineno", [
    ("MonochromaticTriangle q=b:0:0", "MonochromaticTriangle q=b:0:7 forged=yes", 49),
    ("kind MonochromaticTriangle", "kind MonochromaticTriangle extra", 2),
    ("x a", "x a\nbogus field", 28),
    ("t1 u0", "t1 u0\nt1 u0", 30),
    ("q b:0:0", "q b:0:00", 31),
    ("side1 above\n", "", 33),
], ids=["verdict", "kind", "stray-field", "repeated-field", "color-spelling",
        "missing-field"])
def test_certificate_outside_canonical_form_exits_1(tmp_path, capsys, old, new, lineno):
    """Each edit leaves the certificate's meaning for the checker alone, or
    drops a field it would reject, but is not what the writer writes; the
    error cites the first line that differs."""
    text = golden_bytes("refute_constant.txt").decode()
    forged = text.replace(old, new, 1)
    assert forged != text
    cert = tmp_path / "cert.txt"
    cert.write_text(forged)
    assert run(["check-cert", "--cert", str(cert), "--strategy", "constant"]) == 1
    assert capsys.readouterr() == (
        "", f"error: line {lineno}: certificate is not in canonical form\n")


@pytest.mark.parametrize("old,new,lineno", [
    ("kind MonochromaticTriangle", "kind EquivarianceViolation", 2),
    ("q b:0:0", "q b:0:1", 31),
    ("qprime b:0:0", "qprime b:0:1", 32),
    ("side1 above", "side1 below", 33),
    ("side2 above", "side2 below", 34),
    ("depth 3", "depth 2", 35),
    ("pair u3 u0", "pair u0 u3", 40),
    ("MonochromaticTriangle q=b:0:0", "EquivarianceViolation q=b:0:0 qprime=b:0:0", 49),
], ids=["kind", "q", "qprime", "side1", "side2", "depth", "alpha-pair", "verdict"])
def test_forged_derived_line_exits_1_at_its_line(tmp_path, capsys, old, new, lineno):
    """The kind, the answers at the realizers, the depth, ALPHA and the
    verdict are read off the query log and the transcript, so each of
    their lines, forged alone, is off the frame at that line."""
    text = golden_bytes("refute_constant.txt").decode()
    assert text.splitlines()[lineno - 1] == old
    cert = tmp_path / "cert.txt"
    cert.write_text(text.replace(old + "\n", new + "\n", 1))
    assert run(["check-cert", "--cert", str(cert), "--strategy", "constant"]) == 1
    assert capsys.readouterr() == (
        "", f"error: line {lineno}: certificate is not in canonical form\n")


def test_pretty_certificate_is_accepted(tmp_path, capsys):
    cert = tmp_path / "cert.txt"
    assert run(["refute", "--base", data("one_point.txt"), "--type", TYPE_A,
                "--strategy", "index-sensitive", "--format", "pretty",
                "--out", str(cert)]) == 0
    text = cert.read_text()
    for head in ("STRUCTURE", "POINTS", "ALPHA", "TRANSCRIPT", "VERDICT"):
        assert f"\n\n{head}\n" in text
    assert run(["check-cert", "--cert", str(cert), "--strategy", "index-sensitive"]) == 0
    assert capsys.readouterr().out == "accepted\n"


def test_endless_reply_exits_1_at_the_cap(capsys):
    start = time.monotonic()
    assert run(["refute", "--base", data("one_point.txt"), "--type", TYPE_A,
                "--strategy", "prog:cat /dev/zero"]) == 1
    assert time.monotonic() - start < 2
    assert capsys.readouterr().err == (
        f"error: strategy 'prog:cat' sent a reply longer than "
        f"{refuter.MAX_REPLY_BYTES} bytes\n")


def running_members(group: int) -> list[int]:
    """Pids of the processes in process group ``group`` that have not
    exited; a killed process stays a zombie until its new parent reaps it."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, _, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue  # exited while listed
        if int(pgrp) == group and state not in ("Z", "X"):
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_program_ignoring_eof_is_killed_with_its_children(tmp_path, capsys):
    """A program that answers, then ignores EOF and runs a child, holds a
    successful run for the 1 s grace; then its whole process group is
    killed, the child included."""
    pidfile = tmp_path / "pid"
    command = (f"sh -c 'echo $$ > {pidfile}; "
               "while read l; do echo answer above b:0:0; done; sleep 30'")
    start = time.monotonic()
    assert run(["refute", "--base", data("one_point.txt"), "--type", TYPE_A,
                "--strategy", f"prog:{command}"]) == 0
    assert time.monotonic() - start < 3
    assert "kind MonochromaticTriangle" in capsys.readouterr().out
    group = int(pidfile.read_text())
    deadline = time.monotonic() + 1  # SIGKILL lands soon, not at once
    while running_members(group) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert running_members(group) == []
