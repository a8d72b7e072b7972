import os
import shlex
import sys

import pytest

from colorder.cli import run
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


def test_malformed_structure_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("structure s level 0\npoint a\npoint b\n")  # missing pair
    assert run(["validate", str(bad)]) == 1


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


def test_k_apply_point_count(capsys):
    assert run(["k-apply", "--base", data("two_point.txt"),
                "--budget", "2"]) == 0
    out = capsys.readouterr().out
    assert sum(1 for line in out.splitlines()
               if line.startswith("point ")) == 20


def test_type_file_input(tmp_path, capsys):
    tf = tmp_path / "tau.txt"
    tf.write_text("type supp=a cut=1 colors=b:0:1 level=0\n")
    assert run(["refute", "--base", data("one_point.txt"),
                "--type-file", str(tf), "--strategy", "constant"]) == 0
    assert "certificate v1" in capsys.readouterr().out


def test_control_lo_bad_cut_exits_1(capsys):
    assert run(["control-lo", "--size", "1", "--cut", "7"]) == 1


@pytest.mark.parametrize("name", ["cert_bad_depth.txt", "cert_bare_kind.txt",
                                  "cert_bare_type.txt"])
def test_malformed_certificate_exits_1(capsys, name):
    assert run(["check-cert", "--cert", data(name), "--strategy", "constant"]) == 1
    assert capsys.readouterr().err.startswith("error:")


TYPE_A = "type supp=a cut=1 colors=b:0:1 level=0"


@pytest.mark.parametrize("command", ["/nonexistent", "", "true",
                                     "sh -c 'sleep 0.2; exit 0'"])
def test_broken_program_strategy_exits_1(capsys, command):
    assert run(["refute", "--base", data("one_point.txt"), "--type", TYPE_A,
                "--strategy", f"prog:{command}"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_program_strategy_with_quoted_argument(capsys):
    program = ("import sys\n"
               "for line in sys.stdin:\n"
               "    print('answer above b:0:0', flush=True)\n")
    command = f"{shlex.quote(sys.executable)} -c {shlex.quote(program)}"
    assert run(["refute", "--base", data("one_point.txt"), "--type", TYPE_A,
                "--strategy", f"prog:{command}"]) == 0
    assert "kind MonochromaticTriangle" in capsys.readouterr().out
