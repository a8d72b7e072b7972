"""The golden CLI invocations shared by the CLI tests and the acceptance
suite.  Each case is (golden file name, argv, expected exit code); ``DATA``
placeholders are substituted with the fixture directory."""

import os

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def data(name: str) -> str:
    return os.path.join(DATA, name)


CASES = [
    ("validate_ok.txt",
     ["validate", data("two_point.txt")], 0),
    ("validate_mono.txt",
     ["validate", data("mono3.txt")], 2),
    ("amalgamate.txt",
     ["amalgamate", "--left", data("amal_left.txt"),
      "--right", data("amal_right.txt"), "--over", data("amal_over.txt")], 0),
    ("types_two_point.txt",
     ["types", "--base", data("two_point.txt"), "--budget", "2"], 0),
    ("k_apply_two_point.txt",
     ["k-apply", "--base", data("two_point.txt"), "--budget", "2"], 0),
    ("k_iterate_empty.txt",
     ["k-iterate", "--base", data("empty.txt"), "--stages", "2",
      "--budgets", "2,2"], 0),
    ("limit_build.txt",
     ["limit-build", "--steps", "60", "--budget", "2"], 0),
    ("limit_extend_iso.txt",
     ["limit-extend-iso", "--steps", "40", "--budget", "2",
      "--seed-file", data("two_point.txt"), "--iso", data("iso_id_a.txt"),
      "--point", "b"], 0),
    ("embed.txt",
     ["embed", "--steps", "30", "--budget", "2",
      "--structure", data("embed_target.txt")], 0),
    ("refute_constant.txt",
     ["refute", "--base", data("one_point.txt"),
      "--type", "type supp=a cut=1 colors=b:0:1 level=0",
      "--strategy", "constant", "--depth", "3"], 0),
    ("refute_index.txt",
     ["refute", "--base", data("one_point.txt"),
      "--type", "type supp=a cut=1 colors=b:0:1 level=0",
      "--strategy", "index-sensitive", "--depth", "3"], 0),
    ("refute_constant_depth20.txt",
     ["refute", "--base", data("one_point.txt"),
      "--type", "type supp=a cut=1 colors=b:0:1 level=0",
      "--strategy", "constant", "--depth", "20"], 0),
    ("refute_index_depth20.txt",
     ["refute", "--base", data("one_point.txt"),
      "--type", "type supp=a cut=1 colors=b:0:1 level=0",
      "--strategy", "index-sensitive", "--depth", "20"], 0),
    ("refute_fault_order.txt",
     ["refute", "--base", data("three_point.txt"),
      "--type", "type supp= cut=0 colors= level=0",
      "--strategy", "randomized-with-fixed-seed", "--depth", "3"], 0),
    ("refute_fault_triangle.txt",
     ["refute", "--base", data("one_point.txt"),
      "--type", "type supp=a cut=1 colors=b:0:0 level=0",
      "--strategy", "constant", "--depth", "3"], 0),
    ("control_lo.txt",
     ["control-lo", "--size", "2", "--cut", "1", "--depth", "3",
      "--samples", "20"], 0),
    ("k_apply_pretty.txt",
     ["k-apply", "--base", data("two_point.txt"), "--budget", "2",
      "--format", "pretty"], 0),
]

# check-cert consumes the committed refute golden, closing the loop
CHECK_CASES = [
    ("check_cert_ok.txt",
     ["check-cert", "--cert", os.path.join(GOLDEN, "refute_constant.txt"),
      "--strategy", "constant"], 0),
    ("check_cert_constant_depth20.txt",
     ["check-cert", "--cert", os.path.join(GOLDEN, "refute_constant_depth20.txt"),
      "--strategy", "constant"], 0),
    ("check_cert_index_depth20.txt",
     ["check-cert", "--cert", os.path.join(GOLDEN, "refute_index_depth20.txt"),
      "--strategy", "index-sensitive"], 0),
    ("check_cert_fault_order.txt",
     ["check-cert", "--cert", os.path.join(GOLDEN, "refute_fault_order.txt"),
      "--strategy", "randomized-with-fixed-seed"], 0),
    ("check_cert_fault_triangle.txt",
     ["check-cert", "--cert", os.path.join(GOLDEN, "refute_fault_triangle.txt"),
      "--strategy", "constant"], 0),
]
