import pytest

from shiftlab.cli import main


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_cover_fischer_example(capsys):
    status, out, _ = run(capsys, "cover", "fischer", "even4.graph")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "alphabet 0 1"
    assert sum(1 for x in lines if x.startswith("vertex ")) == 2


def test_map_decoder_example(capsys):
    status, out, _ = run(capsys, "map", "decoder", "evenmap.code", "--max-len", "4")
    assert status == 0
    assert out == "decoder-block 1 anticipation 0\n"


def test_check_t42_example(capsys):
    status, out, _ = run(capsys, "check", "t42", "xor.code")
    assert status == 0
    assert "status agree-negative" in out.splitlines()


def test_flags_accepted_before_subcommand(capsys):
    status, out, _ = run(capsys, "--max-len", "4", "map", "decoder", "evenmap.code")
    assert status == 0
    assert out == "decoder-block 1 anticipation 0\n"


def test_sync_check_without_witness_in_bound(capsys):
    # the verdict is proved; the least witness "1 01" needs a context
    # word of length 2, so horizon 1 reports the verdict with no witness
    status, out, err = run(capsys, "sync", "check", "even.graph", "00", "--horizon", "1")
    assert (status, out, err) == (0, "status not-synchronizing\n", "")


def test_lang_count(capsys):
    status, out, _ = run(capsys, "lang", "count", "golden.graph", "--max-len", "6")
    assert status == 0
    assert out.splitlines() == [
        "count 1 2", "count 2 3", "count 3 5",
        "count 4 8", "count 5 13", "count 6 21",
    ]


def test_lang_blocks(capsys):
    status, out, _ = run(capsys, "lang", "blocks", "even.graph", "--max-len", "3")
    assert status == 0
    assert "block 101" not in out
    assert "block 100" in out
    assert len(out.splitlines()) == 7


def test_lang_on_a_stranded_vertex(capsys, tmp_path):
    # B has no in-edge, so the shift is {0^inf}: 10 is no block of it
    stranded = tmp_path / "stranded.graph"
    stranded.write_text("alphabet 0 1\nvertex A\nvertex B\nedge A A 0\nedge B A 1\n")
    status, out, _ = run(capsys, "lang", "blocks", str(stranded), "--max-len", "2")
    assert (status, out) == (0, "block 00\n")
    status, out, _ = run(capsys, "lang", "count", str(stranded), "--max-len", "2")
    assert (status, out) == (0, "count 1 1\ncount 2 1\n")


@pytest.mark.parametrize("argv, block", [
    (("sync", "check", "even.graph", "101"), "101"),
    (("sync", "half", "dyck2.oracle", "(]"), "(]"),
])
def test_inadmissible_block_error_renders_the_block(capsys, argv, block):
    status, out, err = run(capsys, *argv)
    assert (status, out, err) == (1, "", f"error: inadmissible block {block}\n")


def test_sync_subcommands(capsys):
    status, out, _ = run(capsys, "sync", "find", "even.graph")
    assert status == 0 and out == "synchronizing-word 1\n"
    status, out, _ = run(capsys, "sync", "check", "even.graph", "0")
    assert status == 0
    assert out.splitlines()[0] == "status not-synchronizing"
    status, out, _ = run(capsys, "sync", "half", "even.graph", "0")
    assert status == 0
    lines = out.splitlines()
    assert "status refuted" in lines
    assert "refutation 01" in lines


def test_sync_half_oracle_file(capsys):
    status, out, _ = run(capsys, "sync", "half", "dyck2.oracle", "()", "--horizon", "4")
    assert status == 0
    assert out.splitlines()[0] == "status holds-at-horizon"


def test_code_subcommands(capsys):
    status, out, _ = run(capsys, "code", "apply", "xor.code", "0110")
    assert status == 0 and out == "image 101\n"
    status, out, _ = run(capsys, "code", "compose", "xor.code", "xor.code")
    assert status == 0
    assert out.splitlines()[0] == "code memory 0 anticipation 2"
    status, out, _ = run(capsys, "code", "image", "evenmap.code")
    assert status == 0
    assert out.startswith("alphabet 0 1\n")


def test_map_subcommands(capsys):
    status, out, _ = run(capsys, "map", "degree", "xor.code")
    assert status == 0
    assert "degree 2" in out.splitlines()
    status, out, _ = run(capsys, "map", "closing", "evenmap.code")
    assert status == 0
    assert "delay 0" in out.splitlines()
    status, out, _ = run(capsys, "map", "onetoone", "xor.code")
    assert status == 0
    assert "one-to-one-ae no" in out.splitlines()
    status, out, _ = run(capsys, "map", "hyperbolic", "xor.code")
    assert status == 0
    assert out == "hyperbolic word 0 d 2 k 0 blocks 00 11\n"


def test_inconclusive_exit_code(capsys):
    status, out, _ = run(capsys, "map", "decoder", "xor.code")
    assert status == 2
    assert out == "decoder-block none\n"


def test_fiber_build(capsys):
    status, out, _ = run(capsys, "fiber", "build", "xor.code", "xor.code")
    assert status == 0
    lines = out.splitlines()
    assert "fiber vertices 4" in lines
    assert sum(1 for x in lines if x.startswith("component ")) == 2


def test_check_t33_and_t34(capsys):
    status, out, _ = run(capsys, "check", "t33", "evenmap.code")
    assert status == 0
    assert "status agree-positive" in out.splitlines()
    status, out, _ = run(
        capsys, "check", "t34",
        "identity.code", "xor.code", "xor.code", "identity.code",
    )
    assert status == 0
    assert "status agree-positive" in out.splitlines()


def test_input_error_exit_code(capsys, tmp_path):
    status, _, err = run(capsys, "lang", "count", "missing.graph")
    assert status == 1
    assert "missing.graph" in err
    bad = tmp_path / "bad.graph"
    bad.write_text("alphabet 0 1\nvertex A\nedge A B 0\n")
    status, _, err = run(capsys, "lang", "count", str(bad))
    assert status == 1
    assert "bad.graph:3" in err


def test_nonpositive_bound_rejected(capsys):
    status, _, err = run(capsys, "lang", "count", "even.graph", "--max-len", "0")
    assert status == 1
    assert "positive" in err


def test_tsv_format(capsys):
    status, out, _ = run(capsys, "lang", "count", "even.graph", "--max-len", "2", "--format", "tsv")
    assert status == 0
    assert out == "count\t1\t2\ncount\t2\t4\n"


def test_corpus_run_all_deterministic(capsys):
    status1, out1, _ = run(capsys, "corpus", "run-all")
    status2, out2, _ = run(capsys, "corpus", "run-all")
    assert status1 == status2 == 0
    assert out1 == out2
    assert out1.splitlines()[-1] == "all-pass yes"
    assert len([x for x in out1.splitlines() if x.startswith("criterion ")]) == 10
