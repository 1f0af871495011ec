"""Byte-for-byte CLI reports on the bundled corpus.

Each file under tests/golden/ holds `exit N` on its first line and the
verb's stdout after it, as captured before the language walks were
unified.  A refactor must leave every report unchanged; a deliberate
change rewrites the file and is recorded in CHANGES.md.
"""

from pathlib import Path

import pytest

from shiftlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

GRAPHS = ("golden", "even", "even4", "full2", "goldennd", "evenedge")
MAPS = ("evenmap", "xor", "identity")
BLOCKS = {"evenedge": ("a", "b", "ab")}


def _cases():
    cases = []
    for name in GRAPHS:
        path = name + ".graph"
        for verb in (("lang", "blocks"), ("lang", "count"), ("cover", "subset"),
                     ("cover", "fischer"), ("cover", "resolving"), ("sync", "find")):
            cases.append((*verb, path))
        for block in BLOCKS.get(name, ("0", "1", "00")):
            cases.append(("sync", "check", path, block))
            cases.append(("sync", "half", path, block))
    for block in ("0", "1", "00"):
        cases.append(("sync", "half", "even.oracle", block))
    for block in ("()", "(", ")(", "([])"):
        cases.append(("sync", "half", "dyck2.oracle", block, "--horizon", "5"))
    cases += [
        ("code", "apply", "xor.code", "0110"),
        ("code", "apply", "evenmap.code", "abcab"),
        ("code", "apply", "identity.code", "01"),
        ("code", "compose", "xor.code", "xor.code"),
        ("code", "compose", "identity.code", "xor.code"),
        ("code", "compose", "evenmap.code", "xor.code"),
    ]
    for name in MAPS:
        path = name + ".code"
        cases.append(("code", "recode", path))
        cases.append(("code", "image", path))
        for sub in ("degree", "closing", "onetoone", "decoder", "hyperbolic"):
            cases.append(("map", sub, path))
        cases.append(("check", "t42", path))
        cases.append(("check", "t33", path))
    for a, b in (("xor", "xor"), ("identity", "xor"), ("xor", "identity"),
                 ("identity", "identity"), ("evenmap", "evenmap")):
        cases.append(("fiber", "build", a + ".code", b + ".code"))
    cases.append(("check", "t34", "identity.code", "xor.code", "xor.code", "identity.code"))
    return cases


_FILE_SAFE = str.maketrans({".": "-", "(": "o", ")": "c", "[": "O", "]": "C"})


def case_id(argv):
    return "_".join(a for a in argv if not a.startswith("--")).translate(_FILE_SAFE)


def render(capsys, argv):
    status = main(list(argv))
    return f"exit {status}\n" + capsys.readouterr().out


CASES = _cases()


@pytest.mark.parametrize("argv", CASES, ids=[case_id(a) for a in CASES])
def test_cli_report_matches_golden(capsys, argv):
    want = (GOLDEN / (case_id(argv) + ".out")).read_text(encoding="utf-8")
    assert render(capsys, argv) == want
