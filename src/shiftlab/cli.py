"""Command-line front end.

Every subcommand prints a deterministic line-oriented report.  Exit
status: 0 for definite verdicts, 1 for input errors, 2 for inconclusive
or exhausted searches, 3 for a theorem-check disagreement.
"""

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .analysis import (
    AGREE_NEGATIVE,
    AGREE_POSITIVE,
    DISAGREE,
    check_theorem_3_3,
    check_theorem_3_4,
    check_theorem_4_2,
    degree,
    fiber_product,
    find_decoder_block,
    find_hyperbolic_certificate,
    right_closing_ae,
)
from .codes import apply_block, compose, image_presentation, load_code, load_factor_map, recode_to_one_block
from .core import (
    blocks_of_length,
    count_blocks,
    format_block,
    load_graph,
    parse_block,
    trim_to_essential,
)
from .covers import (
    SYNCHRONIZING,
    fischer_cover,
    find_synchronizing_word,
    is_half_synchronizing,
    is_right_resolving,
    is_synchronizing,
    ray_prefix,
    subset_cover,
)
from .errors import NotFiniteToOneError, ParseError, ShiftlabError
from .oracle import load_oracle, sofic_oracle

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2
EXIT_DISAGREE = 3


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: verb, inputs, bounds, output format."""

    command: str
    subcommand: str
    paths: tuple
    block: Optional[str] = None
    max_len: int = 8
    max_anticipation: int = 4
    horizon: int = 8
    word_bound: int = 8  # hyperbolic-certificate search only
    delay_bound: int = 6
    fmt: str = "report"


def _resolve(path: str) -> str:
    """Input paths fall back to the bundled corpus directory."""
    if os.path.exists(path):
        return path
    candidate = resources.files("shiftlab") / "corpus" / path
    if candidate.is_file():
        return str(candidate)
    raise ParseError("cannot open file", path=path)


class _Printer:
    def __init__(self, fmt):
        self.sep = "\t" if fmt == "tsv" else " "

    def row(self, *fields):
        print(self.sep.join(str(f) for f in fields))

    def text(self, block_text: str):
        # graph/code file bodies: rows of space-separated fields
        print(block_text.strip().replace(" ", self.sep))


def _yes(flag) -> str:
    return "yes" if flag else "no"


def _load_map(path: str):
    return load_factor_map(_resolve(path))


def _cmd_lang(cfg: RunConfig, out: _Printer) -> int:
    g = load_graph(_resolve(cfg.paths[0]))
    if cfg.subcommand == "blocks":
        for w in blocks_of_length(g, cfg.max_len):
            out.row("block", format_block(w))
        return EXIT_OK
    for n in range(1, cfg.max_len + 1):
        out.row("count", n, count_blocks(g, n))
    return EXIT_OK


def _cmd_cover(cfg: RunConfig, out: _Printer) -> int:
    g = load_graph(_resolve(cfg.paths[0]))
    if cfg.subcommand == "subset":
        out.text(subset_cover(g).to_text())
    elif cfg.subcommand == "fischer":
        out.text(fischer_cover(g).to_text())
    else:
        g = trim_to_essential(g)
        out.text(g.to_text() if is_right_resolving(g) else subset_cover(g).to_text())
    return EXIT_OK


def _cmd_sync(cfg: RunConfig, out: _Printer) -> int:
    if cfg.subcommand == "half":
        path = _resolve(cfg.paths[0])
        o = load_oracle(path) if path.endswith(".oracle") else sofic_oracle(load_graph(path))
        m = parse_block(cfg.block, o.alphabet)
        v = is_half_synchronizing(o, m, cfg.horizon)
        out.row("status", v.status.replace("_", "-"))
        out.row("block", format_block(v.block))
        out.row("horizon", v.horizon)
        if v.prefix_length is not None:
            out.row("prefix-length", v.prefix_length)
            if 0 < v.prefix_length <= 64:
                out.row("prefix", format_block(ray_prefix(o, m, cfg.horizon)))
        if v.refutation is not None:
            out.row("refutation", format_block(v.refutation))
        out.row("exact", _yes(v.exact))
        return EXIT_OK
    g = load_graph(_resolve(cfg.paths[0]))
    if cfg.subcommand == "find":
        w = find_synchronizing_word(g, cfg.max_len)
        if w is None:
            out.row("synchronizing-word", "none")
            return EXIT_INCONCLUSIVE
        out.row("synchronizing-word", format_block(w))
        return EXIT_OK
    v = is_synchronizing(g, parse_block(cfg.block, g.alphabet), cfg.horizon)
    ok = v.status == SYNCHRONIZING
    out.row("status", "synchronizing" if ok else "not-synchronizing")
    if v.witness is not None:
        u, w = v.witness
        out.row("witness", format_block(u), format_block(w))
    return EXIT_OK


def _cmd_code(cfg: RunConfig, out: _Printer) -> int:
    if cfg.subcommand == "apply":
        code = load_code(_resolve(cfg.paths[0]))
        w = parse_block(cfg.block, code.domain_alphabet)
        out.row("image", format_block(apply_block(code, w)))
        return EXIT_OK
    if cfg.subcommand == "compose":
        first = load_code(_resolve(cfg.paths[0]))
        second = load_code(_resolve(cfg.paths[1]))
        c = compose(second, first)
        out.row("code", "memory", c.memory, "anticipation", c.anticipation)
        for w, s in c.window_map.items():
            out.row("map", format_block(w), s)
        return EXIT_OK
    f = _load_map(cfg.paths[0])
    if cfg.subcommand == "recode":
        c = recode_to_one_block(f).code
        out.row("code", "memory", c.memory, "anticipation", c.anticipation)
        for w, s in c.window_map.items():
            out.row("map", format_block(w), s)
        return EXIT_OK
    out.text(trim_to_essential(image_presentation(f)).to_text())
    return EXIT_OK


def _cmd_map(cfg: RunConfig, out: _Printer) -> int:
    f = _load_map(cfg.paths[0])
    sub = cfg.subcommand
    if sub in ("degree", "onetoone"):
        try:
            rep = degree(f)
        except NotFiniteToOneError:
            out.row("finite-to-one", "no")
            out.row("degree", "infinite")
            if sub == "onetoone":
                out.row("one-to-one-ae", "no")
            return EXIT_OK
        out.row("finite-to-one", "yes")
        out.row("degree", rep.degree)
        if sub == "onetoone":
            out.row("one-to-one-ae", _yes(rep.degree == 1))
        else:
            out.row("magic-word", format_block(rep.magic_word))
            out.row("exact", _yes(rep.exact))
        return EXIT_OK
    if sub == "closing":
        rep = right_closing_ae(f, delay_bound=cfg.delay_bound)
        out.row("right-closing-ae", _yes(rep.right_closing_ae))
        out.row("delay", rep.delay if rep.delay is not None else "none")
        out.row("exact", _yes(rep.exact))
        if rep.witness is not None:
            vtx, u, v = rep.witness
            out.row("witness", vtx, format_block(u), format_block(v))
        return EXIT_OK if rep.exact else EXIT_INCONCLUSIVE
    if sub == "decoder":
        cert = find_decoder_block(f, cfg.max_len, cfg.max_anticipation)
        if cert is None:
            out.row("decoder-block", "none")
            return EXIT_INCONCLUSIVE
        out.row("decoder-block", format_block(cert.block), "anticipation", cert.anticipation)
        return EXIT_OK
    cert = find_hyperbolic_certificate(f, word_bound=cfg.word_bound, k_bound=cfg.max_anticipation)
    if cert is None:
        out.row("hyperbolic", "none")
        return EXIT_INCONCLUSIVE
    out.row(
        "hyperbolic", "word", format_block(cert.word), "d", cert.d, "k", cert.k,
        "blocks", *(format_block(b) for b in cert.central_blocks),
    )
    return EXIT_OK


def _cmd_fiber(cfg: RunConfig, out: _Printer) -> int:
    fp = fiber_product(_load_map(cfg.paths[0]), _load_map(cfg.paths[1]))
    out.row("fiber", "vertices", len(fp.presentation.vertices))
    out.row("fiber", "edges", len(fp.presentation.edges))
    for i, comp in enumerate(fp.components, start=1):
        out.row(
            "component", i, "vertices", len(comp.graph.vertices),
            "onto-first", _yes(comp.onto_first), "onto-second", _yes(comp.onto_second),
        )
    return EXIT_OK


def _status_exit(status: str) -> int:
    if status in (AGREE_POSITIVE, AGREE_NEGATIVE):
        return EXIT_OK
    return EXIT_DISAGREE if status == DISAGREE else EXIT_INCONCLUSIVE


def _cmd_check(cfg: RunConfig, out: _Printer) -> int:
    if cfg.subcommand == "t42":
        rep = check_theorem_4_2(_load_map(cfg.paths[0]), cfg.max_len, cfg.max_anticipation, cfg.delay_bound)
    elif cfg.subcommand == "t33":
        rep = check_theorem_3_3(
            _load_map(cfg.paths[0]), word_bound=cfg.word_bound, k_bound=cfg.max_anticipation
        )
    else:
        maps = [_load_map(p) for p in cfg.paths]
        rep = check_theorem_3_4(*maps, word_bound=cfg.word_bound, k_bound=cfg.max_anticipation)
    for line in rep.lines():
        out.row(*line.split(" "))
    return _status_exit(rep.status)


def _cmd_corpus(cfg: RunConfig, out: _Printer) -> int:
    from . import acceptance

    ok = True
    for fields in acceptance.report_rows():
        out.row(*fields)
        ok = ok and fields[2] == "pass"
    out.row("all-pass", _yes(ok))
    return EXIT_OK if ok else EXIT_DISAGREE


_HANDLERS = {
    "lang": _cmd_lang,
    "cover": _cmd_cover,
    "sync": _cmd_sync,
    "code": _cmd_code,
    "map": _cmd_map,
    "fiber": _cmd_fiber,
    "check": _cmd_check,
    "corpus": _cmd_corpus,
}


def _bound_flags(parser, leaf):
    # on leaves the flags merely override the top-level values
    d = argparse.SUPPRESS if leaf else None
    parser.add_argument("--max-len", type=int, metavar="N", default=d or 8)
    parser.add_argument("--anticipation", type=int, metavar="N", default=d or 4)
    parser.add_argument("--horizon", type=int, metavar="N", default=d or 8,
                        help="horizon of sync half|check; map hyperbolic decides forward extension exactly "
                        "and takes no horizon")
    parser.add_argument("--delay", type=int, metavar="N", default=d or 6)
    parser.add_argument("--word-bound", type=int, metavar="N", default=d or 8,
                        help="longest image word of the hyperbolic-certificate search (map hyperbolic, "
                        "check t33|t34); degree is exact and takes no bound")
    parser.add_argument("--format", choices=("report", "tsv"), default=d or "report")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="shiftlab")
    _bound_flags(top, leaf=False)
    groups = top.add_subparsers(dest="command", required=True)

    def sub(group, name, nfiles=1, block=False):
        p = group.add_parser(name)
        _bound_flags(p, leaf=True)
        for i in range(nfiles):
            p.add_argument(f"file{i}" if nfiles > 1 else "file")
        if block:
            p.add_argument("block")
        return p

    lang = groups.add_parser("lang").add_subparsers(dest="subcommand", required=True)
    sub(lang, "blocks")
    sub(lang, "count")
    cover = groups.add_parser("cover").add_subparsers(dest="subcommand", required=True)
    for name in ("subset", "fischer", "resolving"):
        sub(cover, name)
    sync = groups.add_parser("sync").add_subparsers(dest="subcommand", required=True)
    sub(sync, "find")
    sub(sync, "check", block=True)
    sub(sync, "half", block=True)
    code = groups.add_parser("code").add_subparsers(dest="subcommand", required=True)
    sub(code, "apply", block=True)
    sub(code, "compose", nfiles=2)
    sub(code, "recode")
    sub(code, "image")
    mp = groups.add_parser("map").add_subparsers(dest="subcommand", required=True)
    for name in ("degree", "closing", "onetoone", "decoder", "hyperbolic"):
        sub(mp, name)
    fiber = groups.add_parser("fiber").add_subparsers(dest="subcommand", required=True)
    sub(fiber, "build", nfiles=2)
    check = groups.add_parser("check").add_subparsers(dest="subcommand", required=True)
    sub(check, "t42")
    sub(check, "t33")
    sub(check, "t34", nfiles=4)
    corpus = groups.add_parser("corpus").add_subparsers(dest="subcommand", required=True)
    _bound_flags(corpus.add_parser("run-all"), leaf=True)
    return top


def _config_from(ns) -> RunConfig:
    for flag in ("max_len", "anticipation", "horizon", "delay", "word_bound"):
        if getattr(ns, flag) <= 0:
            raise ParseError(f"--{flag.replace('_', '-')} must be positive")
    paths = tuple(
        getattr(ns, key) for key in ("file", "file0", "file1", "file2", "file3") if hasattr(ns, key)
    )
    return RunConfig(
        command=ns.command,
        subcommand=getattr(ns, "subcommand", None) or "run-all",
        paths=paths,
        block=getattr(ns, "block", None),
        max_len=ns.max_len,
        max_anticipation=ns.anticipation,
        horizon=ns.horizon,
        word_bound=ns.word_bound,
        delay_bound=ns.delay,
        fmt=ns.format,
    )


def run(cfg: RunConfig) -> int:
    return _HANDLERS[cfg.command](cfg, _Printer(cfg.fmt))


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return run(_config_from(ns))
    except (ShiftlabError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
