"""One test per acceptance criterion; each prints its pass/fail row."""

import dataclasses
from collections import Counter
from types import SimpleNamespace

from shiftlab import acceptance, analysis
from shiftlab.cli import main
from shiftlab.codes import BlockCode
from shiftlab.oracle import ShiftOracle


def _check(n, fn):
    ok = fn()
    print(f"criterion {n} {'pass' if ok else 'fail'} {acceptance.LABELS[n - 1]}")
    assert ok


def test_criterion_1_golden_mean_counts():
    _check(1, acceptance.criterion_1)


def test_criterion_2_fischer_minimality():
    _check(2, acceptance.criterion_2)


def test_criterion_3_synchronizing_words():
    _check(3, acceptance.criterion_3)


def test_criterion_4_evenmap_decoder():
    _check(4, acceptance.criterion_4)


def test_criterion_5_xor_degree_two():
    _check(5, acceptance.criterion_5)


def test_criterion_6_hyperbolic_certificates():
    _check(6, acceptance.criterion_6)


def test_criterion_7_half_sync_transfer():
    _check(7, acceptance.criterion_7)


def test_criterion_8_common_extension():
    _check(8, acceptance.criterion_8)


def test_criterion_9_dyck_oracle():
    _check(9, acceptance.criterion_9)


def test_criterion_10_determinism():
    _check(10, acceptance.criterion_10)


def _xor_fiber_product():
    fx = acceptance._map("xor")
    return acceptance.fiber_product(fx, fx)


def _with_second_projection(monkeypatch, code):
    fp = _xor_fiber_product()
    p1, _ = fp.projections
    mutant = dataclasses.replace(fp, projections=(p1, SimpleNamespace(code=code)))
    monkeypatch.setattr(acceptance, "fiber_product", lambda f1, f2: mutant)


def test_criterion_8_fails_when_one_fiber_symbol_maps_off_its_fiber(monkeypatch):
    p2 = _xor_fiber_product().projections[1].code
    wm = dict(p2.window_map)
    assert wm[("(00,11)",)] == "11"
    wm[("(00,11)",)] = "01"  # xor image 1, where the first projection's "00" gives 0
    bad = BlockCode(0, 0, wm, p2.domain_alphabet, p2.codomain_alphabet)
    _with_second_projection(monkeypatch, bad)
    assert not acceptance.criterion_8()


def test_criterion_8_fails_on_a_projection_of_width_two(monkeypatch):
    p2 = _xor_fiber_product().projections[1].code
    symbols = p2.domain_alphabet.symbols
    wide = {(s, t): p2.window_map[(s,)] for s in symbols for t in symbols}
    _with_second_projection(monkeypatch, BlockCode(0, 1, wide, p2.domain_alphabet, p2.codomain_alphabet))
    assert not acceptance.criterion_8()


def test_criterion_8_checks_each_fiber_symbol_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    monkeypatch.setattr(acceptance, "blocks_of_length", counted("blocks", acceptance.blocks_of_length))
    monkeypatch.setattr(acceptance, "apply_block", counted("apply", acceptance.apply_block))
    assert acceptance.criterion_8()
    # two projections and the xor map on each of the 8 fiber symbols
    assert calls == {"apply": 4 * 8}


def test_criterion_9_fails_when_a_matching_closer_does_not_pop(monkeypatch):
    real = acceptance.load_oracle(acceptance.corpus_path("dyck2.oracle"))
    opener_of = {c: o for o, c in real.pairs}

    def step(stack, sym):
        if stack and opener_of.get(sym) == stack[-1]:
            return stack
        return real.stepper.step(stack, sym)

    mutant = ShiftOracle(real.kind, real.horizon_budget, real.stepper._replace(step=step), pairs=real.pairs)
    monkeypatch.setattr(acceptance, "load_oracle", lambda path: mutant)
    assert not acceptance.criterion_9()


def test_bracket_reduction_matches_the_dyck_counts():
    levels = acceptance._bracket_reductions(("(", ")", "[", "]"), 4)
    assert [len(words) for words in levels] == [4, 14, 48, 160]
    assert levels[3][(")", "(", "[", "]")] == ("(",)
    assert ("(", "]") not in levels[1]


def test_criterion_7_searches_each_certificate_once(monkeypatch):
    calls = Counter()
    for mod in (acceptance, analysis):
        search = mod.find_hyperbolic_certificate
        monkeypatch.setattr(mod, "find_hyperbolic_certificate",
                            lambda *args, search=search: calls.update(["search"]) or search(*args))
    assert acceptance.criterion_7()
    # one search for each of the three corpus maps
    assert calls == {"search": 3}


def test_run_all_recomputes_criteria_once_to_check_the_printed_rows(monkeypatch, capsys):
    calls = Counter()
    core_rows = acceptance._core_rows
    monkeypatch.setattr(acceptance, "_core_rows", lambda: calls.update(["pass"]) or core_rows())
    assert main(["corpus", "run-all"]) == 0
    out = capsys.readouterr().out
    assert "criterion 10 pass determinism\n" in out and "all-pass yes\n" in out
    # the printed pass and one fresh pass
    assert calls == {"pass": 2}
