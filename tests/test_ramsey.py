import time
from itertools import combinations, product

import pytest

from permsym import ramsey
from permsym.generators import apply_word, word_from_text
from permsym.patterns import pattern_from_text, enumerate_patterns, copies_of, sub_pattern
from permsym.ramsey import (
    INFEASIBLE, SearchResult,
    find_mono_copy, check_ramsey_witness, search_witness,
)
from test_patterns import copies_by_definition

POINT = pattern_from_text("1")
UP = pattern_from_text("12")
DOWN = pattern_from_text("21")
UP3 = pattern_from_text("123")


def _point_coloring(delta, colors):
    return {(k,): c for k, c in enumerate(colors)}


def test_find_mono_copy_identity_host():
    chi = {(0, 1): 0}
    assert find_mono_copy(UP, UP, UP, chi) == (0, 1)


def test_find_mono_copy_examples():
    host = pattern_from_text("123")
    chi = _point_coloring(host, [0, 0, 1])
    assert find_mono_copy(host, POINT, UP, chi) == (0, 1)
    host = pattern_from_text("132")
    chi = _point_coloring(host, [0, 1, 1])
    assert find_mono_copy(host, POINT, UP, chi) is None


def test_coloring_validation():
    host = pattern_from_text("123")
    with pytest.raises(ValueError):
        find_mono_copy(host, POINT, UP, {(0,): 0, (1,): 0})
    with pytest.raises(ValueError):
        find_mono_copy(host, POINT, UP, _point_coloring(host, [0, 0, 2]))
    bad = _point_coloring(host, [0, 0, 1])
    bad[(0, 1)] = 0
    with pytest.raises(ValueError):
        find_mono_copy(host, POINT, UP, bad)


def test_mono_copies_are_monochromatic():
    host = pattern_from_text("132")
    copies = copies_of(host, UP)
    for bits in product((0, 1), repeat=3):
        chi = _point_coloring(host, bits)
        found = find_mono_copy(host, POINT, UP, chi)
        if found is None:
            continue
        colors = {chi[(p,)] for p in found
                  if sub_pattern(host, (p,)) == POINT}
        assert len(colors) <= 1
        assert found in copies


@pytest.mark.parametrize("delta,expect", [
    ("123", True),
    ("12", False),
    ("132", False),
])
def test_check_ramsey_witness_examples(delta, expect):
    assert check_ramsey_witness(pattern_from_text(delta), POINT, UP) is expect


def test_check_ramsey_witness_budget(monkeypatch):
    monkeypatch.setattr(ramsey, "MAX_COPIES", 2)
    assert check_ramsey_witness(
        pattern_from_text("123"), POINT, UP) == INFEASIBLE


def _pigeonhole_oracle(delta, omega):
    # direct check: every point coloring leaves a same-colored omega pair
    n = delta.n
    pairs = copies_of(delta, omega)
    for bits in product((0, 1), repeat=n):
        if not any(bits[x] == bits[y] for x, y in pairs):
            return False
    return True


def test_point_colorings_match_pigeonhole_oracle():
    for n in range(2, 5):
        for delta in enumerate_patterns(n):
            for omega in (UP, DOWN):
                assert check_ramsey_witness(delta, POINT, omega) == \
                    _pigeonhole_oracle(delta, omega), (delta, omega)


def test_witness_check_monotone_in_host():
    good = [d for d in enumerate_patterns(3)
            if check_ramsey_witness(d, POINT, UP) is True]
    assert good
    for host in enumerate_patterns(4):
        if any(copies_of(host, d) for d in good):
            assert check_ramsey_witness(host, POINT, UP) is True


def test_search_witness_examples():
    assert search_witness(POINT, UP, 4) == SearchResult(
        pattern_from_text("123"), ())
    assert search_witness(POINT, DOWN, 4) == SearchResult(
        pattern_from_text("321"), ())
    assert search_witness(POINT, POINT, 1) == SearchResult(POINT, ())
    assert search_witness(UP, pattern_from_text("4123"), 7) == SearchResult(
        pattern_from_text("7123456"), ())
    assert search_witness(DOWN, pattern_from_text("3214"), 7) == SearchResult(
        pattern_from_text("6543217"), ())


def test_search_witness_exhausts_small_sizes():
    assert search_witness(POINT, UP, 2) == SearchResult(None, ())


def test_search_witness_reports_infeasible_hosts(monkeypatch):
    monkeypatch.setattr(ramsey, "MAX_COPIES", 2)
    result = search_witness(POINT, UP, 3)
    assert result.pattern is None
    assert len(result.infeasible) == 6
    assert all(d.n == 3 for d in result.infeasible)


def _brute_force_check(delta, gamma, omega):
    # reference: try every coloring of the gamma-copies in turn
    copies = copies_of(delta, gamma)
    subcopies = [
        [s for s in combinations(ocopy, gamma.n) if sub_pattern(delta, s) == gamma]
        for ocopy in copies_of(delta, omega)]
    for bits in product((0, 1), repeat=len(copies)):
        chi = dict(zip(copies, bits))
        if not any(len({chi[s] for s in subs}) <= 1 for subs in subcopies):
            return False
    return True


def _patterns(max_n):
    return [p for n in range(max_n + 1) for p in enumerate_patterns(n)]


def test_check_matches_brute_force_on_small_hosts():
    for delta in _patterns(4):
        for gamma in _patterns(2):
            for omega in _patterns(3):
                assert check_ramsey_witness(delta, gamma, omega) is \
                    _brute_force_check(delta, gamma, omega), (delta, gamma, omega)


@pytest.mark.parametrize("gamma,omega", [(POINT, UP), (POINT, UP3), (UP, UP3)])
def test_check_matches_brute_force_on_size_5_hosts(gamma, omega):
    for delta in enumerate_patterns(5):
        assert check_ramsey_witness(delta, gamma, omega) is \
            _brute_force_check(delta, gamma, omega), delta


@pytest.mark.parametrize("delta,gamma,omega,expect", [
    ("21", "12", "21", True),   # the omega-copy holds no gamma-copy
    ("12", "12", "12", True),   # the omega-copy holds one gamma-copy
    ("12", "1", "21", False),   # no omega-copy at all
])
def test_check_ramsey_witness_edge_cases(delta, gamma, omega, expect):
    delta, gamma, omega = (pattern_from_text(t) for t in (delta, gamma, omega))
    assert check_ramsey_witness(delta, gamma, omega) is expect
    assert _brute_force_check(delta, gamma, omega) is expect


@pytest.mark.parametrize("gamma,omega", [("12", "123"), ("1", "123"), ("21", "321")])
def test_check_matches_copies_by_definition(monkeypatch, gamma, omega):
    gamma, omega = pattern_from_text(gamma), pattern_from_text(omega)
    hosts = _patterns(6)
    want = [check_ramsey_witness(delta, gamma, omega) for delta in hosts]
    monkeypatch.setattr(ramsey, "copies_of", copies_by_definition)
    assert [check_ramsey_witness(delta, gamma, omega) for delta in hosts] == want


def test_check_ramsey_witness_is_invariant_under_the_symmetries():
    # Each of the 8 symmetries of the two orders maps the triples below
    # onto triples below, so every answer is computed once and compared.
    hosts = _patterns(6)
    answer = {(delta, gamma, omega): check_ramsey_witness(delta, gamma, omega)
              for delta in hosts for gamma in (POINT, UP, DOWN)
              for omega in enumerate_patterns(3)}
    assert len(answer) == 15732
    for text in ("", "rev1", "rev2", "revrev", "sw", "rev1,sw", "rev2,sw", "revrev,sw"):
        word = word_from_text(text)
        image = {p: apply_word(word, p).pattern for p in hosts}
        wrong = [key for key, want in answer.items()
                 if answer[tuple(image[p] for p in key)] != want]
        assert not wrong, (text, wrong[:3])


def test_ramsey_number_r33():
    # increasing pairs of 12...n form K_n and its 123-copies are triangles
    assert check_ramsey_witness(pattern_from_text("123456"), UP, UP3) is True
    for delta in enumerate_patterns(5):
        assert check_ramsey_witness(delta, UP, UP3) is False, delta


def test_pentagon_coloring_of_k5_has_no_mono_triangle():
    host = pattern_from_text("12345")
    chi = {(i, j): int(j - i in (2, 3)) for i, j in copies_of(host, UP)}
    assert find_mono_copy(host, UP, UP3, chi) is None


def test_search_witness_finds_r33_host_fast():
    start = time.perf_counter()
    result = search_witness(UP, UP3, 6)
    elapsed = time.perf_counter() - start
    assert result == SearchResult(pattern_from_text("123456"), ())
    assert elapsed < 1.0
