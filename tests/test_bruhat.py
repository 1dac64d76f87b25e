import itertools

import pytest

from coxdrops import perm_core as pc
from coxdrops.bruhat import (MatchingEdge, bruhat_leq, build_matching,
                             hasse_covers, matching_to_dot, matching_to_text,
                             validate_matching)
from coxdrops.involutions import fixed_points, involution_a, involution_b
from coxdrops.reduced_words import canonical_word
from oracles import subword_leq


# ---------------------------------------------------------------------------
# comparability
# ---------------------------------------------------------------------------

def test_bruhat_leq_examples():
    assert bruhat_leq((2, 1, 3), (2, 1, 3))
    assert bruhat_leq((1, 2, 3), (3, 2, 1))
    assert bruhat_leq((2, 1, 3), (3, 1, 2))
    assert not bruhat_leq((3, 1, 2), (2, 1, 3))
    with pytest.raises(ValueError):
        bruhat_leq((1, 2), (1, 2, 3))


def test_bruhat_leq_agrees_with_subword_on_s4(groups):
    s4 = groups["S"](4)
    pairs = 0
    for u in s4:
        for v in s4:
            assert bruhat_leq(u, v, "S") == subword_leq(u, v, "S"), (u, v)
            pairs += 1
    assert pairs == 576


def test_bruhat_leq_b_agrees_with_subword_small(groups):
    for n in (2, 3):
        bn = groups["B"](n)
        for u in bn:
            for v in bn:
                assert bruhat_leq(u, v, "B") == subword_leq(u, v, "B"), (u, v)


def test_kind_inference():
    assert bruhat_leq((1, 2), (2, 1))
    assert bruhat_leq((1, 2), (-2, 1)) == bruhat_leq((1, 2), (-2, 1), "B")
    # on unsigned windows the two orders agree
    for u in itertools.permutations((1, 2, 3)):
        for v in itertools.permutations((1, 2, 3)):
            assert bruhat_leq(u, v, "S") == bruhat_leq(u, v, "B")


def test_order_axioms_s4(groups):
    s4 = groups["S"](4)
    for u in s4:
        assert bruhat_leq(u, u)
        assert bruhat_leq((1, 2, 3, 4), u)
    for u in s4:
        for v in s4:
            if bruhat_leq(u, v) and bruhat_leq(v, u):
                assert u == v


# ---------------------------------------------------------------------------
# the matching
# ---------------------------------------------------------------------------

def test_matching_sizes():
    assert len(build_matching("S", 2)) == 1
    assert len(build_matching("S", 4)) == 12
    assert len(build_matching("S", 5)) == 60
    assert len(build_matching("B", 2)) == 4


@pytest.mark.parametrize("kind, ns", [("S", (2, 3, 4, 5)), ("B", (2, 3))])
def test_matching_is_perfect_and_valid(kind, ns):
    for n in ns:
        edges = build_matching(kind, n)
        report = validate_matching(edges, kind, n)
        assert report.ok, report.violations
        assert report.n_edges * 2 == pc.group_order("S" if kind == "S" else "B", n)


def test_matching_edge_order_is_pinned():
    # the order `match --format json` prints: involution pairs where the
    # stream first reaches them, then the fixed-point pairs
    assert [(e.lower, e.upper) for e in build_matching("S", 3)] == [
        ((2, 3, 1), (3, 2, 1)), ((1, 2, 3), (2, 1, 3)), ((1, 3, 2), (3, 1, 2))]
    assert [(e.lower, e.upper) for e in build_matching("B", 2)] == [
        ((-2, -1), (-1, -2)), ((2, -1), (1, -2)), ((1, 2), (-1, 2)),
        ((2, 1), (-2, 1))]


@pytest.mark.parametrize("kind, ns", [("S", range(2, 8)), ("B", range(2, 6))])
def test_involution_edges_come_in_stream_order(kind, ns):
    invol = involution_a if kind == "S" else involution_b
    for n in ns:
        want, seen = [], set()
        for w in pc.iter_group(kind, n):
            y = invol(w).output
            if y != w and w not in seen:
                seen.update((w, y))
                want.append({w, y})
        got = [{e.lower, e.upper} for e in build_matching(kind, n)
               if e.kind == "involution"]
        assert got == want


def _matching_by_public_maps(kind, n, group):
    # build_matching spelled with the public involution, which validates
    # each window and builds a report, and the pairwise length
    invol, length = ((involution_a, pc.inv) if kind == "S"
                     else (involution_b, pc.inv_b))
    edges = []
    for w in sorted(group):
        y = invol(w).output
        if w < y:
            lower, upper = (w, y) if length(w) < length(y) else (y, w)
            edges.append(MatchingEdge(lower, upper, "involution"))
    fixed = fixed_points(kind, n)
    return edges + [MatchingEdge(lower, upper, "fixed_toggle")
                    for lower, upper in zip(fixed, fixed)]


@pytest.mark.parametrize("kind, ns", [("S", range(2, 8)), ("B", range(2, 6))])
def test_matching_equals_the_public_map_construction(groups, kind, ns):
    for n in ns:
        assert build_matching(kind, n) == \
            _matching_by_public_maps(kind, n, groups[kind](n)), (kind, n)


def test_matching_edge_kinds(groups):
    edges = build_matching("S", 4)
    invol = [e for e in edges if e.kind == "involution"]
    toggle = [e for e in edges if e.kind == "fixed_toggle"]
    assert len(toggle) == 4                    # 2^(n-1) fixed points, paired
    assert len(invol) == 8
    for e in toggle:
        assert involution_a(e.lower).fixed and involution_a(e.upper).fixed
    for e in invol:
        assert involution_a(e.lower).output == e.upper


def test_matching_edge_kinds_b():
    for e in build_matching("B", 3):
        if e.kind == "fixed_toggle":
            assert involution_b(e.lower).fixed and involution_b(e.upper).fixed
        else:
            assert involution_b(e.lower).output == e.upper


@pytest.mark.parametrize("kind, wordkind, low, ns", [
    ("S", "A", 1, (2, 3, 5)), ("B", "B", 0, (2, 4))])
def test_fixed_toggle_edges_add_the_lowest_generator(kind, wordkind, low, ns):
    for n in ns:
        toggles = [e for e in build_matching(kind, n) if e.kind == "fixed_toggle"]
        assert len(toggles) == 2 ** (n - low - 1)
        for e in toggles:
            lo = canonical_word(e.lower, wordkind).letters
            assert canonical_word(e.upper, wordkind).letters == lo + (low,)


def test_involution_edges_are_one_letter_subwords():
    for kind, wordkind, n in (("S", "A", 5), ("B", "B", 3)):
        for e in build_matching(kind, n):
            lo = canonical_word(e.lower, wordkind).letters
            hi = canonical_word(e.upper, wordkind).letters
            assert len(hi) == len(lo) + 1
            assert _is_subsequence(lo, hi)


def _is_subsequence(short, long):
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


def test_validate_matching_reports_violations():
    edges = build_matching("S", 3)
    # corrupt one edge: replace with an identity-to-longest pairing
    bad = edges[:-1] + [MatchingEdge((1, 2, 3), (3, 2, 1), "involution")]
    report = validate_matching(bad, "S", 3)
    assert not report.ok
    assert any("length gap" in v for v in report.violations)
    assert any("1,2,3" in v or "3,2,1" in v for v in report.violations)


@pytest.mark.parametrize("lower, upper, want", [
    ((1, 2), (7, 1), ["7,1: not in S_2: position 1: entry 7 out of range for n=2"]),
    ((1, 2), (-7, 1), ["-7,1: not in S_2: position 1: entry -7 out of range for n=2"]),
    ((2, 1, 3), (1, 2), ["2,1,3: not in S_2: 3 entries"]),
    ((1, 1), (-1, 2), ["1,1: not in S_2: position 2: absolute value 1 repeats position 1",
                       "-1,2: not in S_2: position 1: negative entry -1 not allowed in S_n"]),
])
def test_validate_matching_names_endpoints_outside_the_group(lower, upper, want):
    # one edge covers the two slots of S_2, so only the endpoints are at fault
    assert validate_matching([MatchingEdge(lower, upper, "involution")], "S", 2).violations == want


def test_validate_matching_names_signed_endpoints_outside_the_group():
    edges = build_matching("B", 2)
    edges[0] = MatchingEdge(edges[0].lower, (3, -1), "involution")
    report = validate_matching(edges, "B", 2)
    assert not report.ok
    assert "3,-1: not in B_2: position 1: entry 3 out of range for n=2" in report.violations


def test_matching_needs_two():
    with pytest.raises(ValueError):
        build_matching("S", 1)
    with pytest.raises(ValueError):
        build_matching("D", 3)


def test_exports_refuse_kinds_other_than_s_and_b():
    for call in (lambda: validate_matching([], "X", 3),
                 lambda: list(hasse_covers("D", 3)),
                 lambda: matching_to_text([], "A", 3)):
        with pytest.raises(ValueError, match="^build_matching kinds: 'S', 'B'$"):
            call()


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_dot_export():
    edges = build_matching("S", 3)
    dot = matching_to_dot(edges, "S", 3)
    assert dot.startswith("graph bruhat_matching_S3 {")
    assert dot.count("--") == len(edges)
    assert "color=blue" in dot and "color=purple" in dot
    underlaid = matching_to_dot(edges, "S", 3, hasse=True)
    assert underlaid.count("--") == sum(1 for _ in hasse_covers("S", 3))


def test_hasse_covers_s3():
    covers = set(hasse_covers("S", 3))
    # the weak order's 6-cycle diagram plus the two diagonal covers
    assert ((1, 2, 3), (1, 3, 2)) in covers
    assert ((1, 2, 3), (2, 1, 3)) in covers
    assert len(covers) == 8


def test_text_export():
    edges = build_matching("S", 3)
    text = matching_to_text(edges, "S", 3)
    assert "# canonical words" in text and "# matching" in text
    assert "1,2,3  [][]" in text                # identity: two empty factors
    assert text.count("(involution)") + text.count("(fixed_toggle)") == len(edges)
