"""
Bruhat-order comparability and the complete matching induced by the
sign-reversing involutions.

Comparability in type A uses the classical sorted-prefix (rank matrix)
criterion; type B embeds a signed permutation into S_2n acting on the 2n
symbols -n..-1, 1..n, under which the type-B order is the induced suborder.
Both are validated exhaustively against the reduced-word subword definition
in the test suite.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .involutions import (_swap_magnitudes, _swap_positions, _toggle_a,
                          _toggle_b, fixed_points)
from .perm_core import (Window, _scan, _scan_b, format_window, group_order, is_unsigned,
                        iter_group, validate_permutation, validate_signed)
from .reduced_words import canonical_word


# ---------------------------------------------------------------------------
# comparability
# ---------------------------------------------------------------------------

def _prefix_dominated(u: Sequence[int], v: Sequence[int]) -> bool:
    # u <= v iff every sorted prefix of u is entrywise <= that of v.  Adding
    # a <= b to two dominated prefixes keeps them dominated, so only a step
    # with a > b needs the entrywise comparison.
    su: list[int] = []
    sv: list[int] = []
    for a, b in zip(u[:-1], v):
        bisect.insort(su, a)
        bisect.insort(sv, b)
        if a > b and not all(map(operator.le, su, sv)):
            return False
    return True


def _embed_b(s: Sequence[int]) -> Window:
    # the window on 1..2n of the action on -n..-1,1..n (0 skipped): x goes
    # to x + n + (x < 0), and -x to 2n + 1 minus that
    n = len(s)
    out = [0] * (2 * n)
    for i, v in enumerate(s):
        e = v + n + (v < 0)
        out[n + i] = e
        out[n - 1 - i] = 2 * n + 1 - e
    return tuple(out)


def bruhat_leq(u: Sequence[int], v: Sequence[int], kind: str | None = None) -> bool:
    """
    Whether u <= v in the Bruhat order of S_n (kind 'S') or B_n (kind 'B').
    With kind None the type is inferred: signed entries select type B.  For
    unsigned windows the two orders agree.

    >>> bruhat_leq((2, 1, 3), (3, 1, 2))
    True
    >>> bruhat_leq((3, 1, 2), (2, 1, 3))
    False
    """
    if len(u) != len(v):
        raise ValueError(f"size mismatch: {len(u)} vs {len(v)}")
    if kind is None:
        kind = "B" if not (is_unsigned(u) and is_unsigned(v)) else "S"
    if kind == "S":
        return _prefix_dominated(u, v)
    if kind == "B":
        return _prefix_dominated(_embed_b(u), _embed_b(v))
    raise ValueError("bruhat_leq kinds: 'S', 'B'")


# ---------------------------------------------------------------------------
# the matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchingEdge:
    lower: Window
    upper: Window
    kind: str                   # "involution" or "fixed_toggle"


def _check_kind(kind: str) -> None:
    if kind not in ("S", "B"):
        raise ValueError("build_matching kinds: 'S', 'B'")


def _length(kind: str, w: Sequence[int]) -> int:
    return _scan(w)[0] if kind == "S" else _scan_b(w)[0]


def build_matching(kind: str, n: int) -> list[MatchingEdge]:
    """
    A perfect matching on the whole group: each non-fixed element is paired
    with its involution image, and the fixed points (strictly decreasing
    index words) are paired by toggling the lowest generator, s_1 in type A
    and s_0 in type B.

    >>> len(build_matching("S", 4))
    12
    """
    _check_kind(kind)
    if n < 2:
        raise ValueError("matching needs n >= 2")
    toggle, swap = ((_toggle_a, _swap_positions) if kind == "S"
                    else (_toggle_b, _swap_magnitudes))
    edges = []
    for w in iter_group(kind, n):
        hit = toggle(w)
        # each pair is kept once, at the element the stream reaches first:
        # the stream runs in tuple order, signed windows too
        if hit is not None and w < (other := swap(w, hit[1], hit[2])):
            lower, upper = ((w, other) if _length(kind, w) < _length(kind, other)
                            else (other, w))
            edges.append(MatchingEdge(lower, upper, "involution"))
    # fixed points come in pairs that differ by the lowest generator alone
    fixed = fixed_points(kind, n)
    edges += [MatchingEdge(lower, upper, "fixed_toggle")
              for lower, upper in zip(fixed, fixed)]
    return edges


@dataclass
class MatchingReport:
    ok: bool
    n_edges: int
    violations: list[str]


def validate_matching(edges: Iterable[MatchingEdge], kind: str, n: int) -> MatchingReport:
    """
    Check that every endpoint lies in the group, the perfect-matching
    property, and the unit length gap and Bruhat comparability of every edge
    (each edge is then a cover, the order being graded by length).
    """
    _check_kind(kind)
    order = group_order(kind, n)
    ident = list(range(1, n + 1))
    cover: dict[Window, int] = {}
    violations = []
    n_edges = 0
    for e in edges:
        n_edges += 1
        cover[e.lower] = cover.get(e.lower, 0) + 1
        cover[e.upper] = cover.get(e.upper, 0) + 1
        outside = [w for w in (e.lower, e.upper)
                   if sorted(w if kind == "S" else map(abs, w)) != ident]
        for w in outside:
            try:
                (validate_permutation if kind == "S" else validate_signed)(w)
                raise ValueError(f"{len(w)} entries")  # a window of another n
            except ValueError as exc:
                violations.append(f"{format_window(w)}: not in {kind}_{n}: {exc}")
        if outside:                            # lengths need group elements
            continue
        gap = _length(kind, e.upper) - _length(kind, e.lower)
        if gap != 1:
            violations.append(
                f"{format_window(e.lower)} -- {format_window(e.upper)}: length gap {gap} != 1")
        if not bruhat_leq(e.lower, e.upper, kind):
            violations.append(
                f"{format_window(e.lower)} -- {format_window(e.upper)}: not Bruhat comparable")
    if 2 * n_edges != order:
        violations.append(f"{n_edges} edges cover {2 * n_edges} slots, group order {order}")
    multi = [w for w, c in cover.items() if c != 1]
    if len(cover) != order:
        violations.append(f"{len(cover)} distinct endpoints, expected {order}")
    for w in multi[:5]:
        violations.append(f"{format_window(w)} covered {cover[w]} times")
    return MatchingReport(not violations, n_edges, violations)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def hasse_covers(kind: str, n: int) -> Iterator[tuple[Window, Window]]:
    """All covers u < v with unit length gap; the Hasse diagram of the order."""
    _check_kind(kind)
    by_len: dict[int, list[Window]] = {}
    for w in iter_group(kind, n):
        by_len.setdefault(_length(kind, w), []).append(w)
    for ell, level in sorted(by_len.items()):
        for u in level:
            for v in by_len.get(ell + 1, ()):
                if bruhat_leq(u, v, kind):
                    yield u, v


def matching_to_dot(edges: Iterable[MatchingEdge], kind: str, n: int,
                    hasse: bool = False) -> str:
    """
    DOT rendering: vertices labelled by one-line notation, involution edges
    blue, fixed_toggle edges purple, with an optional grey Hasse-diagram
    underlay (sensible for n <= 5).
    """
    styles = {"involution": "color=blue, penwidth=2",
              "fixed_toggle": "color=purple, penwidth=2"}
    lines = [f"graph bruhat_matching_{kind}{n} {{", "  node [shape=plaintext];"]
    edges = list(edges)
    if hasse:
        matched = {(e.lower, e.upper) for e in edges}
        for u, v in hasse_covers(kind, n):
            if (u, v) not in matched:
                lines.append(
                    f'  "{format_window(u)}" -- "{format_window(v)}" [color=gray];')
    for e in edges:
        lines.append(
            f'  "{format_window(e.lower)}" -- "{format_window(e.upper)}" [{styles[e.kind]}];')
    lines.append("}")
    return "\n".join(lines)


def matching_to_text(edges: Iterable[MatchingEdge], kind: str, n: int) -> str:
    """
    Plain-text export: one section listing every element with its canonical
    word, one section listing the matching edges.
    """
    _check_kind(kind)
    wordkind = "A" if kind == "S" else "B"
    lines = ["# canonical words"]
    for w in iter_group(kind, n):
        lines.append(f"{format_window(w)}  {canonical_word(w, wordkind)}")
    lines.append("# matching")
    for e in sorted(edges, key=lambda e: (_length(kind, e.lower), e.lower)):
        lines.append(
            f"{format_window(e.lower)} -- {format_window(e.upper)}  ({e.kind})")
    return "\n".join(lines)
