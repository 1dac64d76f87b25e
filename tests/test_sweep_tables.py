"""
The block-table path of perm_core.sweep against the element-wise count.

Every hook marked with perm_core.block_additive in verify is found by its
mark, so a hook marked later is covered with no change here.  A mark
promises the table invariant in the groups it names, so each marked hook is
checked on those groups, and sweep is held to the element-wise count over
the others.  Each hook is also held to its definition from the public
statistics, since a hook that is wrong but still additive agrees with itself
on both paths.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxdrops import genpoly, verify
from coxdrops import perm_core as pc
from coxdrops.laguerre import motzkin_shape

GROUPS = ([("S", n) for n in range(1, 9)] + [("B", n) for n in range(1, 7)]
          + [("D", n) for n in range(2, 7)])
# groups of many table blocks each
RAGGED = (("S", 7), ("B", 5), ("D", 6))

MARKED = {f.__name__: f for f in vars(verify).values()
          if getattr(f, "table_groups", None)}


def steps_mask(steps, kind):
    """The positions 1..n of a path's `kind` steps, as a bit mask."""
    return sum(1 << i for i, s in enumerate(steps, 1) if s == kind)


# each marked hook's key, built from the public statistics
DEFINITIONS = {
    "trivariate_key": lambda w: (pc.exc(w), pc.depth(w), pc.drops(w), 0, pc.inv(w) % 2),
    "drops_key_s": lambda w: (0, 0, pc.drops(w), 0, pc.inv(w) % 2),
    "drops_key_b": lambda s: (0, 0, pc.drops_b(s), 0, pc.inv_b(s) % 2),
    "drops_key_d": lambda s: (0, 0, pc.drops_d(s), 0, pc.inv_d(s) % 2),
    "_dep_inv_key": lambda w: (0, 0, pc.inv(w), pc.depth(w), 0),
    "_bivariate_key": lambda w: (pc.exc(w), pc.depth(w), pc.drops(w), pc.des(w), 0),
    "_zdrops_key": lambda s: (len(pc.negs(s)), 0, pc.zdrops(s), 0, pc.inv_d(s) % 2),
    "_mad_key": lambda w: (pc.inv(w), pc.drops(w), pc.depth(w), genpoly.mad(w), 0),
    "_shape_key": lambda w: (pc.inv(w), pc.depth(w), steps_mask(motzkin_shape(w), "N"),
                             steps_mask(motzkin_shape(w), "S"), 0),
}
DEFINED_ON = ([("S", n) for n in range(1, 8)] + [("B", n) for n in range(1, 6)]
              + [("D", n) for n in range(2, 6)])


def marked(hook, groups):
    """The groups of `groups` that the hook's mark names."""
    return [(kind, n) for kind, n in groups if kind in hook.table_groups]


def outcome(count, *args):
    try:
        return count(*args)
    except ValueError as exc:                  # drops_d needs n >= 2
        return str(exc)


def mismatches(hook, groups):
    """The groups on which the table path and the element-wise count differ."""
    bad = []
    for kind, n in groups:
        if (outcome(pc._count_blocks, kind, n, hook, 0, 1)
                != outcome(pc._count, kind, n, hook, 0, 1)):
            bad.append((kind, n))
    return bad


def test_the_additive_hooks_are_marked():
    assert set(MARKED) >= {
        "trivariate_key", "drops_key_s", "drops_key_b", "drops_key_d",
        "_dep_inv_key", "_bivariate_key", "_zdrops_key", "_mad_key", "_shape_key"}
    # mad's embracing counts and the shape's excedance values read the
    # prefix's set only when it is unsigned
    assert {name: "".join(f.table_groups) for name, f in MARKED.items()
            if f.table_groups != ("S", "B", "D")} == {"_mad_key": "S", "_shape_key": "S"}


def test_a_mark_names_known_groups():
    # A_n is always counted element-wise, so no mark may name it
    for groups in ("", "SX", "C", "A", "SA"):
        with pytest.raises(ValueError, match="block_additive groups"):
            pc.block_additive(groups=groups)


def test_every_marked_hook_has_a_definition():
    assert set(DEFINITIONS) == set(MARKED)


@pytest.mark.parametrize("name", sorted(MARKED))
def test_marked_hooks_equal_their_definitions(name):
    hook, definition = MARKED[name], DEFINITIONS[name]
    for kind, n in marked(hook, DEFINED_ON):
        for w in pc.iter_group(kind, n):
            assert outcome(hook, w) == outcome(definition, w), (kind, w)


@st.composite
def signed_windows(draw):
    # a window of B_n, n = 2..14, with its first `lead` entries negated, so
    # that every sign pattern of the entries the virtual terms read shows up
    n = draw(st.integers(2, 14))
    perm = draw(st.permutations(range(1, n + 1)))
    negated = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    lead = draw(st.integers(0, 2))
    return tuple(-v if neg or i < lead else v
                 for i, (v, neg) in enumerate(zip(perm, negated)))


@settings(max_examples=300)
@given(signed_windows())
def test_signed_keys_equal_their_definitions_past_the_exhaustive_range(s):
    # drops_key_d and _zdrops_key read drops_d, zdrops and inv_d off one
    # _scan_b walk and the first two entries
    for name in ("drops_key_d", "_zdrops_key"):
        assert MARKED[name](s) == DEFINITIONS[name](s), name


def test_each_context_builds_its_table_from_a_counted_block():
    # S_8 with 4-position tables: 70 unused sets, each counted element-wise
    # over its first block (4! calls), each of the other 23 prefixes at one
    # call on the first row, and each of the other 3 rows at one call for
    # each of the 3 last prefix entries that the first prefix leaves open.
    # Split into shares by context, each table is still built once.
    calls = 0

    @pc.block_additive
    def counted(w):
        nonlocal calls
        calls += 1
        return verify.drops_key_s(w)

    want = pc._count("S", 8, verify.drops_key_s, 0, 1)
    assert pc.sweep("S", 8, counted) == want
    assert calls == 70 * (24 + 23 + 3 * 3) == 3920
    for shares in (2, 3):
        calls = 0
        assert sum((pc._count_blocks("S", 8, counted, i, shares)
                    for i in range(shares)), Counter()) == want
        assert calls == 3920


def counted_hook(hook):
    # a hook under the mark of `hook`, counting its calls
    calls = Counter()

    @pc.block_additive(groups=hook.table_groups)
    def counted(w):
        calls["hook"] += 1
        return hook(w)

    return counted, calls


def counted_mad_key():
    # verify._mad_key under its own mark, counting its calls
    return counted_hook(verify._mad_key)


@pytest.mark.parametrize("kind, n, hook, calls", [
    # 126 contexts: a 4! block, 119 other prefixes, and 4 open last
    # entries times 3 other rows; 126 * (24 + 119 + 4 * 3)
    ("S", 9, verify.drops_key_s, 19530),
    # 35 contexts: a 2^4 4! block, 47 other prefixes of 3 signed entries,
    # and 5 open last entries times 7 other rows; 35 * (384 + 47 + 5 * 7)
    ("B", 7, verify.drops_key_b, 16310),
    # 35 unused sets times 2 parities, each half the B_7 block and
    # prefixes; 70 * (192 + 23 + 5 * 7)
    ("D", 7, verify.drops_key_d, 17500),
])
def test_hook_calls_at_the_benchmark_sizes(kind, n, hook, calls):
    # the parallel-sweep sizes, in one share and split in two
    counted, seen = counted_hook(hook)
    for shares in (1, 2):
        seen.clear()
        for i in range(shares):
            pc._count_blocks(kind, n, counted, i, shares)
        assert seen["hook"] == calls, shares


@pytest.mark.parametrize("kind, hook", [("S", verify.drops_key_s), ("B", verify.drops_key_b),
                                        ("D", verify.drops_key_d)])
def test_tables_start_at_n_5(kind, hook, monkeypatch):
    # a table needs a suffix of two after a prefix of three, so n = 4 is
    # counted one call per element and n = 5 is the first group of tables
    count, fallbacks = pc._count, []
    monkeypatch.setattr(pc, "_count", lambda *args: fallbacks.append(args) or count(*args))
    counted, calls = counted_hook(hook)
    assert pc.sweep(kind, 4, counted) == count(kind, 4, hook, 0, 1)
    assert calls["hook"] == pc.group_order(kind, 4) and len(fallbacks) == 1
    assert pc.sweep(kind, 5, counted) == count(kind, 5, hook, 0, 1)
    assert len(fallbacks) == 1


def test_the_mad_key_is_counted_by_tables_on_s8():
    # the same 70 * (24 + 23 + 3 * 3) calls as any table hook, not 8! = 40,320
    hook, calls = counted_mad_key()
    assert pc.sweep("S", 8, hook) == pc._count("S", 8, verify._mad_key, 0, 1)
    assert calls["hook"] == 3920


@pytest.mark.parametrize("kind", ["A", "B", "D"])
def test_a_mark_gates_the_table_path_by_group(kind):
    # no mark names A, and the mad and shape keys are marked for S alone:
    # over A_5 (60 elements), B_5 and D_5 sweep counts them element-wise,
    # one call per element, where the mad and shape tables would be wrong
    keys = (verify._mad_key, verify._shape_key)
    for key in keys + ((verify.drops_key_s,) if kind == "A" else ()):
        hook, calls = counted_hook(key)
        want = pc._count(kind, 5, key, 0, 1)
        assert pc.sweep(kind, 5, hook) == want
        assert calls["hook"] == pc.group_order(kind, 5)
        if kind != "A":
            assert pc._count_blocks(kind, 5, key, 0, 1) != want, key.__name__


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(MARKED))
def test_table_path_equals_the_element_wise_count(name):
    assert mismatches(MARKED[name], marked(MARKED[name], GROUPS)) == []


@pytest.mark.slow
@pytest.mark.parametrize("kind, hook", [("B", verify.drops_key_b), ("D", verify.drops_key_d),
                                        ("B", verify._zdrops_key), ("S", verify.drops_key_s)])
def test_sweeps_at_the_benchmark_sizes_equal_the_element_wise_count(kind, hook, monkeypatch):
    # thm-typeB and thm-typeD at --n 7 and cor1.4 at --n 9, the
    # parallel-sweep sizes, and lemma7.2 at --n 7: past the groups above
    monkeypatch.setattr(pc, "usable_cpus", lambda: 2)
    n = 9 if kind == "S" else 7
    want = pc._count(kind, n, hook, 0, 1)
    for threads in (1, 2):
        assert pc.sweep(kind, n, hook, threads) == want, threads


def test_a_wrong_mark_is_caught():
    # a descent of mad counts the placed values inside it; over B_n and D_n
    # a context fixes the prefix's magnitudes, not its values, so the
    # differences depend on the prefix's signs
    @pc.block_additive
    def hook(w):
        return 0, 0, genpoly.mad(w), pc.drops(w), 0

    assert mismatches(hook, [("B", 5), ("D", 5)]) == [("B", 5), ("D", 5)]


def contexts(kind, n):
    # unused sets of a table block, times the two suffix parities in D
    return math.comb(n, min(pc._TABLE_SUFFIX, n - 3)) * (2 if kind == "D" else 1)


@pytest.mark.parametrize("name", sorted(MARKED))
def test_shares_sum_to_the_element_wise_count(name):
    hook = MARKED[name]
    for kind, n in marked(hook, RAGGED):
        want = pc._count(kind, n, hook, 0, 1)
        for shares in (1, 2, 3, 5, 7):
            parts = [pc._count_blocks(kind, n, hook, i, shares) for i in range(shares)]
            assert sum(parts, Counter()) == want, (kind, n, shares)
        # with more shares than contexts, those past the last context count
        # nothing
        last = contexts(kind, n) - 1
        tail = [pc._count_blocks(kind, n, hook, i, last + 3) for i in (last, last + 1, last + 2)]
        assert tail[0] and tail[1:] == [Counter(), Counter()], (kind, n)


def test_parallel_chunks_match_the_element_wise_count(monkeypatch):
    # every group, so that a group a mark leaves out is swept element-wise
    # in the pool too
    monkeypatch.setattr(pc, "usable_cpus", lambda: 2)
    monkeypatch.setattr(pc, "_PARALLEL_CUTOFF", 0)
    for name, hook in sorted(MARKED.items()):
        for kind, n in RAGGED:
            assert pc.sweep(kind, n, hook, threads=2) == pc._count(kind, n, hook, 0, 1)


def test_keys_out_of_range_are_refused():
    @pc.block_additive
    def negative(w):
        return -1, 0, 0, 0, 0

    with pytest.raises(ValueError, match="not a signed monomial key"):
        pc.sweep("S", 5, negative)
