import gc
import hashlib
import inspect
import random
import sys
import threading
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import geodex.canon as canon_module
from geodex import (
    Digraph,
    SearchParams,
    are_isomorphic,
    automorphism_orbits,
    canonical_form,
    canonical_relabelling,
    search,
)
from geodex.canon import OrbitPartition
from geodex.cayley import a4_elements, cayley_digraph
from oracles import (
    _tree_refine,
    automorphisms_oracle,
    canon_tree_oracle,
    first_path_levels,
    iso_oracle,
    shuffled,
)
from strategies import (
    circulant_digraphs,
    digraphs,
    partitioned_digraphs,
    permutations,
    symmetric_digraphs,
    two_in_two_out_digraphs,
    two_out_digraph,
)

THREE_CYCLE = Digraph(3, [(1,), (2,), (0,)])


def apply_perm(g, perm):
    out = [()] * g.n
    for v in range(g.n):
        out[perm[v]] = tuple(perm[w] for w in g.out[v])
    return Digraph(g.n, out)


class TestCanonicalForm:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            canonical_form(Digraph(0, []))

    def test_catalogs_distinct(self, cat_a, cat_b):
        assert canonical_form(cat_a) != canonical_form(cat_b)

    def test_invariant_under_relabelling(self, cat_a):
        rng = random.Random(7)
        base = canonical_form(cat_a)
        for _ in range(20):
            assert canonical_form(shuffled(rng, cat_a)) == base

    def test_three_cycle_all_labelings_agree(self):
        import itertools
        forms = {
            canonical_form(apply_perm(THREE_CYCLE, p))
            for p in itertools.permutations(range(3))
        }
        assert len(forms) == 1

    def test_encoding_layout(self, cat_a):
        data = canonical_form(cat_a).data
        assert data[:4] == (9).to_bytes(4, "big")
        assert len(data) == 4 + (9 * 9 + 7) // 8

    def test_forms_are_ordered(self, cat_a, cat_b):
        fa, fb = canonical_form(cat_a), canonical_form(cat_b)
        assert (fa < fb) != (fb < fa)

    def test_hex_is_stable(self, cat_a):
        assert canonical_form(cat_a).hex() == canonical_form(cat_a).hex()

    @given(digraphs(max_n=6), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_relabelling_invariance_property(self, g, rng):
        assert canonical_form(shuffled(rng, g)) == canonical_form(g)


class TestCanonicalRelabelling:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="canonical form requires at least one vertex"):
            canonical_relabelling(Digraph(0, []))

    def test_produces_the_canonical_encoding(self, cat_a):
        lab = canonical_relabelling(cat_a)
        assert sorted(lab) == list(range(9))
        assert canonical_form(apply_perm(cat_a, lab)) == canonical_form(cat_a)

    @given(digraphs(min_n=1, max_n=6))
    def test_relabelled_graph_encodes_to_its_form(self, g):
        lab = canonical_relabelling(g)
        h = apply_perm(g, lab)
        assert canonical_form(h) == canonical_form(g)


class TestAreIsomorphic:
    def test_catalogs(self, cat_a, cat_b):
        assert are_isomorphic(cat_a, cat_a)
        assert not are_isomorphic(cat_a, cat_b)

    def test_different_orders(self):
        assert not are_isomorphic(THREE_CYCLE, Digraph(4, [(1,), (2,), (3,), (0,)]))

    def test_two_empty_digraphs(self):
        assert are_isomorphic(Digraph(0, []), Digraph(0, []))

    def test_shuffled_copies(self, cat_b):
        rng = random.Random(3)
        assert are_isomorphic(cat_b, shuffled(rng, cat_b))

    def test_same_degree_sequence_not_isomorphic(self):
        # 6-cycle vs two 3-cycles: both 1-diregular
        c6 = Digraph(6, [(1,), (2,), (3,), (4,), (5,), (0,)])
        c33 = Digraph(6, [(1,), (2,), (0,), (4,), (5,), (3,)])
        assert not are_isomorphic(c6, c33)

    @given(digraphs(max_n=5), digraphs(max_n=5))
    @settings(max_examples=150)
    def test_matches_brute_force_on_random_pairs(self, g, h):
        assert are_isomorphic(g, h) == iso_oracle(g, h)

    @given(digraphs(max_n=5), st.randoms(use_true_random=False))
    def test_matches_brute_force_on_shuffled_pairs(self, g, rng):
        h = shuffled(rng, g)
        assert are_isomorphic(g, h)
        assert iso_oracle(g, h)


def brute_force_orbits(g):
    """Union-find over every automorphism, numbered by first appearance."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in automorphisms_oracle(g):
        for v in range(g.n):
            a, b = find(v), find(p[v])
            if a != b:
                parent[b] = a
    ids = {}
    orbit_id = tuple(ids.setdefault(find(v), len(ids)) for v in range(g.n))
    return OrbitPartition(orbit_id=orbit_id, orbit_count=len(ids))


class TestAutomorphismOrbits:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="orbit partition requires at least one vertex"):
            automorphism_orbits(Digraph(0, []))

    def test_three_cycle_transitive(self):
        p = automorphism_orbits(THREE_CYCLE)
        assert p.orbit_count == 1
        assert p.orbit_id == (0, 0, 0)

    def test_catalog_a(self, cat_a):
        p = automorphism_orbits(cat_a)
        assert p.orbit_count == 3
        assert p.orbit_id == (0, 0, 1, 0, 1, 2, 2, 2, 1)

    def test_catalog_b(self, cat_b):
        p = automorphism_orbits(cat_b)
        assert p.orbit_count == 3
        assert p.orbit_id == (0, 1, 1, 0, 2, 2, 0, 1, 2)

    def test_neither_catalog_vertex_transitive(self, cat_a, cat_b):
        assert automorphism_orbits(cat_a).orbit_count > 1
        assert automorphism_orbits(cat_b).orbit_count > 1

    def test_orbit_ids_numbered_by_first_appearance(self, cat_a):
        ids = automorphism_orbits(cat_a).orbit_id
        seen = []
        for i in ids:
            if i not in seen:
                seen.append(i)
        assert seen == sorted(seen)

    def test_asymmetric_digraph_discrete_orbits(self):
        g = Digraph(3, [(1, 2), (2,), ()])
        p = automorphism_orbits(g)
        assert p.orbit_count == 3

    @given(digraphs(max_n=5))
    @settings(max_examples=100)
    def test_matches_brute_force_orbits(self, g):
        assert automorphism_orbits(g) == brute_force_orbits(g)

    def test_degree_invariant_within_orbits(self, cat_a, cat_b):
        for g in (cat_a, cat_b):
            ids = automorphism_orbits(g).orbit_id
            for u in range(g.n):
                for v in range(g.n):
                    if ids[u] == ids[v]:
                        assert g.out_degree(u) == g.out_degree(v)
                        assert g.in_degree(u) == g.in_degree(v)


def unpruned_walk(g):
    """Form bytes, canonical relabelling and orbits from the unpruned walk."""
    rows, labs = canon_tree_oracle(g)
    n = g.n
    bits = 0
    for r in rows:
        bits = bits << n | r
    nbytes = (n * n + 7) // 8
    data = n.to_bytes(4, "big") + (bits << nbytes * 8 - n * n).to_bytes(nbytes, "big")
    # each tied labeling sends the vertex at a position of the first one to
    # the vertex at the same position of its own
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    inv_base = {pos: v for v, pos in enumerate(labs[0])}
    for lab in labs[1:]:
        for v in range(n):
            parent[find(v)] = find(inv_base[lab[v]])
    ids = {}
    orbit_id = tuple(ids.setdefault(find(v), len(ids)) for v in range(n))
    return data, labs[0], OrbitPartition(orbit_id=orbit_id, orbit_count=len(ids))


def decode(data):
    """The digraph whose adjacency matrix a form (or a leaf's bytes) packs."""
    n = int.from_bytes(data[:4], "big")
    bits = int.from_bytes(data[4:], "big") >> (len(data) - 4) * 8 - n * n
    return Digraph(n, [[j for j in range(n) if bits >> (n - 1 - i) * n + n - 1 - j & 1]
                       for i in range(n)])


def z4_squared_cayley(steps):
    """Cayley graph of Z4 x Z4 whose arcs add each of steps."""
    return Digraph(16, [[(a + da) % 4 * 4 + (b + db) % 4 for da, db in steps]
                        for a in range(4) for b in range(4)])


# Both strongly regular with parameters (16,6,2,2), so refinement cannot tell
# their vertices apart; after one vertex is individualised, a cell of 9
# remains that the Shrikhande graph's stabiliser splits into two orbits.
SHRIKHANDE = z4_squared_cayley([(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)])
ROOK_4X4 = z4_squared_cayley([(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)])
# Also 6-regular, so at the root no refinement separates the two parts;
# its automorphism group is Aut(Shrikhande) x S7, with the parts as orbits.
SHRIKHANDE_AND_K7 = Digraph(23, list(SHRIKHANDE.out) + [
    [w for w in range(16, 23) if w != v] for v in range(16, 23)])


class TestPrunedWalk:
    """The automorphism-pruned walk against the walk over every leaf."""

    def check(self, g):
        data, lab, orbits = unpruned_walk(g)
        assert canonical_form(g).data == data
        assert canonical_relabelling(g) == lab
        assert automorphism_orbits(g) == orbits

    @given(digraphs(max_n=7, loops=True))
    @settings(max_examples=200, deadline=None)
    def test_random_digraphs(self, g):
        self.check(g)

    @given(symmetric_digraphs(max_n=6))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_digraphs(self, g):
        self.check(g)

    def test_catalogs(self, cat_a, cat_b):
        self.check(cat_a)
        self.check(cat_b)

    @pytest.mark.parametrize("seed", range(8))
    def test_strongly_regular_graphs(self, seed):
        rng = random.Random(seed)
        self.check(shuffled(rng, SHRIKHANDE))
        self.check(shuffled(rng, ROOK_4X4))
        # too large for the unpruned walk, so checked by invariance
        h = shuffled(rng, SHRIKHANDE_AND_K7)
        form = canonical_form(SHRIKHANDE_AND_K7)
        assert canonical_form(h) == form
        assert canonical_form(apply_perm(h, canonical_relabelling(h))) == form
        assert automorphism_orbits(h).orbit_count == 2

    def test_edgeless_order_12_is_fast_and_transitive(self):
        # the unpruned walk visits all 12! leaves
        g = Digraph(12, [()] * 12)
        assert canonical_form(g).data == (12).to_bytes(4, "big") + bytes(18)
        assert automorphism_orbits(g).orbit_count == 1


def refine_calls(fn):
    """fn() and the number of _refine calls it made."""
    calls = []
    real = canon_module._refine

    def counting(g, cells, v=None):
        calls.append(1)
        return real(g, cells, v)

    with mock.patch.object(canon_module, "_refine", counting):
        result = fn()
    return result, len(calls)


class TestMemo:
    @given(st.lists(st.one_of(digraphs(max_n=6, loops=True), symmetric_digraphs(max_n=6)),
                    min_size=1, max_size=5),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_one_memo_gives_every_digraph_its_form(self, gs, rng):
        batch = gs + [shuffled(rng, g) for g in gs for _ in range(3)]
        rng.shuffle(batch)
        memo = {}
        merged = {}
        for h in batch:
            form = canonical_form(h, memo)
            assert form == canonical_form(h)
            merged.setdefault(form, []).append(h)
        for group in merged.values():
            assert all(iso_oracle(group[0], h) for h in group[1:])
        # every key is a relabelled copy of a digraph filed under its form
        for key, form in memo.items():
            assert canonical_form(decode(key)) == form

    @given(st.one_of(digraphs(max_n=7, loops=True), symmetric_digraphs(max_n=6),
                     circulant_digraphs(max_n=20),
                     partitioned_digraphs(max_n=24).map(lambda case: case[0])),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_a_hit_walks_one_path(self, g, rng):
        # after one walk every relabelled copy hits: the walk stores every
        # leaf it visits, and each leaf it skips is an automorphic image of
        # a stored one, with the same code, so a copy's first leaf is stored
        memo = {}
        form = canonical_form(g, memo)
        size = len(memo)
        for h in [g] + [shuffled(rng, g) for _ in range(4)]:
            got, calls = refine_calls(lambda: canonical_form(h, memo))
            assert got == form
            assert len(memo) == size  # a miss stores at least its first leaf
            assert calls <= first_path_levels(h)

    def test_catalogs_and_their_copies_through_one_memo(self, cat_a, cat_b):
        rng = random.Random(4)
        memo = {}
        for h in [cat_a, cat_b] + [shuffled(rng, g) for g in (cat_a, cat_b) for _ in range(5)]:
            assert canonical_form(h, memo) == canonical_form(h)
        for key, form in memo.items():
            assert canonical_form(decode(key)) == form


@pytest.fixture()
def walked(monkeypatch):
    """The digraphs _best_labelings walks, in call order, from no kept walk."""
    walked = []
    real = canon_module._best_labelings

    def counting(g, memo=None):
        walked.append(g)
        return real(g, memo)

    monkeypatch.setattr(canon_module, "_best_labelings", counting)
    canon_module._walked.cache_clear()
    return walked


ENTRY_POINTS = {"form": canonical_form, "relabelling": canonical_relabelling,
                "orbits": automorphism_orbits}


def fresh_answers(g):
    """Each entry point's answer for g, each from a walk of its own."""
    answers = []
    for call in ENTRY_POINTS.values():
        canon_module._walked.cache_clear()
        answers.append(call(g))
    return tuple(answers)


class TestLastWalk:
    """The memo-less calls share the last walk, for g or an equal digraph."""

    def test_one_entry_is_kept(self):
        assert canon_module._walked.cache_info().maxsize == 1

    def test_form_orbits_and_relabelling_walk_once(self, walked, cat_a):
        form = canonical_form(cat_a)
        orbits = automorphism_orbits(cat_a)
        lab = canonical_relabelling(cat_a)
        assert walked == [cat_a] and walked[0] is cat_a
        assert orbits.orbit_id == (0, 0, 1, 0, 1, 2, 2, 2, 1)
        assert canonical_form(apply_perm(cat_a, lab)) == form

    def test_an_equal_digraph_gets_equal_results_without_a_walk(self, walked, cat_a):
        copy = Digraph(cat_a.n, cat_a.out)
        assert copy == cat_a and copy is not cat_a
        expected = canonical_form(cat_a), automorphism_orbits(cat_a), canonical_relabelling(cat_a)
        assert (canonical_form(copy), automorphism_orbits(copy),
                canonical_relabelling(copy)) == expected
        assert are_isomorphic(cat_a, copy)
        assert walked == [cat_a] and walked[0] is cat_a

    def test_a_memo_call_neither_reads_nor_keeps_the_walk(self, walked, cat_a, cat_b):
        form = canonical_form(cat_a)
        memo = {}
        assert canonical_form(cat_a, memo) == form  # walks, though cat_a's walk is kept
        assert canonical_form(cat_a, memo) == form  # a hit, with no labeling or automorphism
        assert len(walked) == 3
        # cat_a's memo-less walk is still the kept one
        assert automorphism_orbits(cat_a).orbit_count == 3
        assert sorted(canonical_relabelling(cat_a)) == list(range(9))
        assert len(walked) == 3
        # a memo call keeps nothing, so the memo-less calls on cat_b walk
        canonical_form(cat_b, memo)
        assert automorphism_orbits(cat_b).orbit_count == 3
        assert len(walked) == 5 and walked[-1] is cat_b

    def test_the_relabelling_is_a_fresh_list(self, walked, cat_b):
        lab = canonical_relabelling(cat_b)
        kept = list(lab)
        lab.reverse()
        lab[0] = -1
        assert canonical_relabelling(cat_b) == kept
        assert canonical_relabelling(cat_b) is not canonical_relabelling(cat_b)
        assert len(walked) == 1

    def test_a_walk_that_raises_keeps_nothing(self, walked, cat_a):
        canonical_form(cat_a)
        deep = Digraph(150, [()] * 150)  # its walk recurses 149 deep
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            with pytest.raises(ValueError, match="needs a deeper walk"):
                automorphism_orbits(deep)
        finally:
            sys.setrecursionlimit(limit)
        assert automorphism_orbits(cat_a).orbit_count == 3
        assert walked == [cat_a, deep]
        assert automorphism_orbits(deep).orbit_count == 1
        assert walked == [cat_a, deep, deep]

    def test_threads_get_their_own_digraphs_walks(self, cat_a, cat_b):
        # more threads than cores, switching every microsecond, so the kept
        # walk changes hands between one thread's calls; each call must
        # still answer for its own digraph
        rng = random.Random(5)
        gs = [cat_a, cat_b, shuffled(rng, cat_a), shuffled(rng, cat_b)]
        expected = [fresh_answers(g) for g in gs]
        wrong = []

        def calls(g, want):
            for _ in range(100):
                got = tuple(call(g) for call in ENTRY_POINTS.values())
                if got != want:
                    wrong.append((g, got))

        threads = [threading.Thread(target=calls, args=case) for case in zip(gs, expected)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @given(st.one_of(digraphs(max_n=5, loops=True), symmetric_digraphs(max_n=5)),
           st.lists(st.sampled_from(sorted(ENTRY_POINTS)), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_any_call_order_matches_fresh_copies(self, g, order):
        expected = dict(zip(ENTRY_POINTS, fresh_answers(g)))
        assert expected["orbits"] == brute_force_orbits(g)
        for name in order:
            assert ENTRY_POINTS[name](g) == expected[name]


class TestRefine:
    """The packed-count refinement against the sorted-tuple one it replaces."""

    @given(partitioned_digraphs(max_n=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_tuple_refinement(self, case):
        g, cells = case
        assert canon_module._refine(g, cells) == _tree_refine(g, cells)

    def test_a_lower_colour_outweighs_every_later_count(self):
        # 0 sees colours (1, 4, 4, 4, 4), 1 sees (2, 2, 2, 2, 2): 0 comes
        # first, but only if one count in cell 1's field outweighs the five
        # in cell 2's, which fields too narrow for a count of 5 do not
        cells = [[1, 0], [2], [3, 4, 5, 6, 7], [8], [9, 10, 11, 12]]
        out = [[2, 9, 10, 11, 12], [3, 4, 5, 6, 7]] + [[]] * 11
        g = Digraph(13, out)
        refined = canon_module._refine(g, cells)
        assert refined[:2] == [[0], [1]]
        assert refined == _tree_refine(g, cells)

    @given(st.one_of(partitioned_digraphs(max_n=40),
                     st.one_of(symmetric_digraphs(max_n=12), circulant_digraphs())
                     .map(lambda g: (g, [list(range(g.n))]))),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_individualisation_round(self, case, data):
        # as the walk does: v split off in front of the rest of its cell in
        # an equitable partition, then only v's neighbours' cells signed;
        # random partitions mostly refine to singletons, so symmetric
        # digraphs on one cell keep large cells to split
        g, cells = case
        cells = canon_module._refine(g, cells)
        wide = [ci for ci, cell in enumerate(cells) if len(cell) > 1]
        if not wide:
            return
        ci = data.draw(st.sampled_from(wide))
        v = data.draw(st.sampled_from(cells[ci]))
        split = cells[:ci] + [[v], [w for w in cells[ci] if w != v]] + cells[ci + 1:]
        assert canon_module._refine(g, split, v) == _tree_refine(g, split)

    @pytest.mark.parametrize("out", [
        [(1, 2), (2, 3), (3, 0), (0, 1)],  # diregular: returns at once
        [(1,), (2,), (0,), (4,), (5,), (3,)],  # two directed triangles
        [(), (), ()],  # edgeless
        [(0,), (1,)],  # two loops
        [(1, 2), (2, 0), (1, 0)],  # complete: regular
        [(1, 2), (0, 2), (0, 1), (0, 1)],  # out-regular, in-degrees 3, 3, 2
        [(1, 2, 3), (), (), ()],  # a star: out-degrees differ
        [(1,), (2,), (3,), ()],  # a directed path: both degrees differ
        [(1,), (0,), (3,), (3,)],  # a loop and an in-degree of 2
    ])
    def test_one_cell_round(self, out):
        g = Digraph(len(out), out)
        cells = [list(range(g.n))]
        assert canon_module._refine(g, cells) == _tree_refine(g, cells)

    @given(st.one_of(digraphs(max_n=12, loops=True), symmetric_digraphs(max_n=12)))
    @settings(max_examples=200, deadline=None)
    def test_one_cell_round_on_random_digraphs(self, g):
        cells = [list(range(g.n))]
        assert canon_module._refine(g, cells) == _tree_refine(g, cells)

    @given(st.one_of(circulant_digraphs(), two_in_two_out_digraphs()), st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_degree_regular_cell_comes_back_unsplit(self, g, data):
        cell = data.draw(permutations(g.n))
        assert canon_module._refine(g, [cell]) == [cell] == _tree_refine(g, [cell])

    @given(st.one_of(circulant_digraphs(), two_in_two_out_digraphs()), st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_cell_with_one_moved_arc_splits(self, g, data):
        # moving an arc's head leaves the out-degrees regular and moving its
        # tail the in-degrees, so a round that looked at one side alone
        # would take either digraph for a regular one
        arcs = list(g.arcs())
        assume(arcs and g.n > 2)
        v, w = data.draw(st.sampled_from(arcs))
        rows = [list(row) for row in g.out]
        rows[v].remove(w)
        if data.draw(st.booleans()):
            to = [u for u in range(g.n) if u != w and u not in rows[v]]
            assume(to)
            rows[v].append(data.draw(st.sampled_from(to)))
        else:
            to = [u for u in range(g.n) if u != v and w not in rows[u]]
            assume(to)
            rows[data.draw(st.sampled_from(to))].append(w)
        h = Digraph(g.n, rows)
        cells = [list(range(g.n))]
        refined = canon_module._refine(h, cells)
        assert len(refined) > 1
        assert refined == _tree_refine(h, cells)


def twice_through_one_memo(g):
    memo = {}
    return canonical_form(g, memo), canonical_form(g, memo)  # the second call hits


class TestNoReferenceCycle:
    """Each call frees what it built by reference counting alone."""

    @pytest.mark.parametrize("call", [
        canonical_form,
        lambda g: canonical_form(g, {}),
        twice_through_one_memo,
        canonical_relabelling,
        automorphism_orbits,
        lambda g: search(SearchParams(d=2, k=2, epsilon=2, diregular=True)),
    ], ids=["form", "form-memo", "form-memo-hit", "relabelling", "orbits", "search"])
    def test_nothing_left_for_the_cyclic_gc(self, cat_b, call):
        gc.collect()
        gc.disable()
        try:
            call(cat_b)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPinnedBytes:
    """Canonical bytes that checkpoints, memo keys and stored results rely on."""

    def test_catalog_a(self, cat_a):
        assert canonical_form(cat_a).hex() == "0000000918406048404980a0880300"

    @pytest.mark.parametrize("epsilon, digest", [
        (2, "c7d5c7eb26a73e32ad11d7e0d7a2b10b4dbc3d3570c20932663cfa398813006d"),
        (3, "0675726dfd891eaaead55ac4a5c791f4dbb994939c15082b00cfde94ff660a73"),
    ])
    def test_diregular_class_forms(self, epsilon, digest):
        outcome = search(SearchParams(d=2, k=2, epsilon=epsilon, diregular=True))
        forms = sorted(r.form.data for r in outcome.results)
        assert hashlib.sha256(b"".join(forms)).hexdigest() == digest

    def test_a4_cayley_digraphs(self):
        forms = [canonical_form(cayley_digraph(pair)).data
                 for pair in combinations(a4_elements(), 2)]
        assert len(forms) == 66
        assert (hashlib.sha256(b"".join(forms)).hexdigest()
                == "864511f134ee7282ed32fd774d119d6b61e1b3e36b2dbf819536c4c7b2d97a41")

    def test_directed_path_of_order_1000(self):
        g = Digraph(1000, [(v + 1,) for v in range(999)] + [()])
        assert (hashlib.sha256(canonical_form(g).data).hexdigest()
                == "75e2a1999b7cb81787c16420d8e65e26df2520b6155892b06ede389b676460b2")

    @pytest.mark.parametrize("n, digest", [
        # 4,095**2 bits leave 7 zero bits of padding in the last byte, 4,096**2 none
        (4095, "209c1295768c5e4dc38eefbb54821a9f6ae33233f995fe5c9ba742e0d3e4e8a8"),
        (4096, "71b83eef63efaeded3d40242940f1f6baae5760b20846b4d7a899e09da262a8b"),
    ])
    def test_random_two_out_digraphs_up_to_the_order_limit(self, n, digest):
        data = canonical_form(two_out_digraph(n, seed=n)).data
        assert len(data) == 4 + (n * n + 7) // 8
        assert data[-1] & ((1 << -n * n % 8) - 1) == 0
        assert hashlib.sha256(data).hexdigest() == digest
