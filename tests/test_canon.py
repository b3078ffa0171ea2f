import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import geodex.canon as canon_module
from geodex import (
    Digraph,
    are_isomorphic,
    automorphism_orbits,
    canonical_form,
    canonical_relabelling,
)
from geodex.canon import OrbitPartition
from oracles import (
    automorphisms_oracle,
    canon_tree_oracle,
    first_path_levels,
    iso_oracle,
    shuffled,
)
from strategies import digraphs, symmetric_digraphs

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


class TestAutomorphismOrbits:
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
        auts = automorphisms_oracle(g)
        # union-find over oracle automorphisms
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for p in auts:
            for v in range(g.n):
                a, b = find(v), find(p[v])
                if a != b:
                    parent[b] = a
        expected = len({find(v) for v in range(g.n)})
        got = automorphism_orbits(g)
        assert got.orbit_count == expected
        for u in range(g.n):
            for v in range(g.n):
                same_lib = got.orbit_id[u] == got.orbit_id[v]
                assert same_lib == (find(u) == find(v))

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

    def counting(g, cells):
        calls.append(1)
        return real(g, cells)

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

    @given(st.one_of(digraphs(max_n=7, loops=True), symmetric_digraphs(max_n=6)),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_a_hit_walks_one_path(self, g, rng):
        memo = {}
        form = canonical_form(g, memo)
        hits = 0
        for h in [g] + [shuffled(rng, g) for _ in range(4)]:
            size = len(memo)
            got, calls = refine_calls(lambda: canonical_form(h, memo))
            assert got == form
            if len(memo) == size:  # a miss stores at least its first leaf
                hits += 1
                assert calls <= first_path_levels(h)
        assert hits >= 1  # g's own first leaf is always stored

    def test_catalogs_and_their_copies_through_one_memo(self, cat_a, cat_b):
        rng = random.Random(4)
        memo = {}
        for h in [cat_a, cat_b] + [shuffled(rng, g) for g in (cat_a, cat_b) for _ in range(5)]:
            assert canonical_form(h, memo) == canonical_form(h)
        for key, form in memo.items():
            assert canonical_form(decode(key)) == form
