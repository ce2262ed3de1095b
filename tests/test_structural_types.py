"""The structural type rules of the census hot loops against certificates.

Each targeted census fixes most vertex pairs of a 6-vertex subset and
decides its type from the few pairs left free.  Here every setting of those
free pairs is built as a small graph and the structural decision is compared
with the canonical certificate (``oracles.certificate_type``).  The kept
error paths are driven with crafted rows.
"""

import random
from itertools import combinations

import pytest

from oracles import certificate_type, coded_walks_from, random_graph
from srg12 import census, graph, spectral
from srg12.census import (
    QUAD_PAIR_TYPES,
    TRIANGLE_PAIR_TYPES,
    _completion_type,
    _is_n2,
    _pentagon_n4_sides,
    _pentagon_triangle_scan,
    _quad_pairs_at_edge,
    _walk_scan,
    c4s_through_edge,
    count_n2,
    disjoint_triangle_pair_census,
    iter_quadrilaterals,
    iter_triangles,
    named_type_certificates,
    quad_pair_census,
    triangle_edge_completion_census,
)
from srg12.constructions import build_paley9
from srg12.errors import CountingInconsistencyError
from srg12.graph import Graph
from srg12.identities import run_all_checks
from srg12.spectral import charpoly_prefix


def settings(order, fixed, free):
    """Every graph on ``order`` vertices with the ``fixed`` edges plus a
    subset of the ``free`` pairs."""
    for bits in range(1 << len(free)):
        extra = [pair for t, pair in enumerate(free) if bits >> t & 1]
        yield Graph.from_edges(order, fixed + extra)


def family_gate_off(monkeypatch):
    monkeypatch.setattr(census, "require_family", lambda g: (g.order, g.degree(0)))


class TestRulesAgainstCertificates:
    def test_triangle_pairs_all_512_settings(self):
        fixed = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        free = [(a, b) for a in range(3) for b in range(3, 6)]
        seen = set()
        for g in settings(6, fixed, free):
            # every disjoint triangle pair spans all six vertices
            tris = [t for t in combinations(range(6), 3)
                    if all(g.has_edge(a, b) for a, b in combinations(t, 2))]
            pairs = sum(1 for s, t in combinations(tris, 2) if not set(s) & set(t))
            want = certificate_type(g, range(6))
            if want not in TRIANGLE_PAIR_TYPES:
                want = "excluded"
            tp = disjoint_triangle_pair_census(g)
            got = dict(n1=tp.n1, n3=tp.n3, n5=tp.n5, n14=tp.n14, excluded=tp.excluded)
            assert got == {name: pairs if name == want else 0 for name in got}
            seen.add(want)
        assert seen == {"n1", "n3", "n5", "n14", "excluded"}

    def test_quad_pairs_all_16_settings(self):
        # u=0, v=1; quadrilaterals 0-1-2-3-0 and 0-1-4-5-0
        fixed = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0)]
        free = [(2, 4), (3, 5), (2, 5), (3, 4)]
        seen = set()
        for g in settings(6, fixed, free):
            want = certificate_type(g, range(6))
            if want not in QUAD_PAIR_TYPES:
                want = None
            try:
                counts = _quad_pairs_at_edge(g.rows, 0, 1, [(2, 3), (4, 5)])
                got = QUAD_PAIR_TYPES[counts.index(1)]
                assert sum(counts) == 1
            except CountingInconsistencyError:
                got = None
            assert got == want
            seen.add(got)
        assert seen == {"n9", "n4", "n1", None}

    def test_n2_all_32_settings(self):
        # quadrilateral 0-1-2-3-0, apex 4 on side 01, apex 5 on side 12
        fixed = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (5, 1), (5, 2)]
        free = [(4, 2), (4, 3), (4, 5), (5, 0), (5, 3)]
        hits = 0
        for g in settings(6, fixed, free):
            is_n2 = _is_n2(g.rows, 0, 1, 2, 3, 4, 5)
            assert is_n2 == (certificate_type(g, range(6)) == "n2")
            hits += is_n2
        assert hits == 1

    def test_triangle_completions_all_32_settings(self):
        # triangle x,y,z = 0,1,2; pendant p = 3 at x; q = 4 ~ p,y; r = 5 ~ p,z
        fixed = [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 1), (3, 5), (5, 2)]
        free = [(4, 5), (4, 0), (4, 2), (5, 0), (5, 1)]
        seen = set()
        for g in settings(6, fixed, free):
            want = certificate_type(g, range(6))
            got = _completion_type(g.rows, 0, 1, 2, 4, 5)
            assert got == (want if want in ("n1", "n4") else None)
            seen.add(got)
        assert seen == {"n1", "n4", None}

    def test_pentagon_side_all_8_apex_patterns(self):
        # pentagon 0..4, apex 5 on side 01 with each pattern on 2, 3, 4; the
        # other sides get plain apexes 6..9
        fixed = [(i, (i + 1) % 5) for i in range(5)] + [(5, 0), (5, 1)]
        fixed += [(6, 1), (6, 2), (7, 2), (7, 3), (8, 3), (8, 4), (9, 4), (9, 0)]
        seen = set()
        for g in settings(10, fixed, [(5, 2), (5, 3), (5, 4)]):
            want = certificate_type(g, range(6))
            try:
                got = ("n8", "n4")[_pentagon_n4_sides(g.rows, (0, 1, 2, 3, 4))]
            except CountingInconsistencyError as exc:
                assert "apex of side (0,1) has adjacency pattern" in str(exc)
                got = None
            assert got == (want if want in ("n4", "n8") else None)
            if got is not None:  # the only pentagon of the graph
                n4 = int(got == "n4")
                assert _pentagon_triangle_scan(g.rows, 10, range(10)) == (n4, 5 - n4, 1)
            seen.add(got)
        assert seen == {"n4", "n8", None}


class TestBvlsSample:
    """A fixed seeded sample of BvLS 243 structures, checked both ways."""

    def test_triangle_pairs(self, bvls):
        rng = random.Random(243)
        tris = list(iter_triangles(bvls))
        seen = set()
        checked = 0
        while checked < 150:
            s, t = rng.sample(tris, 2)
            if set(s) & set(t):
                continue
            tp = disjoint_triangle_pair_census(bvls.induced(s + t))
            got = [name for name in TRIANGLE_PAIR_TYPES if getattr(tp, name)]
            assert got == [certificate_type(bvls, s + t)]
            seen.update(got)
            checked += 1
        assert {"n1", "n5", "n14"} <= seen

    def test_quad_pairs(self, bvls):
        rng = random.Random(22)
        seen = set()
        for u, v in rng.sample(list(bvls.edges()), 30):
            quads = c4s_through_edge(bvls, u, v)
            for _ in range(5):
                q1, q2 = rng.sample(quads, 2)
                counts = _quad_pairs_at_edge(bvls.rows, u, v, [q1, q2])
                got = QUAD_PAIR_TYPES[counts.index(1)]
                assert got == certificate_type(bvls, (u, v) + q1 + q2)
                seen.add(got)
        assert seen == {"n1", "n9"}

    def test_completions(self, bvls):
        rng = random.Random(3)
        rows = bvls.rows
        for x, y, z in rng.sample(list(iter_triangles(bvls)), 20):
            tmask = (1 << x) | (1 << y) | (1 << z)
            pendants = [p for p in bvls.neighbors(x) if not tmask >> p & 1]
            for p in rng.sample(pendants, 3):
                q = (rows[p] & rows[y] & ~(1 << x)).bit_length() - 1
                r = (rows[p] & rows[z] & ~(1 << x)).bit_length() - 1
                got = _completion_type(rows, x, y, z, q, r)
                assert got == certificate_type(bvls, (x, y, z, p, q, r)) == "n1"
        quads = list(iter_quadrilaterals(bvls))
        for a, b, c, d in rng.sample(quads, 40):
            e = (rows[a] & rows[b]).bit_length() - 1
            f = (rows[b] & rows[c]).bit_length() - 1
            assert _is_n2(rows, a, b, c, d, e, f)
            assert certificate_type(bvls, (a, b, c, d, e, f)) == "n2"


class TestCodedWalks:
    def test_popcount_scan_matches_walk_by_walk(self):
        rng = random.Random(5)
        outcomes = set()
        for _ in range(40):
            g = random_graph(rng, rng.randint(6, 12), rng.random() * 0.5 + 0.2)
            for s in range(g.order):
                want = coded_walks_from(g, s)
                try:
                    got = _walk_scan(g.rows, g.order, [s])
                except CountingInconsistencyError as exc:
                    got = str(exc)
                assert got == want
                outcomes.add(type(want))
        assert outcomes == {tuple, str}


class TestKeptErrors:
    @pytest.mark.parametrize("chords, extra", [
        (2, [(1, 3), (1, 4)]),
        (2, [(1, 4), (2, 4)]),
        (3, [(1, 3), (1, 4), (2, 4)]),
    ])
    def test_walk_with_chords_is_named(self, chords, extra):
        # walk 0-1-2-3-4-0 plus the chords in ``extra``
        g = Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)] + extra)
        with pytest.raises(CountingInconsistencyError,
                           match=rf"walk \(0,1,2,3,4\) has {chords} chords"):
            _walk_scan(g.rows, 5, [0])

    def test_quad_pair_unexpected_class(self):
        g = Graph.from_edges(
            6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0), (2, 5)]
        )
        with pytest.raises(CountingInconsistencyError, match="unexpected class"):
            _quad_pairs_at_edge(g.rows, 0, 1, [(2, 3), (4, 5)])

    def test_completion_not_n2(self, monkeypatch):
        # quadrilateral 0-1-2-3 with side apexes 4..7; apexes 4 and 5 adjacent
        g = Graph.from_edges(8, [
            (0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (5, 1), (5, 2),
            (6, 2), (6, 3), (7, 3), (7, 0), (4, 5),
        ])
        family_gate_off(monkeypatch)
        with pytest.raises(CountingInconsistencyError,
                           match=r"completion of \(0, 1, 2, 3\) on adjacent sides is not type n2"):
            count_n2(g)

    def test_completion_neither_prism_nor_n4(self, monkeypatch):
        # triangle 0,1,2; pendant 3 at 0; q = 4, r = 5; extra edge q-x
        g = Graph.from_edges(6, [
            (0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 1), (3, 5), (5, 2), (4, 0),
        ])
        family_gate_off(monkeypatch)
        with pytest.raises(CountingInconsistencyError, match="neither a prism nor type n4"):
            triangle_edge_completion_census(g)

    def test_pentagon_side_apex_inside(self):
        # 5-cycle with chord 0-2: the common neighbour of 0 and 1 is vertex 2
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        with pytest.raises(CountingInconsistencyError, match="lies inside pentagon"):
            _pentagon_n4_sides(g.rows, (0, 1, 2, 3, 4))


class TestNoCertificateLabelling:
    def test_ledger_and_pair_censuses_make_no_canonical_calls(self, monkeypatch, bvls):
        calls = []
        real = graph.canonical_code

        def counted(code, n):
            calls.append(n)
            return real(code, n)

        monkeypatch.setattr(graph, "canonical_code", counted)
        monkeypatch.setattr(graph, "_CODE_CACHE", {})
        monkeypatch.setattr(census, "_named_certs", None)
        assert run_all_checks(build_paley9()).passed
        disjoint_triangle_pair_census(bvls)
        quad_pair_census(bvls)
        assert calls == []
        named_type_certificates()  # the counter does see certificate labelling
        assert calls


class TestInvariantsWithoutAssert:
    def test_duplicate_named_certificates_raise(self, monkeypatch):
        edges = dict(census.NAMED_TYPE_EDGES)
        edges["twin"] = edges["n12"]
        monkeypatch.setattr(census, "NAMED_TYPE_EDGES", edges)
        monkeypatch.setattr(census, "_named_certs", None)
        with pytest.raises(CountingInconsistencyError, match="share a certificate"):
            named_type_certificates()

    def test_non_integral_newton_step_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "adjacency_traces", lambda g, m: (1,) + (0,) * (m - 1))
        with pytest.raises(CountingInconsistencyError, match="not integral at step 2"):
            charpoly_prefix(build_paley9())
