import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_graph
from srg12 import graph6
from srg12.errors import Graph6Error
from srg12.graph import Graph


def test_known_small_encodings():
    # 5-cycle and complete graph on 4 vertices, standard encodings
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert graph6.encode(c5) == b"Dhc"
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert graph6.encode(k4) == b"C~"
    empty = Graph(0, ())
    assert graph6.encode(empty) == b"?"


def test_roundtrip_random_graphs():
    rng = random.Random(1)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 20), rng.random())
        assert graph6.decode(graph6.encode(g)) == g


def test_long_form_order_field(bvls):
    data = graph6.encode(bvls)
    assert data[:4] == b"~?Br"  # 126 marker then 243 in three 6-bit digits
    assert graph6.decode(data) == bvls


def test_header_and_newline_tolerated(paley9):
    data = b">>graph6<<" + graph6.encode(paley9) + b"\n"
    assert graph6.decode(data) == paley9


def test_malformed_inputs():
    with pytest.raises(Graph6Error):
        graph6.decode(b"")
    with pytest.raises(Graph6Error):
        graph6.decode(b"\x1cabc")  # order byte below printable range
    with pytest.raises(Graph6Error):
        graph6.decode(b"D")  # truncated body for n=5
    with pytest.raises(Graph6Error):
        graph6.decode(b"B~")  # nonzero padding bits for n=3


def test_non_ascii_text_rejected():
    with pytest.raises(Graph6Error, match="non-ASCII"):
        graph6.decode("\u00e9")
    with pytest.raises(Graph6Error, match="non-ASCII"):
        graph6.loads("Dhc\nD\u00e9")


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=40), st.text(max_size=40)))
def test_decode_raises_only_graph6_error(data):
    try:
        g = graph6.decode(data)
    except Graph6Error:
        return
    assert isinstance(g, Graph)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 70))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for t, p in enumerate(pairs) if bits >> t & 1])


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_encode_decode_roundtrip(g):
    data = graph6.encode(g)
    assert len(data) == (1 if g.order <= 62 else 4) + (g.order * (g.order - 1) // 2 + 5) // 6
    assert graph6.decode(data) == g


def test_file_roundtrip(tmp_path, paley9):
    path = tmp_path / "g.g6"
    graph6.save_file(path, paley9)
    assert graph6.load_file(path) == paley9


def test_loads_multiple_lines(paley9, k3):
    text = graph6.encode(paley9) + b"\n" + graph6.encode(k3) + b"\n\n"
    assert graph6.loads(text) == [paley9, k3]


def test_loads_reports_failing_line(paley9):
    text = graph6.encode(paley9) + b"\nB~\n"
    with pytest.raises(Graph6Error, match="line 2"):
        graph6.loads(text)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.g6"
    path.write_bytes(b"")
    with pytest.raises(Graph6Error):
        graph6.load_file(path)


def test_networkx_cross_compatibility(paley9, bvls):
    nx = pytest.importorskip("networkx")
    for g in (paley9, bvls):
        theirs = nx.from_graph6_bytes(graph6.encode(g))
        assert theirs.number_of_nodes() == g.order
        assert theirs.number_of_edges() == g.num_edges
        assert all(theirs.has_edge(u, v) for u, v in g.edges())
        ours = graph6.decode(nx.to_graph6_bytes(theirs, header=False).strip())
        assert ours == g
