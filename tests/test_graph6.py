import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import raise_error, random_graph
from srg12 import graph6
from srg12.errors import Graph6Error
from srg12.graph import Graph


def test_known_small_encodings():
    # 5-cycle and complete graph on 4 vertices, standard encodings
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert graph6.encode(c5) == b"Dhc"
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert graph6.encode(k4) == b"C~"
    assert (graph6.decode(b"Dhc"), graph6.decode(b"C~")) == (c5, k4)
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


def test_load_file_decodes_only_the_first_graph(tmp_path, monkeypatch, paley9, k3):
    # a malformed line after the first graph fails nothing, and an error in
    # the first graph's line keeps that line's number
    path = tmp_path / "g.g6"
    path.write_bytes(b"\n \n" + graph6.encode(paley9) + b"\n" + graph6.encode(k3) + b"\nB~\n")
    decoded = []
    real = graph6.decode
    monkeypatch.setattr(graph6, "decode", lambda line: decoded.append(line) or real(line))
    assert graph6.load_file(path) == paley9
    assert decoded == [graph6.encode(paley9)]
    path.write_bytes(b"\r\n\nB~\n" + graph6.encode(paley9) + b"\n")
    with pytest.raises(Graph6Error) as info:
        graph6.load_file(path)
    assert (str(info.value), info.value.byte_index) == (
        "line 3: nonzero padding bits (byte 1)", None)


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


def test_networkx_agrees_on_random_graphs():
    # both order forms: up to 62 vertices the order is one byte, from 63 on
    # it is 126 and three more
    nx = pytest.importorskip("networkx")
    rng = random.Random(300)
    for n in [0, 1, 2, 62, 63, 300] + [rng.randint(0, 300) for _ in range(6)]:
        g = random_graph(rng, n, rng.random())
        theirs = nx.Graph()
        theirs.add_nodes_from(range(n))
        theirs.add_edges_from(g.edges())
        line = nx.to_graph6_bytes(theirs, header=False)
        assert graph6.encode(g) + b"\n" == line
        back = nx.from_graph6_bytes(line)
        assert list(back) == list(range(n))
        assert graph6.decode(line) == Graph.from_edges(n, back.edges())
    # networkx's lines of seeded graphs on 3 to 63 vertices with the last
    # byte set to each of 0x3c..0x81: read as networkx reads them where
    # networkx writes the same line back, else refused
    rng = random.Random(63)
    for n in (3, 4, 5, 8, 63):
        theirs = nx.Graph()
        theirs.add_nodes_from(range(n))
        theirs.add_edges_from(random_graph(rng, n, 0.5).edges())
        written = nx.to_graph6_bytes(theirs, header=False)[:-1]
        for last in range(0x3c, 0x82):
            line = written[:-1] + bytes([last])
            try:
                back = nx.from_graph6_bytes(line)
            except ValueError:  # a byte above 126
                back = None
            if back is not None and nx.to_graph6_bytes(back, header=False) == line + b"\n":
                ours = graph6.decode(line)
                assert (ours, graph6.encode(ours)) == (Graph.from_edges(n, back.edges()), line)
            else:
                with pytest.raises(Graph6Error):
                    graph6.decode(line)


# one row per ``raise Graph6Error`` in graph6.py, in source order: the call,
# its input, and the exact message and byte_index it raises; test_raises.py
# ties the rows to the raises
ERROR_ROWS = [
    ("decode", "Dh\u00e9", "non-ASCII character in graph6 text (byte 2)", 2),
    ("decode", b">>graph6<<\r\n", "empty graph6 line", None),
    ("decode", b"Dhcc", "graph6 body for n=5 needs 2 bytes, got 3 (byte 3)", 3),
    ("decode", b"G???\x7f?", "byte 0x7f outside graph6 range (byte 4)", 4),
    ("decode", b"Dhd", "nonzero padding bits (byte 2)", 2),
    ("decode", b"~~??????", "8-byte order form not supported (byte 0)", 0),
    ("decode", b"~?B", "truncated long-form order (byte 3)", 3),
    ("decode", b"~?B\x7f", "invalid long-form order byte (byte 1)", 1),
    ("decode", b"\x1cabc", "invalid order byte 0x1c (byte 0)", 0),
    ("decode", b":Fa@x^", "sparse6 input is not supported (byte 0)", 0),
    ("decode", b"&DOOOW?", "digraph6 input is not supported (byte 0)", 0),
    ("decode", b">>sparse6<<:Fa@x^", "sparse6 input is not supported (byte 0)", 0),
    ("decode", b">>digraph6<<&DOOOW?", "digraph6 input is not supported (byte 0)", 0),
    ("decode", b">>sparse6<<Dhc", "sparse6 input is not supported (byte 0)", 0),
    ("loads", b"Dhc\nB~\n", "line 2: nonzero padding bits (byte 1)", None),
    ("load_file", b"\n\n", "{path}: no graphs found", None),
]


@pytest.mark.parametrize("call, data, message, byte_index", ERROR_ROWS)
def test_error_message_and_offset(tmp_path, call, data, message, byte_index):
    exc, path = raise_error(tmp_path, call, data)
    assert (str(exc), exc.byte_index) == (message.format(path=path), byte_index)
