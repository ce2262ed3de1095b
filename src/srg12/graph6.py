"""graph6 encoder/decoder, byte-compatible with the de facto format.

Supports the short order field (n <= 62) and the 4-byte long form
(63 <= n <= 258047), which covers every graph this package constructs.
The optional ``>>graph6<<`` header is tolerated on input and never written.
"""

from __future__ import annotations

from .errors import Graph6Error
from .graph import Graph

_HEADER = b">>graph6<<"
_LONG_FORM_MAX = 258047


def encode(g: Graph) -> bytes:
    """Encode a graph as one graph6 line (without trailing newline)."""
    n = g.order
    out = bytearray(_encode_order(n))
    bit_buffer = 0
    nbits = 0
    rows = g.rows
    # upper triangle, column by column: x(0,1), x(0,2), x(1,2), x(0,3), ...
    for j in range(1, n):
        col = rows[j]
        for i in range(j):
            bit_buffer = bit_buffer << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(bit_buffer + 63)
                bit_buffer = 0
                nbits = 0
    if nbits:
        out.append((bit_buffer << (6 - nbits)) + 63)
    return bytes(out)


def _encode_order(n: int) -> bytes:
    if n < 0:
        raise ValueError("order must be non-negative")
    if n <= 62:
        return bytes([n + 63])
    if n <= _LONG_FORM_MAX:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise ValueError(f"order {n} beyond supported graph6 range")


def _ascii(text: str) -> bytes:
    try:
        return text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII character in graph6 text",
                          byte_index=exc.start) from None


def decode(data) -> Graph:
    """Decode one graph6 line (bytes or str) into a Graph."""
    if isinstance(data, str):
        data = _ascii(data)
    if data.startswith(_HEADER):
        data = data[len(_HEADER):]
    data = data.rstrip(b"\r\n")
    if not data:
        raise Graph6Error("empty graph6 line")
    n, body_start = _decode_order(data)
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    body = data[body_start:]
    if len(body) != need_bytes:
        raise Graph6Error(
            f"graph6 body for n={n} needs {need_bytes} bytes, got {len(body)}",
            byte_index=body_start + min(len(body), need_bytes),
        )
    rows = [0] * n
    pos = 0  # index into the bit stream
    i, j = 0, 1  # current upper-triangle pair, column-major order
    for offset, byte in enumerate(body):
        value = byte - 63
        if not 0 <= value <= 63:
            raise Graph6Error(
                f"byte 0x{byte:02x} outside graph6 range",
                byte_index=body_start + offset,
            )
        for b in range(5, -1, -1):
            if pos >= need_bits:
                if value >> b & 1:
                    raise Graph6Error(
                        "nonzero padding bits", byte_index=body_start + offset
                    )
                continue
            if value >> b & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
            i += 1
            if i == j:
                i = 0
                j += 1
    return Graph(n, tuple(rows))


def _decode_order(data: bytes):
    first = data[0]
    if first == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte order form not supported", byte_index=0)
        if len(data) < 4:
            raise Graph6Error("truncated long-form order", byte_index=len(data))
        vals = [b - 63 for b in data[1:4]]
        if any(not 0 <= v <= 63 for v in vals):
            raise Graph6Error("invalid long-form order byte", byte_index=1)
        return (vals[0] << 12 | vals[1] << 6 | vals[2], 4)
    value = first - 63
    if not 0 <= value <= 62:
        raise Graph6Error(f"invalid order byte 0x{first:02x}", byte_index=0)
    return value, 1


def loads(text) -> list[Graph]:
    """Decode every non-empty line of a graph6 file body."""
    if isinstance(text, bytes):
        lines = text.splitlines()
    else:
        lines = _ascii(text).splitlines()
    graphs = []
    for idx, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            graphs.append(decode(line))
        except Graph6Error as exc:
            raise Graph6Error(f"line {idx + 1}: {exc}") from exc
    return graphs


def load_file(path) -> Graph:
    """Read the first graph of a graph6 file."""
    with open(path, "rb") as fh:
        data = fh.read()
    graphs = loads(data)
    if not graphs:
        raise Graph6Error(f"{path}: no graphs found")
    return graphs[0]


def save_file(path, g: Graph) -> None:
    with open(path, "wb") as fh:
        fh.write(encode(g) + b"\n")
