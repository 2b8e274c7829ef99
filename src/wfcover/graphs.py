"""Immutable bitset-backed simple graphs: families, graph6 I/O, components.

Vertices are always 0..order-1 and adjacency is stored as one bitmask per
vertex, which keeps subset work (components, forest tests) cheap.  Rows are
checked where they come from outside, in ``Graph(order, adj)``; the builders'
rows are valid by construction and are not checked again.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Iterable, Iterator

GRAPH6_MAX_ORDER = 62

# The default and cap of the enumeration bound that the CLI and a scan test;
# the queries and checks take graphs of any order.
DEFAULT_MAX_ORDER = 24

FAMILY_KINDS = ("path", "cycle", "complete", "empty", "fig1")

# The five-vertex example graph: a triangle a,d,e sharing the edge path
# a-b-c-d.  Vertex numbering is fixed as a=0, b=1, c=2, d=3, e=4.
FIG1_EDGES = ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (3, 4))


class FamilyError(ValueError):
    """Family parameter outside the generator's domain (e.g. a 2-cycle)."""


class EnumerationBoundError(ValueError):
    """Graph too large for exhaustive enumeration."""

    def __init__(self, order: int, bound: int) -> None:
        super().__init__(f"graph order {order} exceeds the enumeration bound {bound}")
        self.order = order
        self.bound = bound


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` locates the offending byte."""

    def __init__(self, message: str, offset: int | None = None) -> None:
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def is_int(value: object) -> bool:
    """Whether ``value`` is an ``int`` and not a ``bool``: Python counts
    ``True`` and ``False`` as ints, but no order, row, mask, vertex, family
    size or limit is one.  Every ``int`` field check calls this."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_vertex(v: object, order: int, name: str = "vertex") -> None:
    """Raise ValueError, naming ``v``, unless it is an ``int`` (``is_int``)
    in ``range(order)``: the check of a vertex that comes from outside."""
    if not is_int(v):
        raise ValueError(f"{name} is not an int: {v!r}")
    if not 0 <= v < order:
        raise ValueError(f"{name} {v} out of range for order {order}")


def _frozen_record(cls: type) -> type:
    """``dataclass(frozen=True)`` for a per-row record, with an ``__init__``
    that stores each field straight into the instance ``__dict__``, as
    unpickling does.

    A check builds a record per forest, condition row and witness, and the
    ``__init__`` that a frozen dataclass generates stores each field through
    ``object.__setattr__``.  This one is built from ``fields(cls)``, as
    ``dataclasses`` builds its own, with the same parameters, order and
    defaults; eq, hash, repr, freezing, pickling and ``replace`` are the
    dataclass's.  A field takes a plain default or none."""
    cls = dataclass(frozen=True, init=False)(cls)
    # each default is passed in by name, as dataclasses passes its own
    namespace = {f"_default_{f.name}": f.default for f in fields(cls) if f.default is not MISSING}
    params = [f.name if f.default is MISSING else f"{f.name}=_default_{f.name}" for f in fields(cls)]
    body = "".join(f"\n    state[{f.name!r}] = {f.name}" for f in fields(cls))
    exec(f"def __init__(self, {', '.join(params)}):\n    state = self.__dict__{body}", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on {0, ..., order-1}.

    ``adj[v]`` has bit u set iff uv is an edge.  Instances are immutable and
    hashable, so they can be shared freely across worker processes.  ``name``
    is a display label only, and ``factors`` is the pair (G, H) of a graph
    built by ``lexicographic``; neither takes part in equality.
    ``edge_count`` is counted once, when the graph is made.  ``Graph(order,
    adj)`` checks that ``order`` is an ``int`` (``is_int``: not a
    ``bool``), stores the rows as a tuple and checks that each is an
    ``int`` in range, loop-free and matched by its column; ``from_edges``,
    ``from_graph6`` and ``lexicographic`` build valid rows and skip that
    check.
    """

    order: int
    adj: tuple[int, ...]
    name: str | None = field(default=None, compare=False)
    factors: tuple[Graph, Graph] | None = field(default=None, compare=False, repr=False)
    edge_count: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not is_int(self.order):
            raise ValueError(f"order is not an int: {self.order!r}")
        if self.order < 1:
            raise ValueError("graphs must have at least one vertex")
        object.__setattr__(self, "adj", tuple(self.adj))
        if len(self.adj) != self.order:
            raise ValueError("adjacency row count must equal the order")
        full = (1 << self.order) - 1
        for v, row in enumerate(self.adj):
            if not is_int(row):
                raise ValueError(f"adjacency row {v} is not an int: {row!r}")
            if row & ~full:
                raise ValueError(f"adjacency row {v} mentions vertices outside the graph")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(self.order):
            for u in iter_bits(self.adj[v]):
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric between {u} and {v}")
        object.__setattr__(self, "edge_count", sum(row.bit_count() for row in self.adj) // 2)

    @classmethod
    def _built(
        cls, order: int, adj: tuple[int, ...], name: str | None = None, factors: tuple[Graph, Graph] | None = None
    ) -> Graph:
        """A graph on rows a builder made valid by construction, its fields
        set as unpickling sets them, without ``__post_init__``'s checks."""
        g = object.__new__(cls)
        edge_count = sum(row.bit_count() for row in adj) // 2
        vars(g).update(order=order, adj=adj, name=name, factors=factors, edge_count=edge_count)
        return g

    @classmethod
    def from_edges(
        cls, order: int, edges: Iterable[tuple[int, int]], name: str | None = None
    ) -> Graph:
        if not is_int(order):
            raise ValueError(f"order is not an int: {order!r}")
        if order < 1:
            raise ValueError("graphs must have at least one vertex")
        rows = [0] * order
        for u, v in edges:
            if not (is_int(u) and is_int(v)):
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u}, {v}) out of range for order {order}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._built(order, tuple(rows), name)

    @property
    def vertices_mask(self) -> int:
        return (1 << self.order) - 1

    def has_edge(self, u: int, v: int) -> bool:
        check_vertex(u, self.order)
        check_vertex(v, self.order)
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        check_vertex(v, self.order)
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.order):
            for rel in iter_bits(self.adj[u] >> (u + 1)):
                out.append((u, u + 1 + rel))
        return out


@dataclass(frozen=True, init=False)
class VertexSubset:
    """A subset of the vertices of a host graph of the given order; both
    ``order`` and ``mask`` must be ``int``s other than ``bool``s.

    ``__init__`` checks the fields, letting an exact ``int`` pass before
    calling ``is_int``, and then stores them as ``_frozen_record``'s do."""

    order: int
    mask: int

    def __init__(self, order: int, mask: int) -> None:
        if type(order) is not int and not is_int(order):
            raise ValueError(f"order is not an int: {order!r}")
        if type(mask) is not int and not is_int(mask):
            raise ValueError(f"mask is not an int: {mask!r}")
        if order < 1:
            raise ValueError("host order must be positive")
        if mask < 0 or mask >> order:
            raise ValueError("subset mentions vertices outside the host graph")
        state = self.__dict__
        state["order"] = order
        state["mask"] = mask

    @classmethod
    def from_vertices(cls, order: int, vertices: Iterable[int]) -> VertexSubset:
        if not is_int(order):
            raise ValueError(f"order is not an int: {order!r}")
        mask = 0
        for v in vertices:
            check_vertex(v, order)
            mask |= 1 << v
        return cls(order, mask)

    def vertices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.order and bool((self.mask >> v) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)


@dataclass(frozen=True)
class FamilySpec:
    """A named small-graph family instance, e.g. path:4 or fig1."""

    kind: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise FamilyError(f"unknown family kind {self.kind!r}")
        if self.kind == "fig1":
            if self.k is not None:
                raise FamilyError("fig1 takes no size parameter")
            return
        if not is_int(self.k) or self.k < 1:
            raise FamilyError(f"{self.kind} needs a positive size parameter")
        if self.kind == "cycle" and self.k < 3:
            raise FamilyError(f"cycles need at least 3 vertices, got {self.k}")

    def text(self) -> str:
        return self.kind if self.kind == "fig1" else f"{self.kind}:{self.k}"


def parse_family(text: str) -> FamilySpec:
    """Parse the CLI family syntax: path:4, cycle:5, empty:3, complete:4, fig1."""
    text = text.strip()
    if text == "fig1":
        return FamilySpec("fig1")
    kind, sep, raw = text.partition(":")
    if not sep:
        raise FamilyError(f"expected kind:size or fig1, got {text!r}")
    try:
        k = int(raw)
    except ValueError:
        raise FamilyError(f"size parameter must be an integer, got {raw!r}") from None
    return FamilySpec(kind, k)


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by a family spec, vertices in walk order."""
    if spec.kind == "fig1":
        return Graph.from_edges(5, FIG1_EDGES, name="fig1")
    k = spec.k
    assert k is not None
    name = spec.text()
    if spec.kind == "path":
        return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)], name=name)
    if spec.kind == "cycle":
        return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)], name=name)
    if spec.kind == "complete":
        return Graph.from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)], name=name)
    return Graph.from_edges(k, [], name=name)


def to_graph6(g: Graph) -> bytes:
    """Encode a graph in standard short-form graph6 (order at most 62)."""
    if g.order > GRAPH6_MAX_ORDER:
        raise Graph6Error(
            f"short-form graph6 supports at most {GRAPH6_MAX_ORDER} vertices, got {g.order}"
        )
    out = bytearray([g.order + 63])
    acc = 0
    nbits = 0
    for j in range(1, g.order):
        for i in range(j):
            acc = (acc << 1) | ((g.adj[j] >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


def from_graph6(data: bytes | str) -> Graph:
    """Decode a single header-free short-form graph6 record.

    The parser is strict: wrong length, out-of-range bytes, and nonzero
    padding bits are all rejected, so ``to_graph6(from_graph6(s)) == s``
    holds for every accepted input.
    """
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error("graph6 text must be ASCII", offset=exc.start) from None
    if not data:
        raise Graph6Error("empty graph6 record", offset=0)
    first = data[0]
    if first == 126:
        raise Graph6Error("long-form graph6 (order > 62) is not supported", offset=0)
    if not 63 <= first <= 126:
        raise Graph6Error(f"invalid order byte {first}", offset=0)
    n = first - 63
    if n < 1:
        raise Graph6Error("graphs must have at least one vertex", offset=0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) < 1 + need:
        raise Graph6Error(
            f"truncated record: expected {need} data bytes, got {len(data) - 1}",
            offset=len(data),
        )
    if len(data) > 1 + need:
        raise Graph6Error("trailing garbage after graph6 record", offset=1 + need)
    bits = 0
    for k in range(1, 1 + need):
        if not 63 <= data[k] <= 126:
            raise Graph6Error(f"invalid data byte {data[k]}", offset=k)
        bits = bits << 6 | data[k] - 63
    pad = 6 * need - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", offset=need)
    # the first bit written is the most significant: column j = 1..n-1, row i = 0..j-1
    pos = nbits + pad
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if bits >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph._built(n, tuple(rows))


def component_masks(g: Graph) -> list[int]:
    """Connected components as bitmasks, ordered by smallest member."""
    adj = g.adj
    comps = []
    rem = g.vertices_mask
    while rem:
        comp = 0
        frontier = rem & -rem
        while frontier:
            comp |= frontier
            step = 0
            for u in iter_bits(frontier):
                step |= adj[u]
            frontier = step & ~comp
        comps.append(comp)
        rem &= ~comp
    return comps
