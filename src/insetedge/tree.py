"""Tree representation, edge-list I/O, distances, and cycle anatomy.

Vertex ids are 0-based everywhere.  Cycle indices (the x_i / y_j positions
around the cycle created by a shortcut edge) are 1-based in the math but
stored 0-based in tuples: x_side[0] is the x anchor itself.

A Tree keeps its adjacency, in the order the edges were given, and one
depth-first pass rooted at vertex 0 (_root0), in preorder ranks, which
from_edges makes for its connectivity check: _path_sizes, anatomize,
wiener_tree_linear, the diameter and the search walk all read it, and no
other pass is made on a built tree except by bfs_distances.  Above 256
vertices every int in the two is one of n + 1 shared objects, so a tree
keeps about 140 bytes a vertex (64-bit CPython 3.11).  Two properties
are built on first use: the sorted edge tuple (edges), which equality,
hashing and serialize_tree read, and a diameter with its subtree sizes
(_diameter), which seeds best_edge.  A tree that is only swept,
searched by the exhaustive or pruned strategy or given to pruning_ratio
never builds edges.  delta_oracle, and with it the oracle strategy,
does: its one-entry cache of the tree's own sum is keyed by the tree's
value, whose hash reads edges.

A CycleAnatomy is a typing.NamedTuple, like delta.DeltaRecord, so
anatomize builds it with one tuple.__new__ and no Python frame: its
weights come from one map(sub, ...) over the path's sizes and each side,
the reversed y side too, is one slice made a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    AdjacentPair,
    DuplicateEdge,
    IdOutOfRange,
    MalformedLine,
    NotATree,
    SameVertex,
)


@dataclass(frozen=True, eq=False)
class Tree:
    """Immutable tree: n vertices 0..n-1, n-1 edges, connected.

    Built only by from_edges, which keeps adjacency in the order the edges
    were given and the pass rooted at vertex 0 (_root0).  edges, each as
    (min, max) and sorted, is built from adjacency on first use and then
    kept; no search, sweep or anatomize reads it.  Equal and hashed by (n,
    edges): adjacency and _root0 take no part.

    _root0 is that pass in preorder ranks: (order, rank, parent, size,
    leaf, depth).  Rank i is vertex order[i] and rank[v] is v's rank; the
    rest are indexed by rank: parent ranks (parent[0] == 0), subtree sizes
    (size[i] counts i and every rank below it), whether each is a leaf and
    its depth below vertex 0.  A parent comes before its children, and
    each subtree is the run of ranks from its root to its root + size - 1.
    Leaves come first among siblings: the l leaf children of rank i are
    the ranks i + 1 .. i + l.

    For n > 256 every int in adjacency and _root0 is one of n + 1 shared
    objects, one per value 0..n, so a value is stored once however often
    it appears (CPython already shares 0..256)."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    _root0: tuple[list[int], list[int], list[int], list[int], list[bool], list[int]] = field(repr=False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Tree":
        edge_list = [tuple(e) for e in edges]
        if len(edge_list) != n - 1:
            raise NotATree(f"{len(edge_list)} edges on {n} vertices")
        # one int object per value 0..n, which adjacency and, for n > 256,
        # the pass store (CPython already shares 0..256)
        ids = list(range(n + 1))
        seen = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_list:
            if not (0 <= u < n and 0 <= v < n):
                raise IdOutOfRange(f"edge ({u}, {v}) with n={n}")
            if u == v:
                raise NotATree(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdge(f"edge {key} repeated")
            seen.add(key)
            adj[u].append(ids[v])
            adj[v].append(ids[u])
        adjacency = tuple(map(tuple, adj))
        # free the lists and the key tuples before the pass: no field keeps them
        del adj, seen
        order, parent, rank = _rooted(adjacency, 0)
        # n-1 edges and no duplicates: connected iff acyclic
        if len(order) != n:
            raise NotATree(f"graph is disconnected ({len(order)} of {n} reached)")
        size = [1] * n
        for i in range(n - 1, 0, -1):
            size[parent[i]] += size[i]
        leaf = [len(adjacency[v]) == 1 for v in order]
        depth = _depths(parent)
        if n > 256:
            # order holds adjacency's ints already
            rank, parent, size, depth = (list(map(ids.__getitem__, a)) for a in (rank, parent, size, depth))
        return cls(n, adjacency, (order, rank, parent, size, leaf, depth))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge as (min, max), sorted."""
        return tuple(sorted([(u, v) for u, a in enumerate(self.adjacency) for v in a if u < v]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    @cached_property
    def _diameter(self) -> tuple[list[int], list[int]]:
        """One longest path p_0, ..., p_D (n >= 3, so D >= 2) and, with the
        tree rooted at p_D, the subtree size of each p_i: _path_sizes of
        its ends, found by one height pass over the kept root-0 pass, so
        no rooted pass is made.  Both ends are leaves, and no inner vertex
        of a path is one."""
        order, _, parent, _, _, _ = self._root0
        # in ranks: height[i] is how far below i its deepest rank merged so
        # far, deep[i], lies; children come after their parent
        height = [0] * self.n
        deep = list(range(self.n))
        longest, ends = 0, (0, 0)
        for i in range(self.n - 1, 0, -1):
            p = parent[i]
            h = height[i] + 1
            if height[p] + h > longest:
                longest, ends = height[p] + h, (deep[p], deep[i])
            if h > height[p]:
                height[p], deep[p] = h, deep[i]
        return _path_sizes(self, order[ends[0]], order[ends[1]])

    def check_ids(self, *ids: int) -> None:
        """Raise IdOutOfRange unless every id is a vertex 0..n-1."""
        for v in ids:
            if not 0 <= v < self.n:
                raise IdOutOfRange(f"vertex {v} with n={self.n}")


class CycleAnatomy(NamedTuple):
    """Decomposition of the cycle created by shortcut edge (x, y).

    k is the cycle length (tree distance + 1), k_prime = k // 2.  x_side
    holds the cycle vertices closer to x, ordered by distance from x
    (x_side[0] == x); y_side mirrors it.  middle is the equidistant cycle
    vertex, present exactly when k is odd.  weights_* are the sizes of the
    hanging subtrees (including the cycle vertex itself); they sum to n.
    A typing.NamedTuple, like delta.DeltaRecord: immutable and hashable.
    """

    x: int
    y: int
    k: int
    k_prime: int
    x_side: tuple[int, ...]
    y_side: tuple[int, ...]
    middle: Optional[int]
    weights_x: tuple[int, ...]
    weights_y: tuple[int, ...]
    weight_middle: Optional[int]


def _decimal_text(text: str) -> bool:
    """The one rule for integer text, in tree files and on the command
    line: ASCII with no '_'.  int() alone would also read '1_0' as 10,
    other scripts' digits and a no-break space between ids."""
    return text.isascii() and "_" not in text


def parse_tree(text: str) -> Tree:
    """Parse an edge-list document: header line n, then n-1 lines 'u v'.

    Rows end at LF; CRLF is accepted, as the CR is stripped with the rest
    of a row's surrounding whitespace.  Lines starting with '#' are
    comments and blank lines are skipped.  Every other row must pass
    _decimal_text, and its ids are split at ASCII whitespace, as str.split
    splits them: a tab, VT, FF, the separators 0x1c to 0x1f or a lone CR
    parts two ids as a space does, so rows that end at a lone CR run
    together into one.  The whole text is tested once, and each row only
    when the text fails, to find the row at fault.
    """
    rows = []
    for raw in text.split("\n"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise MalformedLine("empty document")
    plain = _decimal_text(text)
    # a wrong token count fails the unpacking, a non-integer token the int
    try:
        if not (plain or _decimal_text(rows[0])):
            raise ValueError
        (n,) = map(int, rows[0].split())
    except ValueError:
        raise MalformedLine(f"header must be a single integer, got {rows[0]!r}")
    if n < 1:
        raise MalformedLine(f"vertex count must be positive, got {n}")
    edges = []
    for line in rows[1:]:
        try:
            if not (plain or _decimal_text(line)):
                raise ValueError
            u, v = map(int, line.split())
        except ValueError:
            raise MalformedLine(f"expected 'u v', got {line!r}")
        edges.append((u, v))
    return Tree.from_edges(n, edges)


def serialize_tree(tree: Tree) -> str:
    """Emit the canonical edge-list document: LF, header, edges sorted by (min, max)."""
    return _edge_document(tree.n, tree.edges)


def _edge_document(n: int, edges: Iterable[tuple[int, int]]) -> str:
    """The edge-list document of n vertices and the given edges, in order."""
    lines = [str(n)]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def _rooted(adjacency: Sequence[Sequence[int]], root: int) -> tuple[list[int], list[int], list[int]]:
    """One depth-first pass from root, in preorder ranks: the order
    (rank i is vertex order[i]), parent ranks (parent[0] == 0) and rank
    (vertex -> rank, -1 for vertices not reached).  Every vertex comes
    after its parent and each subtree is a contiguous run of ranks.  A
    vertex's leaf children (degree 1) come first, right after it, in
    adjacency order; its other children follow in reverse adjacency
    order."""
    # rank doubles as the visited mark: a pushed vertex holds its parent's
    # rank until it is popped
    rank = [-1] * len(adjacency)
    rank[root] = 0
    order: list[int] = []
    parent: list[int] = []
    stack = [root]
    while stack:
        u = stack.pop()
        i = len(order)
        parent.append(rank[u])
        rank[u] = i
        order.append(u)
        for w in adjacency[u]:
            if rank[w] < 0:
                if len(adjacency[w]) == 1:
                    # a leaf child has nothing below it: it takes the next
                    # rank at once, as if pushed last and popped first
                    rank[w] = len(order)
                    parent.append(i)
                    order.append(w)
                else:
                    rank[w] = i
                    stack.append(w)
    return order, parent, rank


def _depths(parent: list[int]) -> list[int]:
    """Depth below the root of each rank, from the parent ranks of a pass."""
    depth = [0] * len(parent)
    for i in range(1, len(parent)):
        depth[i] = depth[parent[i]] + 1
    return depth


def wiener_tree_linear(tree: Tree) -> int:
    """O(n) Wiener sum for a tree: the edge above each non-root v splits the
    tree into parts of sizes size(v) and n - size(v), and contributes
    size(v) * (n - size(v))."""
    n = tree.n
    # the root's own term is n * 0
    return sum(s * (n - s) for s in tree._root0[3])


def bfs_distances(tree: Tree, source: int) -> list[int]:
    """Distances from source to every vertex."""
    tree.check_ids(source)
    _, parent, rank = _rooted(tree.adjacency, source)
    depth = _depths(parent)
    return [depth[i] for i in rank]


def _check_pair(tree: Tree, x: int, y: int) -> None:
    """The one check of an inset edge (x, y), which every route to the
    savings and oracle.tree_plus_edge make: raise SameVertex, then
    IdOutOfRange, then AdjacentPair unless x and y are distinct vertices
    with d_T(x, y) >= 2.  It reads only the adjacency."""
    if x == y:
        raise SameVertex(f"x == y == {x}")
    tree.check_ids(x, y)
    if y in tree.adjacency[x]:
        raise AdjacentPair(f"({x}, {y}) is an edge of the tree")


def _path_sizes(tree: Tree, x: int, y: int) -> tuple[list[int], list[int]]:
    """The path x = v_0, ..., v_{k-1} = y and, with the tree rooted at y,
    the subtree size of each v_i (the last is n).  O(k): x and y climb the
    kept root-0 pass to their lowest common ancestor a.  Below a on x's
    side, rooting at y leaves a vertex's subtree as it is; from a toward y,
    a vertex's subtree is everything outside the root-0 subtree of its
    successor on the path.  _check_pair checks the pair first, so the
    path has k >= 3 vertices."""
    _check_pair(tree, x, y)
    order, rank, parent, size, _, _ = tree._root0
    a, b = rank[x], rank[y]
    up, down = [a], [b]
    # a proper ancestor has the smaller rank, so the later side never
    # climbs past the common ancestor
    while a != b:
        if a > b:
            a = parent[a]
            up.append(a)
        else:
            b = parent[b]
            down.append(b)
    # up ends with a, and down (reversed) runs from a to y
    del up[-1]
    down.reverse()
    n = tree.n
    sizes = [size[i] for i in up]
    sizes += [n - size[i] for i in down[1:]]
    sizes.append(n)
    return [order[i] for i in up + down], sizes


def anatomize(tree: Tree, x: int, y: int) -> CycleAnatomy:
    """Cycle anatomy for candidate shortcut edge (x, y).

    Requires d_T(x, y) >= 2 so the added edge creates a simple cycle of
    length k >= 3.  With the tree rooted at y, the subtree of path vertex
    v_i holds exactly the components hanging off v_0 = x .. v_i, so the
    hanging weights are w(x) = size(x) and w(v_i) = size(v_i) -
    size(v_{i-1}).
    """
    path, size = _path_sizes(tree, x, y)
    k = len(path)
    kp = k // 2
    # a list: built as tuple(map(...)) on every call, the weights raised
    # the benchmark's verify-audit peak RSS by about 2.5 MiB, growing with
    # the number of calls
    weight = list(map(sub, size, [0, *size]))
    if k % 2:
        middle, weight_middle = path[kp], weight[kp]
    else:
        middle = weight_middle = None
    # each y side is the last k' entries, read backwards
    return tuple.__new__(
        CycleAnatomy,
        (
            x,
            y,
            k,
            kp,
            tuple(path[:kp]),
            tuple(path[: -kp - 1 : -1]),
            middle,
            tuple(weight[:kp]),
            tuple(weight[: -kp - 1 : -1]),
            weight_middle,
        ),
    )


def leaves(tree: Tree) -> set[int]:
    """All vertices of degree 1."""
    return {v for v in range(tree.n) if len(tree.adjacency[v]) == 1}
