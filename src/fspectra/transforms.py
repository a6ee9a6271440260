"""Graph transformations: edge subdivision and the Kelmans operation."""

from dataclasses import dataclass

from .errors import BadParams, Disconnected, NoCycle
from .graph_core import (
    Graph,
    degrees,
    fundamental_cycles,
    is_connected,
    subdivided,
)
from .spectral import f_spectral_radius
from .weights import eval_weight


@dataclass
class KelmansResult:
    """Outcome of a Kelmans operation.

    The spectral-radius increase guarantee only applies when the input
    endpoints were nonadjacent and the result is connected and not
    isomorphic to the input; the flags record all three conditions.
    """

    graph: Graph
    moved: tuple
    connected: bool
    isomorphic_to_input: bool
    endpoints_nonadjacent: bool


def kelmans(G, u, v):
    """Transfer every edge uw with w a private neighbor of u over to v.

    Private means w is adjacent to u but neither equal nor adjacent to v.
    The edge count is preserved; u keeps its edges to v and to common
    neighbors.

    With p = |moved| and q the number of neighbors w != u of v not adjacent
    to u, the move changes the degree-square sum by 2pq. So p, q > 0 means
    the result is not isomorphic to G; p = 0 leaves G unchanged, and q = 0
    makes the transposition (u v) an isomorphism from G onto the result.
    """
    if u == v:
        raise BadParams("kelmans needs two distinct vertices")
    if not (0 <= u < G.n and 0 <= v < G.n):
        raise BadParams("vertices outside graph range")
    moved = tuple(
        sorted(w for w in G.adj[u] if w != v and not G.has_edge(v, w))
    )
    edges = set(G.edges)
    for w in moved:
        edges.discard((min(u, w), max(u, w)))
        edges.add((min(v, w), max(v, w)))
    G2 = Graph(G.n, edges)
    q = sum(1 for w in G.adj[v] if w != u and not G.has_edge(u, w))
    return KelmansResult(
        graph=G2,
        moved=moved,
        connected=is_connected(G2),
        isomorphic_to_input=not moved or q == 0,
        endpoints_nonadjacent=not G.has_edge(u, v),
    )


def best_cycle_subdivision(G, f):
    """Subdivide a cycle edge chosen so the Perron value does not increase.

    Works for weight functions increasing in x. On the chosen cycle
    (shortest fundamental cycle, ties by smallest vertex set) the vertex v
    minimizing f(d_v, 2) * x_v is located, where x is the principal
    eigenvector; the edge from v to its smaller-indexed cycle neighbor is
    subdivided. Returns (edge, subdivided graph).
    """
    try:
        cycles = fundamental_cycles(G)
    except Disconnected:
        raise NoCycle("cycle subdivision needs a connected graph with a cycle") from None
    if not cycles:
        raise NoCycle("graph has no cycle")
    cycle = min(cycles, key=lambda c: (len(c), sorted(set(c))))
    ring = cycle[:-1]  # vertex sequence without the closing repeat

    x = f_spectral_radius(G, f).vector
    degs = degrees(G)
    scores = {w: eval_weight(f, degs[w], 2) * x[w] for w in ring}
    pivot = min(ring, key=lambda w: (scores[w], w))
    i = ring.index(pivot)
    neighbors = (ring[(i - 1) % len(ring)], ring[(i + 1) % len(ring)])
    other = min(neighbors)
    edge = (min(pivot, other), max(pivot, other))
    return edge, subdivided(G, edge)
