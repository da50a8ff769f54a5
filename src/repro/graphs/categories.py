"""Category forests (semantic hierarchies) and Wu–Palmer similarity.

The paper attaches every PoI to a single category drawn from a *forest* of
category trees (Foursquare's 10 top-level trees for Tokyo/NYC; a generated
height-3 / fanout-3 forest for the Cal dataset).  Similarity between two
categories (Eq. 6) is Wu–Palmer over the forest:

    sim(c, c') = 2 * d(lca(c, c')) / (d(c) + d(c'))      same tree
    sim(c, c') = 0                                       different trees
    sim(c, c)  = 1

Depth ``d`` counts the root as depth 1, so two distinct children of a root
get ``sim = 2*1/(2+2) = 0.5``.  (Eq. 6 writes a max over ancestors of ``c'``
of the deepest common ancestor of ``c`` and that ancestor; since the common
ancestors of ``c`` and any ancestor of ``c'`` are a subset of those of
``c`` and ``c'``, the max is attained at ``c'`` itself and the expression
reduces to the LCA form implemented here.)  :meth:`CategoryForest.sim_row`
computes it for every category against one, from an ancestor-at-depth
table built with the forest; footnote 2's delta reads that row, and
:meth:`CategoryForest.in_subtree` reads the table itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CategoryForest:
    """A forest of rooted category trees.

    Attributes
    ----------
    parent:
        ``parent[c]`` is the parent category id of ``c`` or ``-1`` for roots.
    tree_id:
        ``tree_id[c]`` is the id of the tree containing ``c``.
    depth:
        ``depth[c]`` with roots at depth 1 (Wu–Palmer convention used here).
    name:
        Human-readable category names (used by the Table 9 usecase job).
    """

    parent: list[int]
    tree_id: list[int]
    depth: list[int]
    name: list[str]
    _depth: np.ndarray = field(init=False, repr=False)  # ``depth`` as int64
    # _anc[d - 1, c]: the ancestor of c at depth d, -1 for d > depth[c]
    _anc: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Built with the forest, like a graph's CSR, so no engine pays for
        # it on its first call (Table 6 traces each engine's allocations).
        parent = np.asarray(self.parent, dtype=np.int64)
        depth = self._depth = np.asarray(self.depth, dtype=np.int64)
        self._anc = np.full((int(depth.max(initial=0)), len(parent)), -1, dtype=np.int64)
        cats = up = np.arange(len(parent))
        while len(up):  # one step up every category's chain at a time
            self._anc[depth[up] - 1, cats] = up
            keep = parent[up] != -1
            cats, up = cats[keep], parent[up[keep]]

    # ---------------------------------------------------------------- basics
    @property
    def n_categories(self) -> int:
        return len(self.parent)

    def ancestors(self, c: int) -> tuple[int, ...]:
        """Ancestors of ``c`` from ``c`` itself up to its root (inclusive)."""
        return tuple(self._anc[self.depth[c] - 1 :: -1, c].tolist())

    def leaves(self) -> list[int]:
        has_child = [False] * self.n_categories
        for p in self.parent:
            if p != -1:
                has_child[p] = True
        return [c for c in range(self.n_categories) if not has_child[c]]

    @property
    def n_trees(self) -> int:
        return len({t for t in self.tree_id})

    # ---------------------------------------------------------- similarity
    def sim_row(self, c: int) -> np.ndarray:
        """Wu–Palmer similarity (Eq. 6) of every category to ``c``, as one
        float64 per category: 0 across trees, 1 at ``c`` itself.

        Two chains agree from the root down to their deepest common
        ancestor and nowhere below it, so the LCA's depth is the number of
        depths ``<= depth[c]`` at which a category's ancestor is ``c``'s.
        """
        d = self.depth[c]
        lca_depth = np.count_nonzero(self._anc[:d] == self._anc[:d, c, None], axis=0)
        return 2.0 * lca_depth / (self._depth + d)

    @staticmethod
    def max_nonperfect(row: np.ndarray) -> float:
        """Largest entry below 1 of a :meth:`sim_row`, 0 if there is none.

        This is the paper's footnote-2 quantity behind the minimum semantic
        increment delta of Lemma 5.8: if a route cannot match position ``i``
        perfectly, the factor it contributes is at most this value.
        """
        return float(row[row < 1.0].max(initial=0.0))

    def in_subtree(self, anc: int) -> np.ndarray:
        """One bool per category: true when ``anc`` is the category or one
        of its ancestors, read from the ancestor-at-depth table."""
        return self._anc[self.depth[anc] - 1] == anc


# ------------------------------------------------------------ constructors
def build_forest(tree_specs: list[tuple[str, list[tuple[str, int]]]]) -> CategoryForest:
    """Build a forest from ``[(root_name, [(mid_name, n_leaves), ...]), ...]``.

    Every tree is root -> mids -> leaves (depth 3).  A tree with an empty mid
    list is a single root (depth-1 tree).
    """
    parent: list[int] = []
    tree_id: list[int] = []
    depth: list[int] = []
    name: list[str] = []
    for t, (root_name, mids) in enumerate(tree_specs):
        root = len(parent)
        parent.append(-1)
        tree_id.append(t)
        depth.append(1)
        name.append(root_name)
        for mid_name, n_leaves in mids:
            mid = len(parent)
            parent.append(root)
            tree_id.append(t)
            depth.append(2)
            name.append(mid_name)
            for j in range(n_leaves):
                parent.append(mid)
                tree_id.append(t)
                depth.append(3)
                name.append(f"{mid_name} / leaf {j}")
    return CategoryForest(parent, tree_id, depth, name)


_FOURSQUARE_LITE_SPECS: list[tuple[str, list[tuple[str, int]]]] = [
    ("Food", [("Asian Restaurant", 6), ("European Restaurant", 6), ("Dessert Shop", 6), ("Cafe", 6)]),
    ("Shop & Service", [("Gift Shop", 6), ("Clothing Store", 6), ("Food & Drink Shop", 6), ("Hobby Shop", 6)]),
    ("Arts & Entertainment", [("Museum", 6), ("Music Venue", 6), ("Theater", 6), ("Stadium", 6)]),
    ("Nightlife Spot", [("Bar", 6), ("Brewery", 6), ("Lounge", 6), ("Nightclub", 6)]),
    ("Outdoors & Recreation", [("Park", 6), ("Athletics & Sports", 6), ("Harbor", 6), ("Trail", 6)]),
    ("College & University", [("Academic Building", 6), ("Student Center", 6), ("Lab", 6), ("Library", 6)]),
    ("Event", [("Festival", 6), ("Market", 6), ("Parade", 6), ("Conference", 6)]),
    ("Professional & Other", [("Office", 6), ("Medical Center", 6), ("Factory", 6), ("Government", 6)]),
    ("Residence", [("Home", 6), ("Apartment", 6), ("Dorm", 6), ("Housing Dev", 6)]),
    ("Travel & Transport", [("Airport", 6), ("Train Station", 6), ("Hotel", 6), ("Pier", 6)]),
]


def foursquare_lite_forest() -> CategoryForest:
    """10 depth-3 trees mirroring Foursquare's 10 top-level categories.

    Used by the ``tokyo-lite`` and ``nyc-lite`` presets (the paper attaches
    Foursquare's 10 category trees to those maps).
    """
    return build_forest(_FOURSQUARE_LITE_SPECS)


def generated_forest(n_trees: int, fanout: int = 3, height: int = 3) -> CategoryForest:
    """Uniform generated forest, used by ``cal-lite``.

    The paper's Cal PoIs carry no hierarchy, so the authors "generate a
    category of height three where a non-leaf node has three child nodes"
    (footnote 5); 49 such trees give 637 categories ~= the dataset's 635.
    """
    parent: list[int] = []
    tree_id: list[int] = []
    depth: list[int] = []
    name: list[str] = []

    def add(t: int, p: int, d: int, label: str) -> int:
        idx = len(parent)
        parent.append(p)
        tree_id.append(t)
        depth.append(d)
        name.append(label)
        return idx

    for t in range(n_trees):
        frontier = [add(t, -1, 1, f"T{t}")]
        for d in range(2, height + 1):
            nxt = []
            for f in frontier:
                for j in range(fanout):
                    nxt.append(add(t, f, d, f"{name[f]}.{j}"))
            frontier = nxt
    return CategoryForest(parent, tree_id, depth, name)

