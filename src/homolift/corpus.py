"""Bundled example maps in `.gm` form.

All examples live on roses (one vertex), where the arc-decoration calculus
is exact on the nose; covers of them exercise the multi-vertex machinery.
"""

from .graphs import parse_graph_map

CORPUS = {
    "example_s3": (
        "inner twist on the 2-rose: conjugation by the second petal; "
        "identity on homology, growth rate 1",
        """vertices: v
edges: a: v -> v ; b: v -> v
base: v
map a -> b a B
map b -> b
""",
    ),
    "golden_mean": (
        "golden-mean map on the 2-rose: hyperbolic homology action, "
        "certificate already on the base",
        """vertices: v
edges: a: v -> v ; b: v -> v
base: v
map a -> a b
map b -> a
""",
    ),
    "identity": (
        "identity on the 2-rose",
        """vertices: v
edges: a: v -> v ; b: v -> v
base: v
map a -> a
map b -> b
""",
    ),
    "unipotent_silver": (
        "train-track map on the 3-rose with unipotent homology action and "
        "growth 1+sqrt(2); a degree-2 cover certifies",
        """vertices: v
edges: a: v -> v ; b: v -> v ; c: v -> v
base: v
map a -> a b a
map b -> b C
map c -> b a
""",
    ),
    "unipotent_rank2": (
        "3-rose map with unipotent homology action and rank-2 dynamical "
        "quotient; a degree-4 cover certifies",
        """vertices: v
edges: a: v -> v ; b: v -> v ; c: v -> v
base: v
map a -> c a C
map b -> b
map c -> c A B
""",
    ),
}


def names():
    return sorted(CORPUS)


def description(name):
    return CORPUS[name][0]


def text(name):
    return CORPUS[name][1]


def load(name):
    return parse_graph_map(CORPUS[name][1])

