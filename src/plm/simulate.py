"""Linear-Gaussian structural causal model fixtures.

Generates synthetic datasets for each supported placebo graph, with the
unobserved confounders included as columns so validation code can run the
long regressions the real world forbids. The implied covariance matrix is
available in closed form, giving an independent oracle for population-level
quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InvalidRecipe
from .regression import Dataset

# Each supported graph: its observed nodes in causal order, and its edges
# that do not start at z; every graph also has an edge from z to each node
# (GRAPH_EDGES holds all of them). Nodes: z (confounders), d (treatment),
# y (outcome), p (single placebo), n (the double-placebo graphs' placebo
# outcome). A node's column is its letter in upper case.
_GRAPHS: dict[str, tuple[str, tuple[str, ...]]] = {
    "a": ("dpy", ("d->y",)),
    "b": ("dpy", ("d->y", "d->p")),
    "c": ("dpy", ("d->y", "p->y")),
    "d": ("dpy", ("d->y", "d->p", "p->y")),
    "e": ("pdy", ("d->y", "p->d")),
    "f": ("pdy", ("d->y", "p->d", "p->y")),
    "g": ("dyp", ("d->y", "y->p")),
    "h": ("dyp", ("d->y", "d->p", "y->p")),
    "double_a": ("pdny", ("d->y",)),
    "double_b": ("pdny", ("d->y", "d->n", "p->y")),
}
GRAPH_EDGES: dict[str, frozenset[str]] = {
    case: frozenset({*(f"z->{node}" for node in nodes), *edges})
    for case, (nodes, edges) in _GRAPHS.items()}


@dataclass(frozen=True)
class SCMRecipe:
    """Recipe for one synthetic draw.

    ``coefficients`` maps edges like ``"z->d"`` to values; edges from z may
    carry a sequence of length ``z_dim`` (a scalar is broadcast). Edges
    present in the graph but absent from the map default to 1.0.
    ``noise_sd`` is a scalar for all nodes or a map from node letter
    (``z``, ``d``, ``p``, ``y``, ``n``) to its noise standard deviation.
    """

    n: int
    graph_case: str
    coefficients: Mapping[str, object] = field(default_factory=dict)
    z_dim: int = 1
    noise_sd: object = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.graph_case not in GRAPH_EDGES:
            raise InvalidRecipe(
                f"unknown graph case {self.graph_case!r}; expected one of "
                f"{sorted(GRAPH_EDGES)}"
            )
        if self.n < 1:
            raise InvalidRecipe("n must be at least 1")
        if self.seed < 0:
            raise InvalidRecipe("seed must be non-negative")
        if self.z_dim < 1:
            raise InvalidRecipe("z_dim must be at least 1")
        allowed = GRAPH_EDGES[self.graph_case]
        for edge, value in self.coefficients.items():
            if edge not in allowed:
                raise InvalidRecipe(
                    f"edge {edge!r} is not part of graph "
                    f"{self.graph_case!r} (allowed: {sorted(allowed)})"
                )
            if not np.isfinite(np.asarray(value, dtype=np.float64)).all():
                raise InvalidRecipe(
                    f"edge {edge!r} coefficients must be finite, got {value}")
        object.__setattr__(self, "coefficients", dict(self.coefficients))
        nodes = {"z", *_GRAPHS[self.graph_case][0]}
        if isinstance(self.noise_sd, Mapping):
            for node, sd in self.noise_sd.items():
                if node not in nodes:
                    raise InvalidRecipe(
                        f"noise_sd names unknown node {node!r}"
                    )
                self._check_sd(sd)
            object.__setattr__(self, "noise_sd", dict(self.noise_sd))
        else:
            self._check_sd(self.noise_sd)

    @staticmethod
    def _check_sd(sd) -> None:
        sd = float(sd)
        if not np.isfinite(sd) or sd < 0:
            raise InvalidRecipe(f"noise sd must be finite and >= 0, got {sd}")

    def edge_weights(self, edge: str) -> np.ndarray:
        """Coefficient(s) for an edge, z-edges expanded to length z_dim."""
        value = self.coefficients.get(edge, 1.0)
        if edge.startswith("z->"):
            arr = np.asarray(value, dtype=np.float64)
            if arr.ndim == 0:
                return np.full(self.z_dim, float(arr))
            if arr.shape != (self.z_dim,):
                raise InvalidRecipe(
                    f"edge {edge!r} needs {self.z_dim} coefficients, "
                    f"got shape {arr.shape}"
                )
            return arr
        return np.asarray([float(value)])

    def node_sd(self, node: str) -> float:
        if isinstance(self.noise_sd, Mapping):
            return float(self.noise_sd.get(node, 1.0))
        return float(self.noise_sd)


def _scalar_names(recipe: SCMRecipe) -> tuple[str, ...]:
    z_names = tuple(f"Z{i + 1}" for i in range(recipe.z_dim))
    return z_names + tuple(_GRAPHS[recipe.graph_case][0].upper())


def _structural_matrices(recipe: SCMRecipe):
    """Path-coefficient matrix B and noise SD vector over scalar nodes."""
    names = _scalar_names(recipe)
    index = {name: i for i, name in enumerate(names)}
    m = len(names)
    b = np.zeros((m, m))
    edges = GRAPH_EDGES[recipe.graph_case]
    for edge in sorted(edges):
        src, dst = edge.split("->")
        weights = recipe.edge_weights(edge)
        dst_i = index[dst.upper()]
        if src == "z":
            for j, w in enumerate(weights):
                b[dst_i, index[f"Z{j + 1}"]] = w
        else:
            b[dst_i, index[src.upper()]] = float(weights[0])
    sds = np.array([recipe.node_sd("z" if name.startswith("Z")
                                   else name.lower()) for name in names])
    return names, b, sds


def simulate_scm(recipe: SCMRecipe) -> Dataset:
    """Draw one dataset from the recipe's linear-Gaussian model.

    Columns are ``Z1..Zk`` plus the graph's nodes (``D``, ``P``, ``Y``, and
    ``N`` for double-placebo graphs). Same seed, same bytes.
    """
    names, b, sds = _structural_matrices(recipe)
    rng = np.random.default_rng(recipe.seed)
    n = recipe.n
    values = np.zeros((n, len(names)))
    for i, name in enumerate(names):
        noise = rng.standard_normal(n) * sds[i]
        values[:, i] = values @ b[i] + noise
    return Dataset({name: values[:, i] for i, name in enumerate(names)})


def recipe_covariance(recipe: SCMRecipe):
    """Exact covariance implied by the recipe.

    Returns (names, sigma) where sigma solves the usual linear-SCM relation
    sigma = (I - B)^-1 Omega (I - B)^-T with Omega the diagonal of noise
    variances. Serves as the population oracle for simulated draws.
    """
    names, b, sds = _structural_matrices(recipe)
    m = len(names)
    a = np.linalg.inv(np.eye(m) - b)
    sigma = a @ np.diag(sds**2) @ a.T
    return names, sigma


def population_regression(names, sigma, response: str, regressors):
    """Population regression slopes of response on regressors from sigma."""
    idx = {name: i for i, name in enumerate(names)}
    r = idx[response]
    cols = [idx[name] for name in regressors]
    s_xx = sigma[np.ix_(cols, cols)]
    s_xy = sigma[np.ix_(cols, [r])]
    beta = np.linalg.solve(s_xx, s_xy).ravel()
    return {name: float(v) for name, v in zip(regressors, beta)}


def population_partial_corr(names, sigma, a: str, b: str, given=()):
    """Population partial correlation of a and b given a set of nodes."""
    idx = {name: i for i, name in enumerate(names)}
    keep = [idx[a], idx[b]]
    cond = [idx[g] for g in given]
    s_aa = sigma[np.ix_(keep, keep)]
    if cond:
        s_ac = sigma[np.ix_(keep, cond)]
        s_cc = sigma[np.ix_(cond, cond)]
        s_aa = s_aa - s_ac @ np.linalg.solve(s_cc, s_ac.T)
    return float(s_aa[0, 1] / np.sqrt(s_aa[0, 0] * s_aa[1, 1]))
