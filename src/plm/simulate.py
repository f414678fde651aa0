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

# Edges present in each supported graph. Node letters: z (confounders),
# d (treatment), y (outcome), p (single placebo), n (second placebo for the
# double-placebo graphs, used as the placebo outcome).
_BASE = frozenset({"z->d", "z->y", "z->p", "d->y"})
GRAPH_EDGES: dict[str, frozenset[str]] = {
    "a": _BASE,
    "b": _BASE | {"d->p"},
    "c": _BASE | {"p->y"},
    "d": _BASE | {"d->p", "p->y"},
    "e": _BASE | {"p->d"},
    "f": _BASE | {"p->d", "p->y"},
    "g": _BASE | {"y->p"},
    "h": _BASE | {"d->p", "y->p"},
    "double_a": frozenset({"z->p", "z->d", "z->n", "z->y", "d->y"}),
    "double_b": frozenset(
        {"z->p", "z->d", "z->n", "z->y", "d->y", "d->n", "p->y"}
    ),
}

_NODE_ORDER: dict[str, tuple[str, ...]] = {
    "a": ("d", "p", "y"),
    "b": ("d", "p", "y"),
    "c": ("d", "p", "y"),
    "d": ("d", "p", "y"),
    "e": ("p", "d", "y"),
    "f": ("p", "d", "y"),
    "g": ("d", "y", "p"),
    "h": ("d", "y", "p"),
    "double_a": ("p", "d", "n", "y"),
    "double_b": ("p", "d", "n", "y"),
}

_COLUMN_NAMES = {"d": "D", "p": "P", "y": "Y", "n": "N"}


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
        for edge in self.coefficients:
            if edge not in allowed:
                raise InvalidRecipe(
                    f"edge {edge!r} is not part of graph "
                    f"{self.graph_case!r} (allowed: {sorted(allowed)})"
                )
        object.__setattr__(self, "coefficients", dict(self.coefficients))
        nodes = ("z", *_NODE_ORDER[self.graph_case])
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
    rest = tuple(_COLUMN_NAMES[n] for n in _NODE_ORDER[recipe.graph_case])
    return z_names + rest


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
        dst_i = index[_COLUMN_NAMES[dst]]
        if src == "z":
            for j, w in enumerate(weights):
                b[dst_i, index[f"Z{j + 1}"]] = w
        else:
            b[dst_i, index[_COLUMN_NAMES[src]]] = float(weights[0])
    sds = np.empty(m)
    for name, i in index.items():
        node = "z" if name.startswith("Z") else name.lower()
        sds[i] = recipe.node_sd(node)
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
