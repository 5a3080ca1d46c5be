"""Output checks of the benchmark's own.

They share no code with the program's verifier or pipeline.  They read the
program's results only as plain data: vertex lists, labels and map items.
"""

from __future__ import annotations

import numpy as np


class LabelCodes:
    """A final space as a dense matrix of label codes (0 on the diagonal),
    for checking extensions as permutations."""

    def __init__(self, final) -> None:
        self.vertices = final.vertices
        self.index = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        codes: dict = {}
        self.matrix = np.zeros((n, n), dtype=np.int32)
        for u, v, d in final.edges():
            code = codes.setdefault(d, len(codes) + 1)
            i, j = self.index[u], self.index[v]
            self.matrix[i, j] = self.matrix[j, i] = code

    def extension_problem(self, theta, wanted: dict[str, str]) -> str | None:
        """Why `theta` is not a total isometry of the final space extending
        `wanted`, or None when it is one."""
        table = dict(theta.items())
        if table.keys() != self.index.keys():
            return "extension is not defined on exactly the final space"
        if any(v not in self.index for v in table.values()):
            return "extension leaves the final space"
        perm = np.fromiter((self.index[table[v]] for v in self.vertices), dtype=np.intp,
                           count=len(self.vertices))
        if len(np.unique(perm)) != len(perm):
            return "extension is not a bijection"
        if not np.array_equal(self.matrix[np.ix_(perm, perm)], self.matrix):
            return "extension does not preserve distances"
        for u, v in wanted.items():
            if table[u] != v:
                return f"extension sends {u} to {table[u]}, expected {v}"
        return None


def copy_problem(points, edges, witness) -> str | None:
    """Why the witness's copy of the input does not keep every input
    distance, or None when it does."""
    emb = dict(witness.final_embedding.items())
    if sorted(emb) != sorted(points):
        return "embedding is not defined on exactly the input points"
    if len(set(emb.values())) != len(emb):
        return "embedding is not injective"
    for u, v, d in edges:
        got = witness.final.label(emb[u], emb[v])
        if got != d:
            return f"d({u},{v}) became {got} in the copy, expected {d}"
    return None


def composition_problem(ext_phi: dict, ext_psi: dict, ext_both: dict) -> str | None:
    """Why ext(psi . phi) differs from ext(psi) . ext(phi), or None."""
    composed = {u: ext_psi.get(v) for u, v in ext_phi.items()}
    if composed != ext_both:
        return "ext(psi . phi) differs from ext(psi) . ext(phi)"
    return None


def composable_pairs(maps: list[dict[str, str]]) -> list[tuple[int, int, int]]:
    """(phi, psi, psi . phi) index triples with dom(psi) = image(phi), for
    every such pair whose composite is in the list too."""
    index = {tuple(sorted(m.items())): j for j, m in enumerate(maps)}
    out = []
    for i, phi in enumerate(maps):
        image = set(phi.values())
        for k, psi in enumerate(maps):
            if set(psi) == image:
                both = index.get(tuple(sorted((x, psi[y]) for x, y in phi.items())))
                if both is not None:
                    out.append((i, k, both))
    return out
