"""Workload inputs from a seed, and the oracles that check the outputs.

The oracles never call the builder: a quotient cover is compared with
the closed-form lattice projection of `coverkit.instances`, a self-cover
with the identity.  They run outside every timed span.
"""

from __future__ import annotations

import random


def permutation(n: int, seed: int) -> list[int]:
    """perm[canonical id] = id the program sees; the same seed gives the
    same permutation."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def relabelled_edges(edges, perm: list[int]) -> list[list[int]]:
    out = []
    for u, v in edges:
        a, b = perm[u], perm[v]
        out.append([a, b] if a < b else [b, a])
    return sorted(out)


def closed_form_mismatches(
    vertex_map: dict[int, int],
    projection: dict[int, int],
    perm: list[int],
    h_canonical,
    require_surjective: bool,
) -> list[str]:
    """Why the built map is not the closed-form projection up to a
    relabelling of H; empty when it is.

    Undoing the seed's permutation, the built map must factor as
    psi . projection, with psi fibre-consistent (one image per
    projection fibre), injective, and adjacency-preserving both ways on
    the covered part of H.
    """
    inverse = {p: c for c, p in enumerate(perm)}
    psi: dict[int, int] = {}
    for v in sorted(vertex_map):
        a, b = projection[v], inverse[vertex_map[v]]
        if psi.setdefault(a, b) != b:
            return [f"fibre of canonical vertex {a} splits: {psi[a]} and {b} (at patch vertex {v})"]
    if len(set(psi.values())) != len(psi):
        return ["relabelling is not injective"]
    problems = []
    for a, b in psi.items():
        for a2 in h_canonical.neighbors(a):
            if a2 in psi and not h_canonical.has_edge(b, psi[a2]):
                problems.append(f"edge ({a},{a2}) maps to a non-edge")
    back = {b: a for a, b in psi.items()}
    for b, a in back.items():
        for b2 in h_canonical.neighbors(b):
            if b2 in back and not h_canonical.has_edge(a, back[b2]):
                problems.append(f"image edge ({b},{b2}) has no preimage edge")
    if require_surjective and len(psi) != h_canonical.n:
        problems.append(f"covers {len(psi)} of {h_canonical.n} target vertices")
    return problems[:5]


def identity_mismatches(vertex_map: dict[int, int], steps: int, expected_steps: int) -> list[str]:
    problems = [f"vertex {v} maps to {w}" for v, w in sorted(vertex_map.items()) if v != w][:5]
    if steps != expected_steps:
        problems.append(f"{steps} steps, expected {expected_steps}")
    return problems
