"""Seeded generator for the plane glued along n general lines.

Lines L(2k-1) and L(2k) are swapped by the involution, with one marked-point
bijection per pair; every two lines meet in one node.  The result is the
gluing-data JSON wire format, so the program under test sees only what a
user would hand the CLI.
"""

from __future__ import annotations

import random


def _width(n: int) -> int:
    return len(str(n))


def line_id(i: int, n: int) -> str:
    return f"L{i:0{_width(n)}d}"


def point_id(i: int, j: int, n: int) -> str:
    """Marked point on line i where it meets line j."""
    w = _width(n)
    return f"P{i:0{w}d}_{j:0{w}d}"


def line_points(i: int, n: int) -> list[str]:
    return [point_id(i, j, n) for j in range(1, n + 1) if j != i]


def n_lines_gluing(n: int, bijections: list[tuple[int, ...]]) -> dict:
    """Wire-format gluing for n lines; ``bijections[k]`` sends the a-th point
    of L(2k+1) to the bijections[k][a]-th point of L(2k+2)."""
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if len(bijections) != n // 2:
        raise ValueError(f"need {n // 2} bijections, got {len(bijections)}")
    points_of = {i: line_points(i, n) for i in range(1, n + 1)}
    involution_points = {}
    for k, phi in enumerate(bijections):
        src, dst = points_of[2 * k + 1], points_of[2 * k + 2]
        if sorted(phi) != list(range(n - 1)):
            raise ValueError(f"bijection {k} is not a permutation of range({n - 1})")
        for a, b in enumerate(phi):
            involution_points[src[a]] = dst[b]
    return {
        "normalization": [{
            "id": "plane", "chi_O": 1, "q": 0, "simply_connected": True,
            "h1": {"rank": 0, "torsion": []}, "h2_rank": 1,
            "h3": {"rank": 0, "torsion": []}, "h4_rank": 1,
            "k_plus_d_sq": (n - 3) ** 2,
        }],
        "curve_components": [
            {"id": line_id(i, n), "on": "plane", "genus": 0,
             "marked_points": points_of[i], "h2_class": [1]}
            for i in range(1, n + 1)
        ],
        "node_pairing": [
            [point_id(i, j, n), point_id(j, i, n)]
            for i in range(1, n + 1) for j in range(i + 1, n + 1)
        ],
        "involution": {
            "components": [[line_id(2 * k + 1, n), line_id(2 * k + 2, n)]
                           for k in range(n // 2)],
            "points": involution_points,
        },
    }


def random_bijections(n: int, rng: random.Random) -> list[tuple[int, ...]]:
    out = []
    for _ in range(n // 2):
        phi = list(range(n - 1))
        rng.shuffle(phi)
        out.append(tuple(phi))
    return out


def random_n_lines(n: int, seed: int) -> dict:
    """One seeded instance: the same (n, seed) always gives the same document."""
    return n_lines_gluing(n, random_bijections(n, random.Random(f"nlines:{n}:{seed}")))


def pairing_permutations(n: int, rng: random.Random) -> list[int]:
    """A random relabelling of line indices 1..n that maps pairs to pairs."""
    order = list(range(n // 2))
    rng.shuffle(order)
    g = [0] * (n + 1)
    for k, target in enumerate(order):
        a, b = 2 * target + 1, 2 * target + 2
        if rng.random() < 0.5:
            a, b = b, a
        g[2 * k + 1], g[2 * k + 2] = a, b
    return g


def relabel(n: int, bijections: list[tuple[int, ...]], g: list[int]) -> list[tuple[int, ...]]:
    """Bijections of the same surface after renaming line i to line g[i].

    A marked point is the pair (line, other line); the involution is moved
    point by point and read back as one bijection per line pair.
    """
    def others(i: int) -> list[int]:
        return [j for j in range(1, n + 1) if j != i]

    tau = {}
    for k, phi in enumerate(bijections):
        src, dst = 2 * k + 1, 2 * k + 2
        for a, b in enumerate(phi):
            p, q = (src, others(src)[a]), (dst, others(dst)[b])
            tau[p], tau[q] = q, p
    moved = {(g[i], g[j]): (g[k], g[l]) for (i, j), (k, l) in tau.items()}
    return [
        tuple(others(2 * k + 2).index(moved[(2 * k + 1, j)][1]) for j in others(2 * k + 1))
        for k in range(n // 2)
    ]
