"""Independent output checks for the benchmark workloads.

Each check returns a list of problems (empty when the output is right).
The checks derive what they expect from the wire-format input and from the
paper's published table, not from the code under test, except where a
workload compares two of the program's own independent paths (homology
against the abelianized fundamental group).
"""

from __future__ import annotations

from math import gcd

# The paper's table: label -> (chi, q, orbit size, sorted cusp sizes).
PAPER_TABLE = {
    "X3.1": (3, 0, 1, (1, 1, 2, 2)),
    "X2.1": (2, 0, 1, (1, 1, 4)),
    "X2.2": (2, 0, 2, (1, 1, 4)),
    "X2.3": (2, 0, 4, (1, 2, 3)),
    "X1.1": (1, 0, 4, (1, 5)),
    "X1.2": (1, 0, 4, (1, 5)),
    "X1.3": (1, 0, 4, (1, 5)),
    "X1.4": (1, 0, 2, (2, 4)),
    "X1.5": (1, 0, 2, (3, 3)),
    "X0.1": (0, 1, 4, (6,)),
    "X0.2": (0, 1, 8, (6,)),
}

# Default catalog in fingerprint order, with group orders.
CATALOG = tuple((f"C{m}", m) for m in range(2, 13)) + (
    ("S3", 6), ("D4", 8), ("Q8", 8), ("A4", 12), ("D6", 12), ("S4", 24), ("A5", 60),
)


def cusp_count(doc: dict) -> int:
    """Orbits of the group generated by the node pairing and the involution."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = list(doc["node_pairing"]) + list(doc["involution"]["points"].items())
    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(p) for c in doc["curve_components"] for p in c["marked_points"]})


def _group(d: dict) -> tuple[int, tuple[int, ...]]:
    return d["rank"], tuple(d["torsion"])


def _mobius(m: int) -> int:
    out, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def cyclic_counts(h1: dict, m: int) -> tuple[int, int]:
    """(homomorphisms, surjections) from a group with abelianization h1 onto Z/m."""
    def homs(k: int) -> int:
        out = k ** h1["rank"]
        for d in h1["torsion"]:
            out *= gcd(d, k)
        return out

    surj = sum(_mobius(m // k) * homs(k) for k in range(1, m + 1) if m % k == 0)
    return homs(m), surj


def check_budget_exit(fp: dict | None, rank: int, budget: int) -> list[str]:
    """A fingerprint exits on the budget exactly when some catalog group's
    search space |G|^rank exceeds it."""
    exceeds = max(order ** rank for _, order in CATALOG) > budget
    if fp is None and not exceeds:
        return [f"budget exit at rank {rank} within budget {budget}"]
    if fp is not None and exceeds:
        return [f"rank {rank} exceeds budget {budget} but no budget exit"]
    return []


def check_counts(fp: dict, h1: dict) -> list[str]:
    """Catalog order, surjections <= homomorphisms, cyclic rows from H1."""
    problems = []
    if list(fp) != [name for name, _ in CATALOG]:
        problems.append(f"fingerprint groups {list(fp)} differ from the catalog")
    for name, (total, surj) in fp.items():
        if surj > total:
            problems.append(f"{name}: {surj} surjections exceed {total} homomorphisms")
        if name.startswith("C"):
            expected = cyclic_counts(h1, int(name[1:]))
            if (total, surj) != expected:
                problems.append(f"{name}: counts {(total, surj)} != {expected} from H1")
    return problems


def check_fourlines(out: dict) -> list[str]:
    problems = []
    orbits = out["orbits"]
    if len(orbits) != len(PAPER_TABLE):
        problems.append(f"{len(orbits)} orbits, expected {len(PAPER_TABLE)}")
    if sum(o["orbit_size"] for o in orbits) != 36:
        problems.append("orbit sizes do not sum to 36")
    for o in orbits:
        expected = PAPER_TABLE.get(o["label"])
        got = (o["chi"], o["q"], o["orbit_size"], tuple(o["cusp_sizes"]))
        if got != expected:
            problems.append(f"{o['label']}: (chi, q, orbit, cusps) {got} != {expected}")
    if out["witness"] != "A4":
        problems.append(f"X0.1/X0.2 first witness {out['witness']}, expected A4")
    h1 = {o["label"]: o["homology"][1] for o in orbits}
    if h1.get("X0.1") != h1.get("X0.2"):
        problems.append("X0.1 and X0.2 have different H1")
    for name, fp in zip(("X0.1", "X0.2"), out["fingerprints"]):
        if name in h1:
            problems += [f"{name} {p}" for p in check_counts(fp, h1[name])]
    return problems


def check_homology(doc: dict, out: dict, pi1_ab: dict | None) -> list[str]:
    """Euler number, top and bottom groups, H3, chi and K² from the input alone;
    H1 against the abelianized fundamental group when that is given."""
    n = len(doc["curve_components"])
    cusps = cusp_count(doc)
    ranks = [h["rank"] for h in out["homology"]]
    problems = []
    euler = 3 - n + cusps  # e(P^2) - e(Dbar) + e(D)
    if sum((-1) ** i * r for i, r in enumerate(ranks)) != euler:
        problems.append(f"alternating rank sum {ranks} != e(X) = {euler}")
    for i in (0, 4):
        if _group(out["homology"][i]) != (1, ()):
            problems.append(f"H{i} = {out['homology'][i]}, expected Z")
    if _group(out["homology"][3]) != (n // 2, ()):
        problems.append(f"H3 = {out['homology'][3]}, expected Z^{n // 2}")
    if out["chi"] != 1 - n // 2 + cusps:
        problems.append(f"chi = {out['chi']}, expected {1 - n // 2 + cusps}")
    if out["k2"] != (n - 3) ** 2:
        problems.append(f"K^2 = {out['k2']}, expected {(n - 3) ** 2}")
    if out["pg"] != out["chi"] - 1 + out["q"]:
        problems.append("p_g != chi - 1 + q")
    if pi1_ab is not None and _group(pi1_ab) != _group(out["homology"][1]):
        problems.append(f"H1 = {out['homology'][1]} but ab(pi1) = {pi1_ab}")
    return problems


def check_pi1(out: dict, h1: dict, budget: int) -> list[str]:
    problems = []
    if _group(out["ab_raw"]) != _group(h1):
        problems.append(f"ab(raw) = {out['ab_raw']} but H1 = {h1}")
    if _group(out["ab_simplified"]) != _group(h1):
        problems.append(f"ab(simplified) = {out['ab_simplified']} but H1 = {h1}")
    problems += check_budget_exit(out["fingerprint"], out["rank"], budget)
    if out["fingerprint"] is not None:
        problems += check_counts(out["fingerprint"], h1)
    return problems
