"""Finitely presented groups: words, Tietze simplification, finite-quotient counts.

Presentations here are tiny (a handful of generators, relators of length
under ~20), so homomorphisms into a finite group G are counted by
enumerating generator images, and surjectivity is decided by closing the
image set under multiplication.  G acts on the homomorphisms by
conjugating every image at once; this maps homomorphisms to homomorphisms
and keeps the image subgroup's order, so surjections to surjections.  A
tuple's count therefore stands for its whole orbit, and only one image
pair (a, b) per orbit of G on pairs is tried: a runs over the conjugacy
class representatives and b over the orbits of a's centralizer C(a),
weighted by |class(a)| * |C(a)-orbit of b|.  Images past the second are
enumerated in full.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable

from .errors import BudgetExceededError, PresentationFormatError, UnknownGroupError
from .intlinalg import AbelianGroup, IntegerMatrix, cokernel_invariants

Letter = tuple[int, int]  # (generator index, exponent +1 or -1)

DEFAULT_BUDGET = 10 ** 8
# entries a group's subgroup-order cache keeps before it is cleared
MAX_CLOSURE_CACHE = 2 ** 16
# a parsed word is expanded letter by letter, so ``a^N`` would cost N letters
MAX_WORD_LETTERS = 10 ** 5


@dataclass(frozen=True)
class Word:
    """Word in a free group, as a tuple of (generator index, ±1) letters."""

    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def exponent_sums(self, num_generators: int) -> list[int]:
        sums = [0] * num_generators
        for g, e in self.letters:
            sums[g] += e
        return sums


def free_reduce(w: Word) -> Word:
    stack: list[Letter] = []
    for g, e in w.letters:
        if stack and stack[-1] == (g, -e):
            stack.pop()
        else:
            stack.append((g, e))
    return Word(tuple(stack))


def cyclic_reduce(w: Word) -> Word:
    w = free_reduce(w)
    letters = list(w.letters)
    while len(letters) >= 2 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    return Word(tuple(letters))


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        n = len(self.generators)
        for w in self.relators:
            for g, e in w.letters:
                if not 0 <= g < n:
                    raise ValueError(f"letter index {g} out of range")
                if e not in (1, -1):
                    raise ValueError(f"letter exponent {e} not ±1")

    def __str__(self) -> str:
        rels = ", ".join(word_to_str(w, self.generators) or "1" for w in self.relators)
        return f"< {', '.join(self.generators)} | {rels} >"


def word_to_str(w: Word, generators: tuple[str, ...]) -> str:
    """Serialize as whitespace-separated powers, e.g. ``a^-1 b^2``."""
    parts = []
    run_gen: int | None = None
    run_exp = 0
    for g, e in list(w.letters) + [(-1, 0)]:
        if g == run_gen:
            run_exp += e
        else:
            if run_gen is not None and run_exp != 0:
                name = generators[run_gen]
                parts.append(name if run_exp == 1 else f"{name}^{run_exp}")
            run_gen, run_exp = g, e
    return " ".join(parts)


def word_from_str(text: str, generators: tuple[str, ...]) -> Word:
    index = {name: i for i, name in enumerate(generators)}
    powers: list[tuple[int, int]] = []
    for token in text.split():
        name, _, exp = token.partition("^")
        if name not in index:
            raise PresentationFormatError(f"unknown generator {name!r} in word {text!r}")
        try:
            powers.append((index[name], int(exp) if exp else 1))
        except ValueError as err:
            raise PresentationFormatError(f"bad exponent in token {token!r}") from err
    length = sum(abs(e) for _, e in powers)
    if length > MAX_WORD_LETTERS:
        raise PresentationFormatError(
            f"a word of {length} letters is over the limit of {MAX_WORD_LETTERS} letters")
    letters: list[Letter] = []
    for g, e in powers:
        letters.extend([(g, 1 if e > 0 else -1)] * abs(e))
    return Word(tuple(letters))


def presentation_from_dict(doc: dict) -> GroupPresentation:
    if not isinstance(doc, dict) or "generators" not in doc or "relators" not in doc:
        raise PresentationFormatError("expected object with 'generators' and 'relators'")
    for key in ("generators", "relators"):
        if not isinstance(doc[key], list) or not all(isinstance(x, str) for x in doc[key]):
            raise PresentationFormatError(f"{key} must be a list of strings")
    gens = tuple(doc["generators"])
    if len(set(gens)) != len(gens):
        raise PresentationFormatError("duplicate generator name")
    relators = tuple(word_from_str(r, gens) for r in doc["relators"])
    return GroupPresentation(gens, relators)


def presentation_to_dict(p: GroupPresentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [word_to_str(w, p.generators) for w in p.relators],
    }


def abelianization(p: GroupPresentation) -> AbelianGroup:
    """Cokernel of the exponent-sum matrix (generators x relators)."""
    rows = len(p.generators)
    cols = len(p.relators)
    entries = []
    sums = [w.exponent_sums(rows) for w in p.relators]
    for i in range(rows):
        entries.extend(sums[j][i] for j in range(cols))
    return cokernel_invariants(IntegerMatrix(rows, cols, tuple(entries)))


# -- Tietze simplification ----------------------------------------------------

def _substitute(w: Word, gen: int, replacement: Word) -> Word:
    inv = replacement.inverse()
    out: list[Letter] = []
    for g, e in w.letters:
        if g == gen:
            out.extend(replacement.letters if e == 1 else inv.letters)
        else:
            out.append((g, e))
    return Word(tuple(out))


def _drop_generator(w: Word, gen: int) -> Word:
    return Word(tuple((g - 1 if g > gen else g, e) for g, e in w.letters))


def _normalize(relators: list[Word]) -> list[Word]:
    reduced = [cyclic_reduce(w) for w in relators]
    return [w for w in reduced if w.letters]


def _eliminate_once(gens: list[str], relators: list[Word]) -> bool:
    """One greedy elimination: a generator occurring exactly once in some
    relator is solved for and substituted everywhere.  Candidates are
    ranked by relator length, then generator index, then relator index."""
    best = None
    for ridx, rel in enumerate(relators):
        counts: dict[int, int] = {}
        for g, _ in rel.letters:
            counts[g] = counts.get(g, 0) + 1
        for g, c in counts.items():
            if c == 1:
                key = (len(rel), g, ridx)
                if best is None or key < best:
                    best = key
    if best is None:
        return False
    _, gen, ridx = best
    rel = relators[ridx]
    pos = next(i for i, (g, _) in enumerate(rel.letters) if g == gen)
    rotated = rel.letters[pos:] + rel.letters[:pos]  # starts with gen^e
    e = rotated[0][1]
    tail = Word(rotated[1:])
    replacement = tail.inverse() if e == 1 else tail
    new_relators = [
        _drop_generator(_substitute(w, gen, replacement), gen)
        for i, w in enumerate(relators)
        if i != ridx
    ]
    gens.pop(gen)
    relators[:] = _normalize(new_relators)
    return True


def _nielsen_once(gens: list[str], relators: list[Word]) -> bool:
    """Apply the best strictly length-reducing substitution x -> y^s x or x y^s.

    These are free-group automorphisms, so the presented group is
    unchanged; they reach shorter relators that plain eliminations miss.
    """
    total = sum(len(w) for w in relators)
    best = None
    k = len(gens)
    for x in range(k):
        for y in range(k):
            if x == y:
                continue
            for side in (0, 1):  # 0: y^s x, 1: x y^s
                for s in (1, -1):
                    if side == 0:
                        plus = Word(((y, s), (x, 1)))
                    else:
                        plus = Word(((x, 1), (y, s)))
                    new = [cyclic_reduce(_substitute(w, x, plus)) for w in relators]
                    length = sum(len(w) for w in new)
                    key = (length, x, y, side, s)
                    if length < total and (best is None or key < best[0]):
                        best = (key, new)
    if best is None:
        return False
    relators[:] = _normalize(best[1])
    return True


def tietze_simplify(p: GroupPresentation) -> GroupPresentation:
    """Deterministic simplification by generator elimination plus Nielsen moves.

    Repeats: cyclically reduce and drop empty relators; eliminate any
    generator with a unique occurrence (shortest relator first, ties by
    generator index); when no elimination applies, take the substitution
    x -> y^±1·x / x·y^±1 that shrinks the total relator length most.
    The output presents an isomorphic group.
    """
    gens = list(p.generators)
    relators = _normalize(list(p.relators))
    while True:
        if _eliminate_once(gens, relators):
            continue
        if _nielsen_once(gens, relators):
            continue
        break
    return GroupPresentation(tuple(gens), tuple(relators))


# -- finite groups ------------------------------------------------------------

Permutation = tuple[int, ...]


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: (p∘q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def closure(start: Iterable, successors: Callable) -> set:
    """Everything reachable from ``start`` by repeated ``successors`` steps.

    With the identity as start and multiplication by the generators as
    the step, this is the generated subgroup.
    """
    seen = set(start)
    frontier = list(seen)
    while frontier:
        nxt = []
        for h in frontier:
            for x in successors(h):
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return seen


@dataclass(frozen=True)
class FiniteGroup:
    """Finite permutation group given by its full, sorted element list.

    The Cayley table ``_mult`` (indices into ``elements``) is built once,
    at construction; a product missing from ``elements`` is rejected there.
    """

    name: str
    degree: int
    elements: tuple[Permutation, ...]
    identity_index: int = field(init=False, repr=False, compare=False)
    _mult: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _inv: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {p: i for i, p in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise ValueError("duplicate elements")
        ident = tuple(range(self.degree))
        if ident not in index:
            raise ValueError("identity missing")
        for a in self.elements:
            if tuple(sorted(a)) != ident:
                raise ValueError(f"{a} is not a permutation of degree {self.degree}")
        try:
            mult = tuple(tuple([index[compose(a, b)] for b in self.elements])
                         for a in self.elements)
        except KeyError:
            raise ValueError("not closed under composition") from None
        e = index[ident]
        object.__setattr__(self, "identity_index", e)
        object.__setattr__(self, "_mult", mult)
        object.__setattr__(self, "_inv", tuple(row.index(e) for row in mult))

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _closure_cache(self) -> dict:
        return {}

    def subgroup_size(self, generator_indices) -> int:
        """Order of the subgroup generated by the given element indices."""
        key = tuple(sorted(set(generator_indices)))
        cache = self._closure_cache
        cached = cache.get(key)
        if cached is not None:
            return cached
        table = self._mult
        size = len(closure((self.identity_index,), lambda h: map(table[h].__getitem__, key)))
        if len(cache) >= MAX_CLOSURE_CACHE:
            cache.clear()
        cache[key] = size
        return size

    @cached_property
    def _orbit_table(self) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
        """Per conjugacy class: (representative a, class size, C(a)-orbits on G).

        The orbits of the centralizer C(a) acting on G by conjugation are
        given as (representative b, orbit size) pairs.  Representatives are
        the smallest indices of their class or orbit.
        """
        n = self.order
        mult, inv = self._mult, self._inv

        def conjugates(x: int, by) -> set[int]:
            return {mult[mult[g][x]][inv[g]] for g in by}

        table = []
        seen: set[int] = set()
        for a in range(n):
            if a in seen:
                continue
            cls = conjugates(a, range(n))
            seen |= cls
            centralizer = [g for g in range(n) if mult[g][a] == mult[a][g]]
            orbits = []
            covered: set[int] = set()
            for b in range(n):
                if b not in covered:
                    orbit = conjugates(b, centralizer)
                    covered |= orbit
                    orbits.append((b, len(orbit)))
            table.append((a, len(cls), tuple(orbits)))
        return tuple(table)


def _from_generators(name: str, degree: int, gens: tuple[Permutation, ...]) -> FiniteGroup:
    elements = closure((tuple(range(degree)),), lambda h: (compose(g, h) for g in gens))
    return FiniteGroup(name, degree, tuple(sorted(elements)))


def _shift(n: int) -> Permutation:
    return tuple((i + 1) % n for i in range(n))


def _reflection(n: int) -> Permutation:
    return tuple(n - 1 - i for i in range(n))


# name -> (degree, generators); the groups themselves are built on first use
_CATALOG: dict[str, tuple[int, tuple[Permutation, ...]]] = {
    **{f"C{n}": (n, (_shift(n),)) for n in range(2, 13)},
    "S3": (3, ((1, 0, 2), _shift(3))),
    "D4": (4, (_shift(4), _reflection(4))),
    # left multiplication by i and by j on the units ±1, ±i, ±j, ±k
    "Q8": (8, ((2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3))),
    "A4": (4, ((1, 2, 0, 3), (0, 2, 3, 1))),
    "D6": (6, (_shift(6), _reflection(6))),
    "S4": (4, ((1, 0, 2, 3), _shift(4))),
    "A5": (5, ((1, 2, 0, 3, 4), (1, 2, 3, 4, 0))),
}

CATALOG_NAMES = tuple(_CATALOG)


@lru_cache(maxsize=None)
def catalog_group(name: str) -> FiniteGroup:
    if name not in _CATALOG:
        raise UnknownGroupError(f"unknown group {name!r}; known: {', '.join(CATALOG_NAMES)}")
    return _from_generators(name, *_CATALOG[name])


def default_catalog() -> tuple[FiniteGroup, ...]:
    return tuple(catalog_group(name) for name in CATALOG_NAMES)


def _orbit_heads(group: FiniteGroup, k: int) -> list[tuple[tuple[int, ...], int]]:
    """One (first images, orbit size) pair per conjugation orbit of the first min(k, 2) images."""
    if k == 0:
        return [((), 1)]
    table = group._orbit_table
    if k == 1:
        return [((a,), size) for a, size, _ in table]
    return [((a, b), size * orbit) for a, size, orbits in table for b, orbit in orbits]


def hom_count(p: GroupPresentation, group: FiniteGroup,
              budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """(total, surjective) homomorphism counts into ``group``.

    Conjugating all images by one element maps homomorphisms to
    homomorphisms and surjections to surjections, so the first two images
    run over one pair per orbit of simultaneous conjugation, weighted by
    the orbit's size; any further images are enumerated in full.  The
    budget bounds the |G|^k tuples this count stands for.
    """
    k = len(p.generators)
    n = group.order
    if n ** k > budget:
        raise BudgetExceededError(
            f"{n}^{k} image tuples exceed the budget of {budget}; "
            "apply tietze_simplify first"
        )
    mult = group._mult
    inv = group._inv
    e = group.identity_index
    # a letter is a slot of ``images + inverse images``
    relators = [tuple(g if sign == 1 else k + g for g, sign in w.letters) for w in p.relators]
    total = 0
    surjective = 0
    for head, weight in _orbit_heads(group, k):
        for rest in itertools.product(range(n), repeat=k - len(head)):
            images = head + rest
            vals = images + tuple(map(inv.__getitem__, images))
            ok = True
            for rel in relators:
                cur = e
                for x in rel:
                    cur = mult[cur][vals[x]]
                if cur != e:
                    ok = False
                    break
            if not ok:
                continue
            total += weight
            if group.subgroup_size(images) == n:
                surjective += weight
    return total, surjective


@dataclass(frozen=True)
class Fingerprint:
    """Per-group (total, surjective) homomorphism counts; an isomorphism invariant."""

    counts: tuple[tuple[str, int, int], ...]

    def as_dict(self) -> dict:
        return {name: [total, surj] for name, total, surj in self.counts}

    def __str__(self) -> str:
        return " ".join(f"{name}:{total}/{surj}" for name, total, surj in self.counts)


def fingerprint(p: GroupPresentation,
                catalog: tuple[FiniteGroup, ...] | None = None,
                budget: int = DEFAULT_BUDGET) -> Fingerprint:
    groups = default_catalog() if catalog is None else tuple(catalog)
    return Fingerprint(tuple(
        (g.name, *hom_count(p, g, budget)) for g in groups
    ))
