"""Finitely presented groups: words, Tietze simplification, finite-quotient counts.

A word is a plain tuple of signed ints: letter ``+(g+1)`` is generator g
and ``-(g+1)`` its inverse.  Raw relators run to thousands of letters (the
pi1 of the plane glued along 16 general lines has 1,042), but simplified
presentations have few generators, so homomorphisms into a finite group G
that is not cyclic are counted by enumerating generator images, and
surjectivity is decided by closing the image set under multiplication.

A cyclic G is counted in closed form, with no image tuple walked (P. Hall,
*The Eulerian functions of a group*, 1936; Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, 9.1).  Every homomorphism into
an abelian group factors through the abelianization Z^f + Z/d_1 + ...,
so H(t) = prod gcd(d_i, t) of them go into C_t, a free factor counting as
d = 0.  Each has its image in one subgroup C_s, s | t, so Moebius
inversion over the divisors of |G| = n gives the surjections onto C_n:
the sum over t | n of mu(n/t) H(t).  The invariant factors are the exact
ones of ``abelianization``, kept on the presentation, so a fingerprint
reduces its relators once.

Two facts cut the enumeration into other groups.  Aut(G), found from the
Cayley table alone, acts on the homomorphisms by applying one automorphism
to every image at once, which keeps the image subgroup's order (P. Hall,
1936; Holt, Eick and O'Brien, ch. 9).  A tuple's count therefore stands
for its orbit: each group keeps one image pair (a, b) per orbit of Aut(G)
on pairs, a over the Aut(G)-orbits on G and b over those of a's
stabilizer, with the orbit size and whether a and b generate G (44 pairs
in A5, where conjugation has 77).  From three generators on, the one with
the fewest letters runs innermost over the orbits of the automorphisms
fixing a and b, weighted likewise (1,862 images in A5, not 44 * 60); only
the identity fixes a pair that generates G, and every count under such a
pair is onto, while under one that does not a last image that holds is
closed once per group.  Images between are enumerated in full, each tuple
closed with the pair at most once, at the first last image that holds.
Per tuple of outer images, read from one list by letter slot, every
relator is multiplied out into constants between the innermost
generator's letters, and each of its images is then tried at two table
lookups per letter.

``FiniteGroup.subgroup_size`` alone closes images, and keeps nothing; its
closure is ``base.closure``, which finds a gluing's components too.
``intlinalg`` is read, qualified, only to abelianize, as a count into a
cyclic group does; building the catalog runs no linear algebra, and
neither does the rank-0 fingerprint a fresh process can start with.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter, defaultdict
from functools import cached_property, lru_cache
from math import gcd, prod
from typing import Iterable, Iterator, Sequence

from . import intlinalg  # read at call time, to abelianize
from .base import Record, _int, _tuples, _typed, closure
from .errors import DEFAULT_BUDGET, BudgetExceededError, PresentationFormatError, UnknownGroupError

Word = tuple[int, ...]  # letter +(g+1) is generator g, -(g+1) its inverse

# a parsed word is expanded letter by letter, so ``a^N`` would cost N
# letters; the bound holds for one word and for a whole presentation
MAX_WORD_LETTERS = 10 ** 5
# relator letters one hom_count may walk, as _check_budget counts them
MAX_LETTER_STEPS = 10 ** 8
_EXPONENT = re.compile(r"[+-]?[0-9]+")


def inverse(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def free_reduce(w: Word) -> Word:
    stack: list[int] = []
    for x in w:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def cyclic_reduce(w: Word) -> Word:
    w = free_reduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i, j = i + 1, j - 1
    return w[i:j]


class GroupPresentation(Record):
    __slots__ = ("generators", "relators", "__dict__")

    def __init__(self, generators: tuple[str, ...], relators: tuple[Word, ...]):
        # tuples, so a caller's list cannot change under the cached abelianization
        generators = tuple(_typed(x, str, "generator")
                           for x in _typed(generators, (list, tuple), "generators"))
        relators = tuple(map(tuple, relators))
        if {*map(type, itertools.chain.from_iterable(relators))} - {int}:  # one pass in C
            for w in relators:
                for x in w:
                    _int(x, f"letter {x!r} of the relator {w}")
        n = len(generators)
        for w in relators:
            for x in w:
                if not 0 < abs(x) <= n:
                    raise ValueError(f"letter {x} out of range")
        self._set(generators, relators)

    def __str__(self) -> str:
        rels = ", ".join(word_to_str(w, self.generators) or "1" for w in self.relators)
        return f"< {', '.join(self.generators)} | {rels} >"

    @cached_property
    def _abelianization(self) -> intlinalg.AbelianGroup:
        """The cokernel of the exponent-sum columns; a repeated or zero
        column spans nothing new, so only the distinct nonzero ones are
        reduced, and 10^5 relators ``a`` make a 1 x 1 Smith form."""
        columns: dict[frozenset, None] = {}  # in first-seen order
        for w in self.relators:
            sums: dict[int, int] = {}
            for x in w:
                g = abs(x) - 1
                sums[g] = sums.get(g, 0) + (1 if x > 0 else -1)
            if column := frozenset((g, e) for g, e in sums.items() if e):
                columns[column] = None
        nonzero: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for j, column in enumerate(columns):
            for g, e in column:
                nonzero[g][j] = e
        return intlinalg.cokernel_invariants(
            intlinalg.IntegerMatrix(len(self.generators), len(columns), nonzero))

    @cached_property
    def _slots(self) -> tuple[list[list[int]], list[list[tuple[list[int], bool]]]]:
        """The non-empty relators as ``hom_count`` walks them.  Generators are renumbered
        by falling letter count, and each letter becomes the slot of its image: generator
        x at x - 1, its inverse at k + x - 1.  From rank 3 on, a relator holding the last
        generator z is cyclic, so it is rotated to end with z^±1 and read as B_1 z^s_1 ...
        B_m z^s_m; its steps (B_m, s_m > 0) ... (B_1, s_1 > 0) evaluate it from the right.
        Returns the relators without z, then those steps."""
        k = len(self.generators)
        words = [w for w in self.relators if w]
        counts = Counter(map(abs, itertools.chain.from_iterable(words)))
        order = sorted(range(1, k + 1), key=lambda g: -counts[g])
        slot = {**{g: x for x, g in enumerate(order)}, **{-g: k + x for x, g in enumerate(order)}}
        z = order[-1] if k > 2 else 0
        settled, around = [], []
        for w in words:
            cuts = [i for i, x in enumerate(w) if abs(x) == z]
            if not cuts:
                settled.append([slot[x] for x in w])
                continue
            w = w[cuts[-1] + 1:] + w[:cuts[-1] + 1]
            steps, start = [], 0
            for i, x in enumerate(w):
                if abs(x) == z:
                    steps.append(([slot[y] for y in w[start:i]], x > 0))
                    start = i + 1
            around.append(steps[::-1])
        return settled, around


def word_to_str(w: Word, generators: tuple[str, ...]) -> str:
    """Serialize as whitespace-separated powers, e.g. ``a^-1 b^2``."""
    parts = []
    for g, run in itertools.groupby(w, abs):
        e = sum(1 if x > 0 else -1 for x in run)
        if e:
            name = generators[g - 1]
            parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts)


def _parse_words(texts: Iterable[str], generators: tuple[str, ...], what: str) -> tuple[Word, ...]:
    """Words of tokens ``name`` or ``name^exponent``; their letters together
    are checked against ``MAX_WORD_LETTERS`` before any word is expanded."""
    index = {name: x for x, name in enumerate(generators, 1)}
    parsed = []
    for text in texts:
        powers = []
        for token in text.split():
            name, caret, exp = token.partition("^")
            if name not in index:
                raise PresentationFormatError(f"unknown generator {name!r} in word {text!r}")
            if caret and not _EXPONENT.fullmatch(exp):
                raise PresentationFormatError(f"bad exponent in token {token!r}")
            try:
                powers.append((index[name], int(exp) if caret else 1))
            except ValueError as err:  # more digits than int() converts
                raise PresentationFormatError(f"an exponent of {len(exp)} digits is over the "
                                              f"limit of {MAX_WORD_LETTERS} letters") from err
        parsed.append(powers)
    length = sum(abs(e) for powers in parsed for _, e in powers)
    if length > MAX_WORD_LETTERS:
        raise PresentationFormatError(
            f"{what} of {length} letters is over the limit of {MAX_WORD_LETTERS} letters")
    return tuple(tuple(y for x, e in powers for y in [x if e > 0 else -x] * abs(e))
                 for powers in parsed)


def word_from_str(text: str, generators: tuple[str, ...]) -> Word:
    return _parse_words([text], generators, "a word")[0]


def presentation_from_dict(doc: dict) -> GroupPresentation:
    """Read ``{"generators": [names], "relators": [words]}``; a name is
    non-empty and has no whitespace and no ``^``."""
    if not isinstance(doc, dict) or "generators" not in doc or "relators" not in doc:
        raise PresentationFormatError("expected object with 'generators' and 'relators'")
    if unknown := [k for k in doc if k not in ("generators", "relators")]:
        raise PresentationFormatError(f"unknown key {', '.join(map(repr, unknown))}")
    for key in ("generators", "relators"):
        if not isinstance(doc[key], list) or not all(isinstance(x, str) for x in doc[key]):
            raise PresentationFormatError(f"{key} must be a list of strings")
    gens = tuple(doc["generators"])
    for name in gens:
        if name.split() != [name] or "^" in name:
            raise PresentationFormatError(
                f"generator name {name!r} must be non-empty, without whitespace or '^'")
    if len(set(gens)) != len(gens):
        raise PresentationFormatError("duplicate generator name")
    return GroupPresentation(gens, _parse_words(doc["relators"], gens, "the presentation"))


def presentation_to_dict(p: GroupPresentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [word_to_str(w, p.generators) for w in p.relators],
    }


def abelianization(p: GroupPresentation) -> intlinalg.AbelianGroup:
    """Cokernel of the exponent sums (generators x relators); p keeps it."""
    return p._abelianization


# -- Tietze simplification ----------------------------------------------------
#
# Generators keep their letters while the moves run; ``alive`` lists the
# letters not yet eliminated, in order.  Renumbering them 1, 2, ... at the
# end is monotone, so ranking moves by letter ranks them as by index.

def _rewritten(w: Word, gen: int, rep: Word, inv: Word) -> Word:
    """w with gen replaced by ``rep`` and gen^-1 by ``inv``, then freely and
    cyclically reduced.  All three are reduced, so letters cancel only
    where the pieces of w between its letters ±gen meet the inserted words:
    the letters ±gen are found by ``tuple.index``, and each piece is copied
    whole past what cancels at its head."""
    cuts = []
    for x in (gen, -gen):
        i = -1
        for _ in range(w.count(x)):
            i = w.index(x, i + 1)
            cuts.append(i)
    cuts.sort()
    pieces = []
    start = 0
    for cut in cuts:
        pieces += w[start:cut], rep if w[cut] == gen else inv
        start = cut + 1
    pieces.append(w[start:])
    out: list[int] = []
    for piece in pieces:
        i = 0
        while out and i < len(piece) and out[-1] == -piece[i]:
            out.pop()
            i += 1
        out += piece[i:] if i else piece
    i, j = 0, len(out)
    while j - i >= 2 and out[i] == -out[j - 1]:
        i, j = i + 1, j - 1
    return tuple(out[i:j])


def _least_single(letters: Counter) -> int:
    """The least generator occurring once, or 0."""
    return min([g for g, c in letters.items() if c == 1], default=0)


class _Relators:
    """Cyclically reduced, non-empty relators, in order, with the counts the
    Tietze moves read, kept up to date as relators are rewritten.

    Per relator i: ``letters[i]`` counts its letters ±g by generator g, and
    ``single[i]`` is the least generator occurring in it exactly once (0 if
    none); ``total`` is the relators' length.  ``bigrams()`` counts the
    cyclic bigrams (a, b) over all relators, the wrap from the last letter
    to the first included.  A relator's bigrams are counted the first time
    they are read, so one rewritten again before any Nielsen move is never
    counted; they are kept in ``pairs[i]``, and taken off the sum when the
    relator is rewritten.
    """

    def __init__(self, words: Iterable[Word]):
        self.words = [w for w in map(cyclic_reduce, words) if w]
        self.letters = [Counter(map(abs, w)) for w in self.words]
        self.single = [_least_single(letters) for letters in self.letters]
        self.pairs: list[Counter | None] = [None] * len(self.words)
        self.total = sum(map(len, self.words))
        self._bigrams: Counter = Counter()

    def bigrams(self) -> Counter:
        """The bigram counts over all relators, once those not yet read are counted."""
        pairs, bigrams = self.pairs, self._bigrams
        get = bigrams.get
        for i, w in enumerate(self.words):
            if pairs[i] is None:
                pairs[i] = Counter(zip(w, w[1:] + w[:1]))
                for pair, c in pairs[i].items():
                    bigrams[pair] = get(pair, 0) + c
        return bigrams

    def substitute(self, gen: int, replacement: Word, solved: int = -1) -> None:
        """Replace gen by ``replacement`` (gen^-1 by its inverse) in the
        relators holding it, reduce them cyclically and drop any left empty.
        Relator ``solved``, the one gen was solved from, would rewrite to
        the empty word; it is dropped without rewriting."""
        inv = inverse(replacement)
        bigrams = self._bigrams
        gone = []
        for i in [i for i, letters in enumerate(self.letters) if gen in letters]:
            w, pairs = self.words[i], self.pairs[i]
            if pairs is not None:
                for pair, c in pairs.items():
                    bigrams[pair] -= c
            new = _rewritten(w, gen, replacement, inv) if i != solved else ()
            self.total += len(new) - len(w)
            if new:
                self.words[i] = new
                self.letters[i] = letters = Counter(map(abs, new))
                self.single[i] = _least_single(letters)
                self.pairs[i] = None
            else:
                gone.append(i)
        for i in reversed(gone):
            for column in (self.words, self.letters, self.single, self.pairs):
                del column[i]


def _eliminate_once(alive: list[int], relators: _Relators) -> bool:
    """One greedy elimination: a generator occurring exactly once in some
    relator is solved for and substituted everywhere.  Candidates are
    ranked by relator length, then generator, then relator index."""
    best = min(((len(w), g, i) for i, (w, g) in enumerate(zip(relators.words, relators.single))
                if g), default=None)
    if best is None:
        return False
    _, gen, ridx = best
    rel = relators.words[ridx]
    pos = rel.index(gen) if gen in rel else rel.index(-gen)
    rotated = rel[pos:] + rel[:pos]  # starts with gen^±1
    tail = rotated[1:]
    alive.remove(gen)
    relators.substitute(gen, inverse(tail) if rotated[0] > 0 else tail, solved=ridx)
    return True


def _nielsen_scores(alive: list[int], relators: _Relators
                    ) -> Iterator[tuple[int, int, int, int, int]]:
    """(total length after, x, y, side, s) for every candidate of
    ``_nielsen_once``, read off the kept counts by its two formulas."""
    total, pairs = relators.total, relators.bigrams().get
    for x in alive:
        grown = total + sum(letters.get(x, 0) for letters in relators.letters)
        for y in alive:
            if x != y:
                yield grown - 2 * (pairs((-y, x), 0) + pairs((-x, y), 0)), x, y, 0, 1
                yield grown - 2 * (pairs((y, x), 0) + pairs((-x, -y), 0)), x, y, 0, -1
                yield grown - 2 * (pairs((x, -y), 0) + pairs((y, -x), 0)), x, y, 1, 1
                yield grown - 2 * (pairs((x, y), 0) + pairs((-y, -x), 0)), x, y, 1, -1


def _nielsen_once(alive: list[int], relators: _Relators) -> bool:
    """Apply the best strictly length-reducing substitution x -> y^s x or x y^s.

    These are free-group automorphisms, so the presented group is
    unchanged; they reach shorter relators that plain eliminations miss.

    On cyclically reduced words (Lyndon and Schupp, *Combinatorial Group
    Theory*, I.4) the substitution puts y^±1 beside each of the occ(x)
    letters x^±1, and an inserted letter cancels at most the original
    letter beside it, never further.  So with t the total length and #(a, b)
    the cyclic bigrams a·b, the wrap from last letter to first included:

        x -> y^s x:  t + occ(x) - 2 (#(y^-s, x) + #(x^-1, y^s))
        x -> x y^s:  t + occ(x) - 2 (#(x, y^-s) + #(y^s, x^-1))

    Every candidate is scored so, ranked by (length, x, y, side, s), and
    only the winner is applied.
    """
    total = relators.total
    best = min((key for key in _nielsen_scores(alive, relators) if key[0] < total), default=None)
    if best is None:
        return False
    _, x, y, side, s = best
    relators.substitute(x, (s * y, x) if side == 0 else (x, s * y))
    return True


def tietze_simplify(p: GroupPresentation) -> GroupPresentation:
    """Deterministic simplification by generator elimination plus Nielsen moves.

    Repeats: cyclically reduce and drop empty relators; eliminate any
    generator with a unique occurrence (shortest relator first, ties by
    generator index); when no elimination applies, take the substitution
    x -> y^±1·x / x·y^±1 that shrinks the total relator length most.
    A Nielsen move's new length is read off counts kept up to date (Lyndon
    and Schupp, *Combinatorial Group Theory*, I.4): with t the total
    length, occ(x) the letters x^±1 and #(a, b) the cyclic bigrams a·b,
    x -> y^s·x gives t + occ(x) - 2·(#(y^-s, x) + #(x^-1, y^s)) and
    x -> x·y^s gives t + occ(x) - 2·(#(x, y^-s) + #(y^s, x^-1)).  A move
    rewrites only the relators holding x.  The output presents an
    isomorphic group.
    """
    alive = list(range(1, len(p.generators) + 1))
    relators = _Relators(p.relators)
    while _eliminate_once(alive, relators) or _nielsen_once(alive, relators):
        pass
    position = {x: new for new, x in enumerate(alive, 1)}
    return GroupPresentation(
        tuple(p.generators[x - 1] for x in alive),
        tuple(tuple(position[x] if x > 0 else -position[-x] for x in w) for w in relators.words),
    )


# -- finite groups ------------------------------------------------------------

Permutation = tuple[int, ...]


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: (p∘q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


class FiniteGroup(Record):
    """Finite permutation group given by its full, sorted element list.

    The list and each element are given as lists or tuples and kept as
    tuples; ``degree`` and every entry are ints, a bool excluded, or
    TypeError is raised.  The Cayley table ``_mult`` (indices into
    ``elements``) is built once, at construction, one row per element.  A
    breadth-first walk from the identity takes as a new generator each
    element it has not reached; only a generator's row is composed from
    permutations, and the row of g∘a is row(a) read through g's row.  A
    product missing from ``elements`` is rejected there: a set closed under
    left multiplication by generators that reach every element is closed.
    """

    __slots__ = ("name", "degree", "elements", "identity_index", "_mult", "_inv", "__dict__")

    def __init__(self, name: str, degree: int, elements: tuple[Permutation, ...]):
        elements = tuple(tuple(_typed(p, (list, tuple), "elements entry"))
                         for p in _typed(elements, (list, tuple), "elements"))
        if {*map(type, itertools.chain.from_iterable(elements))} - {int}:  # one pass in C
            for p in elements:
                for x in p:
                    _int(x, f"entry {x!r} of the permutation {p}")
        index = {p: i for i, p in enumerate(elements)}
        if len(index) != len(elements):
            raise ValueError("duplicate elements")
        ident = tuple(range(_int(degree, "degree")))
        if ident not in index:
            raise ValueError("identity missing")
        for a in elements:
            if tuple(sorted(a)) != ident:
                raise ValueError(f"{a} is not a permutation of degree {degree}")
        e = index[ident]
        mult: list = [None] * len(elements)
        mult[e] = tuple(range(len(elements)))
        reached, gens = [e], []
        for x, p in enumerate(elements):
            if mult[x] is None:
                try:
                    mult[x] = tuple([index[compose(p, q)] for q in elements])
                except KeyError:
                    raise ValueError("not closed under composition") from None
                gens.append(mult[x])
                reached.append(x)
                for a in reached:  # grows while it is walked
                    for left in gens:
                        if mult[b := left[a]] is None:
                            mult[b] = tuple(map(left.__getitem__, mult[a]))
                            reached.append(b)
        self._set(name, degree, elements, e, tuple(mult), tuple(row.index(e) for row in mult))

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _orders(self) -> tuple[int, ...]:
        """The order of each element: how many distinct powers it has."""
        mult = self._mult
        return tuple(len(closure((self.identity_index,), lambda h, row=mult[a]: (row[h],)))
                     for a in range(self.order))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Element indices by falling element order, least index first, each
        one taken when those before it do not span it (the rows the
        constructor composes may be others)."""
        orders, mult = self._orders, self._mult
        gens: list[int] = []
        spanned = {self.identity_index}
        for x in sorted(range(self.order), key=lambda x: (-orders[x], x)):
            if x not in spanned:
                gens.append(x)
                spanned = closure(spanned, lambda h: map(mult[h].__getitem__, gens))
        return tuple(gens)

    @cached_property
    def is_cyclic(self) -> bool:
        """Whether the powers of one element run through the whole group."""
        return self.order in self._orders

    def subgroup_size(self, generator_indices: Iterable[int]) -> int:
        """Order of the subgroup generated by the element indices, read once, by one closure
        with no cache.  An index that is a bool or not an int raises TypeError, and one
        outside ``range(order)`` IndexError."""
        gens = tuple(generator_indices)
        for x in gens:
            if not 0 <= _int(x, f"element index {x!r}") < self.order:
                raise IndexError(f"element index {x} is outside range({self.order})")
        mult = self._mult
        return len(closure((self.identity_index,), lambda h: map(mult[h].__getitem__, gens)))

    @cached_property
    def _aut(self) -> list[tuple[int, ...]]:
        return _automorphisms(self)

    @cached_property
    def _orbit_table(self) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
        """Per orbit of Aut(G) on G: (least member a, its size, ``_orbits`` of its stabilizer)."""
        automorphisms = self._aut
        return tuple((a, size, _orbits(self.order, [s for s in automorphisms if s[a] == a]))
                     for a, size in _orbits(self.order, automorphisms))

    @cached_property
    def _pair_heads(self) -> tuple[tuple[tuple[int, int], int, bool], ...]:
        """``_orbit_heads(G, 2)``, which every count and budget check of rank 2 or more
        reads, each head with whether it generates G, found by one closure."""
        return tuple(((a, b), size * orbit, self.subgroup_size((a, b)) == self.order)
                     for a, size, orbits in self._orbit_table for b, orbit in orbits)

    @cached_property
    def _third_level(self) -> dict[tuple[int, int], tuple[tuple, list[bool | None] | None]]:
        """Per head (a, b) of ``_pair_heads``: the ``_orbits`` of the automorphisms fixing
        both (the identity alone if a and b generate G), each with the rows of its least
        member z and of z^-1; and if a and b do not generate G, a list that ``_onto`` fills
        as a rank-3 count reads it: per last image z, whether a, b, z do."""
        n, mult, inv = self.order, self._mult, self._inv
        singles = tuple((c, 1, mult[c], mult[inv[c]]) for c in range(n))
        return {(a, b): (singles, None) if onto else
                (tuple((c, size, mult[c], mult[inv[c]]) for c, size in _orbits(
                    n, [s for s in self._aut if s[a] == a and s[b] == b])), [None] * n)
                for (a, b), _, onto in self._pair_heads}


def _orbits(n: int, maps: list[tuple[int, ...]]) -> tuple[tuple[int, int], ...]:
    """(least member, size) per orbit on 0 .. n-1 of the group of ``maps``, all its elements."""
    orbits: dict[int, int] = {}
    covered: set[int] = set()
    for b in range(n):
        if b not in covered:
            covered |= (orbit := {s[b] for s in maps})
            orbits[b] = len(orbit)
    return tuple(orbits.items())


def _automorphisms(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Every automorphism of ``group``, as the tuple of images of the element
    indices, found from the Cayley table alone.

    Its generators g_1 .. g_r are ``group.generators``, by falling element
    order.  An automorphism is fixed by the images h_i of the g_i, which
    keep their orders; up to an inner automorphism, h_1 is the least index
    of its conjugacy class.  Each such candidate is extended by one
    breadth-first walk of the Cayley graph, x g_i -> phi(x) h_i, and kept
    when every edge agrees and the images are distinct.  The kept maps,
    composed with every inner automorphism, are all of Aut(G); a candidate
    whose images one of these already has is not extended again.
    """
    n, mult, inv, e = group.order, group._mult, group._inv, group.identity_index
    orders, gens = group._orders, group.generators

    def extend(images: tuple[int, ...]) -> tuple[int, ...] | None:
        phi = [-1] * n
        phi[e] = e
        frontier = [e]
        for x in frontier:
            for g, h in zip(gens, images):
                y, image = mult[x][g], mult[phi[x]][h]
                if phi[y] < 0:
                    phi[y] = image
                    frontier.append(y)
                elif phi[y] != image:
                    return None
        return tuple(phi) if len(set(phi)) == n else None

    conjugate = [[mult[mult[c][x]][inv[c]] for x in range(n)] for c in range(n)]
    first = sorted({min(column) for column in zip(*conjugate)})  # least of each class
    choices = [[h for h in first if orders[h] == orders[gens[0]]]]
    choices += [[h for h in range(n) if orders[h] == orders[g]] for g in gens[1:]]
    by_images: dict[tuple[int, ...], tuple[int, ...]] = {}  # keyed by the images of gens
    for images in itertools.product(*choices):
        if images not in by_images and (phi := extend(images)) is not None:
            for row in conjugate:
                s = tuple(map(row.__getitem__, phi))
                by_images[tuple(map(s.__getitem__, gens))] = s
    return sorted(by_images.values())


def _from_generators(name: str, degree: int, gens: tuple[Permutation, ...]) -> FiniteGroup:
    elements = closure((tuple(range(degree)),), lambda h: (compose(g, h) for g in gens))
    return FiniteGroup(name, degree, tuple(sorted(elements)))


def _shift(n: int) -> Permutation:
    return tuple((i + 1) % n for i in range(n))


def _reflection(n: int) -> Permutation:
    return tuple(n - 1 - i for i in range(n))


_CYCLIC_ORDERS = range(2, 13)
# name -> (degree, generators); the groups themselves are built on first use
_CATALOG: dict[str, tuple[int, tuple[Permutation, ...]]] = {
    **{f"C{n}": (n, (_shift(n),)) for n in _CYCLIC_ORDERS},
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


def _orbit_heads(group: FiniteGroup, k: int) -> Sequence[tuple[tuple[int, ...], int, bool]]:
    """(first images, orbit size, whether they generate G) per Aut(G)-orbit of min(k, 2)."""
    if k == 0:
        return [((), 1, group.order == 1)]
    if k == 1:
        return [((a,), size, group._orders[a] == group.order) for a, size, _ in group._orbit_table]
    return group._pair_heads


def _cyclic_counts(p: GroupPresentation, n: int) -> tuple[int, int]:
    """(homomorphisms, surjections) into the cyclic group of order n.

    H(t) = t^f prod gcd(d, t) of them go into C_t, for p's abelianization
    Z^f + sum Z/d.  Each maps onto C_s for one s | t, so H(t) is the sum
    of the surjections S(s) over s | t; solving for S from the least
    divisor up is Moebius inversion, S(n) = sum over t | n of mu(n/t) H(t).
    """
    ab = abelianization(p)
    onto: dict[int, int] = {}
    for t in range(1, n + 1):
        if n % t == 0:
            homs = t ** ab.free_rank * prod(gcd(d, t) for d in ab.torsion)
            onto[t] = homs - sum(c for s, c in onto.items() if t % s == 0)
    return homs, onto[n]  # t = n came last


def _onto(group: FiniteGroup, head: tuple[int, int], middle: tuple[int, ...], z: int) -> bool:
    """Whether ``head`` and ``middle``, which do not generate G, do with z: from rank 4 on
    by one closure, at rank 3 closed once per (head, z) and kept in ``_third_level``."""
    if middle:
        return group.subgroup_size((*head, *middle, z)) == group.order
    known = group._third_level[head][1]
    if known[z] is None:
        known[z] = group.subgroup_size((*head, z)) == group.order
    return known[z]


def _check_budget(p: GroupPresentation, group: FiniteGroup, budget: int) -> None:
    """Raise BudgetExceededError if counting p into ``group`` stands for more than ``budget``
    image tuples, |G|^k at rank k, or walks more than ``MAX_LETTER_STEPS`` relator letters;
    a budget that is not an int, a bool included, raises TypeError."""
    k, n = len(p.generators), group.order
    if n ** k > _int(budget, "budget"):
        raise BudgetExceededError(f"{group.name}: {n}^{k} image tuples exceed the budget of "
                                  f"{budget}; apply tietze_simplify first")
    if k and group.is_cyclic:
        return
    # per tuple of outer images, the third level's orbits not counted: every relator
    # letter once, then two per letter of the innermost generator for each of n images
    outer = len(_orbit_heads(group, k)) * n ** max(k - 3, 0)
    steps = sum(map(len, p.relators)) + 2 * n * sum(map(len, p._slots[1]))
    if outer * steps > MAX_LETTER_STEPS:
        raise BudgetExceededError(
            f"{group.name}: hom_count: {outer} image tuples walking {steps} relator letters "
            f"each exceed the bound of {MAX_LETTER_STEPS} letter steps")


def hom_count(p: GroupPresentation, group: FiniteGroup, budget: int = DEFAULT_BUDGET, *,
              _checked: bool = False) -> tuple[int, int]:
    """(total, surjective) homomorphism counts into ``group``.

    A cyclic group is counted in closed form from the exact invariant
    factors of p's abelianization, kept on p, by Moebius inversion over the
    divisors of its order; no tuple is walked.
    Into any other group, the first two images run over the pair heads: one
    pair per orbit of Aut(G) acting on both at once, weighted by the orbit's
    size, with whether it generates G.  With three or more generators, the
    one with the fewest letters runs innermost, against relators multiplied
    out once per tuple of the other images, over the orbits of the
    automorphisms fixing the first pair, weighted likewise; under a pair
    that generates G all of them are onto, and under one that does not
    ``_onto`` decides, once the pair and any images between, closed at most
    once, do not generate G.  ``budget``, an int, bounds the |G|^k tuples
    this count stands for, k being p's rank, and ``MAX_LETTER_STEPS`` the
    relator letters the enumeration walks; ``fingerprint`` checked both if
    it passes ``_checked``.
    """
    if not _checked:
        _check_budget(p, group, budget)
    k, n = len(p.generators), group.order
    if k and group.is_cyclic:
        return _cyclic_counts(p, n)
    settled, around = p._slots
    mult, inv, e = group._mult, group._inv, group.identity_index
    total = surjective = 0
    # the image of generator x in slot x - 1 and of its inverse in slot k + x - 1: a
    # negative subscript, as a letter -x would be, misses the interpreter's fast path
    images = [e] * (2 * k)
    for head, weight, onto in _orbit_heads(group, k):
        for x, g in enumerate(head):
            images[x], images[k + x] = g, inv[g]
        # the images between the pair and the innermost one, from rank 4 on
        for middle in itertools.product(range(n), repeat=k - 3) if k > 3 else [()]:
            for x, g in enumerate(middle, 2):
                images[x], images[k + x] = g, inv[g]
            for rel in settled:
                cur = e
                for x in rel:
                    cur = mult[cur][images[x]]
                if cur != e:
                    break
            else:
                if k < 3:
                    total += weight
                    surjective += weight if onto else 0
                    continue
                # step (B, s) becomes (row of B, s > 0), which takes cur to B z^s cur
                relators = []
                for rel in around:
                    steps = []
                    for segment, positive in rel:
                        cur = e
                        for x in segment:
                            cur = mult[cur][images[x]]
                        steps.append((mult[cur], positive))
                    relators.append(steps)
                homs = surj = 0
                # whether head and middle generate G, None until a last image holds
                spans = None if middle and not onto else onto
                for z, w, zrow, zinv in group._third_level[head][0]:
                    for steps in relators:
                        cur = e
                        for row, positive in steps:
                            cur = row[zrow[cur] if positive else zinv[cur]]
                        if cur != e:
                            break
                    else:
                        homs += w
                        if spans is None:
                            spans = group.subgroup_size(head + middle) == n
                        if spans or _onto(group, head, middle, z):
                            surj += w
                total += weight * homs
                surjective += weight * surj
    return total, surjective


class Fingerprint(Record):
    """Per-group (total, surjective) homomorphism counts, each row and all of
    them kept as tuples; an isomorphism invariant."""

    __slots__ = ("counts",)

    def __init__(self, counts: tuple[tuple[str, int, int], ...]):
        self._set(_tuples(counts))

    def as_dict(self) -> dict:
        return {name: [total, surj] for name, total, surj in self.counts}

    def __str__(self) -> str:
        return " ".join(f"{name}:{total}/{surj}" for name, total, surj in self.counts)


def fingerprint(p: GroupPresentation,
                catalog: tuple[FiniteGroup, ...] | None = None,
                budget: int = DEFAULT_BUDGET) -> Fingerprint:
    """``hom_count`` into each group of ``catalog`` (None: the default catalog), once every
    group's bounds are checked in catalog order, so the first to fail raises before any count."""
    groups = default_catalog() if catalog is None else tuple(catalog)
    for g in groups:
        _check_budget(p, g, budget)
    return Fingerprint(tuple((g.name, *hom_count(p, g, budget, _checked=True)) for g in groups))
