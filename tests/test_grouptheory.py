"""Words, presentations, Tietze simplification, finite-quotient counting."""

from __future__ import annotations

import itertools
import random
import sys
import time
import tracemalloc
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exponent_sum_matrix, letter
from gluesurf import grouptheory, intlinalg
from gluesurf.errors import BudgetExceededError, PresentationFormatError, UnknownGroupError
from gluesurf.fourlines import all_gluings, build_four_lines
from gluesurf.gluing import gluing_from_dict, validate_gluing
from gluesurf.grouptheory import (
    CATALOG_NAMES,
    FiniteGroup,
    Fingerprint,
    GroupPresentation,
    abelianization,
    catalog_group,
    cyclic_reduce,
    default_catalog,
    fingerprint,
    free_reduce,
    hom_count,
    inverse,
    presentation_from_dict,
    presentation_to_dict,
    tietze_simplify,
    word_from_str,
    word_to_str,
)
from gluesurf.intlinalg import AbelianGroup, IntegerMatrix, cokernel_invariants
from gluesurf.topology import pi1_presentation

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import nlines  # noqa: E402


def exponent_sums(w, num_generators: int) -> list[int]:
    sums = [0] * num_generators
    for x in w:
        sums[abs(x) - 1] += 1 if x > 0 else -1
    return sums


def pres(generators: str, *relators: str) -> GroupPresentation:
    gens = tuple(generators.split())
    return GroupPresentation(gens, tuple(word_from_str(r, gens) for r in relators))


# the generator-loop images computed for the two irregular surfaces
RELATORS_FIRST = ("a^2 c", "d c^-1 b^-1 c", "a b d^-2")
RELATORS_SECOND = ("d^2 a^-1", "a b a c", "d c^-1 b^-1 c")
TWO_GEN_FIRST = pres("A B", "A^-1 B^-1 A^2 B^2")
TWO_GEN_SECOND = pres("A B", "A B^-1 A^2 B^2")
# a has 2 letters, b and c 9 each, so a runs innermost from rank 3 on
RAREST_FIRST = pres("a b c", "a b^2 c b^-1 c^2", "b c b c^-1 b^-1 a^-1 c", "c^3 b^-3")


class TestWords:
    def test_free_reduce(self):
        w = word_from_str("a a^-1 b", ("a", "b"))
        assert free_reduce(w) == word_from_str("b", ("a", "b"))

    def test_cyclic_reduce_conjugate_to_empty(self):
        w = word_from_str("a b b^-1 a^-1", ("a", "b"))
        assert free_reduce(w) == ()
        assert cyclic_reduce(w) == ()

    def test_cyclic_reduce_strips_conjugation(self):
        gens = ("a", "b", "c", "d")
        conjugated = word_from_str("a^-1 a^2 c a", gens)
        reduced = cyclic_reduce(conjugated)
        target = word_from_str("a^2 c", gens)
        rotations = {
            target[k:] + target[:k] for k in range(len(target))
        }
        assert reduced in rotations

    def test_round_trip(self):
        gens = ("a", "b")
        for text in ("a^-1 b^-1 a^2 b^2", "a", "b^-3 a^2"):
            w = word_from_str(text, gens)
            assert word_to_str(w, gens) == text

    def test_unknown_generator(self):
        with pytest.raises(PresentationFormatError):
            word_from_str("z", ("a",))

    @pytest.mark.parametrize("letter", [0, 3, -3])
    def test_presentation_letter_out_of_range(self, letter):
        with pytest.raises(ValueError, match=f"letter {letter} out of range"):
            GroupPresentation(("a", "b"), ((1, letter),))


GENERATORS = ("a", "b", "c", "d")
reduced_words = st.lists(
    st.integers(1, len(GENERATORS)).flatmap(lambda x: st.sampled_from((x, -x))), max_size=30,
).map(free_reduce)


class TestWordProperties:
    @settings(max_examples=100, deadline=None)
    @given(reduced_words)
    def test_string_round_trip(self, w):
        assert word_from_str(word_to_str(w, GENERATORS), GENERATORS) == w

    @settings(max_examples=100, deadline=None)
    @given(reduced_words)
    def test_inverse(self, w):
        assert inverse(inverse(w)) == w
        assert free_reduce(w + inverse(w)) == ()
        assert exponent_sums(inverse(w), len(GENERATORS)) == [
            -e for e in exponent_sums(w, len(GENERATORS))]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(reduced_words, max_size=4))
    def test_exponent_sum_matrix_columns_are_exponent_sums(self, words):
        m = exponent_sum_matrix(words, len(GENERATORS))
        assert (m.rows, m.cols) == (len(GENERATORS), len(words))
        for j, w in enumerate(words):
            assert [m[i, j] for i in range(m.rows)] == exponent_sums(w, len(GENERATORS))

    def test_exponent_sum_matrix_without_words_or_generators(self):
        assert exponent_sum_matrix([], 3) == IntegerMatrix(3, 0, {})
        assert exponent_sum_matrix([(), ()], 0) == IntegerMatrix(0, 2, {})

    @settings(max_examples=50, deadline=None)
    @given(st.lists(reduced_words, max_size=4))
    def test_presentation_round_trip(self, relators):
        p = GroupPresentation(GENERATORS, tuple(relators))
        assert presentation_from_dict(presentation_to_dict(p)) == p

    @settings(max_examples=50, deadline=None)
    @given(reduced_words)
    def test_cyclic_reduce_is_a_reduced_conjugate(self, w):
        c = cyclic_reduce(w)
        assert free_reduce(c) == c
        assert len(c) < 2 or c[0] != -c[-1]
        # w = u c u^-1 with u the stripped prefix
        u = w[:(len(w) - len(c)) // 2]
        assert free_reduce(u + c + inverse(u)) == w


class TestAbelianization:
    def test_two_generator_relator(self):
        assert abelianization(TWO_GEN_FIRST) == AbelianGroup(1)

    def test_cyclic(self):
        assert abelianization(pres("a", "a^3")) == AbelianGroup(0, (3,))

    def test_four_generator_images(self):
        # exponent matrix is the injective 4x3 map with free cokernel
        assert abelianization(pres("a b c d", *RELATORS_FIRST)) == AbelianGroup(1)

    def test_free_group(self):
        assert abelianization(pres("a b")) == AbelianGroup(2)

    def test_a_list_relator_is_copied(self):
        # the caller's list must not change p under its cached abelianization
        r = [1, 1]
        p = GroupPresentation(["a"], (r,))
        assert abelianization(p) == AbelianGroup(0, (2,))
        r.append(1)
        assert str(p) == "< a | a^2 >"
        assert p == pres("a", "a^2") and hash(p) == hash(pres("a", "a^2"))
        assert hom_count(p, catalog_group("C3")) == (1, 0)
        assert abelianization(p) == AbelianGroup(0, (2,))


class TestTietze:
    def test_first_irregular_presentation(self):
        out = tietze_simplify(pres("a b c d", *RELATORS_FIRST))
        assert len(out.generators) == 2
        assert len(out.relators) == 1
        assert len(out.relators[0]) == 6

    def test_second_irregular_presentation(self):
        out = tietze_simplify(pres("a b c d", *RELATORS_SECOND))
        assert len(out.generators) == 2
        assert len(out.relators) == 1
        assert len(out.relators[0]) == 6

    def test_redundant_generator_dropped(self):
        out = tietze_simplify(pres("a b", "b"))
        assert out.generators == ("a",)
        assert out.relators == ()

    def test_free_generators_survive(self):
        out = tietze_simplify(pres("a b"))
        assert out.generators == ("a", "b")

    @pytest.mark.parametrize("relators", [RELATORS_FIRST, RELATORS_SECOND])
    def test_abelianization_preserved(self, relators):
        p = pres("a b c d", *relators)
        assert abelianization(tietze_simplify(p)) == abelianization(p)

    def test_abelianization_preserved_on_random_presentations(self):
        rng = random.Random(7)
        for _ in range(40):
            ngens = rng.randint(1, 4)
            gens = tuple("abcd"[:ngens])
            relators = tuple(
                tuple(
                    letter(rng.randrange(ngens), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 6))
                )
                for _ in range(rng.randint(0, 3))
            )
            p = GroupPresentation(gens, relators)
            assert abelianization(tietze_simplify(p)) == abelianization(p)


def with_redundant_columns(rng: random.Random, p: GroupPresentation) -> GroupPresentation:
    """p with relators added, in shuffled order, whose exponent-sum columns
    repeat one of p's (a relator read backwards), flip its sign (its
    inverse) or vanish (a commutator, w w^-1 shuffled, the empty word)."""
    rank, words = len(p.generators), list(p.relators)
    for w in p.relators:
        extra = [w[::-1], inverse(w), ()]
        if rank:
            a, b = letter(rng.randrange(rank), 1), letter(rng.randrange(rank), 1)
            extra.append((a, b, -a, -b))
        zero = list(w + inverse(w))
        rng.shuffle(zero)
        extra.append(tuple(zero))
        words += rng.sample(extra, rng.randint(1, len(extra)))
    rng.shuffle(words)
    return GroupPresentation(p.generators, tuple(words))


def test_abelianization_is_the_cokernel_of_every_exponent_sum_column():
    # abelianization reduces only the distinct nonzero columns; the oracle
    # reduces one column per relator, repeated and zero ones included
    raw = [pi1_presentation(validate_gluing(build_four_lines(b))) for b in all_gluings()]
    raw += [pi1_presentation(validate_gluing(gluing_from_dict(nlines.random_n_lines(n, seed))))
            for n in range(4, 13, 2) for seed in range(4)]
    assert len(raw) == 36 + 20
    rng = random.Random(13)
    seeded = [with_redundant_columns(rng, random_presentation(rng, rng.randint(0, 5),
                                                              rng.randint(0, 4)))
              for _ in range(80)]
    seeded += [with_redundant_columns(rng, p) for p in raw[::7]]
    for p in raw + seeded:
        full = exponent_sum_matrix(p.relators, len(p.generators))
        assert abelianization(p) == cokernel_invariants(full), p
    assert any(abelianization(p).torsion for p in seeded)


# -- the Nielsen search and its kept counts, against the rewrite they replace --

def _substitute(w, letter, replacement):
    """w with ``letter`` replaced by ``replacement`` and its inverse by the inverse."""
    inv = inverse(replacement)
    out = []
    for x in w:
        out.extend(replacement if x == letter else inv if x == -letter else (x,))
    return tuple(out)


def _normalize(words):
    return [w for w in map(cyclic_reduce, words) if w]


def rewrite_oracle(alive, words):
    """Every Nielsen candidate's total length by rewriting every relator, and
    the move the rewrite-every-candidate search took: its key and relators."""
    total = sum(map(len, words))
    lengths, best = {}, None
    for x, y in itertools.permutations(alive, 2):
        for side in (0, 1):
            for s in (1, -1):
                new = _normalize([_substitute(w, x, (s * y, x) if side == 0 else (x, s * y))
                                  for w in words])
                key = (sum(map(len, new)), x, y, side, s)
                lengths[key[1:]] = key[0]
                if key[0] < total and (best is None or key < best[0]):
                    best = (key, new)
    return lengths, best


def random_cyclic_words(rng, gens, count, longest):
    words = (cyclic_reduce(tuple(rng.choice(gens) * rng.choice((1, -1))
                                 for _ in range(rng.randint(1, longest))))
             for _ in range(count))
    return [w for w in words if w]


# length 1 and 2, x and y alone, and cancellations across the wrap: x -> y x
# turns 1 3 -2 into 2 1 3 -2, whose ends cancel
NIELSEN_CASES = [
    [(1,), (2,)],
    [(1,), (1, 2)],
    [(1, 2)],
    [(-2, 1)],
    [(1, -2)],
    [(1, 1), (2, -1)],
    [(2, 1, 2, -1)],
    [(1, 2, -1, -2)],
    [(1, 1, 2, 2), (1, -2, -2)],
    [(1, 3, -2)],
    [(-1, 3, 2)],
    [(2, 3, 1)],
    [(3, -1, -2)],
    [(1, 3, -2), (-2, 3, -1, 3)],
    [(1,), (2,), (3,), (1, 3), (2, -3)],
]


def nielsen_cases():
    rng = random.Random(11)
    assert all(_normalize(words) == words for words in NIELSEN_CASES)
    yield from NIELSEN_CASES
    for _ in range(60):  # x and y alone
        yield random_cyclic_words(rng, (1, 2), rng.randint(1, 3), 6)
    for _ in range(240):
        gens = tuple(range(1, rng.randint(2, 4) + 1))
        yield random_cyclic_words(rng, gens, rng.randint(1, 5), rng.choice((2, 5, 9)))


class TestNielsenScores:
    @staticmethod
    def alive(words):
        return sorted({abs(x) for w in words for x in w} | {1, 2})

    def test_every_score_equals_the_rewritten_length(self):
        for words in nielsen_cases():
            alive = self.alive(words)
            lengths, _ = rewrite_oracle(alive, words)
            scores = {tuple(key): length for length, *key in
                      grouptheory._nielsen_scores(alive, grouptheory._Relators(words))}
            assert scores == lengths, words

    def test_the_winning_move_is_the_rewrite_searchs(self):
        moves = 0
        for words in nielsen_cases():
            alive = self.alive(words)
            _, best = rewrite_oracle(alive, words)
            relators = grouptheory._Relators(words)
            assert grouptheory._nielsen_once(alive, relators) == (best is not None), words
            if best is not None:
                moves += 1
                assert relators.words == best[1], words
        assert moves > 100


def reference_tietze(p):
    """Tietze as it ran before the counts: a Counter of every relator per
    elimination, and every relator rewritten for every Nielsen candidate."""
    alive = list(range(1, len(p.generators) + 1))
    words = _normalize(p.relators)
    while True:
        best = min(((len(w), g, i) for i, w in enumerate(words)
                    for g, c in Counter(map(abs, w)).items() if c == 1), default=None)
        if best is None:
            move = rewrite_oracle(alive, words)[1]
            if move is None:
                break
            words = move[1]
            continue
        _, gen, ridx = best
        rel = words[ridx]
        pos = next(i for i, x in enumerate(rel) if abs(x) == gen)
        rotated = rel[pos:] + rel[:pos]
        tail = rotated[1:]
        alive.remove(gen)
        words = _normalize([_substitute(w, gen, inverse(tail) if rotated[0] > 0 else tail)
                            for i, w in enumerate(words) if i != ridx])
    position = {x: new for new, x in enumerate(alive, 1)}
    return GroupPresentation(
        tuple(p.generators[x - 1] for x in alive),
        tuple(tuple(position[x] if x > 0 else -position[-x] for x in w) for w in words))


def test_tietze_matches_the_rewrite_every_relator_search():
    rng = random.Random(17)
    for _ in range(300):
        gens = "abcdef"[:rng.randint(1, 6)]
        p = GroupPresentation(tuple(gens), tuple(
            tuple(rng.choice(range(1, len(gens) + 1)) * rng.choice((1, -1))
                  for _ in range(rng.randint(0, 10)))
            for _ in range(rng.randint(0, 6))))
        assert tietze_simplify(p) == reference_tietze(p), p


def assert_counts_fresh(relators):
    """The kept counts of ``relators`` equal a recount of its words."""
    words = relators.words
    assert all(w and w == cyclic_reduce(w) for w in words)
    letters = [Counter(map(abs, w)) for w in words]
    assert relators.letters == letters
    assert relators.single == [min([g for g, c in counts.items() if c == 1], default=0)
                               for counts in letters]
    assert relators.total == sum(map(len, words))
    assert relators.bigrams() == Counter(itertools.chain.from_iterable(
        zip(w, w[1:] + w[:1]) for w in words))


def moves_with_fresh_counts(p, every):
    """Run Tietze's moves on p, checking the kept counts after every
    ``every``-th move (bigrams not read in between are counted later);
    the moves made and the relators reached."""
    alive = list(range(1, len(p.generators) + 1))
    relators = grouptheory._Relators(p.relators)
    assert_counts_fresh(relators)
    moves = 0
    while (grouptheory._eliminate_once(alive, relators)
           or grouptheory._nielsen_once(alive, relators)):
        moves += 1
        if moves % every == 0:
            assert_counts_fresh(relators)
    assert_counts_fresh(relators)
    return moves, relators.words


class TestKeptCounts:
    @pytest.mark.parametrize("every", [1, 3])
    def test_random_presentations(self, every):
        rng = random.Random(5)
        for _ in range(150):
            gens = "abcde"[:rng.randint(1, 5)]
            p = GroupPresentation(tuple(gens), tuple(random_cyclic_words(
                rng, range(1, len(gens) + 1), rng.randint(0, 5), 10)))
            moves, words = moves_with_fresh_counts(p, every)
            assert len(words) == len(tietze_simplify(p).relators)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_n_lines(self, seed):
        raw = pi1_presentation(validate_gluing(gluing_from_dict(nlines.random_n_lines(8, seed))))
        simplified = tietze_simplify(raw)
        for every in (1, 3):
            moves, words = moves_with_fresh_counts(raw, every)
            assert moves > 20
            assert len(words) == len(simplified.relators)
            assert sum(map(len, words)) == sum(map(len, simplified.relators))


def brute_force_hom_count(p: GroupPresentation, perms) -> tuple[int, int]:
    """(total, surjective) by walking every image tuple, with its own composition code.

    ``perms`` lists the target group's elements as permutation tuples.
    """
    e = tuple(range(len(perms[0])))

    def mul(a, b):
        return tuple(map(a.__getitem__, b))

    inv = {a: tuple(sorted(e, key=a.__getitem__)) for a in perms}
    generates: dict[frozenset, bool] = {}
    total = surjective = 0
    for images in itertools.product(perms, repeat=len(p.generators)):
        ok = True
        for rel in p.relators:
            cur = e
            for x in rel:
                cur = mul(cur, images[x - 1] if x > 0 else inv[images[-x - 1]])
            ok = ok and cur == e
        if not ok:
            continue
        total += 1
        key = frozenset(images)
        if key not in generates:
            closure = {e}
            frontier = [e]
            while frontier:
                nxt = []
                for h in frontier:
                    for gen in key:
                        x = mul(h, gen)
                        if x not in closure:
                            closure.add(x)
                            nxt.append(x)
                frontier = nxt
            generates[key] = len(closure) == len(perms)
        surjective += generates[key]
    return total, surjective


def random_presentation(rng: random.Random, rank: int, relators: int) -> GroupPresentation:
    gens = tuple("abcde"[:rank])
    return GroupPresentation(gens, tuple(
        tuple(letter(rng.randrange(rank), rng.choice((1, -1)))
              for _ in range(rng.randint(1, 7)))
        for _ in range(relators if rank else 0)
    ))


def long_random_presentation(rng: random.Random, rank: int) -> GroupPresentation:
    """Up to 12 relators, each empty, of 1-8 letters or of 20-60 letters."""
    return GroupPresentation(tuple("abcde"[:rank]), tuple(
        tuple(letter(rng.randrange(rank), rng.choice((1, -1)))
              for _ in range(rng.choice((0, rng.randint(1, 8), rng.randint(20, 60)))))
        for _ in range(rng.randint(0, 12))
    ))


def diamond(radius: int, units: bool = True) -> GroupPresentation:
    """<a, b | a^i b^j for 1 <= |i| + |j| <= radius>, with ``units`` False
    leaving out every relator whose i or j is +-1; trivial either way."""
    return GroupPresentation(("a", "b"), tuple(
        (letter(0, 1 if i > 0 else -1),) * abs(i) + (letter(1, 1 if j > 0 else -1),) * abs(j)
        for i in range(-radius, radius + 1) for j in range(-radius, radius + 1)
        if 1 <= abs(i) + abs(j) <= radius and (units or 1 not in (abs(i), abs(j)))
    ))


def powers_product(*gens) -> set[tuple[int, ...]]:
    """The products g_1^e_1 g_2^e_2 ... of (generator, order) pairs, e_i below the order."""
    elements = {tuple(range(len(gens[0][0])))}
    for g, order in gens:
        powers = [tuple(range(len(g)))]
        for _ in range(order - 1):
            powers.append(tuple(map(g.__getitem__, powers[-1])))
        elements = {tuple(map(a.__getitem__, b)) for a in elements for b in powers}
    return elements


# non-cyclic abelian groups built by hand, outside the catalog
HAND_BUILT = [
    FiniteGroup("V4", 4, tuple(sorted(
        powers_product(((1, 0, 3, 2), 2), ((2, 3, 0, 1), 2))))),
    FiniteGroup("C2xC4", 6, tuple(sorted(
        powers_product(((1, 0, 2, 3, 4, 5), 2), ((0, 1, 3, 4, 5, 2), 4))))),
]


def generated_order(group: FiniteGroup, gens) -> int:
    """Order of <gens>, by multiplying the whole set by itself until it stops growing."""
    current = {group.identity_index, *gens}
    while True:
        nxt = current | {group._mult[a][b] for a in current for b in current}
        if nxt == current:
            return len(current)
        current = nxt


class TestHomCount:
    def test_trivial_presentation_into_a4(self):
        assert hom_count(GroupPresentation((), ()), catalog_group("A4")) == (1, 0)

    def test_first_group_surjects_onto_a4(self):
        total, surj = hom_count(TWO_GEN_FIRST, catalog_group("A4"))
        assert (total, surj) == (36, 24)
        assert (total, surj) == brute_force_hom_count(TWO_GEN_FIRST, catalog_oracle("A4"))

    def test_second_group_has_no_a4_quotient(self):
        total, surj = hom_count(TWO_GEN_SECOND, catalog_group("A4"))
        assert (total, surj) == (12, 0)
        assert (total, surj) == brute_force_hom_count(TWO_GEN_SECOND, catalog_oracle("A4"))

    def test_witness_homomorphism_into_a4(self):
        # A -> (234), B -> (123) kills the relator and generates
        group = catalog_group("A4")
        images = (group.elements.index((0, 2, 3, 1)), group.elements.index((1, 2, 0, 3)))
        cur = group.identity_index
        for x in TWO_GEN_FIRST.relators[0]:
            image = images[x - 1] if x > 0 else group._inv[images[-x - 1]]
            cur = group._mult[cur][image]
        assert cur == group.identity_index
        assert group.subgroup_size(images) == group.order

    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_free_group_counts_into_cyclic(self, rank, n):
        p = GroupPresentation(tuple("abc"[:rank]), ())
        total, _ = hom_count(p, catalog_group(f"C{n}"))
        assert total == n ** rank

    # A5 stops at rank 2: its rank-3 oracle walks 216,000 tuples per presentation
    @pytest.mark.parametrize("name, rank", [
        (name, rank) for name in CATALOG_NAMES for rank in range(4 if name != "A5" else 3)
    ])
    def test_matches_full_enumeration(self, name, rank):
        # a cyclic group, counted from the exact invariant factors, also on more
        # relators than generators, long relators and empty ones
        rng = random.Random(f"{name}:{rank}")
        perms = catalog_oracle(name)
        draws = [random_presentation(rng, rank, relators) for relators in (0, 1, 2, 2)]
        if name[0] == "C" and rank:
            draws += [long_random_presentation(rng, rank) for _ in range(3)]
        for p in draws:
            assert hom_count(p, catalog_group(name)) == brute_force_hom_count(p, perms), str(p)

    @pytest.mark.parametrize("name", ["C2", "C3", "S3"])
    def test_rank_four_matches_full_enumeration(self, name):
        # the cyclic groups also at rank 5, with the same draws at rank 4
        rng = random.Random(f"{name}:4")
        perms = catalog_oracle(name)
        for rank in (4, 5) if name != "S3" else (4,):
            for relators in (0, 1, 2, 3):
                p = random_presentation(rng, rank, relators)
                assert hom_count(p, catalog_group(name)) == brute_force_hom_count(p, perms), str(p)

    @pytest.mark.parametrize("group", HAND_BUILT, ids=["V4", "C2xC4"])
    @pytest.mark.parametrize("rank", range(4))
    def test_non_cyclic_abelian_targets_match_full_enumeration(self, group, rank):
        # not cyclic, so they take the orbit enumeration
        assert not group.is_cyclic
        rng = random.Random(f"{group.name}:{rank}")
        for relators in (0, 1, 2, 2):
            p = random_presentation(rng, rank, relators)
            assert hom_count(p, group) == brute_force_hom_count(p, group.elements), str(p)

    def test_cyclic_counts_walk_no_tuple(self, monkeypatch):
        def walk(*args):
            raise AssertionError("an image tuple was walked")

        expected = {n: brute_force_hom_count(RAREST_FIRST, catalog_oracle(f"C{n}"))
                    for n in range(2, 13)}
        monkeypatch.setattr(grouptheory, "_orbit_heads", walk)
        monkeypatch.setattr(FiniteGroup, "subgroup_size", walk)
        for n in range(2, 13):
            assert hom_count(RAREST_FIRST, catalog_group(f"C{n}")) == expected[n]

    def test_rank_eleven_counts_into_c12(self):
        # abelianizes to Z^10 + Z/2; walking it would take 6.2e10 tuples
        p = pres("a b c d e f g h i j k", "a^2 b^4 c^-6")

        def homs(t):
            return gcd(2, t) * t ** 10

        assert hom_count(p, catalog_group("C12"), budget=10 ** 15) == (
            2 * 12 ** 10, homs(12) - homs(6) - homs(4) + homs(2))

    @pytest.mark.parametrize("d", range(2, 13))
    def test_power_relator_into_every_cyclic_group(self, d):
        # gcd(d, n) images satisfy x^d = e: only the trivial one when gcd(d, n) = 1
        p = pres("x", f"x^{d}")
        for n in range(2, 13):
            counts = hom_count(p, catalog_group(f"C{n}"))
            assert counts == brute_force_hom_count(p, catalog_oracle(f"C{n}"))
            assert counts[0] == gcd(d, n)

    @pytest.mark.parametrize("name", ["C6", "S3", "D4", "Q8", "A4"])
    def test_rarest_generator_first(self, name):
        p = RAREST_FIRST
        assert hom_count(p, catalog_group(name)) == brute_force_hom_count(p, catalog_oracle(name))

    def test_rarest_generator_runs_innermost(self):
        settled, around = RAREST_FIRST._slots
        # b and c keep slots 0 and 1 (inverses 3 and 4) and a is renumbered last, to
        # slots 2 and 5; c^3 b^-3 lacks it, the others hold it once
        assert [sorted(set(w)) for w in settled] == [[1, 3]]
        assert [len(steps) for steps in around] == [1, 1]
        assert {2, 5}.isdisjoint(x for steps in around for segment, _ in steps for x in segment)

    def test_budget_is_on_the_given_rank(self):
        # abelianizes to Z/2: a cyclic group walks no tuple, but the budget
        # still bounds the n^5 tuples of the given presentation
        p = pres("a b c d e", "a^2", "b a", "c b^-1", "d c e^-1", "e")
        with pytest.raises(BudgetExceededError, match=r"12\^5"):
            hom_count(p, catalog_group("C12"), budget=60 ** 3)
        assert hom_count(p, catalog_group("C11"), budget=60 ** 3) == (1, 0)
        assert hom_count(p, catalog_group("C2"), budget=60 ** 3) == (2, 1)

    def test_only_the_cyclic_groups_are_abelian(self):
        # so every abelian catalog group is counted in closed form
        def commutes(name):
            perms = catalog_oracle(name)
            return all(tuple(map(a.__getitem__, b)) == tuple(map(b.__getitem__, a))
                       for a in perms for b in perms)

        cyclic = [f"C{n}" for n in range(2, 13)]
        assert [name for name in CATALOG_NAMES if commutes(name)] == cyclic
        assert [g.name for g in default_catalog() if g.is_cyclic] == cyclic

    def test_empty_presentation_builds_no_orbit_table(self, monkeypatch):
        # the benchmark's set-up code: every catalog group built, none enumerated
        searched = []
        monkeypatch.setattr(grouptheory, "_automorphisms",
                            lambda group: searched.append(group.name) or [])
        catalog_group.cache_clear()
        assert fingerprint(GroupPresentation((), ())).counts[0] == ("C2", 1, 0)
        assert searched == []
        assert [g.name for g in default_catalog()
                if {"_orbit_table", "_orders", "_third_level"} & set(vars(g))] == []
        assert [g.name for g in default_catalog() if "is_cyclic" in vars(g)] == []

    def test_budget(self):
        p = GroupPresentation(("a", "b", "c", "d"), ())
        with pytest.raises(BudgetExceededError):
            hom_count(p, catalog_group("A5"), budget=10 ** 6)

    @pytest.mark.parametrize("budget", [True, 2.5e9, None, "9"],
                             ids=["bool", "float", "None", "str"])
    def test_a_budget_that_is_not_an_int_raises_type_error(self, budget):
        # rejected, not coerced: True once counted as a budget of 1, and 2.5e9 passed
        for name in ("A4", "C6"):
            with pytest.raises(TypeError, match="^budget must be an integer, not "):
                hom_count(TWO_GEN_FIRST, catalog_group(name), budget=budget)
        with pytest.raises(TypeError, match="^budget must be an integer, not "):
            fingerprint(TWO_GEN_FIRST, budget=budget)

    def test_a_budget_exit_counts_no_group(self, monkeypatch):
        # S3 ... D6 pass 60^3 at rank 4 and S4 does not: no group is counted before it raises
        def count(*args):
            raise AssertionError("a group was counted")

        monkeypatch.setattr(grouptheory, "hom_count", count)
        monkeypatch.setattr(FiniteGroup, "subgroup_size", count)
        p = pres("a b c d", "a b c d a^-1 b^-1 c^-1 d^-1")
        message = "S4: 24^4 image tuples exceed the budget of 216000; apply tietze_simplify first"
        with pytest.raises(BudgetExceededError) as raised:
            fingerprint(p, budget=60 ** 3)
        assert str(raised.value) == message

    def test_a_fingerprint_checks_each_group_once_and_counts_it_through_hom_count(
            self, monkeypatch):
        # the benchmark's tracer times the counts at the module's hom_count
        checked, counted = [], []
        check, count = grouptheory._check_budget, grouptheory.hom_count
        monkeypatch.setattr(grouptheory, "_check_budget",
                            lambda p, g, budget: checked.append(g.name) or check(p, g, budget))
        monkeypatch.setattr(grouptheory, "hom_count",
                            lambda p, g, *args, **kw: counted.append(g.name) or count(p, g, *args,
                                                                                       **kw))
        fingerprint(pres("a b c", "a b c a^-1 b^-1 c^-1"))
        assert checked == counted == list(CATALOG_NAMES)

    def test_an_outer_tuple_that_generates_computes_no_closure_per_last_image(
            self, monkeypatch):
        # at rank 4, with a head (a, b) that does not generate S3 but (a, b, c) that does
        sizes = []
        size = FiniteGroup.subgroup_size
        monkeypatch.setattr(FiniteGroup, "subgroup_size",
                            lambda g, images: sizes.append(images) or size(g, images))
        group = catalog_group("S3")
        assert hom_count(pres("a b c d"), group) == brute_force_hom_count(pres("a b c d"),
                                                                          catalog_oracle("S3"))
        assert [t for t in sizes if len(t) == 4 and size(group, t[:3]) == 6] == []

    def test_counts_below_rank_four_compute_no_subgroup_size(self, monkeypatch):
        # the pair heads carry whether they generate G, and a rank-3 count keeps its
        # own closures per (head, last image), so only middle tuples fill the cache
        presentations = [TWO_GEN_FIRST, TWO_GEN_SECOND, RAREST_FIRST,
                         pres("a b c", "a b c a^-1 b^-1 c^-1")]
        expected = [fingerprint(p, non_cyclic_groups()) for p in presentations]

        def size(*args):
            raise AssertionError("subgroup_size was called")

        monkeypatch.setattr(FiniteGroup, "subgroup_size", size)
        groups = tuple(FiniteGroup(g.name, g.degree, g.elements) for g in non_cyclic_groups())
        assert [fingerprint(p, groups) for p in presentations] == expected

    def test_rank_three_fingerprints_close_each_head_and_last_image_once(self, monkeypatch):
        closed = []
        span = FiniteGroup._span
        monkeypatch.setattr(FiniteGroup, "_span", lambda g, gens: closed.append(
            (g.name, tuple(gens))) or span(g, gens))
        groups = tuple(FiniteGroup(g.name, g.degree, g.elements) for g in non_cyclic_groups())
        for p in (RAREST_FIRST, pres("a b c", "a b c a^-1 b^-1 c^-1"), RAREST_FIRST):
            assert fingerprint(p, groups) == fingerprint(p, non_cyclic_groups())
        triples = Counter(key for key in closed if len(key[1]) == 3)
        assert triples and max(triples.values()) == 1

    def test_the_first_group_to_fail_gives_the_message(self, monkeypatch):
        # S3 fails the letter steps before S4 fails its 24^4 tuples
        monkeypatch.setattr(grouptheory, "MAX_LETTER_STEPS", 10)
        p = pres("a b c d", "a b c d a^-1 b^-1 c^-1 d^-1")
        with pytest.raises(BudgetExceededError, match="letter steps"):
            fingerprint(p, budget=60 ** 3)

    def test_letter_bound(self, monkeypatch):
        # D4 walks each of its image-pair orbits on 60 letters; C6 walks nothing
        p = pres("a b", " ".join(["a b a^-1 b^-1"] * 15))
        steps = len(grouptheory._orbit_heads(catalog_group("D4"), 2)) * 60
        monkeypatch.setattr(grouptheory, "MAX_LETTER_STEPS", steps - 1)
        with pytest.raises(BudgetExceededError, match="hom_count"):
            hom_count(p, catalog_group("D4"))
        assert hom_count(p, catalog_group("C6")) == (36, 24)
        monkeypatch.setattr(grouptheory, "MAX_LETTER_STEPS", steps)
        assert hom_count(p, catalog_group("D4")) == brute_force_hom_count(p, catalog_oracle("D4"))

    def test_letter_bound_counts_the_innermost_walk(self, monkeypatch):
        # per image pair of b and c: the 20 letters once, then two lookups per
        # letter of a (2 of them) for each of the 6 images of a
        group = catalog_group("S3")
        steps = len(grouptheory._orbit_heads(group, 2)) * (20 + 2 * 6 * 2)
        monkeypatch.setattr(grouptheory, "MAX_LETTER_STEPS", steps - 1)
        with pytest.raises(BudgetExceededError, match="hom_count"):
            hom_count(RAREST_FIRST, group)
        monkeypatch.setattr(grouptheory, "MAX_LETTER_STEPS", steps)
        assert hom_count(RAREST_FIRST, group) == brute_force_hom_count(RAREST_FIRST,
                                                                       catalog_oracle("S3"))

    def test_many_relators_count_in_little_memory(self):
        # repeated and empty relators are dropped before the Smith form, so the
        # 99,999 relators leave a 2 x 2 one: a, b^2
        p = GroupPresentation(("a", "b"), ((1,), (2, 2), ()) * 33333)
        tracemalloc.start()
        try:
            assert hom_count(p, catalog_group("C12")) == (2, 0)
            assert hom_count(p, catalog_group("C2")) == (2, 1)
            assert tracemalloc.get_traced_memory()[1] < 10 ** 7
        finally:
            tracemalloc.stop()

    def test_thousands_of_distinct_columns_abelianize_in_little_memory(self):
        # 2,000 distinct one-letter relators on 2,000 generators: 2,000 nonzero
        # exponent sums, where a dense 2,000 x 2,000 matrix reached 65 MB
        p = GroupPresentation(tuple(f"g{i}" for i in range(2000)),
                              tuple((i + 1,) for i in range(2000)))
        tracemalloc.start()
        try:
            assert abelianization(p) == AbelianGroup(0)
            assert tracemalloc.get_traced_memory()[1] < 10 ** 7
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("units", [True, False], ids=["units", "no-units"])
    def test_thousands_of_distinct_relators_count_into_c12(self, units, monkeypatch):
        # 3,444 distinct exponent vectors in 95,284 letters; without the
        # relators a^+-1 b^j and a^i b^+-1 (3,448 vectors in 102,180 letters)
        # the Smith form has no unit entry, and starts with a 2 x 2 unimodular step
        steps = []
        monkeypatch.setattr(intlinalg, "_unimodular",
                            lambda a, b, unimodular=intlinalg._unimodular:
                            steps.append((a, b)) or unimodular(a, b))
        p = diamond(41) if units else diamond(43, units=False)
        assert len(p.relators) == (3444 if units else 3448)
        start = time.perf_counter()
        assert hom_count(p, catalog_group("C12")) == (1, 0)
        assert time.perf_counter() - start < 5
        assert bool(steps) != units

    def test_empty_relators_are_not_walked(self):
        # each always holds; walking them would visit 10^6 relators per image tuple
        free = GroupPresentation(("a", "b", "c"), ())
        p = GroupPresentation(free.generators, ((),) * 10 ** 6)
        start = time.perf_counter()
        assert hom_count(p, catalog_group("A5")) == hom_count(free, catalog_group("A5"))
        assert time.perf_counter() - start < 2

    def test_surjectivity_closure_matches_direct_enumeration(self):
        rng = random.Random(3)
        for group in default_catalog():
            for _ in range(5):
                gens = tuple(rng.randrange(group.order)
                             for _ in range(rng.randint(0, 3)))
                assert group.subgroup_size(gens) == generated_order(group, gens)

    def test_closure_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(grouptheory, "MAX_CLOSURE_CACHE", 5)
        s4 = catalog_group("S4")
        group = FiniteGroup("S4", s4.degree, s4.elements)
        pairs = list(itertools.combinations(range(group.order), 2))[:12]
        for _ in range(2):
            for pair in pairs:
                assert group.subgroup_size(pair) == generated_order(group, pair)
                assert len(group._closure_cache) <= 5


def conjugation_orbit_table(group: FiniteGroup):
    """Per conjugacy class: (representative a, class size, C(a)-orbits on G).

    The orbit table of G acting on image pairs by conjugation alone, in the
    format of ``FiniteGroup._orbit_table``: Inn(G) is a subgroup of Aut(G),
    so counts summed over its orbits are the same.  The orbits of the
    centralizer C(a) are (representative b, orbit size) pairs, with the
    smallest index of each class or orbit as its representative.
    """
    n = group.order
    mult, inv = group._mult, group._inv

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


NON_CYCLIC = [name for name in CATALOG_NAMES if name[0] != "C"]
AUT_ORDERS = {"S3": 6, "D4": 8, "Q8": 24, "A4": 24, "D6": 12, "S4": 24, "A5": 120,
              "V4": 6, "C2xC4": 8}


def non_cyclic_groups() -> list[FiniteGroup]:
    return [catalog_group(name) for name in NON_CYCLIC] + HAND_BUILT


class TestAutomorphismOrbits:
    @pytest.mark.parametrize("group", non_cyclic_groups(), ids=lambda g: g.name)
    def test_automorphisms_respect_the_multiplication(self, group):
        automorphisms = grouptheory._automorphisms(group)
        assert len(automorphisms) == len(set(automorphisms)) == AUT_ORDERS[group.name]
        mult, n = group._mult, group.order
        for s in automorphisms:
            assert sorted(s) == list(range(n))
            assert all(s[mult[x][y]] == mult[s[x]][s[y]] for x in range(n) for y in range(n))

    @pytest.mark.parametrize("group", non_cyclic_groups(), ids=lambda g: g.name)
    def test_head_weights_cover_every_image_tuple(self, group):
        for k in range(4):
            heads = grouptheory._orbit_heads(group, k)
            assert sum(weight for _, weight, _ in heads) == group.order ** min(k, 2)
        # the pair heads are built once per group, for every rank past 1
        assert grouptheory._orbit_heads(group, 2) is grouptheory._orbit_heads(group, 3)
        # a table walks no more heads than the conjugation orbits
        assert len(group._orbit_table) <= len(conjugation_orbit_table(group))

    @pytest.mark.parametrize("group", non_cyclic_groups(), ids=lambda g: g.name)
    def test_each_pair_head_knows_whether_it_generates(self, group):
        for (a, b), _, onto in group._pair_heads:
            assert onto == (generated_order(group, (a, b)) == group.order)

    @pytest.mark.parametrize("group", non_cyclic_groups(), ids=lambda g: g.name)
    def test_third_level_orbits_partition_the_group(self, group):
        # per head: orbits closed under the automorphisms fixing it, disjoint,
        # covering G; only the identity fixes a head that generates G
        automorphisms = grouptheory._automorphisms(group)
        for (a, b), _, onto in grouptheory._orbit_heads(group, 2):
            orbits, _ = group._third_level[a, b]
            fixers = [s for s in automorphisms if s[a] == a and s[b] == b]
            assert onto == (generated_order(group, (a, b)) == group.order)
            assert not onto or fixers == [tuple(range(group.order))]
            assert sum(size for _, size, _, _ in orbits) == group.order
            covered: set[int] = set()
            for c, size, row, inverse_row in orbits:
                assert (row, inverse_row) == (group._mult[c], group._mult[group._inv[c]])
                orbit = {s[c] for s in fixers}
                assert len(orbit) == size and {s[x] for s in fixers for x in orbit} == orbit
                assert c == min(orbit) and not orbit & covered
                covered |= orbit
            assert covered == set(range(group.order))

    @pytest.mark.parametrize("group", [catalog_group(name) for name in ("S3", "D4", "Q8", "A4")]
                             + HAND_BUILT, ids=lambda g: g.name)
    @pytest.mark.parametrize("rank", [3, 4])
    def test_third_level_counts_match_full_enumeration(self, group, rank):
        rng = random.Random(f"third:{group.name}:{rank}")
        for relators in (1, 2) if rank == 4 else (0, 1, 2, 3):
            p = random_presentation(rng, rank, relators)
            assert hom_count(p, group) == brute_force_hom_count(p, group.elements), str(p)

    def test_counts_of_rank_two_or_less_build_no_third_level(self):
        # distinguish and fourlines count only at rank 2 or less
        groups = tuple(FiniteGroup(g.name, g.degree, g.elements) for g in non_cyclic_groups())
        for rank in range(3):
            fingerprint(random_presentation(random.Random(rank), rank, 1), groups)
        assert [g.name for g in groups if "_third_level" in vars(g)] == []
        fingerprint(random_presentation(random.Random(3), 3, 1), groups)
        assert [g.name for g in groups if "_third_level" not in vars(g)] == []

    @pytest.mark.parametrize("name", ["S3", "S4"])
    def test_every_automorphism_is_inner(self, name):
        group = catalog_group(name)
        assert group._orbit_table == conjugation_orbit_table(group)

    @pytest.mark.parametrize("group", non_cyclic_groups(), ids=lambda g: g.name)
    def test_counts_match_the_conjugation_orbit_table(self, group):
        # the same elements with the conjugation-only table in place of the Aut(G) one
        oracle = FiniteGroup(group.name, group.degree, group.elements)
        vars(oracle)["_orbit_table"] = conjugation_orbit_table(oracle)
        rng = random.Random(f"aut:{group.name}")
        for rank in (2, 3):
            for relators in (0, 1, 1, 2, 2, 3):
                p = random_presentation(rng, rank, relators)
                assert hom_count(p, group) == hom_count(p, oracle), str(p)


class TestFingerprint:
    def test_distinguishes_the_two_irregular_groups(self):
        fp1 = fingerprint(TWO_GEN_FIRST)
        fp2 = fingerprint(TWO_GEN_SECOND)
        assert fp1 != fp2
        d1, d2 = fp1.as_dict(), fp2.as_dict()
        assert d1["A4"][1] >= 1
        assert d2["A4"][1] == 0
        # the two groups abelianize identically, so cyclic counts agree
        for n in range(2, 13):
            assert d1[f"C{n}"] == d2[f"C{n}"]

    def test_one_smith_form_per_presentation(self, monkeypatch):
        # every cyclic count of a fingerprint, and a second fingerprint, reads
        # the abelianization kept on the presentation: one column per relator here
        matrices = []
        monkeypatch.setattr(intlinalg, "cokernel_invariants",
                            lambda a: matrices.append(a) or cokernel_invariants(a))
        presentations = [tietze_simplify(pres("a b c d", *relators))
                         for relators in (RELATORS_FIRST, RELATORS_SECOND)]
        presentations += [pres("A B", "A^-1 B^-1 A^2 B^2"), pres("A B", "A B^-1 A^2 B^2")]
        for p in presentations:
            fingerprint(p)
            fingerprint(p)
        assert [(a.rows, a.cols) for a in matrices] == [(len(p.generators), len(p.relators))
                                                        for p in presentations]

    def test_invariant_under_tietze(self):
        p = pres("a b c d", *RELATORS_FIRST)
        catalog = tuple(catalog_group(n) for n in ("C2", "C3", "S3", "A4"))
        assert fingerprint(p, catalog) == fingerprint(tietze_simplify(p), catalog)

    def test_small_torsion_counts(self):
        catalog = (catalog_group("C2"), catalog_group("C3"))
        fp2 = fingerprint(pres("a", "a^2"), catalog).as_dict()
        fp3 = fingerprint(pres("a", "a^3"), catalog).as_dict()
        assert fp2 == {"C2": [2, 1], "C3": [1, 0]}
        assert fp3 == {"C2": [1, 0], "C3": [3, 2]}

    def test_invariant_under_relabelling_and_relator_moves(self):
        catalog = tuple(catalog_group(n) for n in ("C2", "C4", "S3", "A4"))
        base = pres("a b", "a^-1 b^-1 a^2 b^2", "b^4")
        renamed = pres("x y", "x^-1 y^-1 x^2 y^2", "y^4")
        reordered = pres("a b", "b^4", "a^-1 b^-1 a^2 b^2")
        inverted = GroupPresentation(
            base.generators,
            (inverse(base.relators[0]), base.relators[1]),
        )
        rotated = GroupPresentation(
            base.generators,
            (base.relators[0][2:] + base.relators[0][:2],
             base.relators[1]),
        )
        expected = fingerprint(base, catalog)
        for variant in (renamed, reordered, inverted, rotated):
            assert fingerprint(variant, catalog) == expected


class TestCatalog:
    def test_orders(self):
        expected = {
            **{f"C{n}": n for n in range(2, 13)},
            "S3": 6, "D4": 8, "Q8": 8, "A4": 12, "D6": 12, "S4": 24, "A5": 60,
        }
        for name in CATALOG_NAMES:
            group = catalog_group(name)
            assert group.order == expected[name]

    def test_degrees(self):
        assert catalog_group("A4").degree == 4
        assert catalog_group("C2").degree == 2
        assert catalog_group("Q8").degree == 8

    def test_q8_has_unique_involution(self):
        group = catalog_group("Q8")
        involutions = [
            i for i in range(group.order)
            if i != group.identity_index and group._mult[i][i] == group.identity_index
        ]
        assert len(involutions) == 1

    def test_unknown_group(self):
        with pytest.raises(UnknownGroupError):
            catalog_group("M11")

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_elements_match_independent_construction(self, name):
        assert catalog_group(name).elements == catalog_oracle(name)

    @pytest.mark.parametrize("group", [catalog_group(name) for name in CATALOG_NAMES] + HAND_BUILT,
                             ids=lambda group: group.name)
    def test_cayley_table_is_the_naive_one(self, group):
        # (a∘b)(i) = a(b(i)), every product looked up in full
        index = {p: i for i, p in enumerate(group.elements)}
        naive = tuple(tuple(index[tuple(a[b[i]] for i in range(group.degree))]
                            for b in group.elements) for a in group.elements)
        assert group._mult == naive
        assert all(naive[a][group._inv[a]] == group.identity_index for a in range(group.order))

    @pytest.mark.parametrize("elements, message", [
        (((0, 1), (0, 1), (1, 0)), "duplicate"),
        (((1, 0),), "identity"),
        (((0, 1), (0, 0)), "not a permutation"),
        (((0, 1, 2), (1, 0, 2), (0, 2, 1)), "not closed"),
        # (0 1 2)∘(0 1 2) is missing; the walk takes (1 2) as its generator,
        # never the 3-cycle, so the product it lacks is between non-generators
        (((0, 1, 2), (0, 2, 1), (1, 2, 0)), "not closed"),
    ], ids=["duplicate", "no-identity", "non-permutation", "not-closed",
            "not-closed-off-the-generators"])
    def test_finite_group_rejects_bad_elements(self, elements, message):
        with pytest.raises(ValueError, match=message):
            FiniteGroup("bad", len(elements[0]), elements)

    @pytest.mark.parametrize("degree, elements, message", [
        # True == 1 and hashes alike, so this group once equalled C2
        (2, ((0, 1), (True, 0)), r"entry True of the permutation \(True, 0\) .* not bool"),
        (2, ((0, 1), (1.0, 0)), r"entry 1\.0 of the permutation \(1\.0, 0\) .* not float"),
        (2.0, ((0, 1), (1, 0)), "degree must be an integer, not float"),
        (True, ((0,),), "degree must be an integer, not bool"),
    ], ids=["bool-entry", "float-entry", "float-degree", "bool-degree"])
    def test_finite_group_rejects_non_int_entries_and_degree(self, degree, elements, message):
        with pytest.raises(TypeError, match=message):
            FiniteGroup("bad", degree, elements)

    @pytest.mark.parametrize("generators, relators, message", [
        # True == 1 == 1.0, so this presentation once equalled < a | a^2 >
        (("a",), ((True, 1.0),), r"letter True of the relator \(True, 1\.0\) .* not bool"),
        (("a",), ((1, 1.0),), r"letter 1\.0 of the relator \(1, 1\.0\) .* not float"),
        # accepted once, and then str() raised
        ((1, 2), ((1,),), "generator must be a str, not int"),
        # once read as the names "a" and "b"
        ("ab", ((1, 2),), "generators must be a list or tuple, not str"),
    ], ids=["bool-letter", "float-letter", "int-generator", "str-generators"])
    def test_presentation_rejects_non_int_letters_and_non_str_generators(
            self, generators, relators, message):
        with pytest.raises(TypeError, match=message):
            GroupPresentation(generators, relators)


def _parity(p) -> int:
    return sum(p[i] > p[j] for i, j in itertools.combinations(range(len(p)), 2)) % 2


def _quaternion_left_regular() -> list[tuple[int, ...]]:
    """Q8 as its left-regular action on the units ±1, ±i, ±j, ±k."""
    units = [(s, a) for a in range(4) for s in (1, -1)]  # (sign, axis)
    mul_axis = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def mul(u, v):
        (su, au), (sv, av) = u, v
        sw, aw = mul_axis[(au, av)]
        return (su * sv * sw, aw)

    index = {u: i for i, u in enumerate(units)}
    return [tuple(index[mul(g, u)] for u in units) for g in units]


def catalog_oracle(name: str) -> tuple[tuple[int, ...], ...]:
    """Sorted elements of a catalog group, built without its generators."""
    n = {"S3": 3, "D4": 4, "A4": 4, "D6": 6, "S4": 4, "A5": 5}.get(name)
    if name == "Q8":
        perms = _quaternion_left_regular()
    elif name[0] == "C":
        m = int(name[1:])
        perms = [tuple((i + k) % m for i in range(m)) for k in range(m)]
    elif name[0] == "D":
        perms = [tuple((s * i + k) % n for i in range(n)) for k in range(n) for s in (1, -1)]
    elif name[0] == "S":
        perms = list(itertools.permutations(range(n)))
    else:
        perms = [p for p in itertools.permutations(range(n)) if _parity(p) == 0]
    return tuple(sorted(perms))


class TestPresentationJson:
    def test_round_trip(self):
        doc = {"generators": ["A", "B"], "relators": ["A^-1 B^-1 A^2 B^2"]}
        p = presentation_from_dict(doc)
        assert p == TWO_GEN_FIRST
        assert presentation_to_dict(p) == doc

    def test_rejects_duplicate_generators(self):
        with pytest.raises(PresentationFormatError):
            presentation_from_dict({"generators": ["a", "a"], "relators": []})
