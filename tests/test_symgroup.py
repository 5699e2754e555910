import warnings
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declab.symgroup import (
    GF2_POLY,
    affine_family,
    all_perms,
    block_partition_perms,
    char_closed_forms,
    chi_r,
    class_size,
    classical_diamond_distance,
    gf2_mul,
    hook_dimension,
    image_set_perms,
    mn_character,
    pairwise_dependence,
    partition_to_counts,
    partitions,
    perm_operator,
    split_coset_perms,
)
from declab._groupavg import ElementSet
from declab.states import random_cq
from declab.verify import verify_family_hash


def test_perm_operator_basics():
    assert np.array_equal(perm_operator((0, 1, 2)), np.eye(3))
    assert np.array_equal(perm_operator((1, 0)), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_perm_operator_refuses_a_non_permutation():
    # fractional points were once truncated: (0.5, 1) gave the identity and
    # (1.9, 0.2) the swap
    for p in ((0.5, 1), (1.9, 0.2), (0, 0), (0, 2), (1, 1, 0), (0, np.nan)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # refused before any cast that warns
            with pytest.raises(ValueError, match="is not a permutation of 0.."):
                perm_operator(p)


@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
@settings(max_examples=40, deadline=None)
def test_perm_operator_homomorphism(p, q):
    p, q = tuple(p), tuple(q)
    lhs = perm_operator(tuple(p[q[x]] for x in range(5)))      # p after q
    rhs = perm_operator(p) @ perm_operator(q)
    assert np.array_equal(lhs, rhs)
    u = perm_operator(p)
    assert np.array_equal(u @ u.T, np.eye(5))
    assert np.array_equal(perm_operator(np.argsort(p)), u.T)


def test_all_perms():
    assert all_perms(1).tolist() == [[0]]
    total = sum(perm_operator(p) for p in all_perms(5))
    assert np.allclose(total, factorial(4) * np.ones((5, 5)))
    with pytest.raises(ValueError):
        all_perms(9)


def first_use(labels):
    """labels renumbered 0, 1, ... in order of first appearance."""
    seen = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


# each coset rule with an independent canonical form of g's coset: its
# generator, the form, and the closed-form count of cosets
COSET_RULES = {
    "image_set": (
        image_set_perms,
        lambda g, _, k: tuple(sorted(g[:k])),
        lambda d, _, k: comb(d, k)),
    "blocks": (
        block_partition_perms,
        lambda g, d1, d2: frozenset(frozenset(x for x in range(d1 * d2) if g[x] // d2 == b)
                                    for b in range(d1)),
        lambda d, d1, d2: factorial(d) // (factorial(d2) ** d1 * factorial(d1))),
    "split": (
        split_coset_perms,
        lambda g, _, d2: (first_use(x // d2 for x in g), first_use(x % d2 for x in g)),
        lambda d, d1, d2: factorial(d) // (factorial(d1) * factorial(d2))),
}
CASES = ([("image_set", d, k) for d in range(1, 8) for k in range(d + 1)]
         + [(rule, d1, d2) for rule in ("blocks", "split")
            for d1, d2 in [(1, 4), (4, 1), (2, 2), (3, 2), (2, 3), (1, 7), (7, 1)]])


def coset_hits(reps, canon, a, b, g):
    """How many of reps lie in the coset of g."""
    key = canon(g, a, b)
    return sum(canon(r, a, b) == key for r in reps)


@given(st.sampled_from(CASES), st.data())
@settings(max_examples=120, deadline=None)
def test_every_permutation_lands_on_one_representative(case, data):
    rule, a, b = case
    d = a if rule == "image_set" else a * b
    g = tuple(data.draw(st.permutations(range(d))))
    gen, canon, _ = COSET_RULES[rule]
    assert coset_hits(list(gen(a, b)), canon, a, b, g) == 1


@pytest.mark.parametrize("rule, a, b", CASES)
def test_coset_representatives_meet_every_coset_once(rule, a, b):
    d = a if rule == "image_set" else a * b
    gen, canon, count = COSET_RULES[rule]
    reps = gen(a, b)
    assert reps.dtype == np.intp and reps.shape == (count(d, a, b), d)
    assert len(reps) == factorial(d) // len(
        [g for g in all_perms(d) if canon(g, a, b) == canon(tuple(range(d)), a, b)])
    assert all(sorted(r) == list(range(d)) for r in reps)
    forms = [canon(r, a, b) for r in reps]
    assert len(set(forms)) == len(reps)
    assert {canon(g, a, b) for g in all_perms(d)} == set(forms)


def ranks(g, d2):
    """The A2 label of each point that a block rule would give it: its rank
    among the earlier points of the same A1 block."""
    return tuple(sum(g[y] // d2 == g[x] // d2 for y in range(x)) for x in range(len(g)))


# rules that each forget one relabelling: one permutation per coset of a
# smaller subgroup, so they meet some cosets more than once
MUTANTS = [
    ("image_set", 6, 2, lambda g: list(g[2:]) == sorted(g[2:])),
    ("blocks", 3, 2, lambda g: tuple(x % 2 for x in g) == ranks(g, 2)),
    ("split", 3, 2, lambda g: first_use(x // 2 for x in g) == tuple(x // 2 for x in g)),
    ("split", 3, 2, lambda g: first_use(x % 2 for x in g) == tuple(x % 2 for x in g)),
]


@pytest.mark.parametrize("rule, a, b, keep", MUTANTS)
def test_a_rule_that_ignores_a_relabelling_is_caught(rule, a, b, keep):
    d = a if rule == "image_set" else a * b
    _, canon, _ = COSET_RULES[rule]
    loose = [g for g in all_perms(d) if keep(g)]
    assert any(coset_hits(loose, canon, a, b, g) != 1 for g in all_perms(d))


@pytest.mark.parametrize("gen, a, b, count", [
    (image_set_perms, 10, 2, 45), (image_set_perms, 9, 4, 126),
    (block_partition_perms, 3, 3, 280), (block_partition_perms, 2, 4, 35),
    (split_coset_perms, 3, 3, 10080), (split_coset_perms, 4, 2, 840),
])
def test_coset_counts_past_s8(gen, a, b, count):
    assert len(gen(a, b)) == count


@pytest.mark.parametrize("enumerate_, rows", [
    (lambda: all_perms(3),                     # lexicographic
     [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]),
    (lambda: image_set_perms(4, 2),
     [(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 0, 2), (2, 3, 0, 1)]),
    (lambda: block_partition_perms(2, 2), [(0, 1, 2, 3), (0, 2, 1, 3), (0, 2, 3, 1)]),
    (lambda: split_coset_perms(2, 2),
     [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1)]),
], ids=["all", "image_set", "blocks", "split"])
def test_enumerations_are_pinned_index_arrays(enumerate_, rows):
    # row k maps j to perms[k, j], in the order the kernel averages them
    perms = enumerate_()
    assert perms.dtype == np.intp
    assert perms.tolist() == [list(r) for r in rows]


def test_one_element_cap_refuses_before_enumerating():
    # each call raises at once, naming the count; none of them yields an element
    for call, count in [(lambda: all_perms(9), 362880),
                        (lambda: split_coset_perms(6, 2), 332640),
                        (lambda: block_partition_perms(4, 4), 2627625),
                        (lambda: image_set_perms(18, 9), 48620)]:
        with pytest.raises(ValueError, match=f"enumeration of {count} .* refused"):
            call()
    for call in (lambda: split_coset_perms(-2, -2), lambda: block_partition_perms(0, 3),
                 lambda: image_set_perms(4, 5)):
        with pytest.raises(ValueError):
            call()


def cycle_type(p):
    """Multiplicities (k_1, ..., k_d) of the cycle lengths of p."""
    counts, seen = [0] * len(p), set()
    for start in range(len(p)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x, length = p[x], length + 1
        if length:
            counts[length - 1] += 1
    return tuple(counts)


def test_mn_character_examples():
    # trivial representation is one on every class
    for d in (4, 5, 6):
        for lam in partitions(d):
            assert mn_character((d,), partition_to_counts(lam)) == 1
    # S_4 identity class: standard irrep dimension k1 - 1 = 3
    assert mn_character((3, 1), (4, 0, 0, 0)) == 3
    # S_4 class (2,2): chi_(2,2) = k1(k1-3)/2 + k2 = 2
    assert mn_character((2, 2), (0, 2, 0, 0)) == 2


@pytest.mark.parametrize("d", [4, 5, 6])
def test_char_closed_forms_match_mn(d):
    for lam in partitions(d):
        counts = partition_to_counts(lam)
        closed = char_closed_forms(d, counts)
        assert closed == {p: mn_character(p, counts) for p in closed}


def test_char_closed_forms_values():
    assert char_closed_forms(5, (5, 0, 0, 0, 0)) == {(5,): 1, (4, 1): 4, (3, 1, 1): 6, (3, 2): 5}
    assert char_closed_forms(5, (3, 1, 0, 0, 0)) == {(5,): 1, (4, 1): 2, (3, 1, 1): 0, (3, 2): 1}
    assert list(char_closed_forms(5, (3, 1, 0, 0, 0))) == [(5,), (4, 1), (3, 1, 1), (3, 2)]


def test_chi_r():
    assert chi_r(4, (4, 0, 0, 0), (2, 0)) == 16
    from declab.linalg import swap_operator, tensor

    for lam in partitions(4):
        counts = partition_to_counts(lam)
        rep = None
        for p in all_perms(4):
            if cycle_type(p) == counts:
                rep = perm_operator(p)
                break
        assert np.isclose(np.trace(tensor(rep, rep)).real, chi_r(4, counts, (2, 0)))
        assert np.isclose(np.trace(tensor(rep, rep) @ swap_operator(4)).real,
                          chi_r(4, counts, (0, 1)))


def test_character_orthogonality_s4():
    d = 4
    parts = partitions(d)
    for lam in parts:
        for mu in parts:
            total = sum(class_size(partition_to_counts(c))
                        * mn_character(lam, partition_to_counts(c))
                        * mn_character(mu, partition_to_counts(c)) for c in parts)
            assert total == (factorial(d) if lam == mu else 0)


def test_hook_dimension():
    assert hook_dimension((7,)) == 1
    assert hook_dimension((3, 2)) == 5        # k1(k1-3)/2 at k1 = 5
    for d in (4, 5, 6):
        identity = tuple([d] + [0] * (d - 1))
        for lam in partitions(d):
            assert hook_dimension(lam) == mn_character(lam, identity)
    # dimensions of irreps square-sum to the group order
    for d in (4, 5):
        assert sum(hook_dimension(lam) ** 2 for lam in partitions(d)) == factorial(d)


@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
@settings(max_examples=60, deadline=None)
def test_gf2_field_axioms(a, b, c):
    n = 6
    assert gf2_mul(a, b, n) == gf2_mul(b, a, n)
    assert gf2_mul(a, gf2_mul(b, c, n), n) == gf2_mul(gf2_mul(a, b, n), c, n)
    assert gf2_mul(a, b ^ c, n) == gf2_mul(a, b, n) ^ gf2_mul(a, c, n)
    assert gf2_mul(a, 1, n) == a


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_gf2_inverses_exist(n):
    d = 1 << n
    for a in range(1, d):
        assert any(gf2_mul(a, b, n) == 1 for b in range(1, d))
    assert n in GF2_POLY


def test_affine_family_small():
    fam1 = affine_family(1)
    assert sorted(fam1.elems.tolist()) == [[0, 1], [1, 0]]
    fam2 = affine_family(2)
    assert len(fam2) == 12 and fam2.elems.dtype == np.intp
    assert len(np.unique(fam2.elems, axis=0)) == 12
    assert (np.sort(fam2.elems, axis=1) == np.arange(4)).all()
    with pytest.raises(ValueError, match="read-only"):
        fam2.elems[0, 0] = 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_affine_family_pairwise_independent(n):
    fam = affine_family(n)
    d = 1 << n
    assert len(fam) == (d - 1) * d
    assert pairwise_dependence(fam, d) < 1e-12


def test_pairwise_dependence_reference_cases():
    full = ElementSet(tuple(all_perms(3)))
    assert pairwise_dependence(full, 3) < 1e-12
    singleton = ElementSet(((0, 1, 2),))
    # point mass vs uniform over six ordered pairs
    assert np.isclose(pairwise_dependence(singleton, 3), 5.0 / 3.0)


def pairwise_dependence_loop(fam, d):
    """Scan of every distinct input pair and every output pair."""
    uniform = 1.0 / (d * (d - 1))
    dist = np.zeros((d * d, d * d))
    for p, w in zip(fam.elems, fam.weights):
        for x1 in range(d):
            for x2 in range(d):
                dist[x1 * d + x2, p[x1] * d + p[x2]] += w
    worst = 0.0
    for x1 in range(d):
        for x2 in range(d):
            if x1 != x2:
                dev = 0.0
                for y1 in range(d):
                    for y2 in range(d):
                        v = dist[x1 * d + x2, y1 * d + y2]
                        dev += v if y1 == y2 else abs(v - uniform)
                worst = max(worst, dev)
    return worst


def test_pairwise_dependence_matches_pair_loop():
    rng = np.random.default_rng(1)
    for k in range(40):
        d = 2 + k % 5
        members = tuple(dict.fromkeys(tuple(int(x) for x in rng.permutation(d))
                                      for _ in range(1 + k % 9)))
        fam = ElementSet(members, rng.dirichlet(np.ones(len(members))))
        assert abs(pairwise_dependence(fam, d) - pairwise_dependence_loop(fam, d)) <= 1e-15


def test_classical_diamond_distance():
    full = ElementSet(tuple(all_perms(4)))
    assert classical_diamond_distance(full, 4) < 1e-12
    assert classical_diamond_distance(affine_family(2), 4) < 1e-12
    singleton = ElementSet(((0, 1, 2, 3),))
    assert classical_diamond_distance(singleton, 4) > 1.0
    with pytest.raises(ValueError):
        classical_diamond_distance(full, 8)


def test_diamond_dominates_pairwise_and_mixtures():
    # the vertex maximum dominates the distinct-pair statistic, and any
    # classical mixture never exceeds the vertex maximum
    rng = np.random.default_rng(0)
    members = tuple(tuple(p) for p in
                    (rng.permutation(4) for _ in range(5)))
    fam = ElementSet(tuple(dict.fromkeys(members)))
    d = 4
    eps_vertex = classical_diamond_distance(fam, d)
    eps_pairs = pairwise_dependence(fam, d)
    assert eps_pairs <= eps_vertex + 1e-12
    # random mixtures of basis pair-states
    from declab.symgroup import _pair_distributions

    dist_w = _pair_distributions(fam.elems, fam.weights, d)
    group = all_perms(d)
    dist_h = _pair_distributions(group, np.full(len(group), 1 / len(group)), d)
    for _ in range(50):
        mix = rng.dirichlet(np.ones(d * d))
        dev = np.abs(mix @ (dist_w - dist_h)).sum()
        assert dev <= eps_vertex + 1e-10


def test_diamond_equals_pairwise_on_permutation_families():
    # the row of an input (x, x) is the first marginal of the row of any (x, x2),
    # so it is never larger, and only distinct inputs set the diamond maximum
    rng = np.random.default_rng(2)
    for d in range(2, 8):
        for k in range(3):
            members = tuple(dict.fromkeys(tuple(int(x) for x in rng.permutation(d))
                                          for _ in range(1 + 4 * k)))
            fam = ElementSet(members, rng.dirichlet(np.ones(len(members))))
            assert abs(classical_diamond_distance(fam, d) - pairwise_dependence(fam, d)) <= 1e-14


@pytest.mark.parametrize("build, message", [
    (lambda: verify_family_hash(affine_family(3), random_cq((4, 2), seed=1), 2, 2),
     "act on 8 points, not d = 4"),
    (lambda: pairwise_dependence(affine_family(2), 2), "act on 4 points, not d = 2"),
], ids=["family-hash-dims", "pairwise-dims"])
def test_malformed_family_or_dimension_is_refused(build, message):
    # malformed members are refused by test_groupavg.py::test_element_set_refuses
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: hook_dimension((1, 2)), "not a partition"),
    (lambda: hook_dimension((2, -1)), "needs part >= 1, got part = -1"),
    (lambda: mn_character((1, 2), (3,)), "not a partition"),
    (lambda: mn_character((2, 1), (1,)), "not a cycle type of 3 points"),
    (lambda: mn_character((2, 1), (5, -1)), "needs multiplicity >= 0, got multiplicity = -1"),
    (lambda: char_closed_forms(5, (4,)), "not a cycle type of 5 points"),
    (lambda: chi_r(4, (1,), (2, 0)), "not a cycle type of 4 points"),
], ids=["hook-increasing", "hook-negative", "mn-partition", "mn-short-cycles",
        "mn-negative-count", "closed-forms", "chi-r"])
def test_bad_partition_or_cycle_type_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()
