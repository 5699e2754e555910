"""Symmetric group machinery: permutation operators, characters, hook lengths,
coset representatives and pairwise-independent permutation families over
GF(2^n).

A set of n permutations of d points, enumerated (all of S_d, or one
element per coset of a subgroup), is one integer array (n, d) whose row k
maps j to perms[k, j]: the array the group-average kernel reads. A weighted
family is an `_groupavg.ElementSet` holding such an array. A single
permutation p may be any sequence with p[j] the image of j. Partitions are
non-increasing tuples of positive parts, and a partition of d is the one
spelling of both an irrep lam of S_d and a conjugacy class: the cycle type
mu lists the cycle lengths, longest first, so (1,) * d is the identity and
(d,) the d-cycles. mn_character(lam, mu) is the character chi^lam(mu).

Every enumeration is counted in closed form first and refused, before any
element is built, when the count exceeds MAX_ENUM_ELEMENTS = MAX_ENUM_D! =
40 320.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial, prod

import numpy as np

from ._groupavg import ElementSet, permutation_rows
from .linalg import whole

MAX_ENUM_D = 8          # largest d whose S_d one enumeration may list, 8! elements
MAX_ENUM_ELEMENTS = factorial(MAX_ENUM_D)   # cap on the elements one enumeration yields
MAX_DIAMOND_D = 7       # largest d of classical_diamond_distance, the tests' reference

# fixed irreducible polynomials for GF(2^n), as bitmasks (degree n term included)
GF2_POLY = {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011}


def perm_operator(p) -> np.ndarray:
    """0/1 matrix with P[i, j] = 1 iff p(j) = i."""
    p = permutation_rows(np.atleast_1d(p)[None])[0]
    return np.eye(len(p))[:, p]


def _enumerated(count: int, d: int, what: str, perms) -> np.ndarray:
    """The count permutations of d points that the lazy iterable perms
    yields, as one array (count, d); ValueError, naming the count, if it
    exceeds the cap, raised before perms yields anything."""
    if count > MAX_ENUM_ELEMENTS:
        raise ValueError(f"enumeration of {count} {what} refused "
                         f"(more than {MAX_ENUM_D}! = {MAX_ENUM_ELEMENTS})")
    return np.array(list(perms), dtype=np.intp).reshape(count, d)


def all_perms(d: int) -> np.ndarray:
    """All d! permutations in lexicographic order."""
    d = whole(d, "d", 0)
    return _enumerated(factorial(d), d, f"elements of S_{d}", itertools.permutations(range(d)))


def image_set_perms(d: int, k: int) -> np.ndarray:
    """One permutation per image set of the first k points, C(d, k) of them:
    for each k-subset S of range(d), in lexicographic order, the permutation
    sending 0..k-1 onto S and k..d-1 onto the rest, both in increasing order.
    These represent the left cosets g (S_k x S_{d-k})."""
    d = whole(d, "d", 0)
    k = whole(k, "k", 0, d)
    return _enumerated(comb(d, k), d, f"image sets of {k} of {d} points",
                       (s + tuple(x for x in range(d) if x not in s)
                        for s in itertools.combinations(range(d), k)))


def _split_perms(d1: int, d2: int, blocks: bool) -> np.ndarray:
    """Permutations g of d = d1 * d2 points, point a1 * d2 + a2 the pair
    (a1, a2), in which the first labels g(x) // d2 appear in order of first
    use along x = 0, 1, ..., and the second labels g(x) % d2 do too (blocks:
    appear in increasing order within each first label)."""
    d1, d2 = whole(d1, "d1", 1), whole(d2, "d2", 1)
    d = d1 * d2
    if blocks:
        count = factorial(d) // (factorial(d2) ** d1 * factorial(d1))
        what = f"partitions of {d} points into {d1} blocks of {d2}"
    else:
        count = factorial(d) // (factorial(d1) * factorial(d2))
        what = f"cosets of S_{d1} x S_{d2} in S_{d}"
    g = [0] * d
    used = [set() for _ in range(d1)]           # second labels taken under each first

    def extend(x, n1, n2):                      # n1, n2: labels that g[:x] uses
        if x == d:
            yield tuple(g)
            return
        for a1 in range(min(n1 + 1, d1)):
            taken = used[a1]
            for a2 in ((len(taken),) if blocks else range(min(n2 + 1, d2))):
                if a2 < d2 and a2 not in taken:
                    taken.add(a2)
                    g[x] = a1 * d2 + a2
                    yield from extend(x + 1, max(n1, a1 + 1), max(n2, a2 + 1))
                    taken.discard(a2)

    return _enumerated(count, d, what, extend(0, 0, 0))


def block_partition_perms(d1: int, d2: int) -> np.ndarray:
    """One permutation per partition of d1 * d2 points into d1 unordered
    blocks of d2, d!/(d2!^d1 d1!) of them: the preimages of the blocks
    {a1 * d2, ..., a1 * d2 + d2 - 1} are the partition's blocks, numbered by
    their least point, and each block goes onto its target in increasing
    order. These represent the right cosets (S_d2 wr S_d1) g."""
    return _split_perms(d1, d2, blocks=True)


def split_coset_perms(d1: int, d2: int) -> np.ndarray:
    """One permutation per right coset (S_d1 x S_d2) g of S_d, d = d1 * d2 with
    point a1 * d2 + a2 the pair (a1, a2), d!/(d1! d2!) of them: the one whose
    labels a1 and a2 each appear in order of first use along x = 0, 1, ..."""
    return _split_perms(d1, d2, blocks=False)


def partitions(d: int):
    """All partitions of d, non-increasing tuples, lexicographically descending."""
    d = whole(d, "d", 0)
    def gen(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail
    return list(gen(d, d))


@lru_cache(maxsize=None)
def _mn(lam: tuple, mu: tuple) -> int:
    """Murnaghan-Nakayama recursion over border strips, one per cycle of mu,
    longest first."""
    if not lam:
        return 1
    r = mu[0]
    rest = mu[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]  # strictly decreasing
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        crossed = sum(1 for c in beta if nb < c < b)
        new_beta = sorted([c for c in beta if c != b] + [nb], reverse=True)
        new_lam = tuple(c - (len(new_beta) - 1 - j) for j, c in enumerate(new_beta))
        new_lam = tuple(x for x in new_lam if x > 0)
        total += (-1) ** crossed * _mn(new_lam, rest)
    return total


def _partition(lam) -> tuple[int, ...]:
    """lam as a tuple; ValueError unless its parts are positive and non-increasing."""
    lam = tuple(whole(x, "part", 1) for x in lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"{lam} is not a partition")
    return lam


def class_representative(mu) -> tuple[int, ...]:
    """A permutation of cycle type mu: the points of each part, taken in
    order, form one cycle."""
    p = []
    for part in _partition(mu):
        start = len(p)
        p.extend(range(start + 1, start + part))
        p.append(start)
    return tuple(p)


def class_size(mu) -> int:
    """Size of the conjugacy class of cycle type mu in S_d, d = sum(mu)."""
    mu = _partition(mu)
    return factorial(sum(mu)) // (prod(mu) * prod(factorial(mu.count(m)) for m in set(mu)))


def mn_character(lam, mu) -> int:
    """chi^lam(mu): the character of the irrep lam of S_d on the class of cycle type mu."""
    lam, mu = _partition(lam), _partition(mu)
    if sum(mu) != sum(lam):
        raise ValueError(f"{mu} is not a cycle type of {sum(lam)} points")
    return _mn(lam, mu)


def char_closed_forms(mu):
    """{irrep: chi^irrep(mu)} of (d), (d-1,1), (d-2,1,1), (d-2,2), d = sum(mu),
    by closed polynomials in mu's numbers k1 and k2 of 1- and 2-cycles."""
    mu = _partition(mu)
    d, k1, k2 = whole(sum(mu), "d", 4), mu.count(1), mu.count(2)
    return {
        (d,): 1,
        (d - 1, 1): k1 - 1,
        (d - 2, 1, 1): (k1 - 1) * (k1 - 2) // 2 - k2,
        (d - 2, 2): k1 * (k1 - 3) // 2 + k2,
    }


def chi_r(mu, s2_class) -> int:
    """Character of the joint permutation/swap representation on (class, S2-class).

    s2_class is a cycle type of S_2: (1, 1) identity, (2,) swap.
    """
    mu = _partition(mu)
    whole(sum(mu), "d", 2)
    k1, k2 = mu.count(1), mu.count(2)
    if tuple(s2_class) == (1, 1):
        return k1 * k1
    if tuple(s2_class) == (2,):
        return k1 + 2 * k2
    raise ValueError(f"unknown S2 class {s2_class}")


def hook_dimension(lam) -> int:
    """Dimension of the irrep via the hook length formula."""
    lam = _partition(lam)
    d = sum(lam)
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= (part - j) + (conj[j] - i) - 1
    return factorial(d) // hooks


# ---------------------------------------------------------------------------
# permutation families
# ---------------------------------------------------------------------------

def gf2_mul(a: int, b: int, n: int) -> int:
    """Carry-less multiplication modulo the fixed irreducible polynomial."""
    poly = GF2_POLY[n]
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> n & 1:
            a ^= poly
    return out


def affine_family(n: int) -> ElementSet:
    """All x -> a*x + b over GF(2^n) with a != 0; (2^n - 1) * 2^n permutations."""
    n = whole(n, "n", 1, max(GF2_POLY))
    d = 1 << n
    members = []
    for a in range(1, d):
        for b in range(d):
            members.append(tuple(gf2_mul(a, x, n) ^ b for x in range(d)))
    return ElementSet(members)


def _pair_distributions(perms: np.ndarray, weights, d):
    """dist[x1*d + x2, y1*d + y2]: total weight of the members (rows of perms)
    mapping the ordered pair (x1, x2) to (y1, y2)."""
    images = perms[:, :, None] * d + perms[:, None, :]          # (member, x1, x2)
    cells = np.arange(d * d).reshape(d, d) * (d * d) + images
    dist = np.bincount(cells.ravel(), weights=np.repeat(weights, d * d), minlength=d ** 4)
    return dist.reshape(d * d, d * d)


def pairwise_dependence(fam: ElementSet, d: int) -> float:
    """Worst-case statistical distance (un-halved) of the induced pair
    distribution from uniform over ordered distinct pairs."""
    d = whole(d, "d", 2)
    fam.require("permutations", d)
    uniform = 1.0 / (d * (d - 1))
    distinct = ~np.eye(d, dtype=bool).ravel()                  # pair index x1*d + x2, x1 != x2
    rows = _pair_distributions(fam.elems, fam.weights, d)[distinct]
    terms = np.where(distinct, np.abs(rows - uniform), rows)
    dev = np.cumsum(terms, axis=1)[:, -1]       # sequential, in pair order (np.sum pairs terms up)
    return float(dev.max())


def classical_diamond_distance(fam: ElementSet, d: int) -> float:
    """Classical diamond distance between the family's pair-moment map and the
    full-group one, maximized over the d^2 classical basis inputs.

    The full-group reference is computed by exhaustive summation over S_d.
    On a permutation family this equals `pairwise_dependence`, so no check
    of the library calls it: it stays as the tests' reference and as a name
    the benchmark traces.
    """
    d = whole(d, "d", 2, MAX_DIAMOND_D)
    fam.require("permutations", d)
    dist_w = _pair_distributions(fam.elems, fam.weights, d)
    group = all_perms(d)
    dist_h = _pair_distributions(group, np.full(len(group), 1.0 / len(group)), d)
    return float(np.abs(dist_w - dist_h).sum(axis=1).max())
