"""The batched group-average kernel against per-element reference loops.

Every test of a chunked average runs the kernel with a chunk budget small
enough that at least three chunks run, the last one shorter than the others.
Channel averages are checked against `apply_channel_mat` on each conjugated
input, two-copy twirls against `np.kron` loops. The orbit mean, which
enumerates no element, is checked against a loop over the permutation
matrices of the whole symmetric group.
"""

import tracemalloc
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declab import _groupavg, suites, verify
from declab._groupavg import (
    ElementSet,
    channel_norms,
    element_chunks,
    orbit_mean,
    pattern_labels,
    twirl2_mean,
)
from declab.linalg import partial_trace, tensor
from declab.states import apply_channel_mat, random_channel, random_cq, random_density
from declab.symgroup import affine_family, all_perms, pairwise_dependence, perm_operator
from declab.twirl import (
    circuit_ensemble,
    clifford_1q,
    design_epsilon_bound,
    haar_samples,
    perm_twirl2_brute,
)
from declab.verify import (
    mean_se,
    verify_cq_tpcp,
    verify_decoupling_theorem,
    verify_design_decoupling,
    verify_distance_from_classicality,
    verify_family_hash,
    verify_perm_decoupling_lemma,
)

RTOL = 1e-12


def close(kernel, reference):
    kernel, reference = np.asarray(kernel), np.asarray(reference)
    return np.abs(kernel - reference).max() <= RTOL * max(1.0, np.abs(reference).max())


@pytest.fixture
def chunked(monkeypatch):
    """use(n_ops) sets the budget of every chunking that follows to n_ops
    elements a chunk, whatever a kernel counts per element, and returns the
    list that collects the size of every chunk slice the kernels take."""
    sizes = []
    chunks = _groupavg.chunks

    def use(n_ops):
        def spy(n, item_bytes):
            monkeypatch.setattr(_groupavg, "CHUNK_BYTES", item_bytes * n_ops)
            out = chunks(n, item_bytes)
            sizes.extend(sl.stop - sl.start for sl in out)
            return out

        monkeypatch.setattr(_groupavg, "chunks", spy)
        return sizes

    return use


def assert_ragged(sizes):
    assert len(sizes) >= 3
    assert len(set(sizes[:-1])) == 1 and 0 < sizes[-1] < sizes[0]


def svd_norm(m, p):
    """Schatten p-norm, p in {1, 2}, of one matrix: the sum of its singular
    values, or the root sum of its squared entries."""
    if p == 1:
        return np.linalg.svd(m, compute_uv=False).sum()
    return np.sqrt((np.abs(m) ** 2).sum())


def reference_norms(ch, mat, dims, ops, p, target=0.0):
    """Per element g: Schatten p-norm of T((g x 1) X (g x 1)^dagger) - target."""
    out = []
    for g in ops:
        conj = tensor(g, np.eye(dims[1]))
        y, _ = apply_channel_mat(ch, conj @ mat @ conj.conj().T, dims, 0)
        out.append(svd_norm(y - target, p))
    return np.array(out)


def test_chunks_cover_in_order(monkeypatch):
    monkeypatch.setattr(_groupavg, "CHUNK_BYTES", 100)
    assert _groupavg.chunks(7, 30) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert _groupavg.chunks(2, 1000) == [slice(0, 1), slice(1, 2)]


@pytest.mark.parametrize("d_a", [4, 5])
@pytest.mark.parametrize("p", [1, 2])
def test_all_permutations(chunked, d_a, p):
    sizes = chunked(7 if d_a == 4 else 50)
    rho = random_cq((d_a, 2), seed=d_a)
    ch = random_channel(d_a, 3, tp=False, seed=10 + d_a)
    target = tensor(ch.env_marginal, partial_trace(rho.mat, rho.dims, [1]))
    perms = all_perms(d_a)
    vals = channel_norms(ch, rho.mat, rho.dims, perms, (p,), target)[:, 0]
    assert_ragged(sizes)
    ref = reference_norms(ch, rho.mat, rho.dims, [perm_operator(q) for q in perms], p, target)
    assert close(vals, ref)
    if p == 1:
        ch_tp = random_channel(d_a, 2, tp=True, seed=20 + d_a)
        target = tensor(ch_tp.env_marginal, partial_trace(rho.mat, rho.dims, [1]))
        ref = reference_norms(ch_tp, rho.mat, rho.dims, [perm_operator(q) for q in perms], 1,
                              target)
        assert close(verify_cq_tpcp(rho, ch_tp).lhs, ref.mean())


def test_all_permutations_on_two_factors(chunked):
    d = 4
    chunked(5)
    rng = np.random.default_rng(0)
    m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    perms = list(all_perms(d))
    avg = perm_twirl2_brute(m, d)
    ref = sum(np.kron(perm_operator(q), perm_operator(q)) @ m
              @ np.kron(perm_operator(q), perm_operator(q)).T for q in perms) / len(perms)
    assert close(avg, ref)


def test_perm_decoupling_lhs(chunked):
    d_a, d_r = 5, 3
    sizes = chunked(3)          # one element per image set: C(5, 3) = 10
    ch = random_channel(d_a, 2, tp=True, seed=3)
    rep = verify_perm_decoupling_lemma(ch, d_r)
    assert_ragged(sizes)
    st = np.zeros((d_a * d_r, d_a * d_r))
    for i in range(d_r):
        for j in range(d_r):
            st[i * d_r + i, j * d_r + j] += 1.0 / d_r
            st[i * d_r + j, i * d_r + j] -= 1.0 / d_r ** 2
    ref = reference_norms(ch, st, (d_a, d_r), [perm_operator(q) for q in all_perms(d_a)], 2)
    assert close(rep.lhs, np.mean(ref ** 2))


@pytest.mark.parametrize("d_r", [2, 3])
def test_distance_from_classicality_lhs(chunked, d_r):
    # both norms come from one channel stack; each must match its own loop
    d_a = 5
    sizes = chunked(3)          # one element per image set: C(5, d_R) = 10
    ch = random_channel(d_a, 2, tp=False, seed=30 + d_r)
    rep = verify_distance_from_classicality(ch, d_r)
    assert_ragged(sizes)
    st = np.zeros((d_a * d_r, d_a * d_r))
    for i in range(d_r):
        for j in range(d_r):
            st[i * d_r + i, j * d_r + j] += 1.0 / d_r
        st[i * d_r + i, i * d_r + i] -= 1.0 / d_r
    ops = [perm_operator(q) for q in all_perms(d_a)]
    assert close(rep.lhs, np.mean(reference_norms(ch, st, (d_a, d_r), ops, 2) ** 2))
    assert close(rep.meta["bound_check"].lhs,
                 np.mean(reference_norms(ch, st, (d_a, d_r), ops, 1)))


def test_channel_average_stays_within_the_chunk_budget():
    # the kernels, the product, the output and the norms of a chunk together
    # fit the budget; a stack of conjugated inputs beside its transposed copy
    # reads over 2.1 times the budget on this call
    ch = random_channel(6, 2, tp=False, seed=1)
    verify_distance_from_classicality(ch, 5)
    tracemalloc.start()
    try:
        verify_distance_from_classicality(ch, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * _groupavg.CHUNK_BYTES


def test_brute_twirl_stacks_one_chunk_at_a_time(monkeypatch):
    # each stage of the transposition chain (up to d = 6 transpositions) is
    # lifted chunk by chunk: a whole stage's four lift stacks read 3 budgets
    d = 6
    monkeypatch.setattr(_groupavg, "CHUNK_BYTES", 4 * 16 * d ** 4 * 2)   # two elements a chunk
    rng = np.random.default_rng(13)
    m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    tracemalloc.start()
    try:
        avg = perm_twirl2_brute(m, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * _groupavg.CHUNK_BYTES
    ref = sum(np.kron(perm_operator(q), perm_operator(q)) @ m
              @ np.kron(perm_operator(q), perm_operator(q)).T for q in all_perms(d)) / factorial(d)
    assert close(avg, ref)


def test_weighted_family(chunked):
    d_a1, d_a2, d_r = 3, 2, 2
    d_a = d_a1 * d_a2
    sizes = chunked(8)
    rng = np.random.default_rng(4)
    perms = tuple(dict.fromkeys(tuple(int(x) for x in rng.permutation(d_a)) for _ in range(30)))
    fam = ElementSet(perms, rng.dirichlet(np.ones(len(perms))))
    rho = random_cq((d_a, d_r), seed=5)
    rep = verify_family_hash(fam, rho, d_a1, d_a2)
    assert_ragged(sizes)
    target = tensor(np.eye(d_a1) / d_a1, partial_trace(rho.mat, rho.dims, [1]))
    ref = 0.0
    for w, q in zip(fam.weights, fam.elems):
        conj = tensor(perm_operator(q), np.eye(d_r))
        reduced = partial_trace(conj @ rho.mat @ conj.T, (d_a1, d_a2, d_r), [0, 2])
        ref += w * svd_norm(reduced - target, 1)
    assert close(rep.lhs, ref)


def test_element_set_holds_one_read_only_array():
    perms = np.array([[0, 1], [1, 0]])
    for members, dtype in ((perms, np.intp), (np.stack([np.eye(2), np.eye(2)[::-1]]), complex)):
        s = ElementSet(members)
        assert (s.elems.dtype, len(s)) == (dtype, 2)
        assert np.array_equal(s.weights, [0.5, 0.5])
        members[0] = members[1]                 # the set holds its own copy
        assert not np.array_equal(s.elems[0], s.elems[1])
        for arr in (s.elems, s.weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]


def _design_decoupling(ens):
    rho = random_density(4, seed=2, dims=(2, 2))
    return verify_design_decoupling(ens, rho, random_channel(2, 2, tp=True, seed=3))


# the weight rule for both kinds (too few weights, sums above and below 1,
# negative weights and a NaN weight), malformed members, and a set of the
# wrong kind for the verifier
@pytest.mark.parametrize("build, message", [
    *(pytest.param(lambda m=members, w=weights: ElementSet(m, np.array(w)),
                   "weights must match the members", id=f"{kind}-weights-{label}")
      for kind, members in (("permutations", ((0, 1), (1, 0))),
                            ("unitaries", (np.eye(2), np.eye(2))))
      for label, weights in (("too-few", (1.0,)), ("above-1", (0.7, 0.7)),
                             ("below-1", (0.5, 0.4)), ("negative", (1.5, -0.5)),
                             ("negative-sum-1", (2.0, -1.0)), ("nan", (np.nan, 1.0)))),
    pytest.param(lambda: ElementSet(((0, 0, 1),)), "not a permutation", id="not-a-permutation"),
    pytest.param(lambda: ElementSet(((0.5, 1.0),)), "not a permutation", id="fractional-points"),
    pytest.param(lambda: ElementSet((np.diag([1.0, 2.0]),)), "not unitary", id="not-unitary"),
    pytest.param(lambda: ElementSet((np.diag([1.0, np.nan]),)), "not unitary", id="nan-unitary"),
    pytest.param(lambda: ElementSet((np.diag([1.0, np.inf]),)), "not unitary", id="inf-unitary"),
    pytest.param(lambda: ElementSet(np.ones((1, 2, 3))), "same points", id="not-square"),
    pytest.param(lambda: ElementSet(((0, 1), (0, 1, 2))), "same points", id="mixed-lengths"),
    pytest.param(lambda: ElementSet((np.eye(2), np.eye(3))), "same points", id="mixed-dimensions"),
    pytest.param(lambda: ElementSet(()), "at least one member", id="empty"),
    pytest.param(lambda: pairwise_dependence(clifford_1q(), 2),
                 "needs a set of permutations, not of unitaries",
                 id="unitaries-into-pairwise_dependence"),
    pytest.param(lambda: verify_family_hash(ElementSet(haar_samples(4, 3, 0)),
                                            random_cq((4, 2), seed=1), 2, 2),
                 "needs a set of permutations, not of unitaries",
                 id="unitaries-into-verify_family_hash"),
    pytest.param(lambda: design_epsilon_bound(affine_family(1), 2),
                 "needs a set of unitaries, not of permutations",
                 id="permutations-into-design_epsilon_bound"),
    pytest.param(lambda: _design_decoupling(affine_family(1)),
                 "needs a set of unitaries, not of permutations",
                 id="permutations-into-verify_design_decoupling"),
])
def test_element_set_refuses(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_haar_stack(chunked):
    d_a, d_r, n = 4, 2, 45
    sizes = chunked(10)
    rho = random_density(d_a * d_r, seed=6, dims=(d_a, d_r))
    ch = random_channel(d_a, 2, tp=True, seed=7)
    rep = verify_decoupling_theorem(rho, ch, n_samples=n, seed=8)
    # the samples' chunks, then the kernel's one chunk of each
    assert sizes[:len(sizes) // 2] == sizes[len(sizes) // 2:]
    assert_ragged(sizes[:len(sizes) // 2])
    us = haar_samples(d_a, n, np.random.default_rng(8))
    target = tensor(ch.env_marginal, partial_trace(rho.mat, rho.dims, [1]))
    ref = reference_norms(ch, rho.mat, rho.dims, us, 1, target)
    assert close(rep.lhs, ref.mean())
    sizes.clear()
    vals = channel_norms(ch, rho.mat, rho.dims, us, (2,), target)[:, 0]
    assert_ragged(sizes)
    assert close(vals, reference_norms(ch, rho.mat, rho.dims, us, 2, target))


def test_circuit_ensemble(chunked):
    d = 4
    ens = circuit_ensemble(2, 12, 40, seed=9)
    rho = random_density(8, seed=10, dims=(d, 2))
    ch = random_channel(d, 2, tp=True, seed=11)
    sizes = chunked(9)
    rep = verify_design_decoupling(ens, rho, ch, epsilon=0.0)
    assert_ragged(sizes)
    target = tensor(ch.env_marginal, partial_trace(rho.mat, rho.dims, [1]))
    ref = reference_norms(ch, rho.mat, rho.dims, ens.elems, 1, target)
    assert close(rep.lhs, ens.weights @ ref)
    sizes.clear()
    rng = np.random.default_rng(12)
    m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    tw = twirl2_mean(m, len(ens), d, ens.elems.__getitem__)
    assert_ragged(sizes)
    ref = sum(np.kron(u, u) @ m @ np.kron(u, u).conj().T for u in ens.elems) / len(ens)
    assert close(tw, ref)


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_orbit_mean_is_the_group_mean(d, k):
    # k = 2: an operator on one d-level factor; k = 4: on two, both moved by
    # the same permutation (d < k leaves some patterns empty). Two spectator
    # axes ride along, and the group mean acts on each of their entries.
    rng = np.random.default_rng(10 * d + k)
    x = rng.normal(size=(d,) * k + (2, 3)) + 1j * rng.normal(size=(d,) * k + (2, 3))
    n = d ** (k // 2)
    ops = x.reshape(n, n, 6).transpose(2, 0, 1)
    ref = 0.0
    for q in all_perms(d):
        p = perm_operator(q) if k == 2 else np.kron(perm_operator(q), perm_operator(q))
        ref = ref + p @ ops @ p.T
    ref = (ref / factorial(d)).transpose(1, 2, 0).reshape(x.shape)
    assert np.abs(orbit_mean(x, d, k) - ref).max() <= 1e-13


def _assert_labels_are_patterns(rule, idx, perm):
    """rule labels the index tuples idx (k, n) alike after relabelling every
    value by perm, and gives two tuples one label exactly when their equality
    patterns agree."""
    labels = rule(idx)
    assert np.array_equal(rule(perm[idx]), labels)
    patterns = (idx[:, None, :] == idx[None, :, :]).reshape(-1, idx.shape[1]).T
    pairs = {(lab, row.tobytes()) for lab, row in zip(labels.tolist(), patterns)}
    assert len(pairs) == len({lab for lab, _ in pairs}) == len({row for _, row in pairs})


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_pattern_labels_name_equality_patterns(d, k, seed):
    perm = np.random.default_rng(seed).permutation(d)
    grid = np.indices((d,) * k).reshape(k, -1)
    _assert_labels_are_patterns(pattern_labels, grid, perm)
    if d > 1 and k > 1:
        # a rule blind to the last position merges tuples of different patterns
        with pytest.raises(AssertionError):
            _assert_labels_are_patterns(lambda i: pattern_labels(i[:-1]), grid, perm)


@pytest.mark.parametrize("n_mc", [100_000, 5_000])
def test_mc_cross_check_streams_one_chunk_at_a_time(monkeypatch, n_mc):
    # the one-shot cross-check: every sample drawn at once, then scored
    rng = np.random.default_rng([0, 77])
    rho = random_density(4, seed=int(rng.integers(2**31)), dims=(2, 2))
    ch = random_channel(2, 2, tp=False, seed=int(rng.integers(2**31)))
    target = tensor(ch.env_marginal, rho.marginal([1]))
    vals = channel_norms(ch, rho.mat, rho.dims, haar_samples(2, n_mc, rng), (2,),
                         target)[:, 0] ** 2
    drawn = []
    samples = verify.haar_samples

    def spy(d, n, rng):
        drawn.append(n)
        return samples(d, n, rng)

    monkeypatch.setattr(verify, "haar_samples", spy)
    rep = suites.mc_cross_check(0, n_mc)
    step = element_chunks(n_mc, (2, 2), unitary=True, d_out=2)[0].stop
    assert sum(drawn) == n_mc and max(drawn) == step and n_mc % step
    assert (rep.lhs, rep.meta["se"]) == mean_se(vals)
