"""Batched, chunked averages over group elements.

Every average over permutations, Haar samples or unitary ensembles in declab
runs through this kernel. A set of group elements is one array: an integer
array (n, d) of permutations (row k maps j to perms[k, j], as in symgroup)
or a complex array (n, d, d) of unitaries. Conjugating an operator by every
element on chosen tensor factors gives a stack of operators: a permutation
acts as an index gather on the factors it moves, a unitary as a batched
product with its lift to the whole space. Channels, partial traces and norms
are then applied to the whole stack at once.

Stacks are built and consumed in chunks sized so that every stack live while
a chunk is conjugated fits in CHUNK_BYTES, so the working set does not grow
with the number of elements.

The mean of a fixed operator over the whole symmetric group needs no element
at all: `orbit_mean` averages each entry over its orbit, which the equality
pattern of its index tuple names.
"""

from __future__ import annotations

from math import prod

import numpy as np

CHUNK_BYTES = 1 << 21       # bytes of stacked operators live per chunk


def chunks(n: int, item_bytes: int) -> list[slice]:
    """Consecutive slices covering range(n), each holding at least one item
    and at most CHUNK_BYTES // item_bytes."""
    step = max(1, CHUNK_BYTES // max(1, item_bytes))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def element_chunks(n_elems: int, dims, unitary: bool) -> list[slice]:
    """Chunks of n_elems group elements acting on the factors dims, sized so
    that everything live while a chunk's conjugate stack is built fits in
    CHUNK_BYTES: an index gather holds one (k, D, D) complex stack, a unitary
    lift four (the lift, its adjoint and the two products)."""
    n = prod(dims)
    return chunks(n_elems, (4 if unitary else 1) * 16 * n * n)


def _chunks_of(elems: np.ndarray, dims) -> list[slice]:
    return element_chunks(len(elems), dims, not np.issubdtype(elems.dtype, np.integer))


def perm_stack(perms) -> np.ndarray:
    """Permutation tuples as one integer array (n, d)."""
    return np.array(list(perms), dtype=np.intp)


def conjugates(mat: np.ndarray, dims, elems: np.ndarray, sites=(0,)) -> np.ndarray:
    """The stack g mat g^dagger over the elements g, each acting on every
    factor listed in `sites` and as the identity on the other factors."""
    dims = tuple(int(d) for d in dims)
    n = prod(dims)
    if np.issubdtype(elems.dtype, np.integer):
        inv = np.argsort(elems, axis=1)
        digits = np.indices(dims).reshape(len(dims), n)
        strides = [prod(dims[f + 1:]) for f in range(len(dims))]
        src = sum((inv[:, digits[f]] if f in sites else digits[f]) * strides[f]
                  for f in range(len(dims)))
        return mat[src[:, :, None], src[:, None, :]]
    lift = np.ones((len(elems), 1, 1))
    for f, d in enumerate(dims):
        fac = elems if f in sites else np.eye(d)[None]
        lift = (lift[:, :, None, :, None] * fac[:, None, :, None, :]).reshape(
            len(elems), lift.shape[1] * d, lift.shape[2] * d)
    return lift @ mat @ lift.conj().transpose(0, 2, 1)


def group_values(mat: np.ndarray, dims, elems: np.ndarray, fn, sites=(0,)) -> np.ndarray:
    """fn applied chunk by chunk to the conjugate stack of mat; fn maps a
    stack to one value (or one row of values) per operator, and the rows come
    back in element order."""
    return np.concatenate([fn(conjugates(mat, dims, elems[sl], sites))
                           for sl in _chunks_of(elems, dims)])


def group_mean(mat: np.ndarray, dims, elems: np.ndarray, weights=None, sites=(0,)) -> np.ndarray:
    """Average of g mat g^dagger over the elements: uniform, or with the given weights."""
    total = 0.0
    for sl in _chunks_of(elems, dims):
        stack = conjugates(mat, dims, elems[sl], sites)
        total = total + (stack.sum(axis=0) if weights is None
                         else np.tensordot(weights[sl], stack, axes=1))
    return total / len(elems) if weights is None else total


def pattern_labels(idx: np.ndarray) -> np.ndarray:
    """One integer per column of the index tuples idx (k, n), equal for two
    columns exactly when they have the same equality pattern, i.e. when one is
    the other with its values relabelled by a permutation.

    A tuple's pattern is, at each position, the first position holding the
    same value; the labels number the distinct patterns 0, 1, ... in sorted
    order of their codes.
    """
    k = len(idx)
    first = [np.argmax(idx[:j + 1] == idx[j], axis=0) for j in range(k)]
    code = sum(f * k ** j for j, f in enumerate(first))
    return np.unique(code, return_inverse=True)[1].reshape(-1)


def orbit_mean(x: np.ndarray, d: int, k: int) -> np.ndarray:
    """Exact mean of x over S_d acting on its first k axes, each of length d,
    by one relabelling of all of them; the trailing axes are spectators.

    S_d maps an index k-tuple onto every tuple of the same equality pattern
    and onto no other, so the group mean of an entry is the plain mean over
    the entries of its pattern: one label per tuple and one average per label,
    in memory linear in x and with no group element enumerated. Equals
    group_mean over all_perms(d) to round-off, for example with k = 4 on the
    (row, column) indices of an operator on two d-level factors.
    """
    x = np.asarray(x)
    labels = pattern_labels(np.indices((d,) * k).reshape(k, -1))
    flat = x.reshape(d ** k, -1)
    sums = np.zeros((labels.max() + 1, flat.shape[1]), dtype=np.result_type(x, float))
    np.add.at(sums, labels, flat)
    return (sums / np.bincount(labels)[:, None])[labels].reshape(x.shape)


def apply_channel_stack(ch, stack: np.ndarray, d_r: int) -> np.ndarray:
    """The channel applied to the first factor of every operator in a stack on A x R."""
    w4 = ch.choi.reshape(ch.d_in, ch.d_out, ch.d_in, ch.d_out)
    kernel = ch.d_in * w4.transpose(1, 3, 0, 2)           # [e, f, b, a]
    t = stack.reshape(-1, ch.d_in, d_r, ch.d_in, d_r)
    out = np.tensordot(t, kernel, axes=([1, 3], [2, 3]))  # [k, r, s, e, f]
    n = ch.d_out * d_r
    return out.transpose(0, 3, 1, 4, 2).reshape(-1, n, n)
