"""Batched, chunked averages over group elements.

Every average over permutations, Haar samples or unitary ensembles in declab
runs through one of two kernels.

A channel average moves each element onto the channel: T(g X g^dagger) is
T o Ad_g applied to the fixed operator X, and the kernel of T o Ad_g is the
channel's kernel with its input indices transformed, a gather for a
permutation and g^T K_ef conj(g) for a unitary. `channel_norms` takes its
elements as one array, as every producer of group elements stores them: an
integer array (n, d) of permutations (row k maps j to perms[k, j]), from the
symgroup enumerators, or a complex array (n, d, d) of unitaries, from
`haar_samples`; a weighted set, an `ElementSet`, holds its members as one
such array, `elems`. It builds a chunk's kernels, applies them all to X in
one matrix product, so no stack of conjugated inputs is ever formed, and
returns the Schatten norms of the outputs, or of their distances from a
fixed target.

A second moment, the twirl of an operator on two copies, conjugates it by
U (x) U. `two_copy_lifts` forms that lift for a chunk of unitaries at a time
(permutations come as their permutation matrices), and `twirl2_mean`
averages the conjugates over the chunks.

Elements are taken in chunks sized so that everything live while a chunk is
processed fits in CHUNK_BYTES, so the working set does not grow with the
number of elements.

The mean of a fixed operator over the whole symmetric group needs no element
at all: `orbit_mean` averages each entry over its orbit, which the equality
pattern of its index tuple names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_dims, schatten_norm

CHUNK_BYTES = 1 << 19       # bytes of arrays live per chunk
UNITARY_TOL = 1e-10         # max |U^dagger U - I| entry of a unitary member


def chunks(n: int, item_bytes: int) -> list[slice]:
    """Consecutive slices covering range(n), each holding at least one item
    and at most CHUNK_BYTES // item_bytes."""
    step = max(1, CHUNK_BYTES // max(1, item_bytes))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def element_chunks(n_elems: int, dims, unitary: bool, d_out: int) -> list[slice]:
    """Chunks of n_elems group elements for `channel_norms` through a channel
    from the first factor A of dims to E of dimension d_out, R the second
    factor: per element the kernel of d_E^2 d_A^2 entries (two while a
    unitary's is formed) and five arrays of the output's d_E^2 d_R^2 entries
    (the product, the output stack, its difference from the target and two of
    the norms' temporaries)."""
    d_a, d_r = dims
    return chunks(n_elems, 16 * d_out ** 2 * ((2 if unitary else 1) * d_a ** 2 + 5 * d_r ** 2))


def _is_perm(elems: np.ndarray) -> bool:
    return np.issubdtype(elems.dtype, np.integer)


def permutation_rows(elems: np.ndarray) -> np.ndarray:
    """elems (n, d) as np.intp; ValueError unless each row holds each integer 0..d-1 once."""
    d = elems.shape[1]
    if elems.dtype.kind not in "biufc":  # None, a string, an int past intp: -1 unless a point
        perms = np.array([range(d).index(x) if x in range(d) else -1 for x in elems.flat])
    else:                               # a float outside (-d, d), off the real line or NaN: -1
        perms = np.where(abs(elems) < d, elems.real, -1) if elems.dtype.kind in "fc" else elems
    perms = perms.astype(np.intp).reshape(elems.shape)     # a cast that never warns or overflows
    bad = ~((perms == elems) & (np.sort(perms, axis=1) == np.arange(d))).all(axis=1)
    if bad.any():
        raise ValueError(f"{elems[bad.argmax()]} is not a permutation of 0..{d - 1}")
    return perms


@dataclass(frozen=True)
class ElementSet:
    """Weighted group elements as one read-only array, elems: permutations
    as integers (n, d), row k mapping j to elems[k, j], or unitaries as a
    complex stack (n, d, d). The weights are uniform when None, and otherwise
    must have shape (n,), be non-negative (a NaN is not) and sum to 1."""

    elems: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        try:
            elems = np.array(self.elems)
        except ValueError:                      # members of different sizes
            elems = np.empty(0)
        if elems.ndim < 2 or not elems.size or elems.shape[2:] not in ((), elems.shape[1:2]):
            raise ValueError("an element set needs at least one member, all on the same points:"
                             " permutations (n, d) or unitaries (n, d, d)")
        n, d = elems.shape[:2]
        if elems.ndim == 2:
            elems = permutation_rows(elems)
        else:
            elems = elems.astype(complex)
            if not (np.isfinite(elems).all() and np.abs(
                    elems.conj().transpose(0, 2, 1) @ elems - np.eye(d)).max() <= UNITARY_TOL):
                raise ValueError("member is not unitary within tolerance")
        w = np.ones(n) / n if self.weights is None else np.array(self.weights, dtype=float)
        if w.shape != (n,) or not (w >= 0).all() or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must match the members, be non-negative and sum to 1")
        for name, arr in (("elems", elems), ("weights", w)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.elems)

    def require(self, kind: str, d: int):
        """Raise ValueError unless the members are of this kind
        ("permutations" or "unitaries") and act on d points."""
        own = "permutations" if _is_perm(self.elems) else "unitaries"
        if own != kind:
            raise ValueError(f"needs a set of {kind}, not of {own}")
        if self.elems.shape[1] != d:
            raise ValueError(f"set's {kind} act on {self.elems.shape[1]} points, not d = {d}")


def two_copy_lifts(n: int, d: int, members):
    """Yield (sl, U (x) U) chunk by chunk for n unitaries on d levels: sl is
    the chunk's slice of range(n), and members(sl), called once per chunk and
    in order, gives its unitaries as a stack (k, d, d); the lifts come as a
    stack (k, d^2, d^2). A chunk holds four complex stacks of that size: the
    lift, its adjoint and the two products of a twirl."""
    for sl in chunks(n, 4 * 16 * d ** 4):
        us = members(sl)
        uu = us[:, :, None, :, None] * us[:, None, :, None, :]
        yield sl, uu.reshape(len(us), d * d, d * d)


def twirl2_mean(mat: np.ndarray, n: int, d: int, members) -> np.ndarray:
    """Uniform average of (U (x) U) mat (U (x) U)^dagger over the n unitaries
    that members gives, as in `two_copy_lifts`."""
    return sum((uu @ mat @ uu.conj().transpose(0, 2, 1)).sum(axis=0)
               for _, uu in two_copy_lifts(n, d, members)) / n


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
    in memory linear in x and with no group element enumerated. Equals, to
    round-off, the mean of Q x Q^T over the permutation matrices P of
    all_perms(d), with Q = P for the (row, column) indices of an operator on
    one d-level factor (k = 2) and Q = P (x) P for one on two (k = 4).
    """
    x = np.asarray(x)
    labels = pattern_labels(np.indices((d,) * k).reshape(k, -1))
    flat = x.reshape(d ** k, -1)
    sums = np.zeros((labels.max() + 1, flat.shape[1]), dtype=np.result_type(x, float))
    np.add.at(sums, labels, flat)
    return (sums / np.bincount(labels)[:, None])[labels].reshape(x.shape)


def _chunk_norms(kernel: np.ndarray, x: np.ndarray, elems: np.ndarray, dims, ps,
                 target) -> np.ndarray:
    """The rows of `channel_norms` for one chunk of elements; kernel is K as
    [(e f), (a b)] and x is X as [(a b), (r s)]. One name holds the chunk's
    kernels, then their product, then the output stack (less the target), so
    each is freed once the next is formed and only the last is scored."""
    d_a, d_r, d_e = dims
    if _is_perm(elems):
        out = np.take(kernel, elems[:, :, None] * d_a + elems[:, None, :], axis=1)
    else:
        out = (elems.transpose(0, 2, 1)[None] @ kernel.reshape(-1, 1, d_a, d_a)
               @ elems.conj()[None])
    out = (out.reshape(-1, d_a * d_a) @ x).reshape(d_e, d_e, len(elems), d_r, d_r)
    out = out.transpose(2, 0, 3, 1, 4).reshape(len(elems), d_e * d_r, d_e * d_r)
    if target is not None:
        out = out - target
    return np.stack([schatten_norm(out, p) for p in ps], axis=-1)


def channel_norms(ch, mat: np.ndarray, dims, elems: np.ndarray, ps, target=None) -> np.ndarray:
    """Schatten p-norms of T(g X g^dagger) - target, one row per element g in
    element order and one column per p in ps, each g acting on the first
    factor A of the operator X = mat on A x R, for the channel T from A to E;
    with no target, the norms of the outputs themselves.

    g moves onto the channel: with the kernel K[e, f, a, b] = d_A omega[(a e),
    (b f)] of T, the kernel of T o Ad_g is K_g[e, f] = g^T K[e, f] conj(g),
    which for a permutation is the gather K[e, f, g(a), g(b)]. A chunk is one
    product of its (k d_E^2, d_A^2) kernels with X arranged as [(a b), (r s)],
    one transpose of that product into the output stack, and its norms.
    """
    d_a, d_r = check_dims(mat, dims)
    if ch.d_in != d_a:
        raise ValueError(f"channel input dimension {ch.d_in} does not match d_A = {d_a}")
    d_e = ch.d_out
    kernel = d_a * ch.choi.reshape(d_a, d_e, d_a, d_e).transpose(1, 3, 0, 2).reshape(
        d_e * d_e, d_a * d_a)
    x = mat.reshape(d_a, d_r, d_a, d_r).transpose(0, 2, 1, 3).reshape(d_a * d_a, d_r * d_r)
    return np.concatenate([
        _chunk_norms(kernel, x, elems[sl], (d_a, d_r, d_e), ps, target)
        for sl in element_chunks(len(elems), (d_a, d_r), not _is_perm(elems), d_e)])
