"""Second-moment averages: exact and Monte Carlo Haar twirls, unitary
2-designs, random {H, T, CNOT} circuits (one uniform index into a cached gate
stack per step, drawn for a whole ensemble by one integers call), and the
permutation twirl via the 11-element commutant basis with its closed-form
Gramian. The library checks that expansion against the S_d orbit mean
(`_groupavg.orbit_mean`); `perm_twirl2_brute`, which averages along the
chain of transpositions that picks one coset after another, d(d + 1)/2 - 1
conjugations by permutation matrices instead of d!, is the tests' second
reference. The commutant's dimension is checked by an exact count of index
orbits, read off their equality patterns, with no eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from ._groupavg import ElementSet, pattern_labels, two_copy_lifts, twirl2_mean
from .linalg import pair_indices, permute_systems, require_hermitian, swap_operator, tensor, whole
from .symgroup import perm_operator


@dataclass(frozen=True)
class TwirlResult:
    """An exact twirl: its projection onto the commutant of the group's
    two-copy action, as coefficients in a basis of that commutant and the
    operator they sum to."""

    coeffs: np.ndarray            # (alpha, beta) in (I, F) for Haar; 11 for S_d
    reconstructed: np.ndarray


@dataclass(frozen=True)
class CommutantBasis:
    d: int
    ops: tuple                    # the 11 basis matrices
    gram: np.ndarray              # closed-form 11 x 11 Gramian
    gram_inv: np.ndarray          # closed-form inverse


def _require_two_copies(mat, d: int) -> int:
    """d as an int; ValueError unless d >= 1 and mat is (d^2, d^2), on two d-level copies."""
    d = whole(d, "d", 1)
    if np.shape(mat) != (d * d, d * d):
        raise ValueError(f"matrix must act on two copies of {d} levels, not {np.shape(mat)}")
    return d


def haar_twirl2_exact(mat: np.ndarray, d: int) -> TwirlResult:
    """Exact two-fold Haar average of U^t2-dagger M U^t2 as alpha*I + beta*F,
    with coeffs (alpha, beta).

    alpha, beta follow from matching tr and tr(. F) of the projection onto
    span{I, F}.
    """
    d = _require_two_copies(mat, whole(d, "d", 2))
    f = swap_operator(d)
    tr_m = np.trace(mat)
    tr_mf = np.trace(mat @ f)
    alpha = (d * d * tr_m - d * tr_mf) / (d * d * (d * d - 1))
    beta = (d * d * tr_mf - d * tr_m) / (d * d * (d * d - 1))
    rec = alpha * np.eye(d * d) + beta * f
    return TwirlResult(np.array([alpha, beta], dtype=complex), rec)


def haar_samples(d: int, n: int, rng) -> np.ndarray:
    """n Haar unitaries as a stack (n, d, d), via QR of complex Ginibre
    matrices with phase correction. The generator is consumed sample by
    sample, so one call for n unitaries gives the same stack as n successive
    calls for one each."""
    d, n = whole(d, "d", 1), whole(n, "n", 0)
    rng = np.random.default_rng(rng)
    g = rng.normal(size=(n, 2, d, d))
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))
    diag = np.einsum('kii->ki', r)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_twirl2_mc(mat: np.ndarray, d: int, n: int, seed=0) -> np.ndarray:
    """(1/N) sum_k U_k^t2-dagger M U_k^t2 over Haar samples, drawn one kernel
    chunk at a time from one generator (the same samples as one batch of n)."""
    n = whole(n, "n", 1)
    d = _require_two_copies(mat, d)
    rng = np.random.default_rng(seed)
    return twirl2_mean(np.asarray(mat, dtype=complex), n, d, lambda sl: haar_samples(
        d, sl.stop - sl.start, rng).conj().transpose(0, 2, 1))


def clifford_1q() -> ElementSet:
    """The 24 single-qubit Clifford unitaries (global phase quotiented),
    generated by closure from H and S; an exact 2-design."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)

    def canon(u):
        flat = u.ravel()
        pivot = flat[np.abs(flat) > 1e-9][0]
        return u * (abs(pivot) / pivot)

    def key(u):
        return tuple(np.round(u.ravel(), 9).tolist())

    found = {key(canon(np.eye(2, dtype=complex))): np.eye(2, dtype=complex)}
    frontier = [np.eye(2, dtype=complex)]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (h, s):
                v = canon(g @ u)
                k = key(v)
                if k not in found:
                    found[k] = v
                    nxt.append(v)
        frontier = nxt
    members = tuple(found.values())
    if len(members) != 24:
        raise RuntimeError(f"Clifford closure produced {len(members)} elements")
    return ElementSet(members)


def design_epsilon_bound(ens: ElementSet, d: int) -> float:
    """Upper bound d^2 * ||Choi(G_W) - Choi(G_H)||_1 on the diamond-norm
    deviation of the ensemble's 2-fold moment map from Haar.

    U (x) U is block diagonal, Lambda^2 U + Sym^2 U, in the eigenbasis of the
    swap F, so both Choi matrices live on Anti (x) Anti + Sym (x) Sym, of
    dimension a^2 + s^2 with a = d(d-1)/2 and s = d(d+1)/2. In the block
    coordinates z of the members the Haar Choi is 1/(n a) on the a^2 Anti
    entries and 1/(n s) on the s^2 Sym entries (Schur orthogonality), n = d^2,
    and one eigvalsh of that size gives the trace norm. The members'
    coordinates are built one chunk of two-copy lifts at a time into one
    (N, a^2 + s^2) array, and the ensemble's Choi is a single product of it
    with its conjugate.
    """
    d = whole(d, "d", 1, 8)         # at d = 8 the eigvalsh is already of size a^2 + s^2 = 2080
    ens.require("unitaries", d)
    n = d * d
    a = d * (d - 1) // 2
    b = np.linalg.eigh(swap_operator(d))[1]        # eigenvalue -1 (Anti) first
    blocks = (b[:, :a], b[:, a:])
    z = np.empty((len(ens), a * a + (n - a) ** 2), dtype=complex)
    for sl, uu in two_copy_lifts(len(ens), d, ens.elems.__getitem__):
        z[sl] = np.concatenate([(p.T @ uu @ p).reshape(len(uu), -1) for p in blocks], axis=1)
    zc = z.conj()
    z *= ens.weights[:, None] / n
    acc = z.T @ zc
    acc[np.diag_indices(len(acc))] -= np.concatenate(
        [np.full(p.shape[1] ** 2, 1 / (n * p.shape[1])) for p in blocks])
    # acc is Hermitian up to round-off; eigvalsh reads its lower triangle
    return float(n * np.abs(np.linalg.eigvalsh(acc)).sum())


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_TGATE = np.diag([1.0, np.exp(1j * np.pi / 4)])
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_UNIVERSAL = (tensor(_HADAMARD, np.eye(2)), tensor(_TGATE, np.eye(2)), _CNOT)


def _lift_gate(gate: np.ndarray, n_qubits: int, q1: int, q2: int) -> np.ndarray:
    """A two-qubit gate acting on the ordered qubit pair (q1, q2) of the register."""
    rest = [q for q in range(n_qubits) if q not in (q1, q2)]
    big = tensor(gate, np.eye(2 ** (n_qubits - 2)))
    order = [q1, q2] + rest
    inv_order = [order.index(q) for q in range(n_qubits)]
    return permute_systems(big, (2,) * n_qubits, inv_order)


@lru_cache(maxsize=None)
def _universal_steps(n_qubits: int) -> np.ndarray:
    """Every lifted {H, T, CNOT} gate as one read-only stack: entry 3 * pair + gate is
    _UNIVERSAL[gate] on ordered pair number `pair` of permutations(range(n_qubits), 2)."""
    stack = np.stack([_lift_gate(gate, n_qubits, q1, q2)
                      for q1, q2 in permutations(range(n_qubits), 2) for gate in _UNIVERSAL])
    stack.flags.writeable = False
    return stack


def circuit_ensemble(n_qubits: int, t: int, n_circuits: int, seed=0) -> ElementSet:
    """Uniform ensemble of independent universal random circuits of depth t:
    products of t random two-qubit gates from the {H, T, CNOT} set, each on a
    uniformly random ordered pair of qubits. The discrete gate set keeps the
    depth dependence meaningful even when a single gate already spans the
    whole register (n_qubits = 2), where Haar steps of any depth would be
    exactly Haar distributed.

    Every step of every circuit is one uniform index into the stack of lifted
    gates (see _universal_steps), so its pair and gate are uniform and
    independent; all of them come from one call,
    default_rng(seed).integers(3 * n_qubits * (n_qubits - 1), size=(n_circuits, t)),
    and the circuits are multiplied together one step at a time.
    """
    n_circuits = whole(n_circuits, "n_circuits", 1)
    n_qubits = whole(n_qubits, "n_qubits", 2, 4)
    t = whole(t, "depth", 0)
    stack = _universal_steps(n_qubits)
    idx = np.random.default_rng(seed).integers(len(stack), size=(n_circuits, t))
    u = np.tile(np.eye(2 ** n_qubits, dtype=complex), (n_circuits, 1, 1))
    for k in range(t):
        u = stack[idx[:, k]] @ u
    return ElementSet(u)


# ---------------------------------------------------------------------------
# permutation twirl and the commutant basis
# ---------------------------------------------------------------------------

def commutant_ops(d: int) -> tuple:
    """The 11 spanning operators of the Hermitian swap-and-permutation commutant,
    written as functions of the entry indices [(i1, i2), (j1, j2)]."""
    d = whole(d, "d", 1)
    i1, i2, j1, j2 = pair_indices(d)

    def delta(a, b):        # as floats: on bools, + would be a logical or
        return (a == b).astype(float)

    a3 = delta(i1, j1) + delta(i2, j2)
    a4 = delta(i1, i2) * delta(j1, j2)
    a8 = delta(i1, i2) + delta(j1, j2)
    # 1j * x - 1j * y with x, y >= 0 keeps every real part at +0.0
    return (
        delta(i1, j1) * delta(i2, j2), np.ones((d * d, d * d)), a3,
        a4, swap_operator(d), a4 * delta(i1, j1), a8 * a3, a8,
        delta(i2, j1) + delta(i1, j2),
        1j * (delta(i1, i2) * a3) - 1j * (delta(j1, j2) * a3),
        1j * delta(i1, i2) - 1j * delta(j1, j2),
    )


def gram_closed_form(d: int) -> np.ndarray:
    """The 11 x 11 Gramian tr(A_i A_j) as explicit polynomials in d."""
    g = np.zeros((11, 11))
    g[:9, :9] = np.array([
        [d**2, d**2, 2*d**2, d, d, d, 4*d, 2*d, 2*d],
        [d**2, d**4, 2*d**3, d**2, d**2, d, 4*d**2, 2*d**3, 2*d**3],
        [2*d**2, 2*d**3, 2*d**2 + 2*d**3, 2*d, 2*d, 2*d, 4*d + 4*d**2, 4*d**2, 4*d**2],
        [d, d**2, 2*d, d**2, d, d, 4*d, 2*d**2, 2*d],
        [d, d**2, 2*d, d, d**2, d, 4*d, 2*d, 2*d**2],
        [d, d, 2*d, d, d, d, 4*d, 2*d, 2*d],
        [4*d, 4*d**2, 4*d + 4*d**2, 4*d, 4*d, 4*d, 12*d + 4*d**2, 4*d + 4*d**2, 4*d + 4*d**2],
        [2*d, 2*d**3, 4*d**2, 2*d**2, 2*d, 2*d, 4*d + 4*d**2, 2*d**2 + 2*d**3, 4*d**2],
        [2*d, 2*d**3, 4*d**2, 2*d, 2*d**2, 2*d, 4*d + 4*d**2, 4*d**2, 2*d**2 + 2*d**3],
    ], dtype=float)
    g[9, 9] = g[9, 10] = g[10, 9] = 4*d**2 - 4*d
    g[10, 10] = 2*d**3 - 2*d**2
    return g


def gram_inverse_closed_form(d: int) -> np.ndarray:
    """Block inverse of the Gramian; singular below d = 4."""
    d = whole(d, "d", 4)
    x = d * (d - 1) * (d - 2) * (d - 3)
    block1 = np.array([
        [d**2 - 3*d + 1, 1, -d + 2, 1, 1, -d**2 + d, d - 1, -1, -1],
        [1, 1, -1, 1, 1, -6, 2, -1, -1],
        [-d + 2, -1, (d - 1) / 2, -1, -1, 2*d, -(d + 1) / 2, 1, 1],
        [1, 1, -1, d**2 - 3*d + 1, 1, -d**2 + d, d - 1, -d + 2, -1],
        [1, 1, -1, 1, d**2 - 3*d + 1, -d**2 + d, d - 1, -1, -d + 2],
        [-d**2 + d, -6, 2*d, -d**2 + d, -d**2 + d, d**3 + d**2, -d**2 - d, 2*d, 2*d],
        [d - 1, 2, -(d + 1) / 2, d - 1, d - 1, -d**2 - d, d**2 / 4 + d / 4 + 1,
         -(d + 1) / 2, -(d + 1) / 2],
        [-1, -1, 1, -d + 2, -1, 2*d, -(d + 1) / 2, (d - 1) / 2, 1],
        [-1, -1, 1, -1, -d + 2, 2*d, -(d + 1) / 2, 1, (d - 1) / 2],
    ], dtype=float) / x
    block2 = np.array([[d / 4, -0.5], [-0.5, 0.5]]) / (d * (d - 1) * (d - 2))
    inv = np.zeros((11, 11))
    inv[:9, :9] = block1
    inv[9:, 9:] = block2
    return inv


def commutant_basis(d: int) -> CommutantBasis:
    """The 11 commutant operators with their Gramian and its inverse, d >= 4;
    cached read-only, one basis per integer d."""
    return _commutant_basis(whole(d, "d", 4))


@lru_cache(maxsize=None)
def _commutant_basis(d: int) -> CommutantBasis:
    basis = CommutantBasis(d, commutant_ops(d), gram_closed_form(d), gram_inverse_closed_form(d))
    for arr in basis.ops + (basis.gram, basis.gram_inv):
        arr.flags.writeable = False
    return basis


def commutant_dim_brute(d: int) -> int:
    """Dimension of {X : [X, P (x) P] = 0 for all P, [X, F] = 0} for any d >= 1, counted
    exactly from the d^4 entry positions, with no group element enumerated. These operators
    permute the basis |i1 i2>, and X commutes with a permutation matrix Q iff
    X[Qa, Qb] = X[a, b], so the dimension is the number of orbits of entry positions
    (i1, i2, j1, j2) under S_d and the swap F. The S_d orbits are the equality patterns
    (`pattern_labels`), and F, which exchanges i1 with i2 and j1 with j2, commutes with
    relabelling, so each orbit is a pattern together with its swapped pattern: one label per
    position is the lesser of the two."""
    idx = pair_indices(d).reshape(4, -1)   # (i1, i2, j1, j2) of each position
    return len(np.unique(np.minimum(pattern_labels(idx), pattern_labels(idx[[1, 0, 3, 2]]))))


def _transposition(d: int, j: int, k: int) -> list[int]:
    """The permutation of range(d) that exchanges j and k (the identity if j == k)."""
    p = list(range(d))
    p[j], p[k] = k, j
    return p


def perm_twirl2_brute(mat: np.ndarray, d: int) -> np.ndarray:
    """Uniform average of P^t2 M P^t2-dagger over all d! permutations, d >= 1,
    by explicit permutation matrices in the two-copy twirl kernel: the
    reference that the commutant expansion is checked against. No element
    set is enumerated, so no d is refused for its d!.

    Every g in S_d factors uniquely as t_d ... t_2, with t_(k+1) one of the
    k + 1 transpositions (j k), 0 <= j <= k, and (k k) the identity: these
    pick the cosets of the subgroup that fixes k, ..., d - 1 inside the one
    that fixes k + 1, ..., d - 1. Conjugation is a group action, so the mean
    over S_d is the mean over each transversal in turn, k = 1, ..., d - 1:
    d(d + 1)/2 - 1 conjugations instead of d! (20 instead of 720 at d = 6).
    No check of the library calls it, since the suites and `declab twirl`
    compare with `_groupavg.orbit_mean`; it stays as the tests' reference and
    as a name the benchmark traces. The name keeps "brute" for the same
    reason; a rename waits for the benchmark's next change.
    """
    d = _require_two_copies(mat, d)
    out = np.asarray(mat, dtype=complex)
    for k in range(1, d):
        ts = np.array([perm_operator(_transposition(d, j, k)) for j in range(k + 1)], complex)
        out = twirl2_mean(out, k + 1, d, ts.__getitem__)
    return out


def perm_twirl2_exact(mat: np.ndarray, d: int) -> TwirlResult:
    """Permutation twirl through the commutant expansion
    sum_ij Ginv_ij tr(M A_i) A_j.

    Valid for Hermitian M that are symmetric under exchanging the two copies
    (F M F = M); the twirl of such an operator lies in the 11-dimensional
    commutant, where the Gramian projection is exact.
    """
    d = _require_two_copies(mat, whole(d, "d", 4))
    basis = commutant_basis(d)
    mat = require_hermitian(mat, "twirl input")
    f = basis.ops[4]
    scale = max(1.0, np.abs(mat).max())
    if np.abs(f @ mat @ f - mat).max() > 1e-10 * scale:
        raise ValueError("commutant expansion needs a swap-symmetric input (F M F = M)")
    traces = np.array([np.trace(mat @ a) for a in basis.ops])
    coeffs = basis.gram_inv @ traces
    rec = sum(c * a for c, a in zip(coeffs, basis.ops))
    return TwirlResult(coeffs, rec)
