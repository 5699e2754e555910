"""One integer rule, `linalg.whole`, for every size, count and index argument:
an int, a numpy integer or an integral float is taken as that int, and
anything else, or a value out of range, is refused with a ValueError that
names the argument and its range, with no numpy warning on the way."""

import argparse
import inspect
import re
import warnings

import numpy as np
import pytest

import declab
from declab import cli
from declab._groupavg import channel_norms
from declab.entropy import h2_cond, h_min_cond
from declab.linalg import check_dims, partial_trace, permute_systems, swap_operator, whole
from declab.states import (
    ChoiChannel,
    DensityOp,
    apply_channel_mat,
    classical_correlated,
    cq_decoupling_state,
    max_entangled,
    pinch_mat,
    random_channel,
    random_cq,
    random_density,
)
from declab.suites import run_circuit_study
from declab.symgroup import (
    affine_family,
    all_perms,
    block_partition_perms,
    char_closed_forms,
    chi_r,
    class_size,
    classical_diamond_distance,
    hook_dimension,
    image_set_perms,
    mn_character,
    pairwise_dependence,
    partitions,
    split_coset_perms,
)
from declab.twirl import (
    circuit_ensemble,
    clifford_1q,
    commutant_basis,
    commutant_dim_brute,
    design_epsilon_bound,
    gram_inverse_closed_form,
    haar_samples,
    haar_twirl2_exact,
    haar_twirl2_mc,
    perm_twirl2_brute,
    perm_twirl2_exact,
)
from declab.verify import (
    perm_lemma_rhs,
    verify_cq_hash,
    verify_decoupling_lemma,
    verify_decoupling_theorem,
    verify_distance_from_classicality,
    verify_perm_decoupling_lemma,
)

MIXED = np.eye(4) / 4


def _twirl_cli(d):
    return cli.cmd_twirl(argparse.Namespace(d=d, seed=0, samples=10))


# case: (argument name as the message gives it, lowest accepted value, call with x in its place)
ARGUMENTS = {
    "check_dims": ("dims[0]", 1, lambda x: check_dims(np.eye(4), (x, 2))),
    "DensityOp": ("dims[0]", 1, lambda x: DensityOp(MIXED, (x, 2))),
    "h_min_cond": ("dims[1]", 1, lambda x: h_min_cond(MIXED, (2, x))),
    "h2_cond": ("dims[1]", 1, lambda x: h2_cond(MIXED, (2, x))),
    "partial_trace-dims": ("dims[0]", 1, lambda x: partial_trace(np.eye(4), (x, 2), [0])),
    "partial_trace-keep": ("keep", 0, lambda x: partial_trace(np.eye(4), (2, 2), [x])),
    "permute_systems-dims": ("dims[0]", 1, lambda x: permute_systems(np.eye(4), (x, 2), [1, 0])),
    "permute_systems-order": ("order", 0, lambda x: permute_systems(np.eye(4), (2, 2), [x, 0])),
    "pinch_mat": ("dims[0]", 1, lambda x: pinch_mat(np.eye(4), (x, 2))),
    "apply_channel_mat": ("dims[0]", 1, lambda x: apply_channel_mat(
        random_channel(2, 2, seed=0), np.eye(4), (x, 2))),
    "channel_norms": ("dims[0]", 1, lambda x: channel_norms(
        random_channel(2, 2, seed=0), np.eye(4), (x, 2), all_perms(2), (1,))),
    "ChoiChannel-d_in": ("d_in", 1, lambda x: ChoiChannel(MIXED, x, 2)),
    "ChoiChannel-d_out": ("d_out", 1, lambda x: ChoiChannel(MIXED, 2, x)),
    "swap_operator": ("d", 1, swap_operator),
    "max_entangled": ("d", 1, max_entangled),
    "classical_correlated": ("d", 1, classical_correlated),
    "cq_decoupling_state": ("d", 2, cq_decoupling_state),
    "random_density-d": ("d", 1, random_density),
    "random_density-rank": ("rank", 1, lambda x: random_density(4, rank=x)),
    "random_density-dims": ("dims[0]", 1, lambda x: random_density(4, dims=(x, 2))),
    "random_cq": ("dims[0]", 1, lambda x: random_cq((x, 2))),
    "random_channel-d_in": ("d_in", 1, lambda x: random_channel(x, 2)),
    "random_channel-d_out": ("d_out", 1, lambda x: random_channel(2, x)),
    "all_perms": ("d", 0, all_perms),
    "image_set_perms": ("k", 0, lambda x: image_set_perms(4, x)),
    "split_coset_perms": ("d1", 1, lambda x: split_coset_perms(x, 2)),
    "block_partition_perms": ("d2", 1, lambda x: block_partition_perms(2, x)),
    "mn_character-partition": ("part", 1, lambda x: mn_character((2, x), (3,))),
    "mn_character-cycle_type": ("part", 1, lambda x: mn_character((2, 1), (2, x))),
    "hook_dimension": ("part", 1, lambda x: hook_dimension((x,))),
    "partitions": ("d", 0, partitions),
    "class_size": ("part", 1, lambda x: class_size((2, x))),
    "char_closed_forms": ("part", 1, lambda x: char_closed_forms((3, x))),
    "chi_r": ("part", 1, lambda x: chi_r((1, x), (1, 1))),
    "affine_family": ("n", 1, affine_family),
    "pairwise_dependence": ("d", 2, lambda x: pairwise_dependence(affine_family(2), x)),
    "classical_diamond_distance": ("d", 2, lambda x: classical_diamond_distance(
        affine_family(2), x)),
    "perm_twirl2_brute": ("d", 1, lambda x: perm_twirl2_brute(np.eye(4), x)),
    "perm_twirl2_exact": ("d", 4, lambda x: perm_twirl2_exact(np.eye(16), x)),
    "haar_twirl2_exact": ("d", 2, lambda x: haar_twirl2_exact(np.eye(4), x)),
    "haar_twirl2_mc-d": ("d", 1, lambda x: haar_twirl2_mc(np.eye(4), x, 3)),
    "haar_twirl2_mc-n": ("n", 1, lambda x: haar_twirl2_mc(np.eye(4), 2, x)),
    "haar_samples-d": ("d", 1, lambda x: haar_samples(x, 3, 0)),
    "haar_samples-n": ("n", 0, lambda x: haar_samples(2, x, 0)),
    "design_epsilon_bound": ("d", 1, lambda x: design_epsilon_bound(clifford_1q(), x)),
    "circuit_ensemble-n_qubits": ("n_qubits", 2, lambda x: circuit_ensemble(x, 2, 5)),
    "circuit_ensemble-depth": ("depth", 0, lambda x: circuit_ensemble(2, x, 5)),
    "circuit_ensemble-n_circuits": ("n_circuits", 1, lambda x: circuit_ensemble(2, 2, x)),
    "gram_inverse_closed_form": ("d", 4, gram_inverse_closed_form),
    "commutant_basis": ("d", 4, commutant_basis),
    "commutant_dim_brute": ("d", 1, commutant_dim_brute),
    "haar_deviation_norms": ("n_samples", 2, lambda x: verify_decoupling_theorem(
        random_density(8, seed=0, dims=(4, 2)), random_channel(4, 2, seed=1), n_samples=x)),
    "embedded_pair_states": ("d_R", 1, lambda x: verify_perm_decoupling_lemma(
        random_channel(4, 2, seed=0), x)),
    "perm_lemma_rhs": ("d_R", 1, lambda x: perm_lemma_rhs(random_channel(4, 2, seed=0), x)),
    "run_circuit_study-n_qubits": ("n_qubits", 2, lambda x: run_circuit_study(x, [2], 5, [0])),
    "run_circuit_study-depth": ("depth", 0, lambda x: run_circuit_study(2, [x], 5, [0])),
    "cli-twirl": ("--d", 2, _twirl_cli),
}


@pytest.mark.parametrize("case, bad", [
    pytest.param(case, bad, id=f"{case}-{bad}")
    for case in ARGUMENTS for bad in ("fraction", "nan", "none", "below")
    if (case, bad) != ("random_density-rank", "none")      # rank=None is full rank
])
def test_every_integer_argument_refuses_what_is_not_one_of_its_integers(case, bad):
    name, low, call = ARGUMENTS[case]
    x = {"fraction": low + 0.5, "nan": np.nan, "none": None, "below": low - 1}[bad]
    n = re.escape(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # a refusal comes with no numpy warning
        with pytest.raises(ValueError, match=rf"^needs (-?\d+ <= )?{n} ([<>]= -?\d+), got {n} = "):
            call(x)


@pytest.mark.parametrize("call, name", [
    (lambda: DensityOp(MIXED, (2.9, 2.1)), "dims[0]"),
    (lambda: h_min_cond(MIXED, (2.9, 2.1)), "dims[0]"),
    (lambda: partial_trace(np.diag([1.0, 2, 3, 4]), (2, 2), [0.9]), "keep"),
    (lambda: channel_norms(random_channel(2, 2, seed=0), MIXED, (2.9, 2.1), all_perms(2), (1,)),
     "dims[0]"),
    (lambda: mn_character((2.9, 1.1), (3,)), "part"),
    (lambda: hook_dimension((2.5, 1)), "part"),
    (lambda: ChoiChannel(MIXED, 2.9, 2.1), "d_in"),
    (lambda: swap_operator(2.5), "d"),
], ids=["DensityOp", "h_min_cond", "partial_trace", "channel_norms", "mn_character",
        "hook_dimension", "ChoiChannel", "swap_operator"])
def test_no_fraction_is_truncated(call, name):
    # each of these once ran on the truncated value, 2.9 as 2 and 0.9 as 0
    with pytest.raises(ValueError, match=rf"got {re.escape(name)} = \d\.\d, not an integer$"):
        call()


def test_integral_floats_are_taken_as_ints():
    rho = DensityOp(MIXED, (2.0, 2.0))
    assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
    ch = ChoiChannel(MIXED, 2.0, 2.0, tp=True)
    assert (ch.d_in, ch.d_out) == (2, 2) and type(ch.d_in) is int and type(ch.d_out) is int
    ref = ChoiChannel(MIXED, 2, 2, tp=True)
    out = apply_channel_mat(ch, random_density(4, seed=0).mat, (2, 2))
    assert np.array_equal(out[0], apply_channel_mat(ref, random_density(4, seed=0).mat, (2, 2))[0])
    assert np.array_equal(circuit_ensemble(2, 2.0, 5).elems, circuit_ensemble(2, 2, 5).elems)
    assert np.array_equal(affine_family(2.0).elems, affine_family(2).elems)
    m = random_density(4, seed=1).mat
    assert np.array_equal(permute_systems(m, (2, 2), [1.0, 0.0]),
                          permute_systems(m, (2, 2), [1, 0]))
    cq = random_cq((4, 2), seed=2)
    assert verify_cq_hash(cq, 2.0, 2.0).lhs == verify_cq_hash(cq, 2, 2).lhs
    assert (verify_distance_from_classicality(random_channel(4, 2, seed=3), np.int64(2)).lhs
            == verify_distance_from_classicality(random_channel(4, 2, seed=3), 2).lhs)
    assert np.array_equal(max_entangled(2.0).mat, max_entangled(2).mat)
    assert np.array_equal(classical_correlated(2.0).mat, classical_correlated(2).mat)
    assert np.array_equal(random_channel(2.0, 2.0, seed=4).choi, random_channel(2, 2, seed=4).choi)
    assert np.array_equal(haar_samples(2.0, 3.0, 5), haar_samples(2, 3, 5))
    assert commutant_basis(5.0) is commutant_basis(5)
    assert partitions(4.0) == partitions(4) and class_size((2.0, 1.0)) == class_size((2, 1)) == 3
    assert (verify_decoupling_lemma(m, (2.0, 2.0), ref).lhs
            == verify_decoupling_lemma(m, (2, 2), ref).lhs)


@pytest.mark.parametrize("verifier", [verify_distance_from_classicality,
                                      verify_perm_decoupling_lemma])
def test_recorded_sizes_are_the_checked_ints(verifier):
    # d_R = 2.0 once went on unconverted and was recorded, and printed, as 2.0
    rep = verifier(random_channel(4, 2, seed=3), 2.0)
    for r in [rep] + [v for v in rep.meta.values() if hasattr(v, "meta")]:
        assert r.meta["dims"] == {"d_A": 4, "d_R": 2, "d_E": 2}
        assert all(type(d) is int for d in r.meta["dims"].values())


@pytest.mark.parametrize("x", [3, np.int64(3), np.uint8(3), 3.0, np.float32(3.0)],
                         ids=["int", "int64", "uint8", "float", "float32"])
def test_whole_takes_an_integer_of_any_numeric_type(x):
    n = whole(x, "n", 3, 3)
    assert n == 3 and type(n) is int


@pytest.mark.parametrize("x", [2.9, np.nan, np.inf, None, "2", 2 + 0j, np.array([2])],
                         ids=["fraction", "nan", "inf", "none", "string", "complex", "array"])
def test_whole_refuses_what_is_not_an_integer(x):
    with pytest.raises(ValueError, match=r"^needs n >= 0, got n = .*, not an integer$"):
        whole(x, "n", 0)


def test_whole_names_the_range_it_refuses():
    with pytest.raises(ValueError, match=r"^needs d_A >= 2, got d_A = 1$"):
        whole(np.int64(1), "d_A", 2)
    with pytest.raises(ValueError, match=r"^needs 2 <= d <= 8, got d = 9.0$"):
        whole(9.0, "d", 2, 8)


SIZE_PARAMETERS = {"d", "d_in", "d_out", "n", "rank", "dims"}
# exported callables whose size parameters need no row above, each with the reason
NOT_SIZE_RULES = {
    "CommutantBasis": "a record that only stores the d commutant_basis checked",
}


def test_every_exported_size_parameter_has_a_row():
    # a size parameter of the public API with no row would wait for a report
    # to be found; this makes it fail here instead
    missing = []
    for fn_name, fn in vars(declab).items():
        if fn_name.startswith("_") or not callable(fn) or fn_name in NOT_SIZE_RULES:
            continue
        for param in SIZE_PARAMETERS & set(inspect.signature(fn).parameters):
            if not any(case.split("-")[0] == fn_name and re.fullmatch(rf"{param}(\[\d+\])?", name)
                       for case, (name, _, _) in ARGUMENTS.items()):
                missing.append(f"{fn_name}({param})")
    assert not missing, f"no row in ARGUMENTS for {missing}"
    assert set(NOT_SIZE_RULES) <= set(vars(declab))
