"""The declab names and parameters that the benchmark's tracer hooks rely on.

benchmark/layers.py registers declab functions by module and name and reads
their bound arguments by parameter name. A renamed function or parameter
shows in `python -m pytest benchmark` only for the functions its few traced
items reach; these tests read layers.py and check every one.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from declab import entropy, verify
from declab.states import random_density

BENCH = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(BENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True      # leave benchmark/ as it is
    try:
        yield importlib.import_module("layers")
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))


def _params(fn) -> set:
    return set(inspect.signature(fn).parameters)


def test_every_traced_name_resolves(layers):
    names = [(module, name) for module, attrs in layers.PLAIN.items() for name in attrs]
    names += [("verify", name) for name in layers.PERM_VERIFIERS + layers.HAAR_VERIFIERS]
    names += [(module, attr) for module, attr, _, _ in layers.make_tracer()._targets]
    for module, name in names:
        assert callable(getattr(importlib.import_module(f"declab.{module}"), name)), (module, name)


def test_every_bound_argument_is_a_parameter(layers):
    for fn in (entropy.h_min_cond, entropy.h2_cond):
        assert {"state", "dims"} <= _params(fn), fn.__name__
    for name in layers.PERM_VERIFIERS:
        assert _params(getattr(verify, name)) & {"fam", "rho", "ch"}, name
    for name in layers.HAAR_VERIFIERS:
        assert "n_samples" in _params(getattr(verify, name)), name
    assert "ens" in _params(verify.verify_design_decoupling)


def test_h2_span_reads_the_benchmark_call_form(layers):
    rho = random_density(6, seed=0, dims=(3, 2))
    zeta = np.eye(2) / 2
    opt = ((rho.mat, rho.dims), {"optimize": True, "seed": 3, "zeta_start": zeta})
    fixed = ((rho.mat, rho.dims), {})
    for (args, kwargs), span in ((opt, "entropy.h2_cond_opt"), (fixed, "entropy.h2_cond_fixed")):
        inspect.signature(entropy.h2_cond).bind(*args, **kwargs)
        assert layers._h2_span(args, kwargs) == span
