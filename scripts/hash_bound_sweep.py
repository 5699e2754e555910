#!/usr/bin/env python3
"""Quality of the permutation hash bounds along a depolarizing sweep.

A random CQ state on A x R is mixed toward pi_A (x) rho_R; as the mixture gets
more uniform the conditional min-entropy rises and both the exhaustive
permutation average (the exact left side) and the hash right side fall. The
table shows how much slack the bound carries at each mixing weight.
"""

import argparse

import numpy as np

from declab.cli import _int_at_least
from declab.linalg import tensor
from declab.states import DensityOp, random_cq, random_density
from declab.verify import verify_cq_hash, verify_quantum_hash


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d-a1", type=_int_at_least(1), default=2)
    ap.add_argument("--d-a2", type=_int_at_least(1), default=2)
    ap.add_argument("--d-r", type=_int_at_least(1), default=2)
    ap.add_argument("--steps", type=_int_at_least(2), default=9)
    ap.add_argument("--seed", type=_int_at_least(0), default=0)
    ap.add_argument("--quantum", action="store_true",
                    help="use a fully quantum input and the 2 d_A1 bound")
    args = ap.parse_args(argv)
    d_a = args.d_a1 * args.d_a2
    if args.quantum:
        rho0 = random_density(d_a * args.d_r, seed=args.seed, dims=(d_a, args.d_r))
    else:
        rho0 = random_cq((d_a, args.d_r), seed=args.seed)
    uniform = tensor(np.eye(d_a) / d_a, rho0.marginal([1]))
    verifier = verify_quantum_hash if args.quantum else verify_cq_hash
    weights = [k / (args.steps - 1) for k in range(args.steps)]

    try:                # every row before the first line: a refused split prints nothing
        reps = [verifier(DensityOp((1 - w) * rho0.mat + w * uniform, rho0.dims),
                         args.d_a1, args.d_a2) for w in weights]
    except ValueError as exc:
        ap.error(f"arguments --d-a1, --d-a2: {exc}")

    print(f"# split {args.d_a1} x {args.d_a2}, d_R = {args.d_r}, seed {args.seed}, "
          f"{'quantum' if args.quantum else 'CQ'} input")
    print(f"{'mix':>5s} {'Hmin(A|R)':>10s} {'avg distance':>13s} {'bound':>10s} {'slack':>10s}")
    for w, rep in zip(weights, reps):
        print(f"{w:5.2f} {rep.meta['hmin']:10.4f} {rep.lhs:13.6f} {rep.rhs:10.6f} "
              f"{rep.rhs - rep.lhs:10.6f}")


if __name__ == "__main__":
    main()
