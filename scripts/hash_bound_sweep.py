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


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d-a1", type=_int_at_least(1), default=2)
    ap.add_argument("--d-a2", type=_int_at_least(1), default=2)
    ap.add_argument("--d-r", type=_int_at_least(1), default=2)
    ap.add_argument("--steps", type=int, default=9)
    ap.add_argument("--seed", type=_int_at_least(0), default=0)
    ap.add_argument("--quantum", action="store_true",
                    help="use a fully quantum input and the 2 d_A1 bound")
    args = ap.parse_args()
    if args.steps < 2:
        ap.error(f"argument --steps: needs at least 2 mixing weights, got {args.steps}")
    d_a = args.d_a1 * args.d_a2
    if d_a < 2:
        ap.error("arguments --d-a1, --d-a2: the split 1 x 1 leaves A one point, needs d_A >= 2")
    if args.quantum and d_a < 4:
        ap.error(f"arguments --d-a1, --d-a2: the quantum bound needs d_A >= 4, "
                 f"the split {args.d_a1} x {args.d_a2} gives d_A = {d_a}")

    if args.quantum:
        rho0 = random_density(d_a * args.d_r, seed=args.seed, dims=(d_a, args.d_r))
    else:
        rho0 = random_cq((d_a, args.d_r), seed=args.seed)
    uniform = tensor(np.eye(d_a) / d_a, rho0.marginal([1]))
    verifier = verify_quantum_hash if args.quantum else verify_cq_hash

    print(f"# split {args.d_a1} x {args.d_a2}, d_R = {args.d_r}, seed {args.seed}, "
          f"{'quantum' if args.quantum else 'CQ'} input")
    print(f"{'mix':>5s} {'Hmin(A|R)':>10s} {'avg distance':>13s} {'bound':>10s} {'slack':>10s}")
    for k in range(args.steps):
        w = k / (args.steps - 1)
        mixed = DensityOp((1 - w) * rho0.mat + w * uniform, rho0.dims)
        rep = verifier(mixed, args.d_a1, args.d_a2)
        print(f"{w:5.2f} {rep.meta['hmin']:10.4f} {rep.lhs:13.6f} {rep.rhs:10.6f} "
              f"{rep.rhs - rep.lhs:10.6f}")


if __name__ == "__main__":
    main()
