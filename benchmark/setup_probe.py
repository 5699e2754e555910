"""Import declab and build one workload's inputs, then exit.

    python3 benchmark/setup_probe.py WORKLOAD SEED SECONDS

run.py times this from process start to exit for `setup_s`; it expects
PYTHONPATH to point at the checkout's src and BLAS to be pinned already.
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.build_inputs(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
