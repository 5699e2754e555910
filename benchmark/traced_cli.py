"""Run the declab command line with every layer function traced.

    python3 benchmark/traced_cli.py SPANS_PATH verify --suite all ...

The arguments after SPANS_PATH go to `declab` unchanged and its output is
the untraced command's output; the spans are written to SPANS_PATH at exit.
"""

import sys

import layers

if __name__ == "__main__":
    from declab import cli

    tracer = layers.make_tracer()
    with tracer.active():
        code = cli.main(sys.argv[2:])
    tracer.write(sys.argv[1])
    sys.exit(code)
