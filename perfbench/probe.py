"""Time `import nohidelab` plus one CLI invocation in a fresh interpreter.

Usage: python3 perfbench/probe.py SRC_DIR ARG...

ARG... is the argv of the invocation. Prints the elapsed seconds and exits
with the invocation's exit code.
"""
import sys
import time


def main() -> int:
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from nohidelab import cli

    code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    print(repr(elapsed))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
