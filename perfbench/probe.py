"""Set-up probe: a cold start of one benchmark in a fresh interpreter.

Run as ``python3 perfbench/probe.py <benchmark-key>``.  The last line of
its output is the host seconds taken by ``import repro.cli`` plus
``load_benchmark`` + ``benchmark_ir`` + ``compile_model`` — what a user
pays before the first simulated event.  ``run.py`` starts several of
these and reports their median as ``setup_s``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(benchmark_key: str):
    """Load, lower to the layer IR, and compile one benchmark.

    Returns the compiled program.  Imports stay inside the function so
    that the probe's timer covers them.
    """
    from repro.models.registry import (
        benchmark_by_key,
        benchmark_ir,
        load_benchmark,
    )
    from repro.runtime.compiler import compile_model

    benchmark = benchmark_by_key(benchmark_key)
    model, data = load_benchmark(benchmark)
    benchmark_ir(benchmark)
    return compile_model(model, data)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: probe.py <benchmark-key>", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (part of what a user pays)

    setup(argv[0])
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
