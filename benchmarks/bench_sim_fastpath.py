"""Benchmark of the compiled Moore-machine batch kernel.

`CompiledMoore.run_bits` replaces the per-symbol interpreter loop inside
every figure's simulation inner loop; this target measures the kernel and
asserts the speedup the perf layer promises (>= 5x on a realistic
predictor-sized machine over a long outcome stream), after first checking
the two paths agree bit-for-bit.
"""

import os
import random
import time

import numpy as np

from repro.automata.moore import MooreMachine

# Stream length and required advantage; override for quick CI smoke runs.
STREAM_BITS = int(os.environ.get("REPRO_BENCH_STREAM_BITS", "500000"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))


def _predictor_sized_machine(num_states: int = 12, seed: int = 2001):
    rng = random.Random(seed)
    return MooreMachine(
        alphabet=("0", "1"),
        start=0,
        outputs=tuple(rng.randrange(2) for _ in range(num_states)),
        transitions=tuple(
            (rng.randrange(num_states), rng.randrange(num_states))
            for _ in range(num_states)
        ),
    )


def _best_of(repeats, func):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_batch_kernel_speedup_over_per_symbol_loop(benchmark):
    machine = _predictor_sized_machine()
    compiled = machine.compile()
    bits = np.random.default_rng(7).integers(0, 2, size=STREAM_BITS)
    text = "".join("1" if b else "0" for b in bits.tolist())

    # Equivalence first: a fast wrong answer is worthless.
    assert list(compiled.run_bits(bits)) == machine.trace_outputs(text)

    batch = _best_of(3, lambda: compiled.run_bits(bits))
    loop = _best_of(3, lambda: machine.trace_outputs(text))
    speedup = loop / batch
    print(
        f"\nrun_bits: {batch * 1e3:.2f} ms  per-symbol: {loop * 1e3:.2f} ms  "
        f"speedup: {speedup:.1f}x over {STREAM_BITS} bits"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"compiled batch kernel only {speedup:.1f}x faster "
        f"(required {MIN_SPEEDUP:g}x)"
    )
    benchmark(lambda: compiled.run_bits(bits))
