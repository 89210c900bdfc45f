"""Benchmark of the machine-batched simulation kernel.

`BatchedMoore` stacks a whole predictor family into one transition tensor
and advances every machine per block step; this target measures the stack
against the natural alternative the harness used before -- one
per-machine pass over the shared bit stream -- and asserts the batching
advantage the perf layer promises (>= 5x at M >= 8 machines over the
per-machine interpreter loop), after first checking the paths agree
bit-for-bit.
"""

import os
import random
import time

import numpy as np

from repro.automata.moore import MooreMachine
from repro.perf.batched import BatchedMoore

STREAM_BITS = int(os.environ.get("REPRO_BENCH_STREAM_BITS", "500000"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))
NUM_MACHINES = 8


def _machine_family(num_machines: int, seed: int = 2001):
    """Heterogeneous family, sized like a figure's per-size sweep."""
    rng = random.Random(seed)
    family = []
    for m in range(num_machines):
        num_states = rng.choice([4, 8, 12, 16, 24])
        family.append(
            MooreMachine(
                alphabet=("0", "1"),
                start=0,
                outputs=tuple(rng.randrange(2) for _ in range(num_states)),
                transitions=tuple(
                    (rng.randrange(num_states), rng.randrange(num_states))
                    for _ in range(num_states)
                ),
            )
        )
    return family


def _best_of(repeats, func):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_stack_speedup_over_per_machine_loop(benchmark):
    machines = _machine_family(NUM_MACHINES)
    bits = np.random.default_rng(7).integers(0, 2, size=STREAM_BITS)
    text = "".join("1" if b else "0" for b in bits.tolist())
    stack = BatchedMoore(machines)

    # Equivalence first: a fast wrong answer is worthless.
    outs = stack.run_outputs(bits)
    for m, machine in enumerate(machines):
        assert list(outs[m]) == machine.trace_outputs(text)

    def batched_pass():
        BatchedMoore(machines).run_outputs(bits)  # include the stack build

    def per_machine_loop():
        for machine in machines:
            machine.trace_outputs(text)

    batch = _best_of(3, batched_pass)
    loop = _best_of(3, per_machine_loop)
    speedup = loop / batch
    print(
        f"\nbatched: {batch * 1e3:.2f} ms  per-machine: {loop * 1e3:.2f} ms  "
        f"speedup: {speedup:.1f}x over {NUM_MACHINES} machines x "
        f"{STREAM_BITS} bits"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched stack only {speedup:.1f}x faster (required {MIN_SPEEDUP:g}x)"
    )
    benchmark(batched_pass)
