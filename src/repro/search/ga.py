"""A steady-state GA searching for per-branch predictor machines.

Fitness of a genome is the accuracy with which its machine predicts the
target branch under the paper's update-all-on-every-branch policy
(Section 7.3): the machine steps on every global outcome, and is scored
when its own branch executes.  This is exactly the runtime regime of the
custom architecture, so GA-found and constructed machines are compared on
identical footing.

**Durability** (:mod:`repro.reliability.durability`): ``evolve(...,
run_id=...)`` checkpoints after every generation -- population (with
scores), generation number, and the seeded PRNG's exact state -- to an
atomic, checksummed blob under the run directory, and journals a
``ga_generation`` event.  A search killed after generation *k* and
re-invoked with the same run id resumes from *k* and produces the
bit-identical best genome an uninterrupted run would have found, because
the PRNG continues from the captured state.  The checkpoint key covers
every config knob *except* ``generations``, so "run 3 generations, then
resume to 50" is the same search as "run 50".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.automata.moore import MooreMachine
from repro.obs.metrics import metrics
from repro.reliability import durability, faults
from repro.search.genome import MachineGenome, random_genome
from repro.workloads.trace import BranchTrace


@dataclass(frozen=True)
class GAConfig:
    """Search knobs (deterministic given ``seed``)."""

    num_states: int = 8
    population: int = 32
    generations: int = 50
    tournament: int = 3
    mutation_rate: float = 0.08
    crossover_rate: float = 0.7
    elite: int = 2
    seed: int = 0
    fitness_sample: Optional[int] = 20_000  # cap on trace length per eval

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.elite >= self.population:
            raise ValueError("elite must be smaller than the population")


def fitness(
    genome: MachineGenome,
    pcs: Sequence[int],
    outcomes: Sequence[int],
    target_pc: int,
) -> float:
    """Prediction accuracy on the target branch (update-all policy)."""
    outputs = genome.outputs
    transitions = genome.transitions
    state = 0
    execs = 0
    correct = 0
    for pc, outcome in zip(pcs, outcomes):
        if pc == target_pc:
            execs += 1
            if outputs[state] == outcome:
                correct += 1
        state = transitions[state][outcome]
    if execs == 0:
        return 0.0
    return correct / execs


def batch_fitness(
    genomes: Sequence[MachineGenome],
    pcs: Sequence[int],
    outcomes: Sequence[int],
    target_pc: int,
) -> List[float]:
    """Fitness of many genomes in one stacked pass.

    Under update-all every genome consumes the same outcome stream, so a
    whole population (or brood of children) advances through a single
    :class:`~repro.perf.batched.BatchedMoore` run; per-genome accuracy is
    a gather at the target branch's positions.  Bit-identical to mapping
    :func:`fitness` (same integer division), which it falls back to
    for small inputs.
    """
    if not genomes:
        return []
    from repro.perf import batched

    if len(genomes) < 2 or len(pcs) < batched.BATCH_THRESHOLD:
        return [fitness(g, pcs, outcomes, target_pc) for g in genomes]
    np = batched._np
    try:
        pc_arr = np.asarray(pcs, dtype=np.int64)
        bits = np.asarray(outcomes, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return [fitness(g, pcs, outcomes, target_pc) for g in genomes]
    if (
        pc_arr.ndim != 1
        or bits.ndim != 1
        or pc_arr.shape != bits.shape
        or not ((bits == 0) | (bits == 1)).all()
    ):
        return [fitness(g, pcs, outcomes, target_pc) for g in genomes]
    idx = np.flatnonzero(pc_arr == target_pc)
    execs = int(idx.size)
    if execs == 0:
        return [0.0] * len(genomes)
    stack = batched.BatchedMoore([g.to_machine() for g in genomes])
    states = stack.run_states(bits)  # (M, N) states after each outcome
    M = len(genomes)
    before = np.empty((M, execs), dtype=np.int64)
    nonzero = idx > 0
    before[:, nonzero] = states[:, idx[nonzero] - 1]
    before[:, ~nonzero] = 0  # genomes always start in state 0
    outs = np.zeros((M, stack.max_states), dtype=np.int64)
    for m, genome in enumerate(genomes):
        outs[m, : genome.num_states] = genome.outputs
    correct = (
        np.take_along_axis(outs, before, axis=1) == bits[idx][None, :]
    ).sum(axis=1)
    return [int(c) / execs for c in correct]


def _checkpoint_key(config: GAConfig, target_pc: int) -> str:
    """Content key of a checkpoint: every knob that shapes the search
    *except* ``generations`` (resuming to a larger generation budget is
    the same search continued, not a different one)."""
    from repro.perf.cache import digest_of

    return digest_of(
        "ga-checkpoint",
        target_pc,
        config.num_states,
        config.population,
        config.tournament,
        config.mutation_rate,
        config.crossover_rate,
        config.elite,
        config.seed,
        config.fitness_sample,
    )


def evolve(
    trace: BranchTrace,
    target_pc: int,
    config: GAConfig,
    run_id: Optional[str] = None,
    checkpoint_tag: Optional[str] = None,
) -> Tuple[MachineGenome, float]:
    """Run the GA; returns the best genome and its fitness.

    With ``run_id`` set (and durability enabled) the search checkpoints
    after every generation and resumes from the last complete generation
    on re-invocation -- bit-identical to an uninterrupted run.
    """
    rng = random.Random(config.seed)
    limit = config.fitness_sample or len(trace)
    pcs = trace.pcs[:limit]
    outcomes = trace.outcomes[:limit]

    ckpt_path = None
    journal = None
    tag = checkpoint_tag or f"pc{target_pc:x}"
    if run_id is not None and durability.durability_enabled():
        ckpt_path = durability.checkpoint_path(
            run_id, "ga", tag, _checkpoint_key(config, target_pc)
        )
        journal = durability.Journal(run_id)

    population: Optional[List[Tuple[float, MachineGenome]]] = None
    start_generation = 0
    if ckpt_path is not None:
        state = durability.load_blob(ckpt_path)
        if (
            isinstance(state, dict)
            and 0 < state.get("generation", 0) <= config.generations
        ):
            population = state["population"]
            rng.setstate(state["rng_state"])
            start_generation = state["generation"]
            metrics().incr("ga.resumed")
            if journal is not None:
                journal.append("ga_resumed", tag=tag, generation=start_generation)

    if population is None:
        # Creation draws from the RNG; scoring is pure, so the whole
        # brood can be scored in one batched pass afterwards.
        genomes = [
            random_genome(config.num_states, rng)
            for _ in range(config.population)
        ]
        scores = batch_fitness(genomes, pcs, outcomes, target_pc)
        population = list(zip(scores, genomes))
        population.sort(key=lambda item: -item[0])

    def tournament_pick() -> MachineGenome:
        best: Optional[Tuple[float, MachineGenome]] = None
        for _ in range(config.tournament):
            candidate = population[rng.randrange(len(population))]
            if best is None or candidate[0] > best[0]:
                best = candidate
        assert best is not None
        return best[1]

    for generation in range(start_generation, config.generations):
        next_population: List[Tuple[float, MachineGenome]] = list(
            population[: config.elite]
        )
        # Tournament picks read the *previous* generation's scores, so
        # children can be created first (consuming the RNG in the same
        # order as scoring them one by one would) and scored as one
        # batched brood.
        children: List[MachineGenome] = []
        while len(next_population) + len(children) < config.population:
            parent = tournament_pick()
            if rng.random() < config.crossover_rate:
                child = parent.crossover(tournament_pick(), rng)
            else:
                child = parent.copy()
            child.mutate(rng, config.mutation_rate)
            children.append(child)
        next_population.extend(
            zip(batch_fitness(children, pcs, outcomes, target_pc), children)
        )
        next_population.sort(key=lambda item: -item[0])
        population = next_population
        if ckpt_path is not None:
            # Checkpoint the *complete* generation: population with its
            # scores plus the PRNG's exact state, so a resumed run draws
            # the same random sequence an uninterrupted one would.
            durability.store_blob(
                ckpt_path,
                {
                    "generation": generation + 1,
                    "population": population,
                    "rng_state": rng.getstate(),
                },
            )
            if journal is not None:
                journal.append(
                    "ga_generation",
                    tag=tag,
                    generation=generation + 1,
                    best=round(population[0][0], 6),
                )
            faults.fire_kill("kill_point")
    if journal is not None:
        journal.close()
    best_fitness, best_genome = population[0]
    return best_genome, best_fitness


def search_predictor(
    trace: BranchTrace,
    target_pc: int,
    config: GAConfig,
    run_id: Optional[str] = None,
    checkpoint_tag: Optional[str] = None,
) -> Tuple[MooreMachine, float]:
    """Convenience wrapper returning the decoded machine and its fitness."""
    genome, best_fitness = evolve(
        trace, target_pc, config, run_id=run_id, checkpoint_tag=checkpoint_tag
    )
    return genome.to_machine(), best_fitness
