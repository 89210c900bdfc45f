"""Training the per-branch custom FSM predictors (Section 7.3).

"The first step ... is to profile the application with our baseline
predictor ... This identifies those branches that are causing the greatest
amount of mispredictions.  For each of these branches we generate a Markov
Model ... we keep track of a single global history register of length N.
When a branch is encountered in the trace, we update that branch's Markov
Model with the outcome of the branch, given the history in the global
history register."  The paper uses history length 9 for all custom branch
predictors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as _np

from repro.automata.moore import MooreMachine
from repro.core.markov import MarkovModel, _as_bit_array
from repro.core.pipeline import DesignConfig, DesignResult, FSMDesigner
from repro.perf import batched
from repro.predictors.xscale import XScalePredictor
from repro.workloads.trace import BranchTrace

CUSTOM_HISTORY_LENGTH = 9  # the paper's setting for all custom predictors


@dataclass
class PerBranchModels:
    """Global-history Markov models keyed by static branch address."""

    order: int
    models: Dict[int, MarkovModel] = field(default_factory=dict)

    def model_for(self, pc: int) -> MarkovModel:
        model = self.models.get(pc)
        if model is None:
            model = MarkovModel(order=self.order)
            self.models[pc] = model
        return model


def collect_branch_models(
    trace: BranchTrace, order: int = CUSTOM_HISTORY_LENGTH
) -> PerBranchModels:
    """One profiling pass: feed every branch's Markov model with the
    global history at the moment the branch executes."""
    collection = PerBranchModels(order=order)
    models = collection.models
    if len(trace.pcs) >= batched.BATCH_THRESHOLD:
        outcomes = _as_bit_array(trace.outcomes)
        if outcomes is not None:
            pcs = _np.asarray(trace.pcs, dtype=_np.int64)
            length = outcomes.shape[0]
            # Global history before record i, zero-seeded like the loop:
            # bit j-1 holds the outcome j records back.
            hist = _np.zeros(length, dtype=_np.int64)
            for j in range(1, order + 1):
                hist[j:] += outcomes[: length - j] << (j - 1)
            # One composite key per record folds the whole profiling pass
            # into a single np.unique: (dense pc index, history, outcome).
            uniq_pcs, inverse = _np.unique(pcs, return_inverse=True)
            shift = order + 1
            composite = (
                (inverse.astype(_np.int64) << shift) | (hist << 1) | outcomes
            )
            keys, counts = _np.unique(composite, return_counts=True)
            pc_list = uniq_pcs.tolist()
            submask = (1 << shift) - 1
            for key, count in zip(keys.tolist(), counts.tolist()):
                pc = pc_list[key >> shift]
                history = (key & submask) >> 1
                model = models.get(pc)
                if model is None:
                    model = MarkovModel(order=order)
                    models[pc] = model
                model.totals[history] = model.totals.get(history, 0) + count
                if key & 1:
                    model.ones[history] = model.ones.get(history, 0) + count
            return collection
    mask = (1 << order) - 1
    history = 0
    for pc, outcome in zip(trace.pcs, trace.outcomes):
        model = models.get(pc)
        if model is None:
            model = MarkovModel(order=order)
            models[pc] = model
        model.observe(history, outcome)
        history = ((history << 1) | outcome) & mask
    return collection


def rank_branches_by_misses(
    trace: BranchTrace, baseline: Optional[XScalePredictor] = None
) -> List[Tuple[int, int]]:
    """Profile with the baseline predictor; return ``(pc, misses)`` sorted
    worst-first.  Ties break on pc for determinism."""
    predictor = baseline if baseline is not None else XScalePredictor()
    misses: Dict[int, int] = {}
    for pc, outcome in zip(trace.pcs, trace.outcomes):
        taken = bool(outcome)
        if predictor.predict(pc) != taken:
            misses[pc] = misses.get(pc, 0) + 1
        predictor.update(pc, taken)
    return sorted(misses.items(), key=lambda item: (-item[1], item[0]))


def design_branch_predictors(
    models: PerBranchModels,
    branch_pcs: List[int],
    dont_care_fraction: float = 0.01,
) -> Dict[int, DesignResult]:
    """Run the full design flow for each listed branch.

    Uses the paper's defaults: bias threshold 1/2 (plain direction
    prediction) and the 1% don't-care rule of Section 4.3.
    """
    config = DesignConfig(
        order=models.order,
        bias_threshold=0.5,
        dont_care_fraction=dont_care_fraction,
    )
    designer = FSMDesigner(config)
    results: Dict[int, DesignResult] = {}
    for pc in branch_pcs:
        model = models.models.get(pc)
        if model is None or model.total_observations == 0:
            continue
        results[pc] = designer.design_from_model(model)
    return results


def machines_of(designs: Dict[int, DesignResult]) -> Dict[int, MooreMachine]:
    return {pc: result.machine for pc, result in designs.items()}


def fsm_correct_counts(
    trace: BranchTrace, machines: Dict[int, MooreMachine]
) -> Dict[int, Tuple[int, int]]:
    """Replay the update-all policy of Section 7.3: every machine consumes
    every outcome; when its own branch executes, the output of the current
    state is its prediction.  Returns ``{pc: (executions, correct)}``.

    Fast path: under update-all, every machine walks the same global
    outcome stream independently of where its own branch sits, so one
    :class:`~repro.perf.batched.BatchedMoore` run yields every machine's
    state trajectory; the per-branch tally is a couple of gathers over it.
    """
    if machines and len(trace.pcs) >= batched.BATCH_THRESHOLD:
        outcomes = _as_bit_array(trace.outcomes)
        if outcomes is not None:
            pcs = _np.asarray(trace.pcs, dtype=_np.int64)
            items = list(machines.items())
            result: Dict[int, Tuple[int, int]] = {}
            # One stacked pass covers every machine: they all consume the
            # same global outcome stream.
            states_all = batched.BatchedMoore(
                [machine for _pc, machine in items]
            ).run_states(outcomes)
            for m, (pc, machine) in enumerate(items):
                idx = _np.flatnonzero(pcs == pc)
                execs = int(idx.size)
                correct = 0
                if execs and machine.num_states == 1:
                    correct = int((outcomes[idx] == machine.outputs[0]).sum())
                elif execs:
                    outputs = _np.asarray(machine.outputs, dtype=_np.int64)
                    # The machine predicts from the state *before* each
                    # record: after[i-1], or the start state at i == 0.
                    before = _np.empty(execs, dtype=_np.int64)
                    nonzero = idx > 0
                    before[nonzero] = states_all[m, idx[nonzero] - 1]
                    before[~nonzero] = machine.start
                    correct = int((outputs[before] == outcomes[idx]).sum())
                result[pc] = (execs, correct)
            return result
    items = [
        (pc, machine.outputs, machine.transitions, machine.start)
        for pc, machine in machines.items()
    ]
    states = [start for _pc, _outputs, _transitions, start in items]
    execs = [0] * len(items)
    correct = [0] * len(items)
    pc_to_slot = {pc: slot for slot, (pc, _o, _t, _s) in enumerate(items)}
    transition_tables = [transitions for _pc, _o, transitions, _s in items]
    output_tables = [outputs for _pc, outputs, _t, _s in items]
    slots = range(len(items))
    for pc, outcome in zip(trace.pcs, trace.outcomes):
        slot = pc_to_slot.get(pc)
        if slot is not None:
            execs[slot] += 1
            if output_tables[slot][states[slot]] == outcome:
                correct[slot] += 1
        for slot2 in slots:
            states[slot2] = transition_tables[slot2][states[slot2]][outcome]
    return {
        items[slot][0]: (execs[slot], correct[slot]) for slot in slots
    }


def rank_by_improvement(
    train_trace: BranchTrace,
    designs: Dict[int, DesignResult],
    baseline_misses: Dict[int, int],
) -> List[int]:
    """Order candidate branches by how many *training-input* mispredictions
    the custom FSM removes relative to the baseline, dropping branches the
    FSM does not improve.

    The paper deploys FSMs on "branches that do not work well with the
    default predictor"; measuring the improvement on the training input
    (never the evaluation input) is the practical way a design flow
    decides which candidates are worth hard-wiring.
    """
    machines = machines_of(designs)
    per_branch = fsm_correct_counts(train_trace, machines)
    improvements: List[Tuple[int, int]] = []
    for pc, (execs, correct) in per_branch.items():
        fsm_misses = execs - correct
        gain = baseline_misses.get(pc, 0) - fsm_misses
        if gain > 0:
            improvements.append((pc, gain))
    improvements.sort(key=lambda item: (-item[1], item[0]))
    return [pc for pc, _gain in improvements]
