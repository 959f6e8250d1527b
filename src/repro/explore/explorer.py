"""The schedule explorer: search, check, shrink, serialize, replay.

:func:`run_exploration` drives the loop the subsystem exists for:

1. the configured :class:`~repro.explore.strategies.ScheduleStrategy`
   yields seeded schedules (perturbed delays, crash sweeps, partition
   sweeps) over the base keyed workload;
2. every explored execution is checked with the scalable per-key
   linearizability checker (Wing–Gong on every key — the explorer is the
   checker's adversarial test harness, so no fast paths);
3. a violating execution is **shrunk** (:mod:`repro.explore.shrink`) to a
   minimal case, re-verified, and wrapped in a strict-JSON
   **counterexample artifact** that replays standalone
   (``repro explore --replay file`` / :func:`replay_artifact`);
4. before reporting, the explorer replays the artifact through its own
   JSON round-trip and confirms the violation reproduces — a
   non-replayable artifact is itself a failure.

Determinism: same config, same schedules, same violations, same shrunken
artifact, byte for byte.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Union

from repro.explore.case import ExploreCase, materialize_schedule, run_case
from repro.explore.config import ExploreConfig
from repro.explore.mutations import MUTATIONS, install_mutations
from repro.explore.shrink import shrink_case
from repro.explore.strategies import build_strategy

#: Artifact file format marker.
ARTIFACT_FORMAT = "repro-explore-counterexample"
ARTIFACT_VERSION = 1


@dataclass
class Counterexample:
    """A shrunken, replay-verified atomicity violation."""

    case: ExploreCase
    original_case: ExploreCase
    failing_keys: List[Any]
    violations: List[str]
    #: Serialized per-key histories of the shrunken run (diagnostics).
    histories: Dict[str, Any] = field(default_factory=dict)
    replayed: bool = False

    @property
    def op_count(self) -> int:
        """Operations in the shrunken reproducer."""
        return len(self.case.ops)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "case": self.case.to_dict(),
            "original_ops": len(self.original_case.ops),
            "original_perturbation": len(self.original_case.perturbation),
            "expected": {
                "failing_keys": [str(key) for key in self.failing_keys],
                "violations": list(self.violations),
            },
            "histories": self.histories,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True, allow_nan=False) + "\n"


@dataclass
class ExploreReport:
    """Outcome of one exploration run."""

    config: ExploreConfig
    cases_run: int = 0
    operations_checked: int = 0
    states_explored: int = 0
    counterexamples: List[Counterexample] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when no violation was found (what CI asserts on healthy algorithms)."""
        return not self.counterexamples

    @property
    def all_replayed(self) -> bool:
        """True when every counterexample's artifact replayed successfully."""
        return all(example.replayed for example in self.counterexamples)


def _case_fails(case: ExploreCase, check_max_states: int) -> bool:
    return not run_case(case, check_max_states=check_max_states).ok


def _build_counterexample(
    config: ExploreConfig, original: ExploreCase, shrunken: ExploreCase
) -> Counterexample:
    outcome = run_case(shrunken, check_max_states=config.check_max_states)
    histories = {
        str(key): history.to_dict()
        for key, history in outcome.store.histories().items()
        if key in set(outcome.failing_keys())
    }
    example = Counterexample(
        case=shrunken,
        original_case=original,
        failing_keys=outcome.failing_keys(),
        violations=outcome.report.violations(),
        histories=histories,
    )
    # Replayability is part of the contract: round-trip the artifact through
    # JSON and confirm the violation reproduces from the parsed form.
    replay = replay_artifact_payload(json.loads(example.to_json()), config.check_max_states)
    example.replayed = replay.reproduced
    return example


def _explore_case_main(payload) -> Dict[str, Any]:
    """Run one explored case in a pool worker (module-level for spawn).

    Returns only what the parent's accounting needs: the verdict, the
    checker counts, and the recorded perturbation entries — everything else
    (materialization, shrinking, artifact building) happens in the parent by
    deterministically replaying the recorded entries.
    """
    case, recorder, check_max_states = payload
    outcome = run_case(case, perturbation=recorder, check_max_states=check_max_states)
    return {
        "ok": outcome.ok,
        "operations_checked": outcome.report.operations_checked,
        "states_explored": outcome.report.states_explored,
        "entries": list(recorder.entries) if recorder is not None else None,
    }


def run_exploration(config: ExploreConfig) -> ExploreReport:
    """Explore ``config.budget`` schedules; shrink and package any violation.

    ``config.workers > 1`` runs the sweep's cases on a process pool
    (:func:`repro.parallel.run_chunked`).  Cases are independent seeded executions, so
    only the cheap fan-out changes: violating cases are replayed in the
    parent from their recorded perturbation entries (the replay contract
    makes that execution identical to the worker's), and materialization,
    shrinking and artifact packaging run serially exactly as ``workers=1``
    would — same counts, same counterexamples, byte for byte.
    """
    if config.algorithm in MUTATIONS:
        install_mutations()
    strategy = build_strategy(config)
    report = ExploreReport(config=config)
    started = time.perf_counter()
    if config.workers > 1:
        from itertools import islice

        from repro.parallel import run_chunked

        prepared = list(islice(strategy.cases(), config.budget))
        summaries = run_chunked(
            _explore_case_main,
            [(case, recorder, config.check_max_states) for case, recorder in prepared],
            config.workers,
        )
        for (case, recorder), summary in zip(prepared, summaries):
            report.cases_run += 1
            report.operations_checked += summary["operations_checked"]
            report.states_explored += summary["states_explored"]
            if summary["ok"]:
                continue
            concrete = (
                case.with_(perturbation=tuple(tuple(entry) for entry in summary["entries"]))
                if recorder is not None
                else case
            )
            outcome = run_case(concrete, check_max_states=config.check_max_states)
            concrete = materialize_schedule(concrete, outcome)
            shrunken = shrink_case(
                concrete,
                lambda candidate: _case_fails(candidate, config.check_max_states),
                focus_keys=[str(key) for key in outcome.failing_keys()],
            )
            report.counterexamples.append(_build_counterexample(config, concrete, shrunken))
            if len(report.counterexamples) >= config.max_counterexamples > 0:
                break
        report.wall_seconds = time.perf_counter() - started
        return report
    for case, recorder in strategy.cases():
        if report.cases_run >= config.budget:
            break
        outcome = run_case(case, perturbation=recorder, check_max_states=config.check_max_states)
        report.cases_run += 1
        report.operations_checked += outcome.report.operations_checked
        report.states_explored += outcome.report.states_explored
        if outcome.ok:
            continue
        # Materialize the schedule so the case is self-contained and
        # position-independent: recorded perturbation choices, explicit
        # arrival times, pinned read routing.  Then minimize it.
        concrete = (
            case.with_(perturbation=tuple(recorder.entries)) if recorder is not None else case
        )
        concrete = materialize_schedule(concrete, outcome)
        shrunken = shrink_case(
            concrete,
            lambda candidate: _case_fails(candidate, config.check_max_states),
            focus_keys=[str(key) for key in outcome.failing_keys()],
        )
        report.counterexamples.append(_build_counterexample(config, concrete, shrunken))
        if len(report.counterexamples) >= config.max_counterexamples > 0:
            break
    report.wall_seconds = time.perf_counter() - started
    return report


# --------------------------------------------------------------------- replay


@dataclass
class ReplayResult:
    """Outcome of replaying a counterexample artifact."""

    case: ExploreCase
    reproduced: bool
    failing_keys: List[str]
    expected_keys: List[str]
    violations: List[str]


def replay_artifact_payload(
    payload: Dict[str, Any], check_max_states: int = 1_000_000
) -> ReplayResult:
    """Replay a parsed artifact; ``reproduced`` means the same keys fail again."""
    if payload.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"not a {ARTIFACT_FORMAT} artifact (format={payload.get('format')!r})"
        )
    if payload.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"unsupported artifact version {payload.get('version')!r} "
            f"(this build reads version {ARTIFACT_VERSION})"
        )
    case = ExploreCase.from_dict(payload["case"])
    expected_keys = sorted(payload.get("expected", {}).get("failing_keys", []))
    outcome = run_case(case, check_max_states=check_max_states)
    failing = sorted(str(key) for key in outcome.failing_keys())
    return ReplayResult(
        case=case,
        reproduced=bool(failing) and failing == expected_keys,
        failing_keys=failing,
        expected_keys=expected_keys,
        violations=outcome.report.violations(),
    )


def replay_artifact(
    path: Union[str, "pathlib.Path"], check_max_states: int = 1_000_000
) -> ReplayResult:
    """Load a counterexample artifact from ``path`` and replay it."""
    text = pathlib.Path(path).read_text()
    return replay_artifact_payload(json.loads(text), check_max_states)


def write_artifact(example: Counterexample, path: Union[str, "pathlib.Path"]) -> None:
    """Write a counterexample artifact (strict JSON) to ``path``."""
    pathlib.Path(path).write_text(example.to_json())
