"""Consensus output vs the committed golden reference, case by case.

``golden_consensus.json`` was generated by single-process runs of the
consensus spec matrix (see ``golden_consensus.py``); every case must still
reproduce it exactly — histories containing cas/tas results decided by MMR
binary consensus included.

The committed histories must also pass the checker themselves, so the
reference can never pin a violation.
"""

import json

import pytest

from golden_consensus import GOLDEN_PATH, golden_cases, serialize_result
from repro.verification.history import History
from repro.verification.linearizability import check_histories_per_key
from repro.workloads.kv import run_kv_workload

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def normalized(result) -> dict:
    """JSON-normalize a live result (cas values are tuples; JSON pins lists)."""
    return json.loads(json.dumps(serialize_result(result), allow_nan=False))


class TestGoldenConsensus:
    @pytest.mark.parametrize("name", sorted(golden_cases()))
    def test_serial_output_matches_committed_golden(self, name):
        assert normalized(run_kv_workload(golden_cases()[name])) == GOLDEN[name]

    def test_golden_file_covers_the_case_matrix(self):
        assert sorted(GOLDEN) == sorted(golden_cases())

    def test_every_golden_run_finished_cleanly_and_checked(self):
        for name, entry in GOLDEN.items():
            assert entry["finished_cleanly"], name
            assert entry["failed"] == 0, name
            assert entry["completed"] > 0, name

    @pytest.mark.parametrize("name", sorted(golden_cases()))
    def test_committed_histories_are_linearizable(self, name):
        histories = {
            key: History.from_dict(payload) for key, payload in GOLDEN[name]["histories"].items()
        }
        report = check_histories_per_key(histories, spec="smr")
        assert report.ok, report.violations()
        assert report.keys_checked == len(GOLDEN[name]["histories"]) > 0
