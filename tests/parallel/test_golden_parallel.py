"""Store output vs the committed golden reference, case by case.

``golden_parallel.json`` was generated by single-process runs of the spec
matrix (see ``golden_parallel.py``); every case must still reproduce it
exactly.  A drift is a determinism regression, and the diff points at the
key and operation.

The committed histories must also pass the checker themselves, so the
reference can never pin a violation.
"""

import json

import pytest

from golden_parallel import GOLDEN_PATH, golden_cases, serialize_result
from repro.verification.history import History
from repro.verification.linearizability import check_histories_per_key
from repro.workloads.kv import run_kv_workload

GOLDEN = json.loads(GOLDEN_PATH.read_text())


class TestGoldenParallel:
    @pytest.mark.parametrize("name", sorted(golden_cases()))
    def test_serial_output_matches_committed_golden(self, name):
        assert serialize_result(run_kv_workload(golden_cases()[name])) == GOLDEN[name]

    def test_golden_file_covers_the_case_matrix(self):
        assert sorted(GOLDEN) == sorted(golden_cases())

    @pytest.mark.parametrize("name", sorted(golden_cases()))
    def test_committed_histories_are_linearizable(self, name):
        histories = {
            key: History.from_dict(payload) for key, payload in GOLDEN[name]["histories"].items()
        }
        report = check_histories_per_key(histories)
        assert report.ok, report.violations()
        assert report.keys_checked == len(GOLDEN[name]["histories"]) > 0

    def test_every_golden_run_finished_cleanly(self):
        for name, entry in GOLDEN.items():
            assert entry["finished_cleanly"], name
            assert entry["completed"] > 0, name
