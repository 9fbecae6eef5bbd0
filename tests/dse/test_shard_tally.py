"""Schedule shards travel as ring tallies: journal kind and transport checks."""

import pytest

from repro import matrix_multiplication
from repro.core.optimize import procedure_5_1, ring_candidate_array, search_bounds
from repro.dse.cache import canonical_key
from repro.dse.checkpoint import CheckpointJournal, RunControl
from repro.dse.executor import explore_schedule, schedule_run_params
from repro.dse.partition import ring_bounds
from repro.dse.resilience import ResiliencePolicy, ResilientShardRunner, _output_ok

SPACE = [[1, 1, -1]]


def _record_format_journal(path, algo):
    """A journal in the per-candidate record format schedule shards used
    before tallies: one shard per ring under the ``"schedule"`` kind,
    every record claiming the dependence stage.  Decoded as tallies, or
    folded as records, it would end the search without a winner."""
    journal = CheckpointJournal(path)
    journal.open(
        canonical_key(schedule_run_params(algo, SPACE)),
        task="procedure-5.1",
    )
    control = RunControl(journal=journal)
    alpha, initial_bound, max_bound = search_bounds(algo)
    for ring, (f_min, f_max) in enumerate(
        ring_bounds(initial_bound, alpha, max_bound)
    ):
        pis = ring_candidate_array(algo.mu, f_max, f_min=f_min)
        records = [
            [[int(abs(pi) @ algo.mu) + 1, pi.tolist()], "deps"] for pi in pis
        ]
        key = control.shard_key("schedule", ring, 0, (0, len(pis)))
        journal.record_shard(key, {
            "records": records, "wall_time": 0.0, "batches": 0,
            "promotions": 0, "orbits": 0, "skipped": 0, "screens": 0,
        })
    journal.close()


class TestOldJournalFormat:
    def test_record_format_shards_are_recomputed(self, tmp_path):
        algo = matrix_multiplication(4)
        path = tmp_path / "run.ckpt"
        _record_format_journal(path, algo)
        resumed = explore_schedule(
            algo, SPACE, jobs=1, checkpoint=path, resume=True
        )
        serial = procedure_5_1(algo, SPACE)
        assert resumed == serial
        assert resumed.stats.counter_dict() == serial.stats.counter_dict()
        # Nothing the old journal holds answers a tally lookup.
        assert resumed.stats.shards_resumed == 0


def _flaky_tally_worker(payload):
    """Malformed tally on each shard's first attempt, a good one after."""
    marker = payload["marker_dir"] / f"shard-{payload['x']}"
    if not marker.exists():
        marker.write_text("seen")
        return {"wall_time": 0.0, "tally": [1, 2, 3, "4", None]}
    return {"wall_time": 0.0, "tally": [1, 2, 3, 4, payload["x"]]}


class TestTallyTransport:
    @pytest.mark.parametrize(
        "tally",
        [
            [1, 2, 3, 4],  # too short
            [1, 2, 3, 4, 5, 6],  # too long
            (1, 2, 3, 4, None),  # not a list
            [1, 2, 3, "4", None],  # a count that is not an int
            [1, 2, -3, 4, None],  # a negative count
            [1, 2, 3, 4, 0.5],  # a winner offset that is not an int
            [True, 2, 3, 4, None],  # bools are not counts
        ],
    )
    def test_malformed_tally_fails_the_output_check(self, tally):
        assert not _output_ok({"wall_time": 0.0, "tally": tally})

    def test_well_formed_tally_passes(self):
        assert _output_ok({"wall_time": 0.0, "tally": [5, 7, 3, 2, None]})
        assert _output_ok({"wall_time": 0.0, "tally": [5, 7, 3, 2, 11]})

    def test_malformed_tally_is_retried(self, tmp_path):
        runner = ResilientShardRunner(2, policy=ResiliencePolicy(backoff_base=0.0))
        payloads = [{"x": i, "marker_dir": tmp_path} for i in range(2)]
        with runner:
            outs = runner.run(_flaky_tally_worker, payloads)
        assert [out["tally"] for out in outs] == [[1, 2, 3, 4, 0], [1, 2, 3, 4, 1]]
        assert runner.shard_retries == 2
        assert runner.pool_restarts == 0
        assert not runner.degraded
