"""Idempotent external bulk sink (K3-K5 writer surface): at-least-once
delivery converges under the create-or-replace contract, poison records
dead-letter as rows without failing their bulk, transients retry."""

import pyarrow as pa
import ray.data as rd

from nmr_fair_dos_ray.stages.bulk_sink import (
    BulkSinkStage, InMemoryBulkClient, bulk_sink,
)


def _batch(n=10):
    return pa.table({
        "pid": pa.array([f"p{i}" for i in range(n)], pa.string()),
        "value_json": pa.array([f'{{"v": {i}}}' for i in range(n)], pa.string()),
    })


def test_bulk_happy_path_and_idempotent_resend():
    store = {}
    client = InMemoryBulkClient(store=store)
    stage = BulkSinkStage(lambda: client, bulk_size=4, retry_base_s=0)
    out = stage(_batch())
    assert out["status"].to_pylist() == ["ok"] * 10
    assert len(store) == 10 and store["p3"] == '{"v": 3}'
    assert client.calls["bulk"] == 3  # ceil(10/4) bulk requests
    # at-least-once resend (Ray task retry / resumed partition): same
    # effects, no duplicates, still all-ok
    out2 = stage(_batch())
    assert out2["status"].to_pylist() == ["ok"] * 10
    assert len(store) == 10


def test_poison_record_dead_letters_without_failing_the_bulk():
    store = {}
    client = InMemoryBulkClient(store=store, fail_keys={"p2", "p7"})
    stage = BulkSinkStage(lambda: client, bulk_size=10, retry_base_s=0,
                          max_retries=2)
    out = stage(_batch())
    by_key = dict(zip(out["key"].to_pylist(), out["status"].to_pylist()))
    assert by_key["p2"] == "failed" and by_key["p7"] == "failed"
    assert [k for k, s in by_key.items() if s == "ok"] == \
        [f"p{i}" for i in range(10) if i not in (2, 7)]
    # the 8 good records COMMITTED despite sharing a bulk with poison rows
    assert len(store) == 8 and "p2" not in store
    errs = dict(zip(out["key"].to_pylist(), out["error"].to_pylist()))
    assert "permanent" in errs["p2"]


def test_transient_failures_retry_to_success():
    store = {}
    client = InMemoryBulkClient(store=store, transient={"p1": 2})
    stage = BulkSinkStage(lambda: client, bulk_size=10, retry_base_s=0,
                          max_retries=3)
    out = stage(_batch(3))
    by_key = dict(zip(out["key"].to_pylist(), out["status"].to_pylist()))
    attempts = dict(zip(out["key"].to_pylist(), out["attempts"].to_pylist()))
    assert by_key == {"p0": "ok", "p1": "ok", "p2": "ok"}
    assert attempts["p1"] == 3 and attempts["p0"] == 1
    assert len(store) == 3
    # exhausted retries -> failed row, never an exception
    client2 = InMemoryBulkClient(transient={"p0": 99})
    stage2 = BulkSinkStage(lambda: client2, bulk_size=10, retry_base_s=0,
                           max_retries=2)
    out2 = stage2(_batch(1))
    assert out2["status"].to_pylist() == ["failed"]
    assert "transient" in out2["error"].to_pylist()[0]


def test_bulk_sink_streams_as_dataset_stage(ray_session):
    ds = rd.from_arrow(_batch(64)).repartition(4)
    ledger = bulk_sink(
        ds, InMemoryBulkClient, bulk_size=16, concurrency=(1, 2),
        retry_base_s=0,
    )
    df = ledger.to_pandas()
    assert len(df) == 64
    assert (df["status"] == "ok").all()
    assert sorted(df["key"]) == sorted(f"p{i}" for i in range(64))
    assert list(df.columns) == ["key", "status", "attempts", "error"]


class _ItemFailsOnce(InMemoryBulkClient):
    """A bulk endpoint that answers (does not raise) that one record failed
    — once; the record then goes through on its own."""

    def __init__(self, flaky_key, **kwargs):
        super().__init__(bulk_raises=False, **kwargs)
        self.flaky = {flaky_key}

    def bulk_put(self, items):
        self.calls["bulk"] += 1
        res = []
        for k, p in items:
            if k in self.flaky:
                self.flaky.discard(k)
                res.append((k, False, "throttled"))
            else:
                res.append((k, *self._try_one(k, p)))
        return res


def test_item_failure_in_bulk_response_retries_and_key_keeps_dtype():
    store = {}
    client = _ItemFailsOnce(3, store=store)
    batch = pa.table({
        "pid": pa.array(range(6), pa.int64()),
        "value_json": pa.array([f'{{"v": {i}}}' for i in range(6)], pa.string()),
    })
    stage = BulkSinkStage(lambda: client, bulk_size=10, retry_base_s=0)
    out = stage(batch)
    assert out["status"].to_pylist() == ["ok"] * 6
    assert out.schema.field("key").type == pa.int64()
    assert out["key"].to_pylist() == list(range(6))
    assert client.calls == {"bulk": 1, "single": 1} and store[3] == '{"v": 3}'
    # a rejection reported inside a bulk response stops at the first
    # per-record answer: no retries of a permanent failure
    client = InMemoryBulkClient(fail_keys={"p2"}, bulk_raises=False)
    stage = BulkSinkStage(lambda: client, bulk_size=10, retry_base_s=0,
                          max_retries=3)
    out = stage(_batch(4))
    assert out["status"].to_pylist() == ["ok", "ok", "failed", "ok"]
    assert out["attempts"].to_pylist() == [1, 1, 1, 1]
    assert client.calls == {"bulk": 1, "single": 1}
