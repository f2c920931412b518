"""Generic idempotent external bulk sink — the K3–K5 writer surface.

The reference pushes extracted FAIR-DO records to an external Typed-PID-
Maker service: single create (POST, expect 201), bulk create (POST list —
one request, placeholder-PID substitution), update (PUT by pid)
(reference: src/nmr_FAIR_DOs/connectors/tpm_connector.py:57-244). The
engine replaces those services for queries, but a user migrating real
pipelines still needs a stage to plug an actual HTTP endpoint into — this
module is that seam, Ray-Data-first:

* :class:`BulkSinkStage` is an actor-pool ``map_batches`` stage: the
  CLIENT (connection pool, auth, session) is built ONCE per actor in
  ``__init__`` from a picklable factory; ``__call__`` drains each batch as
  bulk requests.
* **Idempotency contract**: every record carries a caller-chosen KEY and
  the client semantics are create-or-replace by key (PUT-like). Ray
  retries tasks and resumed pipelines re-send partitions, so delivery is
  AT-LEAST-ONCE — with an idempotent endpoint the sink converges to
  exactly-once EFFECTS, which is the only exactly-once a distributed
  writer can honestly offer.
* **Failure isolation**: a failed bulk request, or a record a bulk
  response reports failed, falls back to per-record sends (one poison
  record must not dead-letter its whole bulk); a record a per-record send
  rejects, or that still fails after ``max_retries``, becomes a
  ``status='failed'`` OUTPUT ROW (the M17 dead-letter-as-data pattern),
  never an exception — the stream keeps flowing and the caller routes
  failures to a dead-letter sink or a retry queue.
* No network in this environment: :class:`InMemoryBulkClient` implements
  the protocol for tests/fixtures with injectable transient and permanent
  failures; a real deployment supplies a factory returning an object with
  the same two methods over ``requests``/``aiohttp``.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import pyarrow as pa

from ray.data import Dataset


class BulkClient:
    """Protocol (duck-typed): what a BulkSinkStage client must provide.

    ``bulk_put(items)`` takes ``[(key, payload), ...]`` and either returns
    per-item ``[(key, ok: bool, err: str | None), ...]`` or raises to
    signal the WHOLE request failed (network error, non-201 — the
    reference's bulk endpoint is all-or-nothing). ``put(key, payload)``
    sends one record, returning ``(ok, err)`` or raising.
    """

    def bulk_put(self, items):  # pragma: no cover - protocol stub
        raise NotImplementedError

    def put(self, key, payload):  # pragma: no cover - protocol stub
        raise NotImplementedError


class InMemoryBulkClient(BulkClient):
    """Test/fixture client: create-or-replace into a dict, with injectable
    failures. ``fail_keys`` always fail (poison records); ``transient``
    maps key -> number of times it errors before succeeding (retry path).
    A shared ``store`` dict may be passed in so tests can inspect effects.
    """

    def __init__(self, store: dict | None = None, fail_keys=(),
                 transient: dict | None = None, bulk_raises: bool = True):
        self.store = store if store is not None else {}
        self.fail_keys = set(fail_keys)
        self.transient = dict(transient or {})
        self.bulk_raises = bulk_raises
        self.calls = {"bulk": 0, "single": 0}

    def _try_one(self, key, payload):
        if key in self.fail_keys:
            return False, "permanent: rejected by endpoint"
        left = self.transient.get(key, 0)
        if left > 0:
            self.transient[key] = left - 1
            raise ConnectionError(f"transient failure for {key}")
        self.store[key] = payload  # create-or-replace: idempotent by key
        return True, None

    def bulk_put(self, items):
        self.calls["bulk"] += 1
        if self.bulk_raises and any(
            k in self.fail_keys or self.transient.get(k, 0) > 0
            for k, _ in items
        ):
            # all-or-nothing bulk endpoint (reference: non-201 raises)
            raise ConnectionError("bulk request failed")
        return [(k, *self._try_one(k, p)) for k, p in items]

    def put(self, key, payload):
        self.calls["single"] += 1
        return self._try_one(key, payload)


class BulkSinkStage:
    """Actor-pool stage: (key, payload) rows → idempotent bulk writes.

    Pass to ``Dataset.map_batches(BulkSinkStage, fn_constructor_kwargs=
    {"client_factory": make_client, ...}, concurrency=N,
    batch_format="pyarrow")``. Emits one status row per input record:
    ``(key, status 'ok'|'failed', attempts, error)`` — consume with a
    filter + ``write_parquet`` for the dead-letter ledger. Per-actor
    client, per-batch bulk requests of ``bulk_size``, exponential backoff
    with ``retry_base_s`` (set 0 in tests), per-record fallback after a
    failed bulk.
    """

    def __init__(
        self,
        client_factory: Callable[[], BulkClient],
        key_col: str = "pid",
        payload_col: str = "value_json",
        bulk_size: int = 100,
        max_retries: int = 3,
        retry_base_s: float = 0.5,
    ):
        self.client = client_factory()  # once per actor (K5 session reuse)
        self.key_col = key_col
        self.payload_col = payload_col
        self.bulk_size = int(bulk_size)
        self.max_retries = int(max_retries)
        self.retry_base_s = float(retry_base_s)

    def _send_one(self, key, payload):
        """-> (status, attempts, error) with retry + backoff."""
        err = None
        for attempt in range(1, self.max_retries + 1):
            try:
                ok, err = self.client.put(key, payload)
            except Exception as e:  # transient transport error: retry
                err = str(e)
                if attempt < self.max_retries and self.retry_base_s:
                    time.sleep(self.retry_base_s * 2 ** (attempt - 1))
                continue
            if ok:
                return "ok", attempt, None
            return "failed", attempt, err  # permanent rejection: no retry
        return "failed", self.max_retries, err

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key_col].to_pylist()
        payloads = batch[self.payload_col].to_pylist()
        out_status, out_attempts, out_err = [], [], []
        for i in range(0, len(keys), self.bulk_size):
            items = list(zip(keys[i:i + self.bulk_size],
                             payloads[i:i + self.bulk_size]))
            try:
                res = self.client.bulk_put(items)
            except Exception:
                # all-or-nothing bulk failed: isolate per record so one
                # poison row cannot dead-letter the whole request
                res = None
            # records the bulk did not take go one by one: a transport
            # error retries, a rejection stops at its first answer
            ok_in_bulk = ([False] * len(items) if res is None
                          else [bool(ok) for _, ok, _ in res])
            for (k, p), ok in zip(items, ok_in_bulk):
                status, attempts, err = ("ok", 1, None) if ok else self._send_one(k, p)
                out_status.append(status)
                out_attempts.append(attempts)
                out_err.append(err)
        return pa.table({
            "key": batch[self.key_col],
            "status": pa.array(out_status, pa.string()),
            "attempts": pa.array(out_attempts, pa.int32()),
            "error": pa.array(out_err, pa.string()),
        })


def bulk_sink(
    ds: Dataset,
    client_factory: Callable[[], BulkClient],
    key_col: str = "pid",
    payload_col: str = "value_json",
    concurrency=(1, 8),
    **stage_kwargs,
) -> Dataset:
    """Stream ``ds`` into an external endpoint; returns the status ledger
    Dataset (one row per record — filter ``status == 'failed'`` for the
    dead-letter queue). The sink is a normal streaming stage: backpressure
    applies, nothing materializes on the driver."""
    return ds.map_batches(
        BulkSinkStage,
        fn_constructor_kwargs={
            "client_factory": client_factory,
            "key_col": key_col,
            "payload_col": payload_col,
            **stage_kwargs,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
    )
