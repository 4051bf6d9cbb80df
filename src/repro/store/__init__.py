"""Queryable SQLite-backed dataset store (see :mod:`repro.store.store`).

The package splits along the three layers the store serves:

* :mod:`repro.store.store` — the :class:`HoneypotStore` itself: schema
  lifecycle, batched ingest, record accessors, byte-identical export.
* :mod:`repro.store.ingest` — WAL replay: a checkpoint journal lands in
  store tables without a finished dataset, and rebuilds a damaged store.
* :mod:`repro.store.queries` — the analyses as SQL/incremental queries,
  result-equal to their in-memory references.
"""

from repro.store.errors import StoreError
from repro.store.ingest import ingest_journal, repair_from_journal
from repro.store.schema import STORE_SCHEMA
from repro.store.store import HoneypotStore

__all__ = [
    "HoneypotStore",
    "StoreError",
    "STORE_SCHEMA",
    "ingest_journal",
    "repair_from_journal",
]
