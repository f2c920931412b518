"""Resume of a finished index that lost a shard file.

The champion lists this module tested are retired: builds no longer write
them and readers ignore the ``champ_*`` columns of older indexes
(tests/test_index_format.py). What stays is the resume check that shared
their index: a finished index missing one of its shard files is rebuilt,
and answers as it did before the loss.
"""

import os

import numpy as np
import pyarrow.parquet as pq

from nmr_fair_dos_ray.pipelines.index_build import IndexConfig, build_index
from nmr_fair_dos_ray.search.engine import IndexReader, Searcher

BASE = dict(
    token_cols=("path", "lang"),
    field_cols=("repo", "lang"),
    stored_cols=("repo", "path"),
    num_shards=4,
)


def test_seed_survives_resume(sf_unit, tmp_path):
    idx = str(tmp_path / "idx")
    build_index(sf_unit["corpus"], idx, IndexConfig(**BASE))
    r = IndexReader(idx)
    s_before = Searcher(r)
    victim = sorted(os.listdir(f"{idx}/shards"))[1]
    # the lost shard's most frequent term: its answer must come back too
    vt = pq.read_table(f"{idx}/shards/{victim}", columns=["term", "df"])
    lost_term = vt["term"][int(np.argmax(vt["df"].to_numpy()))].as_py()
    queries = ["def return self", lost_term]
    before = [s_before.search(q, k=10) for q in queries]
    assert before[1]
    terms_before = set(r.terms)
    os.remove(f"{idx}/shards/{victim}")
    build_index(sf_unit["corpus"], idx, IndexConfig(**BASE))
    assert os.path.exists(f"{idx}/shards/{victim}")
    r2 = IndexReader(idx)
    assert set(r2.terms) == terms_before
    assert [Searcher(r2).search(q, k=10) for q in queries] == before
