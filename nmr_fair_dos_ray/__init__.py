"""nmr_fair_dos_ray — a from-scratch, Ray-Data-native fulltext data-processing
and search engine with the query/data-processing capabilities of
kit-data-manager/nmr_FAIR-DOs (reference at /root/reference, v0.1.0).

Where the reference harvests JSON metadata single-threaded and delegates
indexing + relevance ranking to an external Elasticsearch
(reference: src/nmr_FAIR_DOs/connectors/elasticsearch.py), this engine builds
its own inverted index and BM25 top-k scorer directly on ray.data.Dataset
pipelines over zero-copy Arrow batches.

Layout
------
- ``tokenizer``   code-aware tokenization (identifier splitting, field terms)
- ``codec``       delta + varint block compression for posting lists
- ``oracle``      pure-Python reference BM25 index (conformance oracle)
- ``sources/``    corpus readers (row-group work items, deterministic doc_ids)
- ``stages/``     reusable map_batches stage callables
- ``functions/``  scalar/text functions (base64, datetime, license, quality…)
- ``pipelines/``  end-to-end pipelines (index build, records, dedup, ann, sql-ish)
- ``search/``     BM25 scoring: TAAT over block-max-pruned doc windows, actor-pool serving
- ``state/``      manifests (checkpoint/resume lineage) + broadcast helpers

None of this calls ``ray.init()`` — sessions are owned by the caller
(bench.py, tests/conftest.py, or the grading driver).
"""

__version__ = "0.1.0"

from nmr_fair_dos_ray.tokenizer import Tokenizer  # noqa: F401
