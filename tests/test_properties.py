"""Property-based tests (hypothesis) for invariant-heavy kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmr_fair_dos_ray.codec import (
    delta_decode, delta_encode, varint_decode, varint_encode,
)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=200))
@settings(max_examples=60, deadline=None)
def test_varint_roundtrip_any_uint64(vals):
    arr = np.array(vals, dtype=np.uint64)
    enc = varint_encode(arr)
    dec = varint_decode(enc, len(vals)) if len(vals) else varint_decode(enc)
    np.testing.assert_array_equal(dec, arr)


@given(st.lists(st.integers(min_value=0, max_value=1 << 40),
                min_size=1, max_size=200, unique=True))
@settings(max_examples=60, deadline=None)
def test_delta_roundtrip_sorted_ids(ids):
    arr = np.sort(np.array(ids, dtype=np.int64))
    first, gaps = delta_encode(arr)
    np.testing.assert_array_equal(delta_decode(first, gaps), arr)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_ppm_bmp_roundtrip_any_dims(w, h, seed):
    from nmr_fair_dos_ray.stages.multimodal import decode_bmp, decode_ppm

    rng = np.random.RandomState(seed)
    img = rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
    ppm = f"P6\n{w} {h}\n255\n".encode() + img.tobytes()
    np.testing.assert_array_equal(decode_ppm(ppm), img)
    stride = (w * 3 + 3) & ~3
    rows = np.zeros((h, stride), np.uint8)
    rows[:, : w * 3] = img[::-1, :, ::-1].reshape(h, w * 3)
    header = (
        b"BM" + (54 + rows.size).to_bytes(4, "little") + b"\0\0\0\0"
        + (54).to_bytes(4, "little") + (40).to_bytes(4, "little")
        + w.to_bytes(4, "little") + h.to_bytes(4, "little")
        + (1).to_bytes(2, "little") + (24).to_bytes(2, "little")
        + (0).to_bytes(4, "little") + rows.size.to_bytes(4, "little") + b"\0" * 16
    )
    np.testing.assert_array_equal(decode_bmp(header + rows.tobytes()), img)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=0.5, max_value=0.98))
@settings(max_examples=25, deadline=None)
def test_margin_ivf_assignment_never_misses_pairs(seed, tau):
    """The spill-assignment guarantee: every pair with cos >= tau shares at
    least one assigned centroid — for arbitrary data and tau."""
    from nmr_fair_dos_ray.pipelines.ann import _normalize, kmeans_fit

    rng = np.random.RandomState(seed)
    n, d, nc = 40, 8, 6
    vecs = rng.randn(n, d)
    # plant a few tight pairs so the property is non-vacuous sometimes
    vecs[1] = vecs[0] + rng.randn(d) * 0.01
    vecs[3] = vecs[2] + rng.randn(d) * 0.05
    m = _normalize(vecs.astype(np.float64))
    c = kmeans_fit(vecs.astype(np.float32), nc).astype(np.float64)
    ang = np.arccos(np.clip(m @ c.T, -1, 1))
    best = ang.min(axis=1, keepdims=True)
    margin = float(np.arccos(np.clip(tau, -1.0, 1.0)))
    assign = ang <= best + margin + 1e-9
    sims = m @ m.T
    iu, ju = np.triu_indices(n, k=1)
    for i, j in zip(iu[sims[iu, ju] >= tau], ju[sims[iu, ju] >= tau]):
        assert (assign[i] & assign[j]).any(), (i, j, float(sims[i, j]))


@given(st.lists(st.tuples(st.sampled_from(["k1", "k2", "k3"]),
                          st.text(max_size=8),
                          st.sampled_from(["a", "b", None])),
                max_size=40))
@settings(max_examples=50, deadline=None)
def test_builder_dedup_invariants(entries):
    from nmr_fair_dos_ray.pipelines.extract import PIDRecordBuilder

    b = PIDRecordBuilder("p")
    for k, v, n in entries:
        b.add(k, v, n)
    rows = b.rows()
    # no duplicate (key, value); first name wins; order preserved
    seen = set()
    for _, k, _, v in rows:
        assert (k, v) not in seen
        seen.add((k, v))
    expected_first = {}
    for k, v, n in entries:
        expected_first.setdefault((k, v), n)
    for _, k, n, v in rows:
        assert n == expected_first[(k, v)]


# ------------------------------------------------ phrase kernel invariants
def _random_plists(rng, n_terms, n_docs, max_tf):
    """Random positional triples per term over a shared doc space."""
    plists = {}
    for t in range(n_terms):
        docs = np.flatnonzero(rng.random(n_docs) < 0.6).astype(np.int64)
        if docs.size == 0:
            docs = np.array([0], np.int64)
        offs = [0]
        flat = []
        for _ in docs:
            k = rng.randint(1, max_tf + 1)
            pos = np.sort(rng.choice(40, size=k, replace=False)).astype(np.int64)
            flat.extend(pos.tolist())
            offs.append(offs[-1] + k)
        plists[f"t{t}"] = (
            docs, np.array(offs, np.int64), np.array(flat, np.int64)
        )
    return plists


def _brute_phrase_matches(terms, plists):
    """Per-doc adjacency count by direct set walking."""
    sets = {
        t: {
            int(d): set(
                plists[t][2][plists[t][1][i]:plists[t][1][i + 1]].tolist()
            )
            for i, d in enumerate(plists[t][0])
        }
        for t in set(terms)
    }
    out = {}
    docs_all = set.intersection(*[set(s.keys()) for s in sets.values()])
    for d in docs_all:
        n = sum(
            1
            for p0 in sets[terms[0]][d]
            if all(p0 + j in sets[terms[j]][d] for j in range(1, len(terms)))
        )
        if n:
            out[d] = n
    return out


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_phrase_intersect_matches_bruteforce(seed, n_terms, max_tf):
    """The exact phrase is ordered proximity at slop 0."""
    from nmr_fair_dos_ray.search.engine import near_intersect

    rng = np.random.RandomState(seed)
    plists = _random_plists(rng, n_terms, n_docs=12, max_tf=max_tf)
    terms = [f"t{rng.randint(0, n_terms)}" for _ in range(n_terms)]
    want = _brute_phrase_matches(terms, plists)
    docs_m, counts = near_intersect(terms, plists, 0)
    assert dict(zip(docs_m.tolist(), counts.tolist())) == want


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=3),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_composite_key_hot_path_matches_phrase_intersect(seed, n_terms, slop, ordered):
    """The shared kernels over global doc*K+pos keys (the cached-key layout:
    match_keys + run_length over the FULL lists) must equal near_intersect
    over the same plists (the rank-key layout) for any positional layout,
    ordered or not."""
    from nmr_fair_dos_ray.search.engine import match_keys, near_intersect, run_length

    rng = np.random.RandomState(seed)
    plists = _random_plists(rng, n_terms, n_docs=10, max_tf=3)
    terms = [f"t{rng.randint(0, n_terms)}" for _ in range(n_terms)]
    K = 1 << 22
    keys = {
        t: np.repeat(d, np.diff(o)) * K + f
        for t, (d, o, f) in plists.items()
    }
    got = run_length(match_keys(terms, keys, slop, ordered) // K)
    want = near_intersect(terms, plists, slop, ordered)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=3),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_keys_cut_to_candidates_match_near_intersect(seed, n_terms, slop, ordered):
    """The selective layout: each term's global doc*K+pos keys cut to the
    candidate docs (the terms' doc-set intersection), then match_keys, must
    equal near_intersect over the full plists."""
    from nmr_fair_dos_ray.search.engine import (
        intersect_doc_sets, keys_in_docs, match_keys, near_intersect, run_length,
    )

    rng = np.random.RandomState(seed)
    plists = _random_plists(rng, n_terms, n_docs=30, max_tf=3)
    terms = [f"t{rng.randint(0, n_terms)}" for _ in range(n_terms)]
    K = 1 << 22
    inter = intersect_doc_sets({t: plists[t][0] for t in set(terms)})
    keys = {
        t: keys_in_docs(np.repeat(d, np.diff(o)) * K + f, inter, K)
        for t, (d, o, f) in plists.items()
    }
    for t in set(terms):  # the cut keeps exactly the candidates' keys
        assert set((keys[t] // K).tolist()) == set(inter.tolist())
    got = run_length(match_keys(terms, keys, slop, ordered) // K)
    want = near_intersect(terms, plists, slop, ordered)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


@given(st.lists(st.integers(min_value=0, max_value=500), max_size=80),
       st.lists(st.integers(min_value=0, max_value=500), max_size=80))
@settings(max_examples=60, deadline=None)
def test_sorted_intersect_equals_numpy(a, b):
    from nmr_fair_dos_ray.search.engine import sorted_intersect

    aa = np.unique(np.array(a, np.int64))
    bb = np.unique(np.array(b, np.int64))
    np.testing.assert_array_equal(
        sorted_intersect(aa, bb), np.intersect1d(aa, bb)
    )


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_near_intersect_matches_reachable_set_bruteforce(seed, n_terms, slop):
    """near_intersect == a per-doc Python reachable-set DP for any layout;
    slop=0 must equal the brute-force phrase exactly."""
    from nmr_fair_dos_ray.search.engine import near_intersect

    rng = np.random.RandomState(seed)
    plists = _random_plists(rng, n_terms, n_docs=12, max_tf=4)
    terms = [f"t{rng.randint(0, n_terms)}" for _ in range(n_terms)]
    sets = {
        t: {
            int(d): set(
                plists[t][2][plists[t][1][i]:plists[t][1][i + 1]].tolist()
            )
            for i, d in enumerate(plists[t][0])
        }
        for t in set(terms)
    }
    want = {}
    for d in set.intersection(*[set(s.keys()) for s in sets.values()]):
        reach = sets[terms[0]][d]
        for t in terms[1:]:
            reach = {
                p for p in sets[t][d]
                if any(p - slop - 1 <= q <= p - 1 for q in reach)
            }
            if not reach:
                break
        if reach:
            want[d] = len(reach)
    docs, counts = near_intersect(terms, plists, slop)
    assert dict(zip(docs.tolist(), counts.tolist())) == want
    if slop == 0:
        assert dict(zip(docs.tolist(), counts.tolist())) == \
            _brute_phrase_matches(terms, plists)


@given(st.binary(max_size=300), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_video_decode_never_raises_unexpected(payload, seed):
    """Any byte string either decodes or raises ValueError — the dead-letter
    contract: no struct.error / IndexError may escape the container
    parsers. Also fuzzes MUTATED valid containers (worse than random
    bytes: they pass the magic checks)."""
    from nmr_fair_dos_ray.stages.multimodal import (
        decode_video_frames, synth_mjpeg_avi, synth_y4m,
    )

    rng = np.random.RandomState(seed)
    candidates = [payload]
    for maker in (lambda: synth_mjpeg_avi(seed % 97, w=8, h=8, n_frames=2),
                  lambda: synth_y4m(seed % 97, w=4, h=4, n_frames=2)):
        buf = bytearray(maker())
        for _ in range(3):  # corrupt a few bytes / truncate
            buf[rng.randint(len(buf))] = rng.randint(256)
        candidates.append(bytes(buf[: rng.randint(1, len(buf) + 1)]))
    for c in candidates:
        try:
            decode_video_frames(c, every_nth=1, max_frames=2)
        except ValueError:
            pass  # dead-letter: the one allowed failure mode


@given(st.text(max_size=80))
@settings(max_examples=120, deadline=None)
def test_parse_query_string_total(q):
    """The grammar parser is TOTAL over arbitrary text: it never raises and
    always yields (sign, kind, body) triples with known kinds."""
    from nmr_fair_dos_ray.search.engine import parse_query_string

    for sign, kind, body in parse_query_string(q):
        assert sign in ("", "+", "-")
        assert kind in ("phrase", "field", "fuzzy", "prefix", "terms")
        assert isinstance(body, str)


@given(st.binary(max_size=200), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_image_decode_never_raises_unexpected(payload, seed):
    """Corrupt image payloads (random bytes AND mutated valid PNG/JPEG/BMP/
    PPM containers) must decode or raise ValueError only."""
    from nmr_fair_dos_ray.stages.multimodal import (
        _decode_image_real, encode_png,
    )
    from nmr_fair_dos_ray.stages.jpeg import encode_jpeg

    rng = np.random.RandomState(seed)
    img = rng.randint(0, 256, size=(6, 5, 3), dtype=np.uint8)
    candidates = [payload]
    # hand-rolled P6/BMP headers keep the magic valid while fuzzing bodies
    candidates.append(b"P6 5 6 255\n" + img.tobytes())
    for enc in (encode_png, encode_jpeg):
        buf = bytearray(enc(img))
        for _ in range(3):
            buf[rng.randint(len(buf))] = rng.randint(256)
        candidates.append(bytes(buf[: rng.randint(1, len(buf) + 1)]))
    for c in candidates:
        try:
            _decode_image_real(c)
        except ValueError:
            pass


@given(st.binary(max_size=200), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_audio_stage_never_raises(payload, seed):
    """AudioFrameSampleStage dead-letters any corrupt payload (random bytes
    and mutated/truncated valid WAVs) instead of crashing the task."""
    import pyarrow as pa

    from nmr_fair_dos_ray.stages.multimodal import (
        AudioFrameSampleStage, synth_wav,
    )

    rng = np.random.RandomState(seed)
    buf = bytearray(synth_wav(seed % 89))
    for _ in range(3):
        buf[rng.randint(len(buf))] = rng.randint(256)
    t = pa.table({"payload": pa.array(
        [payload, bytes(buf[: rng.randint(1, len(buf) + 1)])], pa.binary()
    )})
    out = AudioFrameSampleStage(stride=10, frame_count=4)(t)
    assert out.num_rows == 2  # every row yields a row, decoded or not
