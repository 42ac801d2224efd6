"""The inverted table: every database vector is linked to its S nearest words
(multiple link) and each posting entry carries the vector's binary code
relative to that word.

Index file layout (all integers little-endian):

    magic   8 bytes  b"CNNIDX01"
    hlen    uint32   length of the JSON header
    header  bytes    JSON: scheme, word_count, link_count, code_length,
                     indexed_count, quantizer parameters
    quantizer payload: IFC -> sub-codebook centroids as float32, segments in
                     order; TIFC -> empty (word bank regenerated from seed)
    nlists  uint64   number of non-empty posting lists
    per list: wid int64, length int64, ids int32 x length,
              codes (length * code_bytes) raw
    crc     uint32   CRC32 of every byte after the magic
"""

from __future__ import annotations

import json
import struct
import zlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import embed, pq, tifc
from .embed import EmbedConfig, code_bytes, pack_bits, segment_means
from .pq import PqCodebook, PqConfig
from .tifc import VirtualWordBank
from .vecio import DataError, FeatureSet

MAGIC = b"CNNIDX01"

SCHEME_TIFC = "tifc"
SCHEME_IFC = "ifc"

_BUILD_CHUNK = 8192


@dataclass
class BuildConfig:
    scheme: str
    link_count: int  # S
    code_length: int  # L
    pq: PqConfig | None = None
    virtual_word_seed: int = 0

    def __post_init__(self):
        if self.scheme not in (SCHEME_TIFC, SCHEME_IFC):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.link_count < 1:
            raise ValueError("link_count must be >= 1")
        if self.scheme == SCHEME_IFC and self.pq is None:
            raise ValueError("IFC build requires a PqConfig")


@dataclass
class InvertedIndex:
    scheme: str
    word_count: int
    link_count: int
    code_length: int
    indexed_count: int
    # word id -> (image ids sorted ascending, packed codes), one row per entry
    lists: dict[int, tuple[np.ndarray, np.ndarray]]
    quantizer: VirtualWordBank | PqCodebook

    @property
    def embed_cfg(self) -> EmbedConfig:
        return EmbedConfig(self.code_length)


@dataclass
class IndexStats:
    word_count: int
    total_entries: int
    posting_bytes: int
    code_bytes: int
    quantizer_bytes: int
    list_length_histogram: Counter = field(default_factory=Counter)
    estimated_file_bytes: int = 0


def build(db: FeatureSet, cfg: BuildConfig, training: FeatureSet | None = None) -> InvertedIndex:
    """Index a database under TIFC or IFC with multiple link S.

    For IFC the codebook is trained on `training` (default: the database
    itself). Every image lands in exactly S distinct posting lists.
    """
    d, n, s = db.dim, db.n, cfg.link_count
    if d % cfg.code_length != 0:
        raise DataError(f"dimension {d} not divisible by code length {cfg.code_length}")

    if cfg.scheme == SCHEME_TIFC:
        quantizer = tifc.make_virtual_words(d, cfg.virtual_word_seed)
        word_count = d
        # reference segment means for all D virtual words, computed once
        ref_means = segment_means(quantizer.word_vectors, cfg.code_length)
    else:
        quantizer = pq.train(training if training is not None else db, cfg.pq)
        if quantizer.dim != d:
            raise DataError(f"codebook dim {quantizer.dim} != database dim {d}")
        word_count = quantizer.word_count
        ref_means = None

    if s > word_count:
        raise DataError(f"link count {s} exceeds word count {word_count}")

    id_parts, wid_parts, code_parts = [], [], []
    for lo in range(0, n, _BUILD_CHUNK):
        hi = min(lo + _BUILD_CHUNK, n)
        chunk = db.vectors[lo:hi]
        x_means = segment_means(chunk, cfg.code_length)
        if cfg.scheme == SCHEME_TIFC:
            wids = tifc.top_words_rows(tifc.softmax_rows(chunk), s)
            c_means = ref_means[wids]  # (chunk, S, L)
        else:
            wids = pq.nearest_words_batch(chunk, quantizer, s)
            uniq, inverse = np.unique(wids, return_inverse=True)
            uniq_means = segment_means(pq.reconstruct_batch(uniq, quantizer),
                                       cfg.code_length)
            c_means = uniq_means[inverse].reshape(hi - lo, s, -1)
        codes = pack_bits(x_means[:, None, :] >= c_means)
        id_parts.append(np.repeat(np.arange(lo, hi, dtype=np.int32), s))
        wid_parts.append(np.asarray(wids, dtype=np.int64).ravel())
        code_parts.append(codes.reshape((hi - lo) * s, -1))

    ids = np.concatenate(id_parts)
    wids = np.concatenate(wid_parts)
    codes = np.concatenate(code_parts)
    order = np.lexsort((ids, wids))
    ids, wids, codes = ids[order], wids[order], codes[order]

    lists: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    occupied, starts = np.unique(wids, return_index=True)
    bounds = np.append(starts, len(wids))
    for i, w in enumerate(occupied):
        sl = slice(bounds[i], bounds[i + 1])
        lists[int(w)] = (ids[sl], codes[sl])

    return InvertedIndex(
        scheme=cfg.scheme,
        word_count=word_count,
        link_count=s,
        code_length=cfg.code_length,
        indexed_count=n,
        lists=lists,
        quantizer=quantizer,
    )


def stats(ix: InvertedIndex) -> IndexStats:
    total = sum(len(ids) for ids, _ in ix.lists.values())
    nlists = len(ix.lists)
    b = code_bytes(ix.code_length)
    hist = Counter(len(ids) for ids, _ in ix.lists.values())
    hist[0] += ix.word_count - nlists
    if isinstance(ix.quantizer, PqCodebook):
        qbytes = ix.quantizer.sub_codebooks.nbytes
    else:
        qbytes = 0
    posting_bytes = nlists * 16 + total * 4
    cbytes = total * b
    est = len(MAGIC) + 4 + len(_header_json(ix)) + qbytes + 8 + posting_bytes + cbytes + 4
    return IndexStats(
        word_count=ix.word_count,
        total_entries=total,
        posting_bytes=posting_bytes,
        code_bytes=cbytes,
        quantizer_bytes=qbytes,
        list_length_histogram=hist,
        estimated_file_bytes=est,
    )


def _header_json(ix: InvertedIndex) -> bytes:
    header = {
        "scheme": ix.scheme,
        "word_count": ix.word_count,
        "link_count": ix.link_count,
        "code_length": ix.code_length,
        "indexed_count": ix.indexed_count,
    }
    if isinstance(ix.quantizer, PqCodebook):
        cfg = ix.quantizer.config
        header["quantizer"] = {
            "kind": "pq",
            "dim": ix.quantizer.dim,
            "segments": cfg.segments,
            "words_per_segment": cfg.words_per_segment,
            "kmeans_iters": cfg.kmeans_iters,
            "kmeans_seed": cfg.kmeans_seed,
            "kmeans_restarts": cfg.kmeans_restarts,
        }
    else:
        header["quantizer"] = {
            "kind": "virtual",
            "dim": ix.quantizer.dim,
            "seed": ix.quantizer.seed,
        }
    return json.dumps(header, sort_keys=True).encode("utf-8")


def save(ix: InvertedIndex, path) -> None:
    crc = 0
    with open(path, "wb") as f:
        f.write(MAGIC)

        def put(data: bytes):
            nonlocal crc
            crc = zlib.crc32(data, crc)
            f.write(data)

        header = _header_json(ix)
        put(struct.pack("<I", len(header)))
        put(header)
        if isinstance(ix.quantizer, PqCodebook):
            put(ix.quantizer.sub_codebooks.astype("<f4").tobytes())
        put(struct.pack("<Q", len(ix.lists)))
        for wid in sorted(ix.lists):
            ids, codes = ix.lists[wid]
            put(struct.pack("<qq", wid, len(ids)))
            put(ids.astype("<i4").tobytes())
            put(np.ascontiguousarray(codes).tobytes())
        f.write(struct.pack("<I", crc))


def load(path) -> InvertedIndex:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: bad magic bytes (not an index file)")
    if len(blob) < len(MAGIC) + 8:
        raise DataError(f"{path}: truncated index file")
    body, trailer = blob[len(MAGIC) : -4], blob[-4:]
    if zlib.crc32(body) != struct.unpack("<I", trailer)[0]:
        raise DataError(f"{path}: checksum mismatch (corrupt index file)")

    off = 0

    def take(nbytes: int) -> bytes:
        nonlocal off
        if off + nbytes > len(body):
            raise DataError(f"{path}: truncated index file")
        chunk = body[off : off + nbytes]
        off += nbytes
        return chunk

    (hlen,) = struct.unpack("<I", take(4))
    header = json.loads(take(hlen).decode("utf-8"))
    q = header["quantizer"]
    if q["kind"] == "pq":
        cfg = PqConfig(
            segments=q["segments"],
            words_per_segment=q["words_per_segment"],
            kmeans_iters=q["kmeans_iters"],
            kmeans_seed=q["kmeans_seed"],
            kmeans_restarts=q["kmeans_restarts"],
        )
        seg_dim = q["dim"] // cfg.segments
        nfloats = cfg.segments * cfg.words_per_segment * seg_dim
        cents = np.frombuffer(take(nfloats * 4), dtype="<f4")
        quantizer = PqCodebook(
            sub_codebooks=cents.reshape(cfg.segments, cfg.words_per_segment, seg_dim).copy(),
            config=cfg,
        )
    else:
        quantizer = tifc.make_virtual_words(q["dim"], q["seed"])

    b = code_bytes(header["code_length"])
    (nlists,) = struct.unpack("<Q", take(8))
    lists: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for _ in range(nlists):
        wid, length = struct.unpack("<qq", take(16))
        ids = np.frombuffer(take(length * 4), dtype="<i4").astype(np.int32)
        codes = np.frombuffer(take(length * b), dtype=np.uint8).reshape(length, b).copy()
        lists[wid] = (ids, codes)
    if off != len(body):
        raise DataError(f"{path}: {len(body) - off} trailing bytes after posting lists")

    return InvertedIndex(
        scheme=header["scheme"],
        word_count=header["word_count"],
        link_count=header["link_count"],
        code_length=header["code_length"],
        indexed_count=header["indexed_count"],
        lists=lists,
        quantizer=quantizer,
    )
