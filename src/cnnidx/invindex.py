"""The inverted table: every database vector is linked to its S nearest words
(multiple link) and each posting entry carries the vector's binary code
relative to that word.

In memory and on disk the posting lists are four arrays: the occupied word
ids `wids` (ascending), the list boundaries, the image ids `ids` (int32,
ascending within each list) and the packed codes `codes` (n*S, B). List j
belongs to word wids[j] and holds the entries offsets[j]:offsets[j + 1].

Index file layout (all integers little-endian):

    magic   8 bytes  b"CNNIDX02"
    hlen    uint32   length of the JSON header
    header  bytes    JSON: scheme, word_count, link_count, code_length,
                     indexed_count, quantizer parameters (kind "pq" for IFC,
                     "means" for TIFC)
    quantizer payload: IFC -> sub-codebook centroids as float32, segments in
                     order; TIFC -> empty (the (D, L) table of the virtual
                     words' segment means is redrawn from dim, code_length
                     and seed)
    nlists  uint64   number of non-empty posting lists
    wids    int64 x nlists, strictly increasing
    lengths int64 x nlists, each >= 1, summing to indexed_count * S
    ids     int32 x (indexed_count * S), list after list
    codes   uint8 x (indexed_count * S * code_bytes), one code per id
    crc     uint32   CRC32 of every byte after the magic

`load` rejects with `DataError` every file that breaks one of these rules,
so a query never meets an id outside [0, indexed_count) or an image twice in
one list. `CNNIDX01` files (one record per list) are not read; rebuild them.
Nor are TIFC files with quantizer kind "virtual": their table of means came
from a D x D bank, and the table drawn now differs, so rebuild them too.

Build and query share one encoding stage. `assign_words` gives a matrix of
rows their words (TIFC: the top softmax bins; IFC: the exact nearest product
words) and `encode_rows` packs each row's codes against those words' segment
means. A row's words and codes depend on that row alone, so a database
vector queried with itself gets exactly its S links and their codes.

A TIFC table holds D * L float64 means. `build` and `load` reject any table
of more than `MAX_TABLE_ENTRIES` = 2^24 entries (128 MiB; D = L = 4,096 still
fits) before drawing it, so a small file cannot ask for gigabytes.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import pq, tifc
from .embed import code_bytes, pack_bits, segment_means
from .pq import PqCodebook, PqConfig
from .tifc import VirtualWordBank
from .vecio import DataError, FeatureSet

MAGIC = b"CNNIDX02"
OLD_MAGIC = b"CNNIDX01"

SCHEME_TIFC = "tifc"
SCHEME_IFC = "ifc"

# Largest TIFC table of segment means, D * L, that build or load will draw.
MAX_TABLE_ENTRIES = 1 << 24

# Bytes of the (rows, S, L) float64 word-mean gather per build chunk.
_BUILD_BYTES = 64 << 20


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
    wids: np.ndarray  # (nlists,) int64, occupied word ids, strictly increasing
    offsets: np.ndarray  # (nlists + 1,) int64, list j is offsets[j]:offsets[j + 1]
    ids: np.ndarray  # (n * S,) int32, strictly increasing within each list
    codes: np.ndarray  # (n * S, B) uint8, packed code of each entry
    quantizer: VirtualWordBank | PqCodebook


@dataclass
class IndexStats:
    word_count: int
    total_entries: int
    posting_bytes: int
    code_bytes: int
    quantizer_bytes: int
    list_length_histogram: Counter = field(default_factory=Counter)
    estimated_file_bytes: int = 0


def assign_words(quantizer: VirtualWordBank | PqCodebook, xs: np.ndarray,
                 count: int) -> np.ndarray:
    """The `count` words of each row of xs, (N, count) int64, in selection
    order: TIFC takes the largest softmax bins in (-tf, id) order, IFC the
    nearest product words in (distance, word id) order."""
    if isinstance(quantizer, VirtualWordBank):
        return tifc.top_words_rows(tifc.softmax_rows(xs), count)
    return pq.nearest_words_batch(xs, quantizer, count)


def encode_rows(quantizer: VirtualWordBank | PqCodebook, xs: np.ndarray, wids: np.ndarray,
                code_length: int) -> np.ndarray:
    """Each row's packed codes against the segment means of its words,
    (N, count, B) for (N, count) word ids."""
    if isinstance(quantizer, VirtualWordBank):
        c_means = quantizer.means[wids]
    else:
        # each distinct word of the rows is reconstructed once
        uniq, inverse = np.unique(wids, return_inverse=True)
        uniq_means = segment_means(pq.reconstruct_batch(uniq, quantizer), code_length)
        c_means = uniq_means[inverse.reshape(wids.shape)]
    return pack_bits(segment_means(xs, code_length)[:, None, :] >= c_means)


def build(db: FeatureSet, cfg: BuildConfig, training: FeatureSet | None = None) -> InvertedIndex:
    """Index a database under TIFC or IFC with multiple link S.

    For IFC the codebook is trained on `training` (default: the database
    itself). Every image lands in exactly S distinct posting lists. Rows go
    through `assign_words` and `encode_rows` in chunks sized so that their
    word-mean gather stays within `_BUILD_BYTES`; the index does not depend
    on the chunk size.
    """
    d, n, s = db.dim, db.n, cfg.link_count
    if n == 0:
        raise DataError("database has no vectors to index")
    if d % cfg.code_length != 0:
        raise DataError(f"dimension {d} not divisible by code length {cfg.code_length}")

    if cfg.scheme == SCHEME_TIFC:
        _check_table(d, cfg.code_length, "database")
        quantizer = tifc.make_virtual_words(d, cfg.virtual_word_seed, cfg.code_length)
        word_count = d
    else:
        quantizer = pq.train(training if training is not None else db, cfg.pq)
        if quantizer.dim != d:
            raise DataError(f"codebook dim {quantizer.dim} != database dim {d}")
        word_count = quantizer.word_count

    if s > word_count:
        raise DataError(f"link count {s} exceeds word count {word_count}")

    chunk_rows = max(1, _BUILD_BYTES // (s * cfg.code_length * 8))
    wid_parts, code_parts = [], []
    for lo in range(0, n, chunk_rows):
        chunk = db.vectors[lo:lo + chunk_rows]
        wid_parts.append(assign_words(quantizer, chunk, s))
        codes = encode_rows(quantizer, chunk, wid_parts[-1], cfg.code_length)
        code_parts.append(codes.reshape(len(chunk) * s, -1))

    ids = np.repeat(np.arange(n, dtype=np.int32), s)
    wids = np.concatenate(wid_parts).ravel()
    codes = np.concatenate(code_parts)
    # ids ascend already, so a stable sort on the word (a radix sort for
    # word counts up to 2^16) groups the lists in (word, id) order
    order = np.argsort(wids.astype(np.min_scalar_type(word_count - 1)), kind="stable")
    ids, wids, codes = ids[order], wids[order], codes[order]
    starts = np.flatnonzero(np.diff(wids, prepend=-1))

    return InvertedIndex(
        scheme=cfg.scheme,
        word_count=word_count,
        link_count=s,
        code_length=cfg.code_length,
        indexed_count=n,
        wids=wids[starts],
        offsets=np.append(starts, len(wids)),
        ids=ids,
        codes=codes,
        quantizer=quantizer,
    )


def stats(ix: InvertedIndex) -> IndexStats:
    """Entry counts, list-length histogram and byte sizes, all read from the
    arrays that `save` writes."""
    lengths = np.diff(ix.offsets)
    hist = Counter(lengths.tolist())
    hist[0] += ix.word_count - len(ix.wids)
    qbytes = ix.quantizer.sub_codebooks.nbytes if isinstance(ix.quantizer, PqCodebook) else 0
    return IndexStats(
        word_count=ix.word_count,
        total_entries=len(ix.ids),
        posting_bytes=ix.wids.nbytes + lengths.nbytes + ix.ids.nbytes,
        code_bytes=ix.codes.nbytes,
        quantizer_bytes=qbytes,
        list_length_histogram=hist,
        estimated_file_bytes=len(MAGIC) + sum(memoryview(sec).nbytes for sec in _sections(ix)) + 4,
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
            "kind": "means",
            "dim": ix.quantizer.dim,
            "seed": ix.quantizer.seed,
        }
    return json.dumps(header, sort_keys=True).encode("utf-8")


def _sections(ix: InvertedIndex) -> list:
    """The file's byte sections between the magic and the CRC, in order."""
    header = _header_json(ix)
    out = [struct.pack("<I", len(header)), header]
    if isinstance(ix.quantizer, PqCodebook):
        out.append(np.ascontiguousarray(ix.quantizer.sub_codebooks, dtype="<f4"))
    out += [
        struct.pack("<Q", len(ix.wids)),
        np.ascontiguousarray(ix.wids, dtype="<i8"),
        np.ascontiguousarray(np.diff(ix.offsets), dtype="<i8"),
        np.ascontiguousarray(ix.ids, dtype="<i4"),
        np.ascontiguousarray(ix.codes, dtype=np.uint8),
    ]
    return out


def save(ix: InvertedIndex, path) -> None:
    crc = 0
    with open(path, "wb") as f:
        f.write(MAGIC)
        for section in _sections(ix):
            crc = zlib.crc32(section, crc)
            f.write(section)
        f.write(struct.pack("<I", crc))


def _field(path, obj: dict, key: str, kind: type, minimum: int | None = None):
    value = obj.get(key)
    # `type(...) is` rather than isinstance: JSON true/false are not ints here
    if type(value) is not kind:
        raise DataError(f"{path}: index header field {key!r} missing or not {kind.__name__}")
    if minimum is not None and value < minimum:
        raise DataError(f"{path}: index header field {key!r} is {value}, below {minimum}")
    return value


def _read_header(path, raw) -> tuple[dict, PqConfig | None, int]:
    """The checked header fields, the quantizer config (a PqConfig, or None
    for TIFC) and the quantizer's dimension."""
    try:
        header = json.loads(bytes(raw).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: unreadable index header ({exc})") from None
    if type(header) is not dict:
        raise DataError(f"{path}: index header is not a JSON object")
    scheme = _field(path, header, "scheme", str)
    out = {"scheme": scheme,
           "word_count": _field(path, header, "word_count", int, 1),
           "link_count": _field(path, header, "link_count", int, 1),
           "code_length": _field(path, header, "code_length", int, 1),
           "indexed_count": _field(path, header, "indexed_count", int, 1)}
    q = _field(path, header, "quantizer", dict)
    kind = _field(path, q, "kind", str)
    dim = _field(path, q, "dim", int, 1)
    if (scheme, kind) == (SCHEME_IFC, "pq"):
        fields = {key: _field(path, q, key, int, minimum) for key, minimum in (
            ("segments", 1), ("words_per_segment", 1), ("kmeans_iters", 1),
            ("kmeans_seed", 0), ("kmeans_restarts", 1))}
        # bounds K^M before PqConfig computes it
        if fields["words_per_segment"] > 1 and fields["segments"] > 63:
            raise DataError(f"{path}: K^M does not fit in a 64-bit word id")
        try:
            cfg = PqConfig(**fields)
        except ValueError as exc:
            raise DataError(f"{path}: bad quantizer in index header ({exc})") from None
        words = cfg.words_per_segment ** cfg.segments
        if dim % cfg.segments:
            raise DataError(f"{path}: dim {dim} not divisible by {cfg.segments} segments")
    elif (scheme, kind) == (SCHEME_TIFC, "virtual"):
        raise DataError(f"{path}: TIFC index with the old virtual-word table "
                        "(quantizer kind 'virtual'); rebuild the index with `cnnidx build`")
    elif (scheme, kind) == (SCHEME_TIFC, "means"):
        cfg = None
        out["seed"] = _field(path, q, "seed", int, 0)
        words = dim
    else:
        raise DataError(f"{path}: scheme {scheme!r} with quantizer kind {kind!r}")
    if out["word_count"] != words:
        raise DataError(f"{path}: word_count {out['word_count']} != quantizer's {words}")
    if out["link_count"] > words:
        raise DataError(f"{path}: link_count {out['link_count']} exceeds word count {words}")
    if dim % out["code_length"]:
        raise DataError(f"{path}: dim {dim} not divisible by code length {out['code_length']}")
    if out["indexed_count"] > np.iinfo(np.int32).max:
        raise DataError(f"{path}: indexed_count {out['indexed_count']} exceeds int32 ids")
    if cfg is None:
        _check_table(dim, out["code_length"], path)
    return out, cfg, dim


def _check_table(dim: int, code_length: int, where) -> None:
    if dim * code_length > MAX_TABLE_ENTRIES:
        raise DataError(f"{where}: TIFC table of {dim} x {code_length} means exceeds "
                        f"{MAX_TABLE_ENTRIES} entries")


def _check_postings(path, ix: InvertedIndex) -> None:
    """Reject posting arrays that break the layout's invariants; the lengths
    are checked already, so there is at least one list and one entry."""
    wids, ids = ix.wids, ix.ids
    if wids[0] < 0 or wids[-1] >= ix.word_count or np.any(np.diff(wids) <= 0):
        raise DataError(f"{path}: word ids not strictly increasing in [0, {ix.word_count})")
    if ids.min() < 0 or ids.max() >= ix.indexed_count:
        raise DataError(f"{path}: posting ids outside [0, {ix.indexed_count})")
    rising = np.diff(ids) > 0
    rising[ix.offsets[1:-1] - 1] = True  # list boundaries may step down
    if not rising.all():
        raise DataError(f"{path}: posting ids not strictly increasing within a list")
    pad = ix.code_length % 8
    if pad and np.any(ix.codes[:, -1] >> pad):
        raise DataError(f"{path}: nonzero pad bits in the codes")


def load(path) -> InvertedIndex:
    """Read and validate an index file; any malformed file raises DataError."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(OLD_MAGIC)] == OLD_MAGIC:
        raise DataError(f"{path}: index file in the old CNNIDX01 format; "
                        "rebuild the index with `cnnidx build`")
    if blob[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: bad magic bytes (not an index file)")
    if len(blob) < len(MAGIC) + 8:
        raise DataError(f"{path}: truncated index file")
    body, trailer = memoryview(blob)[len(MAGIC) : -4], blob[-4:]
    if zlib.crc32(body) != struct.unpack("<I", trailer)[0]:
        raise DataError(f"{path}: checksum mismatch (corrupt index file)")

    off = 0

    def take(nbytes: int) -> memoryview:
        nonlocal off
        if off + nbytes > len(body):
            raise DataError(f"{path}: truncated index file")
        chunk = body[off : off + nbytes]
        off += nbytes
        return chunk

    def array(count: int, dtype, native) -> np.ndarray:
        # astype copies: the array is aligned and does not keep the blob alive
        raw = take(count * np.dtype(dtype).itemsize)
        return np.frombuffer(raw, dtype=dtype).astype(native)

    (hlen,) = struct.unpack("<I", take(4))
    header, cfg, dim = _read_header(path, take(hlen))
    if cfg is not None:
        seg_dim = dim // cfg.segments
        cents = array(cfg.segments * cfg.words_per_segment * seg_dim, "<f4", np.float32)
        quantizer = PqCodebook(
            sub_codebooks=cents.reshape(cfg.segments, cfg.words_per_segment, seg_dim),
            config=cfg,
        )
    else:
        quantizer = tifc.make_virtual_words(dim, header["seed"], header["code_length"])

    total = header["indexed_count"] * header["link_count"]
    (nlists,) = struct.unpack("<Q", take(8))
    wids = array(nlists, "<i8", np.int64)
    lengths = array(nlists, "<i8", np.int64)
    ids = array(total, "<i4", np.int32)
    b = code_bytes(header["code_length"])
    codes = array(total * b, np.uint8, np.uint8).reshape(total, b)
    if off != len(body):
        raise DataError(f"{path}: {len(body) - off} trailing bytes after posting lists")
    # total fits the file here, so a sum of lengths in [1, total] cannot overflow
    if np.any(lengths < 1) or np.any(lengths > total) or lengths.sum() != total:
        raise DataError(f"{path}: list lengths are not all >= 1 with sum "
                        f"indexed_count * link_count = {total}")

    ix = InvertedIndex(
        scheme=header["scheme"],
        word_count=header["word_count"],
        link_count=header["link_count"],
        code_length=header["code_length"],
        indexed_count=header["indexed_count"],
        wids=wids,
        offsets=np.concatenate(([0], np.cumsum(lengths))),
        ids=ids,
        codes=codes,
        quantizer=quantizer,
    )
    _check_postings(path, ix)
    return ix
