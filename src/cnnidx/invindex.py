"""The inverted table: every database vector is linked to its S nearest words
(multiple link) and carries binary codes: under IFC each posting entry holds
the vector's code relative to that entry's word, and under TIFC the vector
has one code, relative to the one reference row of `tifc.VirtualWordBank`,
which every entry of the vector shares.

In memory the posting lists are four arrays: the occupied word ids `wids`
(ascending) and the image ids `ids` (ascending within each list), both at
their file widths (`posting_dtypes`), the list boundaries `offsets` (int64)
and the packed codes `codes`: (n*S, B) in list order for IFC, (n, B) in row
order for TIFC (`_code_rows`). List j belongs to word wids[j] and holds the
entries offsets[j]:offsets[j + 1].

The index file is the magic b"CNNIDX08", a uint32 length and the JSON
header (the BuildConfig and n), the sections that `_layout` lists in file
order, and a CRC32 of every byte after the magic; all integers are
little-endian. `save`, `load` and `stats` take the sections from that one
list, so no header field names a width. The header and the file's size give
the whole layout: the count of lists is the one that makes the sections
fill the file (`_count_lists`), and `load` checks it before it reads any
section.

Only `_header_json` writes the header, and a header loads only in its exact
form, so a file that loads saves back to the same bytes. `_check_sections`
holds every rule noted on the sections: `load` rejects a file that breaks
one and `save` refuses to write it, so every saved file loads as the index
saved, and a query never meets an id outside [0, indexed_count) or an image
twice in one list. Older files (`OLD_MAGICS`) are not read; rebuild.

Build and query share one encoding stage over chunks of `_row_bytes` each:
the quantizer's `words`, then `list_codes`, the one code function, against
the words' reference segment means. The quantizers, `tifc.VirtualWordBank`
and `pq.PqCodebook`, have the same members: `words` gives rows their words
(TIFC: the top softmax bins; IFC: the exact nearest product words),
`word_means` the means of any array of word ids (TIFC: the one reference
row for them all; IFC: those of the reconstructed words, which no index
holds as rows), `stage_width` a row's word stage in float64 values,
`mean_bytes` a word's working bytes in `word_means`, `word_count` the
words, and `payload` the quantizer's part of the file. A quantizer holds
only its arrays, and an index takes only the one its config makes. A row's
words and codes depend on that row and the quantizer alone, so a database
vector queried with itself gets exactly its S links and their codes.
`search.batch_query` runs the stage on chunks of queries. `build` makes two
passes over the rows, words and then codes, each on the calling thread and
one helper thread per further CPU, up to `MAX_THREADS`;
`_fill_rows` starts, stops and joins those threads. Between them one stable
sort of the words gives every list its ids, and every IFC link its slot in
the grouped lists, and pass 2 writes each code straight into its slot (IFC)
or its row (TIFC), so the codes are held once; the file does not depend on
the thread count. `load` runs on the calling thread alone.

`BuildConfig.word_count` holds the shape rules for vectors of width D: L
divides D, M divides D (IFC) and S is at most the word count. `build` checks
the database's D by it, before any training, and `_read_header` the
header's. An index keeps its `BuildConfig` as `config`.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import pq, tifc
from .embed import code_bytes, pack_bits, segment_means
from .pq import PqCodebook, PqConfig
from .tifc import VirtualWordBank
from .vecio import DataError, FeatureSet, check_ints, chunk_rows

MAGIC = b"CNNIDX08"
OLD_MAGICS = (b"CNNIDX01", b"CNNIDX02", b"CNNIDX03", b"CNNIDX04", b"CNNIDX05",
              b"CNNIDX06", b"CNNIDX07")

SCHEME_TIFC = "tifc"
SCHEME_IFC = "ifc"

# Most threads a build's encoding runs on, the caller included. Two were
# measured (2 vCPUs), on 1 MiB chunks at the default budget; chunks of a few
# rows run slower on two threads than on one (`vecio.CHUNK_BYTES`), and w
# threads take chunks of a 4w-th of the budget, so more threads stay
# unmeasured.
MAX_THREADS = 2


@dataclass
class BuildConfig:
    scheme: str
    link_count: int  # S
    code_length: int  # L
    pq: PqConfig | None = None

    def __post_init__(self):
        if self.scheme not in (SCHEME_TIFC, SCHEME_IFC):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        check_ints(self, {"link_count": 1, "code_length": 1})
        if (self.pq is None) == (self.scheme == SCHEME_IFC):
            raise ValueError("a PqConfig is given for an IFC build and for no other")

    def word_count(self, dim: int, where) -> int:
        """D for TIFC, K^M for IFC: the word count over vectors of width dim
        >= 1 that pass the shape rules; otherwise DataError naming `where`."""
        if dim < 1:
            raise DataError(f"{where}: dimension {dim} below 1")
        if dim % self.code_length:
            raise DataError(f"{where}: dimension {dim} not divisible by code length "
                            f"{self.code_length}")
        if self.scheme == SCHEME_TIFC:
            words = dim
        else:
            if dim % self.pq.segments:
                raise DataError(f"{where}: dimension {dim} not divisible by "
                                f"{self.pq.segments} segments")
            words = self.pq.words_per_segment ** self.pq.segments
        if self.link_count > words:
            raise DataError(f"{where}: link count {self.link_count} exceeds word count {words}")
        return words


# The paper's build parameters that each scheme reads, by the names the CLI
# and a sweep spec use: S links per vector and L-bit codes, and for IFC the
# K x M product codebook.
BUILD_KEYS = {
    SCHEME_TIFC: ("S", "L"),
    SCHEME_IFC: ("S", "L", "K", "M"),
}
_FIELD_NAMES = {"S": "link_count", "L": "code_length", "K": "words_per_segment",
                "M": "segments"}
_PQ_FIELDS = tuple(f.name for f in fields(PqConfig))


def build_config(scheme: str, params: dict) -> BuildConfig:
    """The BuildConfig that the keys `BUILD_KEYS[scheme]` of params give, each
    required (KeyError) and passed as it is, so a value that is not an integer
    is the configs' ValueError; other keys are ignored."""
    if scheme not in BUILD_KEYS:
        raise ValueError(f"unknown scheme {scheme!r}")
    values = {_FIELD_NAMES[k]: params[k] for k in BUILD_KEYS[scheme]}
    pq_cfg = (PqConfig(**{k: values.pop(k) for k in _PQ_FIELDS})
              if scheme == SCHEME_IFC else None)
    return BuildConfig(scheme=scheme, pq=pq_cfg, **values)


@dataclass
class InvertedIndex:
    config: BuildConfig
    indexed_count: int
    wids: np.ndarray  # (nlists,) at posting_dtypes, occupied word ids, strictly increasing
    offsets: np.ndarray  # (nlists + 1,) int64, list j is offsets[j]:offsets[j + 1]
    ids: np.ndarray  # (n * S,) at posting_dtypes, strictly increasing within each list
    codes: np.ndarray  # (_code_rows, B) uint8: IFC each entry's code, TIFC each vector's
    quantizer: VirtualWordBank | PqCodebook

    def __post_init__(self):
        cfg, q = self.config, self.quantizer
        if cfg.pq:
            m, k = cfg.pq.segments, cfg.pq.words_per_segment
            ok = isinstance(q, PqCodebook) and q.sub_codebooks.shape == (m, k, q.dim // m)
        else:
            ok = isinstance(q, VirtualWordBank) and q.reference.shape == (cfg.code_length,)
        if not ok:
            raise ValueError(f"{cfg} does not make a quantizer of this type and shape")
        # the values `save` writes, so the index computes with what loads
        name, values = ("codebook", q.sub_codebooks) if cfg.pq else ("reference", q.reference)
        if values.dtype.type is not np.float32:
            raise ValueError(f"{name} dtype {values.dtype} is not float32, "
                             "the dtype of the file's payload")


@dataclass
class IndexStats:
    word_count: int
    total_entries: int
    posting_bytes: int
    code_bytes: int
    quantizer_bytes: int
    list_length_histogram: Counter = field(default_factory=Counter)
    estimated_file_bytes: int = 0


def list_codes(quantizer: VirtualWordBank | PqCodebook, xs: np.ndarray, wids: np.ndarray,
               code_length: int) -> np.ndarray:
    """The packed L-bit codes of the rows of xs for their (N, count) word ids:
    bit i is 1 iff the row's i-th segment mean is >= the word's. IFC gives
    (N, count, B), a code per word; TIFC (N, 1, B), the row's one code, as
    every word's means are the reference row."""
    means = quantizer.word_means(wids, code_length)
    return pack_bits(segment_means(xs, code_length)[:, None, :] >= means)


def find_lists(ix: InvertedIndex, wids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each word's list number and whether it has a list; a word without one
    gets another list's number. The words go to `ix.wids`' dtype, so
    `searchsorted` does not convert the index's array."""
    wids = np.asarray(wids, dtype=ix.wids.dtype)
    lists = np.searchsorted(ix.wids, wids)
    np.minimum(lists, len(ix.wids) - 1, out=lists)
    return lists, ix.wids[lists] == wids


def _row_bytes(quantizer: VirtualWordBank | PqCodebook, dim: int, count: int,
               code_length: int, coded: bool = True) -> int:
    """Working bytes of one row of the encoding stage: its D input and
    stage_width word stage float64 values, and its count words' `mean_bytes`
    (L float64 values each where the row is not `coded`)."""
    per_word = quantizer.mean_bytes(code_length) if coded else 8 * code_length
    return 8 * (dim + quantizer.stage_width) + count * per_word


def _cpus() -> int:
    """CPUs in this process's affinity mask (a CPU quota is not seen)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _threads() -> int:
    """Threads that `_fill_rows` runs on, the caller included."""
    return min(_cpus(), MAX_THREADS)


def _fill_rows(xs: np.ndarray, row_bytes: int, write) -> None:
    """Call write(part, chunk) on every chunk of rows of xs, `part` the
    chunk's slice of rows and `chunk` those rows cast to float64, on w
    threads, w no more than there are chunks: the caller and w - 1 helpers.
    Thread t takes chunks t, t + w, t + 2w, ..., so `write` must write only
    outputs of its own chunk's rows, which no other chunk writes: `build`'s
    words rows in pass 1, the rows of the chunk's slots in pass 2. Numpy
    releases the GIL in the large calls of a chunk, so the threads run side
    by side.

    Chunks take `row_bytes` a row. On one CPU each takes `CHUNK_BYTES`;
    with w threads a 4w-th of it, so the chunks in flight stay within a
    quarter of the budget: each helper's malloc arena keeps its chunk's
    working set after the build. The first exception (a chunk's, a
    helper's that cannot start, an interrupt while the caller waits) stops
    every thread before its next chunk; once every helper has ended, it is
    raised as it was raised."""
    threads = _threads()
    rows = chunk_rows(row_bytes * 4 * threads if threads > 1 else row_bytes)
    starts = range(0, len(xs), rows)
    workers = min(threads, len(starts))
    stop, errors = threading.Event(), []

    def fill(first: int) -> None:
        try:
            for lo in starts[first::workers]:
                if stop.is_set():
                    return
                part = slice(lo, lo + rows)
                write(part, np.asarray(xs[part], dtype=np.float64))
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    helpers = []
    try:
        for t in range(1, workers):
            thread = threading.Thread(target=fill, args=(t,))
            thread.start()
            helpers.append(thread)
        fill(0)
        for thread in helpers:
            thread.join()
    except BaseException as exc:  # a helper that did not start, or an interrupt in a join
        errors.append(exc)
        stop.set()
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]


def build(db: FeatureSet, cfg: BuildConfig, training: FeatureSet | None = None) -> InvertedIndex:
    """Index a database under TIFC or IFC with multiple link S.

    For IFC the codebook is trained on `training` (default: the database
    itself; TIFC takes none). The configuration's shape, and the training
    set's dimension and row count, are checked before any training. Every
    image lands in exactly S distinct posting lists.

    The postings are built in two passes over the rows, each a chunk at a
    time on as many threads as the process has CPUs, up to `MAX_THREADS`
    (`_fill_rows`). Pass 1 fills the (n, S) words; under TIFC it also writes
    each row's L segment means into an (L, n) float32 buffer, whose rows'
    lower medians, their (n - 1) // 2-th order statistics, are the reference
    row, and which is then freed. One stable argsort of the words lays out
    the lists; the sort itself, divided by S, is the grouped ids, and under
    IFC its inverse, the slot array, gives each link its row of the grouped
    (n*S, B) codes. Pass 2 casts each chunk again and codes it with
    `list_codes`: IFC against its words, each code written into its slot,
    so the codes are held once, never in row order beside the grouped copy;
    TIFC once per row against the reference, into the (n, B) codes in row
    order. The index is made from the filled arrays. A row's words and codes
    come from that row alone (and the reference, which is an order
    statistic), with no BLAS call (IFC's distances are `einsum`
    contractions), so the file does not depend on the chunk size or the
    thread count.
    """
    d, n, s, length = db.dim, db.n, cfg.link_count, cfg.code_length
    if n == 0:
        raise DataError("database has no vectors to index")
    cfg.word_count(d, "database")  # the shape rules, before any training
    if cfg.scheme == SCHEME_TIFC:
        if training is not None:
            raise ValueError("a TIFC build takes no training set")
        # pass 1's words need no reference, so a zero row stands in for the
        # one that the medians of its segment means make
        quantizer = tifc.make_virtual_words(d, np.zeros(length, dtype=np.float32))
        seg_means = np.empty((length, n), dtype=np.float32)
    else:
        training = training if training is not None else db
        if training.dim != d:
            raise DataError(f"training dim {training.dim} != database dim {d}")
        if training.n < cfg.pq.words_per_segment:
            raise DataError(f"need at least {cfg.pq.words_per_segment} training vectors, "
                            f"got {training.n}")
        quantizer = pq.train(training, cfg.pq)

    # pass 1: every row's S words, at their file width (every word id is
    # below the word count), filled in place chunk by chunk
    widths = {name: dtype for name, _, dtype in _layout(cfg, d, n, 0)}
    wid_t, id_t = widths["wids"], widths["ids"]
    total, b = n * s, code_bytes(length)
    wids = np.empty((n, s), dtype=wid_t)

    def fill_words(part: slice, chunk: np.ndarray) -> None:
        wids[part] = quantizer.words(chunk, s)
        if cfg.scheme == SCHEME_TIFC:
            seg_means[:, part] = segment_means(chunk, length).T

    # pass 1 rebuilds no word, so it takes L means a word: where no word is
    # rebuilt, both IFC passes take chunks of one size
    _fill_rows(db.vectors, _row_bytes(quantizer, d, s, length, coded=False), fill_words)
    if cfg.scheme == SCHEME_TIFC:
        quantizer = tifc.make_virtual_words(d, tifc.lower_medians(seg_means))
        del seg_means
    # the grouped codes, allocated before the layout's temporaries: where the
    # heap holds memory freed by earlier work (a second build), the largest
    # array then takes the largest free block before they split it
    codes = np.empty((_code_rows(cfg, n), b), dtype=np.uint8)
    # link e (row e // S) goes to list slot[e]: the links ascend by row
    # already, so a stable sort on the word (a radix sort for word counts up
    # to 2^16) lays the lists out in (word, id) order, and its inverse, at
    # the narrowest width that holds n*S - 1, gives each link its slot
    order = np.argsort(wids, axis=None, kind="stable")
    if cfg.pq:
        slot = np.empty(total, dtype=np.min_scalar_type(total - 1))
        slot[order] = np.arange(total, dtype=slot.dtype)
        slot = slot.reshape(n, s)
    grouped = wids.ravel()[order]
    # neighbours compared, not differenced: the word ids are unsigned
    starts = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
    list_wids, offsets = grouped[starts], np.append(starts, total)
    del grouped, starts
    # position j holds link order[j], of row order[j] // S: the grouped ids,
    # divided in place so that no second n*S int64 array is held
    ids = np.floor_divide(order, s, out=order).astype(id_t)
    del order

    # pass 2: every row's codes against its words (IFC), each written
    # straight into its slot, or its one code (TIFC), into its row; the
    # slots are a permutation, so threads write disjoint rows
    def fill_codes(part: slice, chunk: np.ndarray) -> None:
        rows = slot[part].ravel() if cfg.pq else part
        codes[rows] = list_codes(quantizer, chunk, wids[part], length).reshape(-1, b)

    _fill_rows(db.vectors, _row_bytes(quantizer, d, s, length), fill_codes)
    return InvertedIndex(config=cfg, indexed_count=n, wids=list_wids, offsets=offsets,
                         ids=ids, codes=codes, quantizer=quantizer)


def posting_dtypes(word_count: int, indexed_count: int) -> tuple[np.dtype, np.dtype, np.dtype]:
    """The file dtypes of the word ids, the list lengths and the posting ids:
    the narrowest little-endian unsigned integers that hold word_count - 1,
    indexed_count and indexed_count - 1."""
    return tuple(np.min_scalar_type(v).newbyteorder("<")
                 for v in (word_count - 1, indexed_count, indexed_count - 1))


def _code_rows(cfg: BuildConfig, indexed_count: int) -> int:
    """The codes an index holds: one per link (IFC) or per vector (TIFC)."""
    return indexed_count * (cfg.link_count if cfg.pq else 1)


def _layout(cfg: BuildConfig, dim: int, indexed_count: int,
            nlists: int) -> list[tuple[str, int, np.dtype]]:
    """The file's sections after the header, in file order, each as (name,
    value count, little-endian dtype), for nlists non-empty posting lists.
    `save` writes the index's array of each name, `stats` sums their bytes,
    `load` reads them and `_check_sections` holds the rules noted on them."""
    total = indexed_count * cfg.link_count
    wid_t, len_t, id_t = posting_dtypes(cfg.word_count(dim, "index"), indexed_count)
    return [
        # IFC: the M x K sub-codebook centroids, segments in order; TIFC:
        # the L values of the reference row; all finite
        ("payload", cfg.pq.words_per_segment * dim if cfg.pq else cfg.code_length,
         np.dtype("<f4")),
        ("wids", nlists, wid_t),  # strictly increasing, below the word count
        ("lengths", nlists, len_t),  # each >= 1, summing to n * S
        ("ids", total, id_t),  # list after list, rising within each
        # IFC: one per id, in list order; TIFC: one per vector, in row order
        ("codes", _code_rows(cfg, indexed_count) * code_bytes(cfg.code_length),
         np.dtype(np.uint8)),
    ]


def _count_lists(where, cfg: BuildConfig, dim: int, indexed_count: int, nbytes: int) -> int:
    """The count of non-empty lists whose sections take exactly nbytes: the
    bytes left after the payload, ids and codes must be a whole number of
    lists' word id and length, from 1 to min(word count, n * S); otherwise
    DataError naming `where`."""
    def size(nlists: int) -> int:
        return sum(count * dtype.itemsize for _, count, dtype in
                   _layout(cfg, dim, indexed_count, nlists))

    fixed = size(0)
    nlists, extra = divmod(nbytes - fixed, size(1) - fixed)
    most = min(cfg.word_count(dim, where), indexed_count * cfg.link_count)
    if nbytes < fixed or extra or not 1 <= nlists <= most:
        raise DataError(f"{where}: truncated index file, or trailing bytes: its {nbytes} "
                        f"bytes of sections are not those of 1 to {most} posting lists")
    return nlists


def stats(ix: InvertedIndex) -> IndexStats:
    """Entry counts, list-length histogram and byte sizes. The sizes are
    `_layout`'s, which `save` checks the index's arrays against, so
    `estimated_file_bytes` is the size of the file that `save` writes."""
    lengths = np.diff(ix.offsets)
    hist = Counter(lengths.tolist())
    hist[0] += ix.quantizer.word_count - len(ix.wids)
    header = _header_json(ix.config, ix.quantizer.dim, ix.indexed_count)
    sizes = {name: count * dtype.itemsize for name, count, dtype in
             _layout(ix.config, ix.quantizer.dim, ix.indexed_count, len(ix.wids))}
    return IndexStats(
        word_count=ix.quantizer.word_count,
        total_entries=len(ix.ids),
        posting_bytes=sizes["wids"] + sizes["lengths"] + sizes["ids"],
        code_bytes=sizes["codes"],
        quantizer_bytes=sizes["payload"],
        list_length_histogram=hist,
        estimated_file_bytes=len(MAGIC) + 4 + len(header) + sum(sizes.values()) + 4,
    )


def save(ix: InvertedIndex, path) -> None:
    """Write the index file, each section as its array cast to its file
    dtype: no copy for a built or loaded index, which holds its postings at
    those. ValueError before the file is opened refuses cast arrays that
    break a rule of `_check_sections`, with the message `load` gives for
    their file, and then values that the cast changed."""
    q = ix.quantizer
    given = {"payload": q.payload(), "wids": ix.wids,
             "lengths": np.diff(ix.offsets), "ids": ix.ids, "codes": ix.codes}
    arrays = {name: np.ascontiguousarray(given[name], dtype=dtype) for name, _, dtype
              in _layout(ix.config, q.dim, ix.indexed_count, len(ix.wids))}
    _check_sections(path, ix.config, q.dim, ix.indexed_count, arrays, ValueError)
    for name, values in arrays.items():
        if values.dtype != given[name].dtype and not np.array_equal(values, given[name]):
            raise ValueError(f"{path}: {name} values change in their file dtype {values.dtype}")
    header = _header_json(ix.config, q.dim, ix.indexed_count)
    head = struct.pack("<I", len(header)) + header
    crc = zlib.crc32(head)
    with open(path, "wb") as f:
        f.write(MAGIC + head)
        for values in arrays.values():
            crc = zlib.crc32(values, crc)
            f.write(values)
        f.write(struct.pack("<I", crc))


def _field(path, obj: dict, key: str, kind: type):
    value = obj.get(key)
    # `type(...) is` rather than isinstance: JSON true/false are not ints here
    if type(value) is not kind:
        raise DataError(f"{path}: index header field {key!r} missing or not {kind.__name__}")
    return value


def _header_json(cfg: BuildConfig, dim: int, indexed_count: int) -> bytes:
    """The header that `save` writes, as sorted JSON: the configuration and
    n, and a quantizer object of D, plus the `PqConfig` fields for IFC.
    `_read_header` is its inverse."""
    quantizer = {"dim": dim, **(asdict(cfg.pq) if cfg.pq else {})}
    header = {"scheme": cfg.scheme, "link_count": cfg.link_count,
              "code_length": cfg.code_length, "indexed_count": indexed_count,
              "quantizer": quantizer}
    return json.dumps(header, sort_keys=True).encode("utf-8")


def _read_header(path, raw) -> tuple[BuildConfig, int, int]:
    """The header's BuildConfig, vector width D and indexed count. The
    configuration's values go into the configs as they are, so
    the rules that `build` applies (the configs' own, types included, and
    `BuildConfig.word_count`'s) hold them; a field left out is None, which
    no config takes. Last, the bytes must be `_header_json`'s for what they
    state: no other key, order or spacing. Every failure is a DataError."""
    try:
        header = json.loads(bytes(raw).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: unreadable index header ({exc})") from None
    if type(header) is not dict:
        raise DataError(f"{path}: index header is not a JSON object")
    q = _field(path, header, "quantizer", dict)
    dim = _field(path, q, "dim", int)
    indexed_count = _field(path, header, "indexed_count", int)
    scheme = header.get("scheme")
    try:
        pq_cfg = PqConfig(**{k: q.get(k) for k in _PQ_FIELDS}) if scheme == SCHEME_IFC else None
        cfg = BuildConfig(scheme, header.get("link_count"), header.get("code_length"), pq_cfg)
    except ValueError as exc:
        raise DataError(f"{path}: bad configuration in index header ({exc})") from None
    cfg.word_count(dim, path)  # the shape rules
    # the result records of `vecio.write_int_lists` hold image ids as int32
    if not 0 < indexed_count <= np.iinfo(np.int32).max:
        raise DataError(f"{path}: index header field 'indexed_count' is {indexed_count}, "
                        "below 1 or exceeds int32 result ids")
    if bytes(raw) != _header_json(cfg, dim, indexed_count):
        raise DataError(f"{path}: index header is not the one `save` writes "
                        "for its configuration")
    return cfg, dim, indexed_count


def _check_sections(where, cfg: BuildConfig, dim: int, indexed_count: int, arrays: dict,
                    error: type[Exception] = DataError) -> None:
    """Raise `error`, naming `where`, unless `arrays`, the sections by name
    at their file dtypes, meet every rule noted on `_layout`: the value
    counts, a finite payload, and the posting rules, the lengths' first, so
    the rest meet at least one list and one entry."""
    wids, lengths, ids = arrays["wids"], arrays["lengths"], arrays["ids"]  # unsigned
    for name, count, _ in _layout(cfg, dim, indexed_count, len(wids)):
        if arrays[name].size != count:
            raise error(f"{where}: {name} holds {arrays[name].size} values, not the "
                        f"{count} of its file section")
    if not np.isfinite(arrays["payload"]).all():
        raise error(f"{where}: NaN or infinite {'centroid' if cfg.pq else 'reference mean'} "
                    "in the quantizer payload")
    total = len(ids)
    # total fits the file, so a sum of lengths in [1, total] cannot overflow
    if not total or np.any(lengths < 1) or np.any(lengths > total) or lengths.sum() != total:
        raise error(f"{where}: list lengths are not all >= 1 with sum "
                    f"indexed_count * link_count = {total}")
    words = cfg.word_count(dim, where)
    if wids[-1] >= words or np.any(wids[1:] <= wids[:-1]):
        raise error(f"{where}: word ids not strictly increasing in [0, {words})")
    if ids.max() >= indexed_count:
        raise error(f"{where}: posting ids outside [0, {indexed_count})")
    # neighbours compared in eight blocks, so no mask longer than an eighth
    # of the ids is held; the id at a list's start (but the first's) may step down
    starts, block = np.cumsum(lengths[:-1], dtype=np.int64), total // 8 + 1
    for lo in range(0, total - 1, block):
        hi = min(lo + block, total - 1)
        rising = ids[lo + 1:hi + 1] > ids[lo:hi]
        rising[starts[slice(*np.searchsorted(starts, (lo + 1, hi + 1)))] - lo - 1] = True
        if not rising.all():
            raise error(f"{where}: posting ids not strictly increasing within a list")
    pad = cfg.code_length % 8
    if pad and arrays["codes"].reshape(-1, code_bytes(cfg.code_length))[:, -1].max() >> pad:
        raise error(f"{where}: nonzero pad bits in the codes")


def load(path) -> InvertedIndex:
    """Read and validate an index file; any malformed file raises DataError.

    The header's length is checked against the file's size before the
    header is read, and the file's size against the header (`_count_lists`)
    before any section is read. One walk of `_layout` then reads the
    sections in file order, each straight into the array the index keeps
    (the posting integers at their file widths), and updates the CRC as each
    arrives. The CRC is checked before any value is used: the rules of
    `_check_sections`, then the quantizer, the IFC codebook or the TIFC
    bank of `tifc.make_virtual_words`. All of it runs on the calling
    thread."""
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic in OLD_MAGICS:
            raise DataError(f"{path}: index file in the old {magic.decode()} format; "
                            "rebuild the index with `cnnidx build`")
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic bytes (not an index file)")
        left = os.fstat(f.fileno()).st_size - len(MAGIC) - 4  # bytes before the CRC
        crc = 0

        def array(count: int, dtype) -> np.ndarray:
            nonlocal crc, left
            nbytes = count * np.dtype(dtype).itemsize
            if nbytes > left:
                raise DataError(f"{path}: truncated index file")
            out = np.empty(count, dtype=dtype)
            if f.readinto(out) != nbytes:
                raise DataError(f"{path}: truncated index file")
            crc = zlib.crc32(out, crc)
            left -= nbytes
            return out

        (hlen,) = struct.unpack("<I", array(4, np.uint8))
        cfg, dim, indexed_count = _read_header(path, array(hlen, np.uint8))
        nlists = _count_lists(path, cfg, dim, indexed_count, left)
        got = {name: array(count, dtype)
               for name, count, dtype in _layout(cfg, dim, indexed_count, nlists)}
        trailer = f.read(4)
        if len(trailer) != 4 or struct.unpack("<I", trailer)[0] != crc:
            raise DataError(f"{path}: checksum mismatch (corrupt index file)")

    _check_sections(path, cfg, dim, indexed_count, got)
    offsets = np.concatenate(([0], np.cumsum(got["lengths"], dtype=np.int64)))
    quantizer = (PqCodebook(got["payload"].reshape(cfg.pq.segments, cfg.pq.words_per_segment, -1))
                 if cfg.pq else tifc.make_virtual_words(dim, got["payload"]))
    return InvertedIndex(config=cfg, indexed_count=indexed_count, wids=got["wids"],
                         offsets=offsets, ids=got["ids"],
                         codes=got["codes"].reshape(_code_rows(cfg, indexed_count), -1),
                         quantizer=quantizer)
