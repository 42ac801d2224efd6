"""The inverted table: every database vector is linked to its S nearest words
(multiple link) and each posting entry carries the vector's binary code
relative to that word.

In memory the posting lists are four arrays: the occupied word ids `wids`
(ascending) and the image ids `ids` (ascending within each list), both at
their file widths (`posting_dtypes`), the list boundaries `offsets` (int64)
and the packed codes `codes` (n*S, B). List j belongs to word wids[j] and
holds the entries offsets[j]:offsets[j + 1].

Index file layout (all integers little-endian):

    magic   8 bytes  b"CNNIDX07"
    hlen    uint32   length of the JSON header
    header  bytes    JSON: the BuildConfig and n, nothing else: scheme,
                     link_count, code_length, indexed_count, and quantizer
                     (dim, plus segments and words_per_segment for IFC)
    quantizer payload: IFC -> sub-codebook centroids as float32, segments in
                     order; TIFC -> empty (the (D, L) table of the virtual
                     words' segment means is the one
                     `tifc.make_virtual_words` draws for dim and
                     code_length, and `save` refuses any other)
    nlists  uint64   number of non-empty posting lists
    wids    uW x nlists, strictly increasing
    lengths uN x nlists, each >= 1, summing to indexed_count * S
    ids     uI x (indexed_count * S), list after list
    codes   uint8 x (indexed_count * S * code_bytes), one code per id
    crc     uint32   CRC32 of every byte after the magic

The posting integers take the narrowest unsigned width of 8, 16, 32 or 64
bits that holds every value the header allows (`posting_dtypes`): uW holds
word_count - 1, uN holds indexed_count and uI holds indexed_count - 1. So no
header field names a width, and the ids of an index of up to 65,536 vectors
take two bytes.

Only `_header_json` writes the header, and a header loads only in its exact
form, so a file that loads saves back to the same bytes. `load` reads each
section straight into its array and rejects with `DataError` every file that
breaks one of these rules, so a query never meets an id outside
[0, indexed_count) or an image twice in one list. Files of the older
formats, `OLD_MAGICS`, are not read; rebuild them. `CNNIDX01` to `CNNIDX03`
laid out the postings or the header otherwise; each header of `CNNIDX04` to
`CNNIDX06` held more than the next format's: the TIFC table's seed, the
k-means restart count, and the k-means seed and iteration cap.

Build and query share one encoding stage over chunks of `_row_bytes` each:
the quantizer's `words`, then `list_codes`, the one code function, against
`InvertedIndex.list_means`, one row of reference segment means per list,
which an index derives once from its quantizer's `word_means` and the file
does not hold. `tifc.VirtualWordBank` and `pq.PqCodebook` have the same
members: `words` gives a matrix of rows their words (TIFC: the top softmax
bins; IFC: the exact nearest product words), `word_means` the words' means
(TIFC: table rows; IFC: those of the reconstructed words), `stage_width` is
the word stage's float64 values per row, `word_count` counts the words, and
`payload` is the quantizer's part of the file. A quantizer holds only its
arrays, and an index takes only the one its config makes. A row's words and
codes depend on that row alone, so a database vector queried with itself
gets exactly its S links and their codes. `batch_query` streams its chunks
through `encode_chunks`. `build` makes two passes over the rows, words and
then codes, each on the calling thread and one helper thread per further
CPU, up to `MAX_THREADS` (`_fill_rows`). Between them one stable sort of the
words gives every link its slot in the grouped lists and its list number,
and pass 2 writes each code straight into its slot, so the (n*S, B) codes
are held once. The file does not depend on the thread count. `_run_jobs`
starts, stops and joins those threads. `load` runs on the calling thread
alone and takes a TIFC table from the memo of `tifc.make_virtual_words`
after the CRC, so a process's first TIFC load of a (D, L) draws it serially
(about 10 ms at 2,048 x 256).

`BuildConfig.word_count` holds the shape rules for vectors of width D: L
divides D, M divides D (IFC), S is at most the word count, and a TIFC table
of D * L float64 means holds at most `MAX_TABLE_ENTRIES` = 2^24 entries
(128 MiB), so a small file cannot ask for gigabytes. `build` checks the
database's D by it, before any training or table draw, and `load` the D of
the `BuildConfig` that `_read_header` rebuilds from the header. The configs
check that each integer field is an integer (`vecio.check_ints`), so
`_read_header` passes them the header's values as they are. An index keeps
that `BuildConfig` as `config`.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from . import pq, tifc
from .embed import code_bytes, pack_bits, segment_means
from .pq import PqCodebook, PqConfig
from .tifc import VirtualWordBank
from .vecio import DataError, FeatureSet, check_ints, chunk_rows

MAGIC = b"CNNIDX07"
OLD_MAGICS = (b"CNNIDX01", b"CNNIDX02", b"CNNIDX03", b"CNNIDX04", b"CNNIDX05",
              b"CNNIDX06")

SCHEME_TIFC = "tifc"
SCHEME_IFC = "ifc"

# Largest TIFC table of segment means, D * L, that build or load will draw.
MAX_TABLE_ENTRIES = 1 << 24

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
            if dim * self.code_length > MAX_TABLE_ENTRIES:
                raise DataError(f"{where}: TIFC table of {dim} x {self.code_length} means "
                                f"exceeds {MAX_TABLE_ENTRIES} entries")
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
    codes: np.ndarray  # (n * S, B) uint8, packed code of each entry
    quantizer: VirtualWordBank | PqCodebook

    def __post_init__(self):
        cfg, q = self.config, self.quantizer
        if cfg.pq:
            m, k = cfg.pq.segments, cfg.pq.words_per_segment
            ok = isinstance(q, PqCodebook) and q.sub_codebooks.shape == (m, k, q.dim // m)
        else:
            ok = isinstance(q, VirtualWordBank) and q.means.shape == (q.dim, cfg.code_length)
        if not ok:
            raise ValueError(f"{cfg} does not make a quantizer of this type and shape")
        # the values `save` writes, so the index computes with what loads
        if cfg.pq and q.sub_codebooks.dtype.type is not np.float32:
            raise ValueError(f"codebook dtype {q.sub_codebooks.dtype} is not float32, "
                             "the dtype of the file's payload")

    @cached_property
    def list_means(self) -> np.ndarray:
        """Row j: the reference segment means of list j's word, (nlists, L)
        float64 and read-only, derived on first use, once per index."""
        means = self.quantizer.word_means(self.wids, self.config.code_length)
        means.flags.writeable = False
        return means


@dataclass
class IndexStats:
    word_count: int
    total_entries: int
    posting_bytes: int
    code_bytes: int
    quantizer_bytes: int
    list_length_histogram: Counter = field(default_factory=Counter)
    estimated_file_bytes: int = 0


def list_codes(list_means: np.ndarray, xs: np.ndarray, lists: np.ndarray) -> np.ndarray:
    """The packed codes of the rows of xs against their lists' reference
    means, (N, count, B) for (N, count) list numbers: bit i is 1 iff the
    row's i-th segment mean is >= the list's."""
    return pack_bits(segment_means(xs, list_means.shape[1])[:, None, :] >= list_means[lists])


def find_lists(ix: InvertedIndex, wids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each word's list number and whether it has a list; a word without one
    gets another list's number. The words go to `ix.wids`' dtype, so
    `searchsorted` does not convert the index's array."""
    wids = np.asarray(wids, dtype=ix.wids.dtype)
    lists = np.searchsorted(ix.wids, wids)
    np.minimum(lists, len(ix.wids) - 1, out=lists)
    return lists, ix.wids[lists] == wids


def _row_bytes(quantizer: VirtualWordBank | PqCodebook, dim: int, count: int,
               code_length: int) -> int:
    """Working bytes of one row of the encoding stage: D + stage_width +
    count * L float64 values, its input, word stage and lists' means."""
    return 8 * (dim + quantizer.stage_width + count * code_length)


def encode_chunks(ix: InvertedIndex, xs: np.ndarray, count: int):
    """Yield `find_lists` of the rows' `count` words and their `list_codes`,
    chunk after chunk of rows within `CHUNK_BYTES` by `_row_bytes`."""
    q = ix.quantizer
    rows = chunk_rows(_row_bytes(q, xs.shape[1], count, ix.config.code_length))
    for lo in range(0, len(xs), rows):
        chunk = np.asarray(xs[lo:lo + rows], dtype=np.float64)
        lists, found = find_lists(ix, q.words(chunk, count))
        yield lists, found, list_codes(ix.list_means, chunk, lists)


def _cpus() -> int:
    """CPUs in this process's affinity mask (a CPU quota is not seen)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _threads() -> int:
    """Threads that `_fill_rows` runs on, the caller included."""
    return min(_cpus(), MAX_THREADS)


def _run_jobs(jobs: list) -> None:
    """Call job(stop) for every job, `stop` one `threading.Event`: job 0 on
    the caller and every other job on a helper thread of its own. The first
    exception (a job's, a thread's that cannot start, an interrupt while the
    caller waits) sets `stop`, at which every job should return; the caller
    waits for every helper, then raises it as it was raised."""
    stop, errors = threading.Event(), []

    def run(job) -> None:
        try:
            job(stop)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    helpers = []
    try:
        for job in jobs[1:]:
            thread = threading.Thread(target=run, args=(job,))
            thread.start()
            helpers.append(thread)
    except BaseException as exc:  # a thread that did not start
        errors.append(exc)
        stop.set()
    run(jobs[0])
    try:
        for thread in helpers:
            thread.join()
    except BaseException as exc:  # an interrupt while waiting: stop, wait again
        errors.append(exc)
        stop.set()
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]


def _fill_rows(quantizer: VirtualWordBank | PqCodebook, xs: np.ndarray, count: int,
               code_length: int, write) -> None:
    """Call write(part, chunk) on every chunk of rows of xs, `part` the
    chunk's slice of rows and `chunk` those rows cast to float64, on w
    threads by `_run_jobs`, w no more than there are chunks. Thread t takes
    chunks t, t + w, t + 2w, ..., so `write` must write only outputs of its
    own chunk's rows, which no other chunk writes: `build`'s words rows in
    pass 1, the rows of the chunk's slots in pass 2. Numpy releases the GIL
    in the large calls of a chunk, so the threads run side by side.

    Chunks are sized by `_row_bytes`, the encoding stage's footprint. On one
    CPU each takes `CHUNK_BYTES`; with w threads a 4w-th of it, so the
    chunks in flight stay within a quarter of the budget: each helper's
    malloc arena keeps its chunk's working set after the build. Any
    exception stops every thread before its next chunk."""
    threads = _threads()
    row_bytes = _row_bytes(quantizer, xs.shape[1], count, code_length)
    rows = chunk_rows(row_bytes * 4 * threads if threads > 1 else row_bytes)
    starts = range(0, len(xs), rows)
    workers = min(threads, len(starts))

    def fill(first: int, stop: threading.Event) -> None:
        for lo in starts[first::workers]:
            if stop.is_set():
                return
            part = slice(lo, lo + rows)
            write(part, np.asarray(xs[part], dtype=np.float64))

    _run_jobs([lambda stop, t=t: fill(t, stop) for t in range(workers)])


def build(db: FeatureSet, cfg: BuildConfig, training: FeatureSet | None = None) -> InvertedIndex:
    """Index a database under TIFC or IFC with multiple link S.

    For IFC the codebook is trained on `training` (default: the database
    itself; TIFC takes none). The configuration's shape, and the training
    set's dimension and row count, are checked before any training. Every
    image lands in exactly S distinct posting lists.

    The postings are built in two passes over the rows, each a chunk at a
    time on as many threads as the process has CPUs, up to `MAX_THREADS`
    (`_fill_rows`). Pass 1 fills the (n, S) words. One stable argsort of
    them lays out the lists, gives each link its list number, written over
    its word, and by its inverse, the slot array, its row of the grouped
    (n*S, B) codes. Pass 2 casts each chunk again, codes it against its
    lists (`list_codes`) and writes each code into its slot, so the codes
    are held once, never in row order beside the grouped copy. A row's
    words and codes come from that row alone, with no BLAS call (IFC's
    distances are `einsum` contractions), so the file does not depend on
    the chunk size or the thread count.
    """
    d, n, s = db.dim, db.n, cfg.link_count
    if n == 0:
        raise DataError("database has no vectors to index")
    word_count = cfg.word_count(d, "database")
    if cfg.scheme == SCHEME_TIFC:
        if training is not None:
            raise ValueError("a TIFC build takes no training set")
        quantizer = tifc.make_virtual_words(d, cfg.code_length)
    else:
        training = training if training is not None else db
        if training.dim != d:
            raise DataError(f"training dim {training.dim} != database dim {d}")
        if training.n < cfg.pq.words_per_segment:
            raise DataError(f"need at least {cfg.pq.words_per_segment} training vectors, "
                            f"got {training.n}")
        quantizer = pq.train(training, cfg.pq)

    # pass 1: every row's S words, at their file width (every word id is
    # below word_count), filled in place chunk by chunk
    wid_t, _, id_t = posting_dtypes(word_count, n)
    total, b = n * s, code_bytes(cfg.code_length)
    wids = np.empty((n, s), dtype=wid_t)

    def fill_words(part: slice, chunk: np.ndarray) -> None:
        wids[part] = quantizer.words(chunk, s)

    _fill_rows(quantizer, db.vectors, s, cfg.code_length, fill_words)
    # the grouped codes, allocated before the layout's temporaries: where the
    # heap holds memory freed by earlier work (a second build), the largest
    # array then takes the largest free block before they split it
    codes = np.empty((total, b), dtype=np.uint8)
    # link e (row e // S) goes to list slot[e]: the links ascend by row
    # already, so a stable sort on the word (a radix sort for word counts up
    # to 2^16) lays the lists out in (word, id) order, and its inverse, at
    # the narrowest width that holds n*S - 1, gives each link its slot
    links = wids.reshape(-1)
    order = np.argsort(links, kind="stable")
    slot = np.empty(total, dtype=np.min_scalar_type(total - 1))
    slot[order] = np.arange(total, dtype=slot.dtype)
    grouped = links[order]
    # neighbours compared, not differenced: the word ids are unsigned
    starts = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
    offsets = np.append(starts, total)
    # each link's list number over its word: no more lists than words
    links[order] = np.repeat(np.arange(len(starts), dtype=wid_t), np.diff(offsets))
    del order
    # the index before its ids and codes are filled: pass 2 reads its
    # lists' means, derived once here on the calling thread
    ids = np.empty(total, dtype=id_t)
    ix = InvertedIndex(config=cfg, indexed_count=n, wids=grouped[starts], offsets=offsets,
                       ids=ids, codes=codes, quantizer=quantizer)
    list_means = ix.list_means
    del grouped, starts
    slot = slot.reshape(n, s)

    # pass 2: every row's codes against its lists, each written straight
    # into its slot; the slots are a permutation, so threads write disjoint rows
    def fill_codes(part: slice, chunk: np.ndarray) -> None:
        codes[slot[part].ravel()] = list_codes(list_means, chunk, wids[part]).reshape(-1, b)

    _fill_rows(quantizer, db.vectors, s, cfg.code_length, fill_codes)
    ids[slot.ravel()] = np.repeat(np.arange(n, dtype=id_t), s)
    return ix


def posting_dtypes(word_count: int, indexed_count: int) -> tuple[np.dtype, np.dtype, np.dtype]:
    """The file dtypes of the word ids, the list lengths and the posting ids:
    the narrowest little-endian unsigned integers that hold word_count - 1,
    indexed_count and indexed_count - 1."""
    return tuple(np.min_scalar_type(v).newbyteorder("<")
                 for v in (word_count - 1, indexed_count, indexed_count - 1))


def stats(ix: InvertedIndex) -> IndexStats:
    """Entry counts, list-length histogram and byte sizes, all read from the
    sections that `save` writes: each array's length times its file width,
    with no copy at that width."""
    lengths = np.diff(ix.offsets)
    hist = Counter(lengths.tolist())
    hist[0] += ix.quantizer.word_count - len(ix.wids)
    sizes = [values.size * dtype.itemsize for values, dtype in _sections(ix)]
    return IndexStats(
        word_count=ix.quantizer.word_count,
        total_entries=len(ix.ids),
        posting_bytes=sum(sizes[-4:-1]),  # wids, lengths and ids
        code_bytes=ix.codes.nbytes,
        quantizer_bytes=sizes[2],  # the quantizer payload
        list_length_histogram=hist,
        estimated_file_bytes=len(MAGIC) + sum(sizes) + 4,
    )


def _sections(ix: InvertedIndex) -> list[tuple[np.ndarray, np.dtype]]:
    """The file's sections between the magic and the CRC, in order, each as
    an array and the little-endian dtype its values are written at: the
    posting integers at `posting_dtypes`, the rest at their own."""
    header = _header_json(ix.config, ix.quantizer.dim, ix.indexed_count)
    payload = ix.quantizer.payload()
    wid_t, len_t, id_t = posting_dtypes(ix.quantizer.word_count, ix.indexed_count)
    return [
        (np.array([len(header)]), np.dtype("<u4")),
        (np.frombuffer(header, dtype=np.uint8), np.dtype(np.uint8)),
        (payload, payload.dtype),
        (np.array([len(ix.wids)]), np.dtype("<u8")),
        (ix.wids, wid_t),
        (np.diff(ix.offsets), len_t),
        (ix.ids, id_t),
        (ix.codes, np.dtype(np.uint8)),
    ]


def save(ix: InvertedIndex, path) -> None:
    """Write the index file, each section as one array at its file dtype: no
    copy for a built or loaded index, which holds its postings at those.

    A TIFC file holds no table, so an index whose table is not the drawn
    one for its (D, L) would load with other words: ValueError, before the
    file is opened."""
    q = ix.quantizer
    if isinstance(q, VirtualWordBank):
        drawn = tifc.make_virtual_words(*q.means.shape)
        if q is not drawn and not np.array_equal(q.means, drawn.means):
            raise ValueError("a TIFC table other than the drawn one for its "
                             f"{q.means.shape}: the file cannot hold it")
    crc = 0
    with open(path, "wb") as f:
        f.write(MAGIC)
        for values, dtype in _sections(ix):
            values = np.ascontiguousarray(values, dtype=dtype)
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


def _read_header(path, raw) -> tuple[BuildConfig, int, int, int]:
    """The header's BuildConfig, vector width D, word count and indexed
    count. The configuration's values go into the configs as they are, so
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
    word_count = cfg.word_count(dim, path)
    # the result records of `vecio.write_int_lists` hold image ids as int32
    if not 0 < indexed_count <= np.iinfo(np.int32).max:
        raise DataError(f"{path}: index header field 'indexed_count' is {indexed_count}, "
                        "below 1 or exceeds int32 result ids")
    if bytes(raw) != _header_json(cfg, dim, indexed_count):
        raise DataError(f"{path}: index header is not the one `save` writes "
                        "for its configuration")
    return cfg, dim, word_count, indexed_count


def _check_postings(path, ix: InvertedIndex) -> None:
    """Reject posting arrays that break the layout's invariants; the lengths
    are checked already, so there is at least one list and one entry."""
    wids, ids = ix.wids, ix.ids  # unsigned, so never below 0
    words = ix.quantizer.word_count
    if wids[-1] >= words or np.any(wids[1:] <= wids[:-1]):
        raise DataError(f"{path}: word ids not strictly increasing in [0, {words})")
    if ids.max() >= ix.indexed_count:
        raise DataError(f"{path}: posting ids outside [0, {ix.indexed_count})")
    rising = ids[1:] > ids[:-1]
    rising[ix.offsets[1:-1] - 1] = True  # list boundaries may step down
    if not rising.all():
        raise DataError(f"{path}: posting ids not strictly increasing within a list")
    pad = ix.config.code_length % 8
    if pad and np.any(ix.codes[:, -1] >> pad):
        raise DataError(f"{path}: nonzero pad bits in the codes")


def load(path) -> InvertedIndex:
    """Read and validate an index file; any malformed file raises DataError.

    The file is read section by section, each straight into the array the
    index keeps (the posting integers at their file widths), and the CRC is
    updated as each section arrives. No array is allocated before its byte
    count is checked against the bytes left in the file, and after `nlists`
    those bytes must match the header's sizes exactly. The CRC is checked
    before any value is used: the payload's (finite centroids), the posting
    rules and the quantizer, the IFC codebook or the TIFC table. All of it
    runs on the calling thread, and a TIFC table is taken from
    `tifc.make_virtual_words` only after the CRC, so a file that fails it
    is never drawn for."""
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
        cfg, dim, word_count, indexed_count = _read_header(path, array(hlen, np.uint8))
        payload = array(cfg.pq.words_per_segment * dim if cfg.pq else 0, "<f4")
        total = indexed_count * cfg.link_count
        b = code_bytes(cfg.code_length)
        wid_t, len_t, id_t = posting_dtypes(word_count, indexed_count)
        nlists = int(array(1, "<u8")[0])
        need = nlists * (wid_t.itemsize + len_t.itemsize) + total * (id_t.itemsize + b)
        if need > left:
            raise DataError(f"{path}: truncated index file")
        if need < left:
            raise DataError(f"{path}: {left - need} trailing bytes after posting lists")
        wids, lengths, ids = array(nlists, wid_t), array(nlists, len_t), array(total, id_t)
        codes = array(total * b, np.uint8).reshape(total, b)
        trailer = f.read(4)
        if len(trailer) != 4 or struct.unpack("<I", trailer)[0] != crc:
            raise DataError(f"{path}: checksum mismatch (corrupt index file)")

    if not np.isfinite(payload).all():
        raise DataError(f"{path}: NaN or infinite centroid in the quantizer payload")
    # total fits the file, so a sum of lengths in [1, total] cannot overflow
    if np.any(lengths < 1) or np.any(lengths > total) or lengths.sum() != total:
        raise DataError(f"{path}: list lengths are not all >= 1 with sum "
                        f"indexed_count * link_count = {total}")
    offsets = np.zeros(nlists + 1, dtype=np.int64)
    np.cumsum(lengths, dtype=np.int64, out=offsets[1:])
    quantizer = (PqCodebook(payload.reshape(cfg.pq.segments, cfg.pq.words_per_segment, -1))
                 if cfg.pq else tifc.make_virtual_words(dim, cfg.code_length))
    ix = InvertedIndex(
        config=cfg,
        indexed_count=indexed_count,
        wids=wids,
        offsets=offsets,
        ids=ids,
        codes=codes,
        quantizer=quantizer,
    )
    _check_postings(path, ix)
    return ix
