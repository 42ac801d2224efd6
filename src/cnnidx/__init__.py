"""Inverted-table indexing of global high-dimensional feature vectors.

Two quantization schemes turn a vector into visual words: TIFC (softmax term
frequencies over per-dimension virtual words) and IFC (a product-quantization
dictionary of K^M words). Posting entries carry L-bit binary codes, a code
per link (IFC) or the vector's one code (TIFC), that are filtered by Hamming
distance at query time, and candidates are ranked by a voting process over
the probed lists.
"""

from .baseline import LshConfig, brute_force, lsh_build, lsh_query
from .embed import EmbedConfig, encode, hamming
from .evaluation import EvalReport, SweepSpec, average_precision, evaluate, sweep
from .invindex import BuildConfig, InvertedIndex, build, load, save, stats
from .pq import PqCodebook, PqConfig, assign, nearest_words, train
from .search import QueryConfig, RankedResult, batch_query, candidate_set, query
from .tifc import VirtualWordBank, make_virtual_words, softmax, top_words
from .vecio import (
    DataError,
    FeatureSet,
    SynthSpec,
    generate_synthetic,
    l2_normalize,
    read_feature_file,
    read_ground_truth,
    write_feature_file,
    write_ground_truth,
)

__all__ = [
    "BuildConfig", "DataError", "EmbedConfig", "EvalReport", "FeatureSet",
    "InvertedIndex", "LshConfig", "PqCodebook", "PqConfig", "QueryConfig",
    "RankedResult", "SweepSpec", "SynthSpec", "VirtualWordBank",
    "assign", "average_precision", "batch_query", "brute_force", "build",
    "candidate_set", "encode", "evaluate", "generate_synthetic", "hamming",
    "l2_normalize", "load", "lsh_build", "lsh_query", "make_virtual_words",
    "nearest_words", "query", "read_feature_file", "read_ground_truth", "save",
    "softmax", "stats", "sweep", "top_words", "train", "write_feature_file",
    "write_ground_truth",
]
