import warnings

import pytest

from cnnidx import invindex, vecio
from cnnidx.invindex import BuildConfig
from cnnidx.pq import PqConfig
from cnnidx.vecio import SynthSpec


# Hypothesis imports its failure-patch writer, and with it libcst, the first
# time a @given test fails. libcst raises a DeprecationWarning
# (mypy_extensions.TypedDict) on import, which under `filterwarnings =
# ["error"]` escapes the report hook as INTERNALERROR: the failure goes
# unreported and the session ends. Importing the writer once here, with
# that one import's warnings ignored, leaves every other warning an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: Hypothesis writes no patch
        pass


@pytest.fixture(scope="session")
def small_dataset():
    """5 clusters x 10 points, D=16: database, queries, ground truth."""
    return vecio.generate_synthetic(
        SynthSpec(n_clusters=5, points_per_cluster=10, dim=16,
                  cluster_stddev=1.0, noise_stddev=0.1, seed=101))


@pytest.fixture(scope="session")
def tifc_index(small_dataset):
    db, _, _ = small_dataset
    return invindex.build(db, BuildConfig(scheme="tifc", link_count=3, code_length=8))


@pytest.fixture(scope="session")
def ifc_index(small_dataset):
    db, _, _ = small_dataset
    cfg = BuildConfig(
        scheme="ifc", link_count=3, code_length=8,
        pq=PqConfig(segments=2, words_per_segment=4),
    )
    return invindex.build(db, cfg)


@pytest.fixture(scope="session")
def medium_dataset():
    """10 clusters x 100 points, D=32, for monotonicity and recall checks."""
    return vecio.generate_synthetic(
        SynthSpec(n_clusters=10, points_per_cluster=100, dim=32,
                  cluster_stddev=1.0, noise_stddev=0.1, seed=202))
