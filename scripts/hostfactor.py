"""Host-speed factors for the passes of the stage scripts.

The stage scripts (`bench_load.py`, `bench_query_stages.py` and
`bench_criterion7.py`) time their passes on shared hosts whose speed moves by
tens of percent between runs. `PassFactors` takes a `perfbench/hostref.HostRef`
sample before the first pass and after every pass, so each pass lies between
two samples. As `perfbench/run.py` divides each timed call by its host
factor, a script divides each timing of a pass by the pass's factor, the mean
of those two samples over `hostref.REF_QUERY_S`: the corrected timing reads
as on a host on which one reference query takes `REF_QUERY_S`.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import hostref  # noqa: E402


class PassFactors:
    """The host factor of each pass, from samples taken around it."""

    def __init__(self):
        self.ref = hostref.HostRef()
        self.ref.sample()

    def next(self) -> float:
        """End a pass: sample the host, and return the pass's factor, the mean
        of this sample and the one before it over `hostref.REF_QUERY_S`."""
        self.ref.sample()
        return (self.ref.seconds[-2] + self.ref.seconds[-1]) / 2 / hostref.REF_QUERY_S
