"""The byte sweeps of ``bytesweep.py`` hash to their pinned digests.

The digests were printed before ``run_trial`` decided once per distinct
honest inbox, and equal the ones ``BENCH_pr16.json`` records; a change that
moves any output byte of the two grids fails here.
"""

import pytest

from bytesweep import SETS, digest

PINNED = {
    "sweep": (960, "7cc5fa7f700fef1a0b075ffa6792a12d50048ed2dc123fa5833d4035e63b1d2a"),
    "wide": (18, "6019d21b9f27d923ddbccd316225398fa37d77d2ac863d1a493ff7af1819df94"),
}


@pytest.mark.parametrize("name", sorted(SETS))
def test_byte_sweep_digest_is_pinned(name):
    assert digest(SETS[name]()) == PINNED[name]
