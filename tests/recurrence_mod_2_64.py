"""p(n) mod 2^64 for every n <= 10^6 by the pentagonal recurrence, and a
check of ``p_series`` against it above the exact route's ceiling.

The table runs ``partitions.exact._recurrence``, the kernel that ``p_exact``
runs, with each value reduced mod 2^64 as it is appended, so every value stays
below 2^75 and each C-level sum stays cheap.  It shares no code with the
series, and none with sympy, so it is an independent route to p(n) mod 2^64
up to 10^6.  The check compares with it:

- every row of ``partition_residues.json`` with n <= 10^6;
- ``p_series(n).rounded`` mod 2^64 at every n in (10^6 - 2000, 10^6], at
  2000 seeded n in (10^5, 10^6] and at the 300 seeded n of ``series_digest.py``.

Run it from a checkout; with ``PART PARTS`` it checks only every PARTS-th of
those n, from the PART-th, so that parts can run in parallel processes:

    PYTHONPATH=src python tests/recurrence_mod_2_64.py [PART PARTS]

It fails by an assertion.  On one pinned vCPU of a 2-vCPU Intel Xeon VM the
table took 51 to 62 s of CPU (four runs), and each of two parts 83 to 90 s in all.
"""

import json
import random
import sys
from pathlib import Path

from partitions.exact import _recurrence
from partitions.rademacher import p_series
from series_digest import SEEDED

MASK = 2**64 - 1
N_MAX = 10**6
NS = sorted({*range(N_MAX - 1999, N_MAX + 1), *random.Random(47).sample(range(10**5 + 1, N_MAX + 1), 2000), *SEEDED})


def table_mod_2_64(n_max: int) -> list[int]:
    """p(0..n_max) mod 2^64: ``_recurrence`` with each value appended as ``v & MASK``."""
    vals = [1]
    for v in _recurrence(vals, n_max):
        vals.append(v & MASK)  # & takes a negative difference to its residue too
    return vals


def main(part: int = 0, parts: int = 1):
    table = table_mod_2_64(N_MAX)
    rows = json.loads(Path(__file__).with_name("partition_residues.json").read_text())
    wrong_rows = [row["n"] for row in rows if row["n"] <= N_MAX and table[row["n"]] != row["mod_2_64"]]
    assert not wrong_rows, wrong_rows
    wrong = [n for n in NS[part::parts] if p_series(n).rounded & MASK != table[n]]
    assert not wrong, wrong[:10]


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
