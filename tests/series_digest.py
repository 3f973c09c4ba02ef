"""Print one sha256 over the bits of ``p_series`` reports, to compare two checkouts.

It hashes each report's partial sum, rounded value, gap and floating-error
bound E, exactly, at n = 1..3000, at 300 seeded n below 10^6, at 10^7 and at
17,782,794.  Run it from a checkout (4 s on one Intel Xeon vCPU):

    PYTHONPATH=src python tests/series_digest.py
"""

import hashlib
import random

from partitions.precision import unlimited_int_str
from partitions.rademacher import p_series

SEEDED = random.Random(20261020).sample(range(1, 10**6), 300)
NS = [*range(1, 3001), *SEEDED, 10**7, 17_782_794]


def main():
    digest = hashlib.sha256()
    for n in NS:
        report = p_series(n)
        row = (n, report.partial_sum._mpf_, report.rounded, report.gap._mpf_, report.float_error_bound.hex())
        with unlimited_int_str():
            digest.update(repr(row).encode())
    print(len(NS), digest.hexdigest())


if __name__ == "__main__":
    main()
