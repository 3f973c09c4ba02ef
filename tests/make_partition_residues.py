"""Write tests/partition_residues.json: p(n) mod 2^64, mod 10^9 + 7 and its
bit length, for n beyond the exact route's reach.

The values come from sympy's ``partition`` (its own Hardy-Ramanujan-Rademacher
code, with Whiteman's A_k and its own precision rule), cross-checked with the
pentagonal recurrence ``p_exact`` for n <= 10^5.  The rows with n <= 10^6
(8 of them, 6 above 10^5) are also checked mod 2^64 without sympy, against
the recurrence mod 2^64 of ``recurrence_mod_2_64.py``, by the heavy checks.
sympy is needed only here, not by the package or its tests.  Run once, offline, from the repository root:

    PYTHONPATH=src python tests/make_partition_residues.py

At n = 10^9 sympy takes about 10 s.
"""

import json
from pathlib import Path

from sympy.functions.combinatorial.numbers import partition

from partitions.exact import p_exact

# log-spaced from 10^5 to 10^9, four per decade, plus the n with the least
# slack 1/4 - T for n <= 5e4 (13312) and n <= 2e5 (184570), and 999999
NS = sorted({round(10 ** (5 + i / 4)) for i in range(17)} | {13312, 184570, 999_999})


def main():
    rows = []
    for n in NS:
        value = int(partition(n))
        if n <= 10**5 and value != p_exact(n):
            raise SystemExit(f"sympy and p_exact disagree at n = {n}")
        rows.append({"n": n, "mod_2_64": value % 2**64, "mod_1e9_7": value % (10**9 + 7),
                     "bit_length": value.bit_length()})
    path = Path(__file__).with_name("partition_residues.json")
    path.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")


if __name__ == "__main__":
    main()
