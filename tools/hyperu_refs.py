"""Regenerate the frozen ln U references of the Tricomi-U ladder test.

    python3 tools/hyperu_refs.py > refs.txt

`TestTricomiU.test_log_grid_against_arbitrary_precision` in
tests/test_special_fn.py checks `ln_tricomi_u_grid` against ln U(a, b, z)
at 96 points: a = m + m_s and b = m_s - n + 1 for n in N_VALUES, the ladder
the detection series walks. mpmath takes about a minute for them, most of
it on the three points with z = 1308 and n = 300, so the test reads them
from its `_LN_HYPERU` table instead. This script evaluates every point at
mp.dps = 40 and prints that table as Python source, in the test's layout,
for pasting over the old one. Needs mpmath.
"""

from __future__ import annotations

import mpmath

M_VALUES = (0.6, 3.5, 20.0)
MS_VALUES = (1.1, 30.0)
Z_VALUES = (0.02, 1.3, 57.0, 1308.0)
N_VALUES = (0, 5, 40, 300)


def main() -> None:
    mpmath.mp.dps = 40
    print("_LN_HYPERU = {")
    for m in M_VALUES:
        for ms in MS_VALUES:
            for z in Z_VALUES:
                row = [float(mpmath.log(mpmath.hyperu(m + ms, ms - n + 1.0, z))) for n in N_VALUES]
                print(f"    ({m!r}, {ms!r}, {z!r}): (")
                print(f"        {row[0]!r}, {row[1]!r},")
                print(f"        {row[2]!r}, {row[3]!r},")
                print("    ),")
    print("}")


if __name__ == "__main__":
    main()
