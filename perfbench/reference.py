"""The reference job: fixed work of the kind one nrtcodes command does
(interpreter start, numpy import, text formatting, a file written and read
back, a numpy parse and a bincount), with no nrtcodes code in it.

    python3 perfbench/reference.py <scratch file>

run.py times it between operations.  The speed of a shared host drifts by
20-30% over tens of seconds; dividing each operation's time by that of
the reference jobs run just before and after it takes most of that drift
out, while a change to nrtcodes moves the ratio as much as the time.
"""

import sys
from pathlib import Path

import numpy as np

HEX = "0123456789abcdef"


def main(path: Path) -> int:
    rows = []
    for i in range(3000):
        digits = [(i * 7 + j * 13) % 16 for j in range(16)]
        rows.append(" ".join("".join(HEX[d] for d in digits[c:c + 4]) for c in range(0, 16, 4)))
    path.write_text("\n".join(rows) + "\n")
    text = path.read_text()
    raw = np.frombuffer(text.replace(" ", "").replace("\n", "").encode(), dtype=np.uint8)
    vals = np.where(raw >= 97, raw - 87, raw - 48).reshape(-1, 16).astype(np.int64)
    keys = vals[:, :4] @ np.array([4096, 256, 16, 1])
    counts = np.bincount(keys, minlength=1 << 16)
    # every row is one of 16 patterns repeated alike
    return 0 if counts.sum() == 3000 and counts.max() == 3000 // 16 + (3000 % 16 > 0) else 1


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
