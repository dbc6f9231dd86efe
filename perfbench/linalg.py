"""The benchmark's own exact elimination, independent of the program."""

from __future__ import annotations


def rank_q(vectors) -> int:
    """Rank of a list of equal-length Fraction vectors (taken as rows)."""
    rows = [list(v) for v in vectors if any(x != 0 for x in v)]
    if not rows:
        return 0
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f != 0:
                q = f / prow[c]
                rows[i] = [x - q * y for x, y in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank
