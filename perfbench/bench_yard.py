"""A fixed amount of pure-Python work that measures the host's speed.

Run as its own process between the benchmark's jobs.  It shares no code
with leibcx, so a change to the program cannot move its time; only the
host can.  The work resembles leibcx's: tuple-keyed dict expansion of
signed words and fraction-free integer elimination.
"""

import itertools
import math
import random


def _expand(word, cache):
    hit = cache.get(word)
    if hit is not None:
        return hit
    if len(word) == 1:
        out = {word: 1}
    else:
        head, inner = word[0], _expand(word[1:], cache)
        sign = -((-1) ** (len(word) - 1))
        out = {}
        for w, c in inner.items():
            for nw, k in (((head,) + w, c), (w + (head,), sign * c)):
                v = out.get(nw, 0) + k
                if v:
                    out[nw] = v
                else:
                    out.pop(nw, None)
    cache[word] = out
    return out


def _rank(rows):
    pivots = []
    for row in rows:
        row = dict(row)
        for p, prow in pivots:
            c = row.get(p)
            if c:
                a = prow[p]
                for i in list(row):
                    row[i] *= a
                for i, v in prow.items():
                    nv = row.get(i, 0) - c * v
                    if nv:
                        row[i] = nv
                    else:
                        row.pop(i, None)
        if row:
            g = 0
            for v in row.values():
                g = math.gcd(g, v)
            pivots.append((min(row), {i: v // g for i, v in row.items()}))
    return len(pivots)


def work():
    cache = {}
    total = 0
    for w in itertools.product(range(1, 5), repeat=6):
        total += len(_expand(w, cache))
    rng = random.Random(1)
    rows = [{j: rng.randint(-9, 9) for j in range(40) if rng.random() < 0.5}
            for _ in range(36)]
    return total + _rank(rows)


if __name__ == "__main__":
    work()
