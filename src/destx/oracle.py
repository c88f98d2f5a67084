"""Brute-force oracle for `destx.observer.closure_family`, diffed against it
by `oracle-maxs`.  It imports nothing from the observer: it runs its own
universe, closure and reach walks on int bitmasks, and takes from
`destx.ranges` only `_bits` and the level loop `_range_levels` of PROP1."""

from __future__ import annotations

import functools
import operator

from .errors import InstanceTooLarge
from .labeled import LabeledState, LabeledSystem, ObserverState, _sorted_estimates
from .ranges import _bits, _range_levels


def closure_family_bruteforce(sys: LabeledSystem, seed: LabeledState) -> tuple[ObserverState, ...]:
    """Oracle for closure_family by exhaustive subset search: every subset
    of the seed's suppressed-reach universe that holds the seed, is reach
    closed, and is the range of a partial run tree, of any depth, that never
    leaves it: a member of some level of `_range_levels`, run to its
    fixpoint with whole families.  It reads the system only through
    `sys.suppressed_moves`, in its own universe walk and then into one move
    table for its closure check, reach walks and `_range_levels`, on int
    bitmasks over the universe in sort order.

    The closure check and a subset's range families do not depend on the
    root, so one scan per universe, memoized on the system, serves every
    member whose own universe it is: one level loop per subset serves those
    whose reach fills it, and stops early once all are covered."""
    seen, work = {seed}, [seed]
    while work:
        for _e, opts in sys.suppressed_moves(work.pop()):
            work.extend(w for w in opts if w not in seen)
            seen.update(opts)
    n = len(seen)
    if n > 20:
        raise InstanceTooLarge(f"oracle universe has {n} states, cap is 20")
    key = frozenset(seen)
    if key not in sys._oracle_cache:
        universe = sorted(seen)
        index = {v: i for i, v in enumerate(universe)}
        moves = [[sum(1 << index[w] for w in opts) for _e, opts in sys.suppressed_moves(v)] for v in universe]
        succ = {1 << i: functools.reduce(operator.or_, ts, 0) for i, ts in enumerate(moves)}
        pred = {1 << i: sum(b for b, t in succ.items() if t >> i & 1) for i in range(n)}
        # bit c of cols[i] is bit i of c, so `closed` tests every subset at
        # once: a closed subset meets each target of each member it holds
        cols: list[int] = []
        for k in range(n):
            cols = [x | x << (1 << k) for x in cols] + [((1 << (1 << k)) - 1) << (1 << k)]
        closed = (1 << (1 << n)) - 1
        for i, ts in enumerate(moves):
            for t in set(ts):
                closed &= ~cols[i] | functools.reduce(operator.or_, (cols[j] for j in _bits(t)))

        def walk(root: int, cand: int, table) -> int:
            reached = todo = root
            while todo:
                low = todo & -todo
                new = table[low] & cand & ~reached
                reached, todo = reached | new, todo ^ low | new
            return reached

        # the members whose own universe this is, and the subsets found for each
        full = (1 << n) - 1
        found = {i: [] for i in range(n) if walk(1 << i, full, succ) == full}
        seeds = sum(1 << i for i in found)
        for cand, bit in enumerate(reversed(f"{closed:b}")):
            if bit == "1":
                # the seeds whose reach fills `cand` are those that reach one
                # such seed, and no seed inside a reach that falls short is one
                left, pending = seeds & cand, set()
                while left and not pending:
                    root = left & -left
                    fwd = walk(root, cand, succ)
                    if fwd == cand:
                        pending = set(_bits(seeds & walk(root, cand, pred)))
                    left &= ~fwd
                for level in _range_levels(moves, cand, False, lambda unions: None) if pending else ():
                    for i in [i for i in pending if cand in level[i]]:
                        pending.remove(i)
                        found[i].append(frozenset(v for j, v in enumerate(universe) if cand >> j & 1))
                    if not pending:
                        break
        sys._oracle_cache[key] = {universe[i]: _sorted_estimates(fam) for i, fam in found.items()}
    return sys._oracle_cache[key][seed]
