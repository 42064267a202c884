"""Exact square linear assignment with a deterministic tie-break.

The solver is a Jonker-Volgenant style shortest-augmenting-path scheme
(O(n^3)).  It starts from the classical row reduction: each row's dual is its
minimum cost, the column duals are zero, and in row order each row takes its
first minimum column unless an earlier row holds it.  Augmenting row
reduction (Jonker & Volgenant 1987, section 3) then places most of the rows
left over: a free row takes its nearest column and lowers that column's dual
by the gap to its second-nearest, so the edge is tight, and the row it
displaces is retried next.  On a tie a row takes its first free tied column,
as the search's first step would, or is left for the search; it never
displaces a holder.  The textbook rule (take the runner-up and requeue its
holder) trades tied columns back and forth without moving a dual, and on
tie-heavy matrices (pruned units, zero blocks) it more than doubled the
solve time.  After 4n such steps, which bounds chains of tiny dual
decrements, the rows still free are searched.
Each Dijkstra step is a few full-width masked numpy operations; among
equally near columns it scans a free one first, which ends the search, so on
tied costs a row augments in one step instead of growing a tree over every
matched column.

Because every optimal assignment is complementary to any optimal duals, the
set of optimal assignments equals the set of perfect matchings on the
zero-reduced-cost ("tight") edges, whichever optimum the search reached; a
second pass walks the rows in order and greedily commits the smallest tight
column that still leaves the rest matchable, so ties always resolve to the
lexicographically smallest optimal permutation.  That pass works only where
the ties are: it returns a unique optimum at once, freezes the columns every
optimum gives the same row, passes over rows already on their first tight
column, and spends at most one search's work on each row it walks.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from .perms import Perm

_TIGHT_RTOL = 1e-10


def _check_cost(c) -> np.ndarray:
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 1:
        raise ValueError(f"cost matrix must be square and non-empty, got shape {c.shape}")
    lo, hi = c.min(), c.max()  # nan and inf propagate into these
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("cost matrix contains non-finite entries")
    # With M = max|c|, the total sums n entries, so it stays within n*M.  The
    # column duals only fall from 0, and a free column keeps its 0; feasible
    # duals then hold every row dual in [-M, M] and every column dual in
    # [-2M, 0] while a column is free, and the step that takes the last one
    # widens that to 3M and -4M.  So no difference or sum the solver forms
    # exceeds 10M, and none of it overflows below max / (n + 16).
    n = c.shape[0]
    if max(-lo, hi) > np.finfo(np.float64).max / (n + 16):
        raise ValueError(
            f"cost magnitude {max(-lo, hi):.3g} too large for an exact {n}x{n} solve"
        )
    return c


def _shortest_augmenting_paths(cost: np.ndarray):
    """Solve min-cost assignment; return (col_of_row, u, v) with optimal duals."""
    n = cost.shape[0]
    # Row reduction: each row takes its first minimum column, tight while
    # the column duals are zero, unless an earlier row already holds it.
    v = np.zeros(n)
    col_of_row = [-1] * n
    row_of_col = [-1] * n
    for i, j in enumerate(cost.argmin(axis=1).tolist()):
        if row_of_col[j] < 0:
            row_of_col[j] = i
            col_of_row[i] = j

    # Augmenting row reduction.  Lowering v[j] only raises other rows'
    # reduced costs, and the row that held j is freed, so the duals stay
    # feasible and every matched edge stays tight.
    free = np.array(row_of_col) < 0  # columns no row holds yet
    queue = deque(i for i, j in enumerate(col_of_row) if j < 0)
    for _ in range(4 * n):
        if not queue:
            break
        i = queue.popleft()
        red = cost[i] - v
        j1 = int(red.argmin())
        u1 = red[j1]
        red[j1] = np.inf
        u2 = red.min()
        holder = row_of_col[j1]
        if u1 < u2:
            v[j1] -= u2 - u1
            if holder >= 0:
                col_of_row[holder] = -1
                queue.appendleft(holder)
        elif holder >= 0:  # a tie never displaces
            tied_free = (red == u1) & free  # j1 is held, so not free
            j1 = int(tied_free.argmax())
            if not tied_free[j1]:
                continue
        free[j1] = False
        row_of_col[j1] = i
        col_of_row[i] = j1
    u = np.empty(n)
    for i in [i for i, j in enumerate(col_of_row) if j < 0]:
        u[i] = (cost[i] - v).min()
    cols = np.array(col_of_row)
    rows = np.flatnonzero(cols >= 0)
    u[rows] = cost[rows, cols[rows]] - v[cols[rows]]
    dist = np.empty(n)

    for cur in [i for i, j in enumerate(col_of_row) if j < 0]:
        # Dijkstra over columns, growing an alternating tree from row `cur`.
        # `key` is an unscanned column's tentative distance and +inf once the
        # column is scanned; `dist` keeps the distance it was scanned at.
        key = np.full(n, np.inf)
        pred = np.full(n, cur, dtype=np.int64)
        unscanned = np.ones(n, dtype=bool)
        scanned_rows = [cur]
        min_val = 0.0
        i = cur
        while True:
            cand = (min_val - u[i]) + cost[i] - v
            better = (cand < key) & unscanned  # scanned columns keep +inf
            np.copyto(key, cand, where=better)
            np.copyto(pred, i, where=better)
            j = int(key.argmin())
            min_val = key[j]
            if row_of_col[j] >= 0:
                # Of equally near columns, a free one ends the search now.
                tied_free = (key == min_val) & free
                k = int(tied_free.argmax())
                j = k if tied_free[k] else j
            dist[j] = min_val
            key[j] = np.inf
            unscanned[j] = False
            i = row_of_col[j]
            if i < 0:
                break
            scanned_rows.append(i)
        free[j] = False

        # Dual update keeps reduced costs non-negative and tight on the tree.
        u[cur] += min_val
        for r in scanned_rows[1:]:
            u[r] += min_val - dist[col_of_row[r]]
        scanned_cols = np.flatnonzero(~unscanned)
        v[scanned_cols] -= min_val - dist[scanned_cols]

        # Augment backwards along the predecessor chain from the free column j.
        while True:
            i = int(pred[j])
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == cur:
                break

    return np.array(col_of_row, dtype=np.int64), u, v


def _tight_columns(tight: list, mask: np.ndarray, row: int) -> list:
    """Ascending tight columns of ``row``, listed from ``mask`` on first use."""
    cols = tight[row]
    if cols is None:
        cols = tight[row] = np.flatnonzero(mask[row]).tolist()
    return cols


def _augment(start_row: int, target: int, tight: list, mask: np.ndarray, row_of: list, col_of: list,
             visited: bytearray) -> list | None:
    """Kuhn-style alternating path over tight edges from the unmatched
    ``start_row`` to the free column ``target``, skipping marked columns.

    Each row it enters tries ``target`` first, so on tied rows the path is
    one step long; then it goes depth-first in column order, on an explicit
    stack so path length is not bounded by the interpreter's recursion
    limit.  Flips the matching along the path it finds and returns the rows
    on it; returns None, with the matching untouched, when there is none.
    """
    rows, cols, scans = [start_row], [], []
    while rows:
        if len(scans) < len(rows):  # rows[-1] was just entered
            if mask[rows[-1], target]:
                cols.append(target)
                for r, c in zip(rows, cols):
                    row_of[c] = r
                    col_of[r] = c
                return rows
            scans.append(iter(_tight_columns(tight, mask, rows[-1])))
        for j in scans[-1]:
            if not visited[j]:
                visited[j] = 1
                cols.append(j)
                rows.append(row_of[j])  # only ``target`` is free
                break
        else:
            # Every tight column of the deepest row is spent: backtrack.
            scans.pop()
            rows.pop()
            if cols:
                cols.pop()
    return None


def _lex_smallest_on_tight(cost: np.ndarray, col_of_row: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Refine an optimal assignment to the lexicographically smallest one.

    Operates on the bipartite graph of tight edges (reduced cost ~ 0); any
    perfect matching there is optimal, so committing the smallest feasible
    column per row, in row order, yields the lexicographic minimum.  If every
    row has one tight column, that matching is the only one.  Otherwise a
    row whose only unfrozen tight column is its own keeps it in every
    perfect matching, so that column is frozen, until no row is forced (the
    degree-one rule of the Dulmage-Mendelsohn decomposition).  Only a row
    with an unfrozen tight column left of its own can move, so only such
    rows are walked: those found at the start, and those a path enters.
    A walked row's candidates share one visited set: from a column a failed
    search marked no path reaches the freed column, and the next candidate's
    graph differs only in that the row holds one column more, so no row
    gains an option and the marks stay valid (Kuhn's phase argument).
    """
    n = cost.shape[0]
    scale = max(1.0, -float(cost.min()), float(cost.max()))
    red = cost - u[:, None]  # the reduced costs, formed without a second temporary
    red -= v
    mask = red <= _TIGHT_RTOL * scale
    del red
    deg = np.count_nonzero(mask, axis=1)  # each row's unfrozen tight columns
    if (deg == 1).all():
        return col_of_row
    frozen = np.zeros(n, dtype=bool)  # forced columns, then those of rows already walked
    while (forced := col_of_row[deg == 1]).size:
        frozen[forced] = True
        deg -= np.count_nonzero(mask[:, forced], axis=1)
    first = (mask & ~frozen).argmax(axis=1)  # each row's first unfrozen tight column
    pending = np.flatnonzero((first < col_of_row) & (deg > 0)).tolist()  # sorted, so a heap
    first = first.tolist()
    tight = [None] * n

    col_of = col_of_row.tolist()
    row_of = [-1] * n
    for r, c in enumerate(col_of):
        row_of[c] = r
    walked = 0  # rows below this one hold frozen columns

    while pending:
        i = heapq.heappop(pending)
        current = col_of[i]
        if i < walked or first[i] >= current:
            continue  # queued twice, or a path moved it onto its first
        frozen[col_of[walked:i]] = True
        walked = i + 1
        visited = bytearray(frozen)
        for j in np.flatnonzero(mask[i, :current] & ~frozen[:current]).tolist():
            if visited[j]:
                continue  # a failed search of this row marked it
            visited[j] = 1  # the path may not take j back
            holder = row_of[j]
            # Tentatively hand j to row i; the displaced row must re-augment.
            col_of[i] = j
            row_of[j] = i
            row_of[current] = -1
            col_of[holder] = -1
            path = _augment(holder, current, tight, mask, row_of, col_of, visited)
            if path is not None:
                current = j
                # The path's rows all come after i (earlier rows hold frozen
                # columns) and may now sit right of their first tight column.
                for r in path:
                    if first[r] < col_of[r]:
                        heapq.heappush(pending, r)
                break
            # Roll back.
            col_of[i] = current
            row_of[current] = i
            row_of[j] = holder
            col_of[holder] = j
        frozen[current] = True

    return np.array(col_of, dtype=np.int64)


def _solve(c: np.ndarray) -> tuple[Perm, float]:
    """solve_min on a cost matrix that ``_check_cost`` has accepted."""
    col_of_row, u, v = _shortest_augmenting_paths(c)
    p = _lex_smallest_on_tight(c, col_of_row, u, v)
    return p, float(np.sum(c[np.arange(c.shape[0]), p]))


def solve_min(cost) -> tuple[Perm, float]:
    """Minimize sum_i cost[i, p[i]] over permutations p.

    Returns the lexicographically smallest optimal permutation and its total
    cost.  Optimality ties are recognized at a relative resolution of about
    1e-10: permutations whose totals coincide to that level resolve by
    lexicographic order, never by sub-ulp float summation accidents (which
    depend on evaluation order and carry no information).  Raises ValueError
    on non-square or non-finite input.
    """
    return _solve(_check_cost(cost))


def solve_max(values) -> tuple[Perm, float]:
    """Maximize sum_i values[i, p[i]]; same determinism contract as solve_min."""
    p, neg_total = _solve(-_check_cost(values))
    return p, -neg_total
