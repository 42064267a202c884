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
solve time.  A row of equal costs (a dead unit's) is placed without forming
its reduced costs while two or more columns are free.  Column duals only
fall from 0 and a free column keeps its 0, so its reduced cost is its
constant on every free column and no less elsewhere: the free columns tie,
the tie rule gives it the lowest, and no dual moves.  With one column free
it may bid strictly and lower that column's dual, so it takes the general
step.  The constant rows are listed at the first tie that finds its first
minimum held, so a LAP with no such tie pays one test per step for the
rule.  After 4n steps, a constant row's included, which bounds chains
of tiny dual decrements, the rows still free are searched.  Among equally
near columns the Dijkstra search scans a free one first, which ends the
search, so on tied costs a row augments in one step instead of growing a
tree over every matched column.

The loops run one numpy call per row operation, and at the widths weight
matching solves (up to a few thousand) a call's fixed cost of about half a
microsecond outweighs its arithmetic.  So each step makes the fewest and
cheapest calls that compute the same bits.  A minimum is read through
``argmin`` (``ndarray.min()`` costs about three times as much), each loop
writes its row into one reused buffer, and a tie is looked for among the
free columns only.  A start step is one subtraction and two ``argmin``.  A
search step forms its candidates ``(cost[i] + offset) - v`` in two calls,
with ``offset = min_val - u[i]``, and updates the tentative distances with
one ``np.minimum``: a scanned column holds -inf in the search's copy of
``v``, so its candidate is +inf and it stays out.  The search keeps no
predecessors.  Once it reaches a free column, each column on the path gets
its predecessor back from the offsets recorded per scanned row: the first
row, in scan order and scanned before that column, whose candidate
recomputes to the column's distance.  Those are the float operations the
search made, so that is the row a strict-< update would have kept, and the
result is the same to the bit.

Because every optimal assignment is complementary to any optimal duals, the
set of optimal assignments equals the set of perfect matchings on the
zero-reduced-cost ("tight") edges, whichever optimum the search reached; a
second pass walks the rows in order and greedily commits the smallest tight
column that still leaves the rest matchable, so ties always resolve to the
lexicographically smallest optimal permutation.  That pass works only where
the ties are: it returns a unique optimum at once, freezes the columns every
optimum gives the same row, places each block of d rows tied on the same d
columns (dead units, say) in one step, and returns when no row is left with
an unfrozen tight column left of its own.  Otherwise it passes once over the
rows from the first such row, and each row that can still move makes one
alternating-path search; a row's candidates are one comparison and one
``nonzero``, and a row left with none makes no search.  Blocks are looked
for with one ``bincount`` of the rows' degrees whenever no row is forced, so
a LAP without one pays almost nothing for them.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .perms import Perm, inverse

_TIGHT_RTOL = 1e-10


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
    red = np.empty(n)  # the row being placed's reduced costs, then the search's candidates
    constant = None  # whether each row's costs are all equal, listed at the first held tie
    lo, hi = 0, n - 1  # at or below the lowest free column, at or above the highest
    for _ in range(4 * n):
        if not queue:
            break
        i = queue.popleft()
        if constant is not None and constant[i]:
            # Its reduced cost is its constant on every free column (dual 0)
            # and no less elsewhere (duals <= 0): with two free columns the
            # tie rule below gives it the lowest one and moves no dual.
            while not free[lo]:
                lo += 1
            while not free[hi]:
                hi -= 1
            if lo < hi:
                free[lo] = False
                row_of_col[lo] = i
                col_of_row[i] = lo
                continue
        np.subtract(cost[i], v, out=red)
        j1 = int(red.argmin())
        u1 = red[j1]
        red[j1] = np.inf
        u2 = red[red.argmin()]
        holder = row_of_col[j1]
        if u1 < u2:
            v[j1] -= u2 - u1
            if holder >= 0:
                col_of_row[holder] = -1
                queue.appendleft(holder)
        elif holder >= 0:  # a tie never displaces
            if constant is None:
                constant = (cost.max(axis=1) == cost.min(axis=1)).tolist()
            free_cols = free.nonzero()[0]  # j1 is held, so not among them
            tied = red[free_cols]
            k = int(tied.argmin())
            if tied[k] != u1:
                continue
            j1 = int(free_cols[k])
        free[j1] = False
        row_of_col[j1] = i
        col_of_row[i] = j1
    u = np.empty(n)
    rows_left = [i for i, j in enumerate(col_of_row) if j < 0]
    for i in rows_left:
        np.subtract(cost[i], v, out=red)
        u[i] = red[red.argmin()]
    cols = np.array(col_of_row)
    rows = (cols >= 0).nonzero()[0]
    u[rows] = cost[rows, cols[rows]] - v[cols[rows]]
    dist = np.empty(n)
    v_open = np.empty(n)  # v with the scanned columns at -inf

    for cur in rows_left:
        # Dijkstra over columns, growing an alternating tree from row `cur`.
        # `key` is an unscanned column's tentative distance and +inf once the
        # column is scanned; `dist` keeps the distance it was scanned at.
        # A scanned column's candidate is +inf against its -inf in `v_open`,
        # so one np.minimum updates `key` and leaves scanned columns alone.
        key = np.full(n, np.inf)
        np.copyto(v_open, v)
        free_cols = free.nonzero()[0]
        scanned_rows, offsets, scanned_cols = [cur], [], []
        min_val = 0.0
        i = cur
        while True:
            offset = min_val - u[i]
            offsets.append(offset)
            np.add(cost[i], offset, out=red)
            red -= v_open
            np.minimum(key, red, out=key)
            j = int(key.argmin())
            min_val = key[j]
            if row_of_col[j] >= 0:
                # Of equally near columns, a free one ends the search now.
                tied = key[free_cols]
                k = int(tied.argmin())
                if tied[k] == min_val:
                    j = int(free_cols[k])
            dist[j] = min_val
            key[j] = np.inf
            v_open[j] = -np.inf
            scanned_cols.append(j)
            i = row_of_col[j]
            if i < 0:
                break
            scanned_rows.append(i)
        free[j] = False

        # Augment backwards from the free column j.  Its predecessor is the
        # first row, in scan order and scanned before j, whose candidate
        # (cost + offset) - v reached dist[j]: the row a strict-< update of
        # `key` would have kept.  scanned_rows[m] holds scanned_cols[m - 1].
        tree_rows, offsets = np.array(scanned_rows), np.array(offsets)
        m = len(scanned_rows)
        while True:
            reach = cost[tree_rows[:m], j] + offsets[:m]
            reach -= v[j]
            m = int((reach == dist[j]).argmax())
            r = scanned_rows[m]
            row_of_col[j] = r
            col_of_row[r] = j
            if m == 0:
                break
            j = scanned_cols[m - 1]

        # Dual update keeps reduced costs non-negative and tight on the tree.
        # The last column's distance is min_val, so its dual does not move.
        u[cur] += min_val
        tree_cols = np.array(scanned_cols[:-1], dtype=np.int64)
        step = min_val - dist[tree_cols]
        u[tree_rows[1:]] += step
        v[tree_cols] -= step

    return np.array(col_of_row, dtype=np.int64), u, v


def _augment(start_row: int, target: int, first_cols: list, mask: np.ndarray, row_of: list,
             col_of: list, visited: bytearray) -> list | None:
    """Kuhn-style alternating path over tight edges that moves ``start_row``
    off its column ``target`` onto one of ``first_cols``, skipping marked
    columns, and ends at a row tight on ``target``.

    The start row tries ``first_cols`` in their order, so the first of them
    a path frees becomes its column.  Every other row it enters tries
    ``target`` first, so on tied rows the path is one step long; then it goes
    depth-first in column order, on an explicit stack so path length is not
    bounded by the interpreter's recursion limit.  A row's tight columns are
    listed from ``mask`` when it is entered.  Flips the matching along the
    path it finds and returns the rows on it; returns None, with the matching
    untouched, when there is none.
    """
    rows, cols, scans = [start_row], [], [iter(first_cols)]
    while rows:
        if len(scans) < len(rows):  # rows[-1] was just entered
            if mask[rows[-1], target]:
                cols.append(target)
                for r, c in zip(rows, cols):
                    row_of[c] = r
                    col_of[r] = c
                return rows
            scans.append(iter(mask[rows[-1]].nonzero()[0].tolist()))
        for j in scans[-1]:
            if not visited[j]:
                visited[j] = 1
                cols.append(j)
                rows.append(row_of[j])
                break
        else:
            # Every tight column of the deepest row is spent: backtrack.
            scans.pop()
            rows.pop()
            if cols:
                cols.pop()
    return None


def _tied_blocks(mask: np.ndarray, frozen: np.ndarray, deg: np.ndarray) -> list:
    """Every block of the tight graph, as its rows in ascending order: d >= 2
    rows whose unfrozen tight columns are the same d columns.  Only a degree
    held by at least as many rows as itself can hold one, and its rows are
    grouped by their packed sets of unfrozen tight columns."""
    counts = np.bincount(deg)
    blocks = []
    for d in (counts[2:] >= np.arange(2, counts.size)).nonzero()[0] + 2:
        rows = (deg == d).nonzero()[0]
        sets = np.packbits(np.greater(mask[rows], frozen), axis=1)
        _, group, size = np.unique(sets.view(np.dtype((np.void, sets.shape[1]))).ravel(),
                                   return_inverse=True, return_counts=True)
        blocks += [rows[group == g] for g in (size == d).nonzero()[0]]
    return blocks


def _lex_smallest_on_tight(cost: np.ndarray, col_of_row: np.ndarray, u: np.ndarray, v: np.ndarray,
                           scale: float) -> np.ndarray:
    """Refine an optimal assignment to the lexicographically smallest one.

    Operates on the bipartite graph of tight edges (reduced cost at most
    ``_TIGHT_RTOL * scale``, where ``scale`` is ``max(1, max|cost|)``); any
    perfect matching there is optimal, so committing the smallest feasible
    column per row, in row order, yields the lexicographic minimum.  If every
    row has one tight column, that matching is the only one.  Otherwise two
    rules freeze columns until neither fires.  A row whose only unfrozen
    tight column is its own keeps it in every perfect matching (the
    degree-one rule of the Dulmage-Mendelsohn decomposition).  And d rows
    whose only unfrozen tight columns are the same d columns hold exactly
    those columns in every perfect matching, in any order (Hall's theorem):
    such a block gives its rows, ascending, its columns, ascending, with no
    search.  A frozen column stops counting towards any row's degree; on
    pruned-mlp's 448-wide LAPs the 336 dead rows are one block.  Only a row
    whose first unfrozen tight column (``first``, or ``n`` for a row with
    none) lies left of its own can move, and if none can, the assignment is
    returned as it is.  Otherwise one pass goes over the rows in order from
    the first that can move: the rows before it are final, so their columns
    are frozen, and each walked row's column is frozen as the pass leaves
    it.  A walked row that still has candidates, unfrozen tight columns
    left of its own, makes one alternating-path search whose first step
    tries them in order, so the first that a path frees becomes its column;
    rows after it that the path moves are met later in the pass.  The
    candidates share one visited set: from a column a failed branch marked
    no path reaches the row's column, and the next candidate's graph differs
    only in that the row holds one column more, so no row gains an option
    and the marks stay valid (Kuhn's phase argument).
    """
    n = cost.shape[0]
    red = cost - u[:, None]  # the reduced costs, formed without a second temporary
    red -= v
    mask = red <= _TIGHT_RTOL * scale
    del red
    deg = np.count_nonzero(mask, axis=1)  # each row's unfrozen tight columns
    if (deg == 1).all():
        return col_of_row
    col_of_row = col_of_row.copy()  # blocks are placed in it
    frozen = np.zeros(n, dtype=bool)  # forced and placed columns, then those of rows already walked
    while True:
        while (forced := col_of_row[deg == 1]).size:
            frozen[forced] = True
            deg -= np.count_nonzero(mask[:, forced], axis=1)
        blocks = _tied_blocks(mask, frozen, deg)
        if not blocks:
            break
        placed = np.concatenate(blocks)
        for rows in blocks:  # each holds its own columns, so sorting them places it
            col_of_row[rows] = np.sort(col_of_row[rows])
        frozen[col_of_row[placed]] = True
        deg[placed] = 0
        live = deg.nonzero()[0]  # the other rows with unfrozen tight columns left
        deg[live] = np.count_nonzero(np.greater(mask[live], frozen), axis=1)
    first = np.greater(mask, frozen).argmax(axis=1)  # each row's first unfrozen tight column
    first[deg == 0] = n  # a row with none stays where it is
    movable = (first < col_of_row).nonzero()[0]
    if not movable.size:
        return col_of_row
    walk = int(movable[0])
    frozen[col_of_row[:walk]] = True
    first, col_of, row_of = first.tolist(), col_of_row.tolist(), inverse(col_of_row).tolist()
    for i in range(walk, n):
        current = col_of[i]
        if first[i] < current:
            # Tight and unfrozen (mask > frozen on booleans), left of its own.
            left = np.greater(mask[i, :current], frozen[:current]).nonzero()[0].tolist()
            if left:
                _augment(i, current, left, mask, row_of, col_of, bytearray(frozen))
        frozen[col_of[i]] = True
    return np.array(col_of, dtype=np.int64)


def _solve(c) -> tuple[Perm, float]:
    """solve_min: check the cost matrix, solve it, refine the answer."""
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
    n, magnitude = c.shape[0], max(-float(lo), float(hi))
    if magnitude > np.finfo(np.float64).max / (n + 16):
        raise ValueError(f"cost magnitude {magnitude:.3g} too large for an exact {n}x{n} solve")
    col_of_row, u, v = _shortest_augmenting_paths(c)
    p = _lex_smallest_on_tight(c, col_of_row, u, v, max(1.0, magnitude))
    return p, float(np.sum(c[np.arange(n), p]))


def solve_min(cost) -> tuple[Perm, float]:
    """Minimize sum_i cost[i, p[i]] over permutations p.

    Returns the lexicographically smallest optimal permutation and its total
    cost.  Optimality ties are recognized at a relative resolution of about
    1e-10: permutations whose totals coincide to that level resolve by
    lexicographic order, never by sub-ulp float summation accidents (which
    depend on evaluation order and carry no information).  Raises ValueError
    on non-square or non-finite input.
    """
    return _solve(cost)


def solve_max(values) -> tuple[Perm, float]:
    """Maximize sum_i values[i, p[i]]; same determinism contract as solve_min."""
    p, neg_total = _solve(-np.asarray(values, dtype=np.float64))
    return p, -neg_total
