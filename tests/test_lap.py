"""Assignment solver vs exhaustive enumeration, plus its classical invariances."""

import collections
import gc
import sys
import time
import warnings

import numpy as np
import pytest

import taskport.lap
from conftest import (
    brute_force_min_assignment,
    reference_lex_smallest_on_tight,
    reference_row_reduction_shortest_augmenting_paths,
    reference_solve_min,
)
from taskport.checkpoint import ArchSpec
from taskport.coupling import apply_assignment, build_coupling_graph
from taskport.lap import _lex_smallest_on_tight, _shortest_augmenting_paths, solve_max, solve_min
from taskport.matching import weight_match
from taskport.model import init_random


class TestAgainstEnumeration:
    def test_tiny_hand_cases(self):
        p, cost = solve_min(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(p, [0, 1]) and cost == 0.0

        p, cost = solve_min(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.array_equal(p, [1, 0]) and cost == 2.0

    def test_random_instances_match_brute_force(self):
        """Exact cost and exact permutation (lexicographic tie rule) on
        random instances for every n in 2..7."""
        rng = np.random.default_rng(20)
        for n in range(2, 8):
            for _ in range(30):
                c = rng.normal(size=(n, n))
                p, total = solve_min(c)
                bp, btotal = brute_force_min_assignment(c)
                assert np.array_equal(p, bp)
                assert total == btotal

    def test_tied_integer_instances_match_brute_force(self):
        """Integer costs create massed ties; the tie-break must still agree."""
        rng = np.random.default_rng(21)
        for n in range(2, 7):
            for _ in range(25):
                c = rng.integers(0, 3, size=(n, n)).astype(float)
                p, _ = solve_min(c)
                bp, _ = brute_force_min_assignment(c)
                assert np.array_equal(p, bp), (c, p, bp)

    def test_degenerate_all_zero_returns_identity(self):
        p, total = solve_min(np.zeros((6, 6)))
        assert np.array_equal(p, np.arange(6))
        assert total == 0.0

    def test_adversarial_tie_structures(self):
        """Rounded-decimal costs manufacture mathematical ties whose float
        totals differ by an ulp depending on summation order.  The solver
        must stay optimal to its stated ~1e-10 tie resolution and agree with
        enumeration exactly whenever the optimum is unique at that scale."""
        rng = np.random.default_rng(26)
        for trial in range(600):
            n = int(rng.integers(1, 7))
            style = trial % 4
            if style == 0:
                c = np.round(rng.normal(size=(n, n)), 1)
            elif style == 1:
                c = rng.integers(0, 2, size=(n, n)).astype(float)
            elif style == 2:
                c = np.tile(rng.integers(0, 3, n).astype(float), (n, 1))
            else:
                c = np.outer(rng.integers(0, 3, n), np.ones(n))
            p, total = solve_min(c)
            oracle_p, oracle_total = brute_force_min_assignment(c)
            scale = max(1.0, float(np.abs(c).max()))
            slack = total - oracle_total
            assert 0.0 <= slack <= 1e-8 * scale, (c, slack)
            if slack > 0.0:
                # only a sub-resolution near-tie may explain a different
                # permutation, and ours must then be the lexicographically
                # smaller of the two
                assert tuple(p) < tuple(oracle_p), (c, p, oracle_p)
            else:
                rows = np.arange(n)
                assert float(np.sum(c[rows, p])) == oracle_total


def _zero_block(n, m, seed):
    """Zeros except an m x m normal block on scattered rows and columns:
    the value matrix of a layer with all but m of its n units pruned."""
    rng = np.random.default_rng(seed)
    c = np.zeros((n, n))
    rows = rng.choice(n, m, replace=False)
    cols = rng.choice(n, m, replace=False)
    c[np.ix_(rows, cols)] = rng.normal(size=(m, m))
    return c


def _planted(n, seed, d=16, sigma=1.0):
    """Value matrix A @ B.T of rank d, with B = A[plant] + noise: the row
    minimum of its negation leaves about half the rows free."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d))
    b = a[rng.permutation(n)] + sigma * rng.normal(size=(n, d))
    return a @ b.T, a, b


def _pruned_planted(n, seed):
    """``_planted``'s value matrix with 75% of the units dead on each side:
    a quarter of the rows and a quarter of the columns are nonzero."""
    _, a, b = _planted(n, seed)
    rng = np.random.default_rng(seed)
    a[rng.choice(n, 3 * n // 4, replace=False)] = 0.0
    b[rng.choice(n, 3 * n // 4, replace=False)] = 0.0
    return a @ b.T


def _forced_chain(k, m, seed):
    """0/1 costs, zero on a shuffled k-row lower triangle and on m rows that
    tie on every column.  With zero duals the first chain row has one tight
    column, and each column frozen leaves the next chain row one: trimming
    runs k rounds before the m tied rows remain."""
    n = k + m
    c = np.ones((n, n))
    c[np.tril_indices(k)] = 0.0
    c[k:] = 0.0
    rng = np.random.default_rng(seed)
    return c[rng.permutation(n)][:, rng.permutation(n)]


def _closed_blocks(b):
    """0/1 costs for which, with zero duals, row 0 starts on the last column
    and tries b candidate columns that fail before one succeeds.  Rows
    2k+1 and 2k+2 tie on columns 2k and 2k+1 alone, so handing row 0 column
    2k strands one of them; the last row ties on the last two columns, so
    column 2b is row 0's.  Returns the costs and that starting assignment."""
    n = 2 * b + 2
    c = np.ones((n, n))
    c[0, 0:2 * b:2] = c[0, -2:] = 0.0
    for k in range(b):
        c[2 * k + 1:2 * k + 3, 2 * k:2 * k + 2] = 0.0
    c[-1, -2:] = 0.0
    return c, np.array([n - 1, *range(n - 2), n - 2], dtype=np.int64)


def _closed_triples(b):
    """Like ``_closed_blocks``, with closed triples that are no blocks: rows
    3k+1, 3k+2 and 3k+3 tie on columns {3k, 3k+1}, {3k+1, 3k+2} and all
    three, so handing row 0 column 3k strands one of them, yet no two of
    them tie on the same columns.  Returns the costs and the starting
    assignment that gives row 0 the last column."""
    n = 3 * b + 2
    c = np.ones((n, n))
    c[0, 0:3 * b:3] = c[0, -2:] = 0.0
    for k in range(b):
        c[3 * k + 1, 3 * k:3 * k + 2] = c[3 * k + 2, 3 * k + 1:3 * k + 3] = 0.0
        c[3 * k + 3, 3 * k:3 * k + 3] = 0.0
    c[-1, -2:] = 0.0
    return c, np.array([n - 1, *range(n - 2), n - 2], dtype=np.int64)


def _two_blocks():
    """Two blocks of three rows each, at different constants, on scattered
    rows and columns: rows (5, 0, 3) cost 1 on columns (4, 6, 1), rows
    (2, 6, 1) cost 2 on columns (0, 5, 2), row 4 costs 0 on column 3, and
    every other entry costs 3.  The optimum is 9, reached by any order
    within each block."""
    c = np.full((7, 7), 3.0)
    c[np.ix_([5, 0, 3], [4, 6, 1])] = 1.0
    c[np.ix_([2, 6, 1], [0, 5, 2])] = 2.0
    c[4, 3] = 0.0
    return c


def _cyclic_ties(n):
    """0/1 costs where row i ties on the n - 1 columns from i on, cyclically:
    every row has the same number of tight columns but no two rows the same
    ones, so there is no block.  Returns the costs and the starting
    assignment that gives each row the column after its own."""
    c = np.ones((n, n))
    for i in range(n):
        c[i, (i + np.arange(n - 1)) % n] = 0.0
    return c, (np.arange(n) + 1) % n


def _shared_nearest(n, seed):
    """Every row's nearest column is one of n // 3, each row at its own
    distance, so rows collide there with strict gaps to the runner-up."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n, n)) + 5.0
    c[np.arange(n), rng.integers(0, max(1, n // 3), n)] = -rng.random(n)
    return c


def _price_war(n, seed):
    """Two cheap columns and a wall of ones: each row the start frees bids a
    cheap column's dual down by a gap of about 1e-4, so displacement chains
    would need thousands of steps to reach the wall."""
    c = np.ones((n, n))
    c[:, :2] = 1e-3 * np.random.default_rng(seed).random(c[:, :2].shape)
    return c


def _price_war_with_dead_rows(n, seed, kappa):
    """``_price_war`` with its first quarter of rows constant at ``kappa``:
    they are placed between the bids, and the start still stops at 4n steps."""
    c = _price_war(n, seed)
    c[:n // 4] = kappa
    return c


def _dead_rows(n, seed):
    """Normal costs with half of the rows constant, each at a normal draw of
    either sign: dead units whose bias products do not vanish."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n, n))
    rows = rng.choice(n, n // 2, replace=False)
    c[rows] = rng.normal(size=(rows.size, 1))
    return c


def _dead_rows_at_1e6(n, seed):
    """Half of the rows constant at 1e6 and the rest below 1e-12.  The start's
    bids lower duals by about 1e-13, so a constant row's reduced cost on a
    held column rounds back to 1e6 and ties the free columns."""
    rng = np.random.default_rng(seed)
    c = 1e-12 * rng.random((n, n))
    c[rng.choice(n, n // 2, replace=False)] = 1e6
    return c


def _dead_row_bids_last():
    """Row 1 is constant.  It ties at once, which lists the constant rows, and
    takes column 1; row 0 then displaces it while lowering column 1's dual to
    -1.  It comes back with only column 2 free and every other dual at -1, so
    it is a strict bid: it must lower column 2's dual to -1 as it takes it."""
    return np.array([[2.0, 2.0, 3.0], [0.0, 0.0, 0.0], [0.0, 2.0, 1.0]])


class _SolverCounters:
    """Counts, on ``taskport.lap``, the row-reduction queue's pops, the
    start's reduced-cost rows (one ``np.subtract`` per row the augmenting row
    reduction or the free rows' dual start evaluates) and how many of those
    rows have constant costs, the Dijkstra loop's per-row ``key`` allocations
    (one per searched row), the refinement's degree counts (one, plus one per
    trimming round and one per round that places blocks), the rows its block
    step places and its alternating-path searches, by freed column:
    ``paths[target]`` lists whether each search for it found a path."""

    def __init__(self, monkeypatch):
        self.pops = self.searched = self.degree_counts = self.block_rows = 0
        self.start_rows = self.constant_start_rows = 0
        self.paths = collections.defaultdict(list)
        counters = self
        augment = taskport.lap._augment
        tied_blocks = taskport.lap._tied_blocks

        def counting_augment(start_row, target, *args):
            path = augment(start_row, target, *args)
            counters.paths[target].append(path is not None)
            return path

        def counting_tied_blocks(*args):
            blocks = tied_blocks(*args)
            counters.block_rows += sum(len(rows) for rows in blocks)
            return blocks

        class CountingDeque(collections.deque):
            def popleft(self):
                counters.pops += 1
                return super().popleft()

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def full(self, shape, fill, *args, **kwargs):
                counters.searched += fill == np.inf
                return np.full(shape, fill, *args, **kwargs)

            def subtract(self, row, *args, **kwargs):
                counters.start_rows += 1
                counters.constant_start_rows += bool(row.max() == row.min())
                return np.subtract(row, *args, **kwargs)

            def count_nonzero(self, *args, **kwargs):
                counters.degree_counts += 1
                return np.count_nonzero(*args, **kwargs)

        monkeypatch.setattr(taskport.lap, "deque", CountingDeque)
        monkeypatch.setattr(taskport.lap, "np", CountingNumpy())
        monkeypatch.setattr(taskport.lap, "_augment", counting_augment)
        monkeypatch.setattr(taskport.lap, "_tied_blocks", counting_tied_blocks)


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


class TestTieHeavy:
    """Degenerate costs at widths in the thousands, each under a wall-time
    bound about ten times what it takes on a 2-core VM.  The bounds fail a
    Dijkstra step that scans matched columns before an equally near free
    one: that costs O(n) steps per row on tied costs (all-zero 2000 took
    minutes)."""

    @staticmethod
    def _random_binary(n, seed):
        return np.random.default_rng(seed).integers(0, 2, size=(n, n)).astype(float)

    def test_all_zero_2000_is_identity(self):
        (p, total), elapsed = _timed(solve_min, np.zeros((2000, 2000)))
        assert np.array_equal(p, np.arange(2000))
        assert total == 0.0
        assert elapsed < 5.0, elapsed

    def test_random_binary_1500(self):
        c = self._random_binary(1500, 1500)
        (p, total), elapsed = _timed(solve_min, c)
        assert np.array_equal(np.sort(p), np.arange(1500))
        assert total == float(np.sum(c[np.arange(1500), p]))
        assert elapsed < 3.0, elapsed

    def test_pruned_planted_3072(self):
        """75% of the units dead on each side of a 3072-wide planted matrix.
        The bound fails a refinement that searches once per candidate column
        (8.6-9.8 s); one search per walked row takes 0.3-0.4 s."""
        c = _pruned_planted(3072, 3072)
        (p, value), elapsed = _timed(solve_max, c)
        assert np.array_equal(np.sort(p), np.arange(3072))
        assert value == float(np.sum(c[np.arange(3072), p]))
        assert elapsed < 3.0, elapsed

    def test_pruned_laps_need_no_failed_search(self, monkeypatch):
        """Trimming and the block step leave the refinement of a pruned LAP
        no row to walk: the dead rows are placed as blocks, and no
        alternating-path search runs, let alone fails."""
        block = _zero_block(448, 112, 448)
        laps = _pruned_tie_laps(monkeypatch) + [block, -block]
        counters = _SolverCounters(monkeypatch)
        for c in laps:
            solve_min(c)
        failed = sum(found.count(False) for found in counters.paths.values())
        assert not counters.paths and failed == 0, dict(counters.paths)
        assert counters.block_rows >= 2 * 336

    def test_pruned_zero_block_448(self):
        """75% of 448 units dead: only a 112 x 112 block is nonzero."""
        c = _zero_block(448, 112, 448)
        (p, value), elapsed = _timed(solve_max, c)
        assert np.array_equal(np.sort(p), np.arange(448))
        assert value == float(np.sum(c[np.arange(448), p]))
        assert elapsed < 1.0, elapsed

    def test_long_augmenting_paths_need_no_recursion(self):
        """A 300x300 random 0/1 cost matrix drives the lexicographic
        refinement along alternating paths hundreds of rows long; the search
        must not consume interpreter stack per row on the path."""
        c = self._random_binary(300, 300)
        expected, expected_total = solve_min(c)
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            p, total = solve_min(c)
        finally:
            sys.setrecursionlimit(limit)
        assert np.array_equal(p, expected) and total == expected_total
        assert np.array_equal(np.sort(p), np.arange(300))

    def test_refinement_leaves_no_reference_cycles(self):
        """Every garbage object of a tie-heavy solve is freed by reference
        counting; nothing waits for the cycle collector."""
        c = self._random_binary(120, 7)
        gc.collect()
        gc.disable()
        try:
            solve_min(c)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0


class TestDuals:
    """The shortest-augmenting-path stage must hand the refinement optimal
    duals: reduced costs non-negative everywhere and zero on its own
    assignment (complementary slackness), which certifies optimality
    without an oracle."""

    @staticmethod
    def _instances():
        rng = np.random.default_rng(27)
        for n in (1, 2, 9, 40, 150):
            yield rng.normal(size=(n, n))
            yield rng.integers(0, 3, size=(n, n)).astype(float)
            yield 1e6 * rng.integers(0, 2, size=(n, n)).astype(float)
            yield _zero_block(n, max(1, n // 4), n)
            yield -_zero_block(n, max(1, n // 4), n + 1)
            # near a permutation: a permuted diagonal plus 1% noise
            yield -np.eye(n)[rng.permutation(n)] + 0.01 * rng.normal(size=(n, n))
            # rows share their minimum column, so the row-minimum start leaves
            # all but one row of each group for the search
            shared = rng.normal(size=(n, n)) + 5.0
            shared[np.arange(n), rng.integers(0, max(1, n // 3), n)] = -rng.random(n)
            yield shared
            yield _price_war(n, n)
            yield _price_war_with_dead_rows(n, n, 0.5)
            yield _dead_rows(n, n)
            yield -_dead_rows(n, n)
            yield _dead_rows_at_1e6(n, n)
        yield _dead_row_bids_last()

    @staticmethod
    def assert_optimal_duals(c, col_of_row, u, v):
        n = c.shape[0]
        assert np.array_equal(np.sort(col_of_row), np.arange(n))
        reduced = c - u[:, None] - v[None, :]
        tol = 1e-10 * max(1.0, float(np.abs(c).max()))
        assert reduced.min() >= -tol, (n, reduced.min())
        assert np.abs(reduced[np.arange(n), col_of_row]).max() <= tol

    def test_reduced_costs_feasible_and_tight(self):
        for c in self._instances():
            self.assert_optimal_duals(c, *_shortest_augmenting_paths(c))

    def test_row_reduction_leaves_few_rows_to_search(self, monkeypatch):
        """On a 256-wide planted matrix the augmenting row reduction matches
        more than half of the rows the row-minimum start leaves free."""
        values, _, _ = _planted(256, 3)
        c = -values
        left = c.shape[0] - np.unique(c.argmin(axis=1)).size
        counters = _SolverCounters(monkeypatch)
        _shortest_augmenting_paths(c)
        assert left > 64
        assert counters.searched < left / 2, (counters.searched, left)

    def test_tied_rows_take_free_columns_without_search(self, monkeypatch):
        """On all-zero costs every row but the first ties on every column;
        each takes its first free one in a single step and none is searched.
        Two of those steps form reduced costs: the first tie, which lists the
        constant rows, and the last row's, which finds one column free (a
        start without the constant-row step forms all 299)."""
        counters = _SolverCounters(monkeypatch)
        col_of_row, _, v = _shortest_augmenting_paths(np.zeros((300, 300)))
        assert np.array_equal(col_of_row, np.arange(300))
        assert counters.pops == 299 and counters.searched == 0
        assert counters.start_rows == 2
        assert not v.any()

    def test_dead_rows_form_no_reduced_costs(self, monkeypatch):
        """75% of 448 units dead: of the 336 constant rows of either sign of
        the value matrix, the start forms reduced costs for at most the first
        tie's and one that finds a single column free (364 and 363 without
        the constant-row step)."""
        block = _zero_block(448, 112, 448)
        for c in (block, -block):
            counters = _SolverCounters(monkeypatch)
            _shortest_augmenting_paths(c)
            assert counters.constant_start_rows <= 2, counters.constant_start_rows

    def test_dead_row_bids_on_the_last_free_column(self):
        """With one column free a constant row may be a strict bid, which
        lowers that column's dual: it does not take the column at dual 0."""
        c = _dead_row_bids_last()
        col_of_row, u, v = _shortest_augmenting_paths(c)
        assert col_of_row.tolist() == [1, 2, 0]
        assert v.tolist() == [-1.0, -1.0, -1.0]
        self.assert_optimal_duals(c, col_of_row, u, v)

    def test_dead_rows_in_a_price_war_keep_the_cap(self, monkeypatch):
        """A constant row placed without its reduced costs still pops one
        queue entry: with dead rows among the bids, the start stops after 4n
        steps and leaves rows to the search."""
        c = _price_war_with_dead_rows(100, 5, 0.5)
        counters = _SolverCounters(monkeypatch)
        _shortest_augmenting_paths(c)
        assert counters.pops == 400 and counters.searched > 0
        assert counters.constant_start_rows <= 2, counters.constant_start_rows

    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_totals_match_scipy(self, n):
        """Totals only: scipy's tie-break is not the lexicographic one."""
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(n)
        for c in (rng.normal(size=(n, n)),
                  rng.integers(0, 2, size=(n, n)).astype(float),
                  _zero_block(n, n // 4, n)):
            _, total = solve_min(c)
            rows, cols = optimize.linear_sum_assignment(c)
            assert total == pytest.approx(float(c[rows, cols].sum()), rel=1e-12, abs=1e-9)


def _captured_laps(monkeypatch, ws_a, ws_b, graph):
    """Every cost matrix the solver is handed during ``weight_match``."""
    captured = []
    real = taskport.lap._solve

    def recording(c):
        captured.append(c.copy())
        return real(c)

    monkeypatch.setattr(taskport.lap, "_solve", recording)
    weight_match(ws_a, ws_b, graph, seed=0)
    monkeypatch.undo()
    return captured


def _noisy_nonzero(ws, sigma, rng):
    """Gaussian noise of ``sigma`` times each tensor's std on its nonzero entries."""
    out = ws.copy()
    for name, arr in out.tensors.items():
        std = float(arr.std())
        if std > 0:
            out.tensors[name] = arr + rng.normal(0.0, sigma * std, arr.shape) * (arr != 0)
    return out


def _pruned_tie_laps(monkeypatch, arch=ArchSpec(1, 4, 16, 96, 6, 3)):
    """The LAPs of a tie-mode match with 75% of the hidden units dead, so
    the hidden LAPs are tie-heavy."""
    rng = np.random.default_rng(32)
    ws = init_random(arch, 32)
    dead = rng.choice(arch.mlp_hidden, size=3 * arch.mlp_hidden // 4, replace=False)
    ws.tensors["block.0.mlp.fc1.weight"][dead, :] = 0.0
    ws.tensors["block.0.mlp.fc1.bias"][dead] = 0.0
    ws.tensors["block.0.mlp.fc2.weight"][:, dead] = 0.0
    graph = build_coupling_graph(arch, "tie", pin_embedding=False)
    ws_b = _noisy_nonzero(apply_assignment(ws, graph, graph.random_assignment(rng)), 0.01, rng)
    return _captured_laps(monkeypatch, ws, ws_b, graph)


class TestAgainstReference:
    """Every LAP of a real match gives what the pinned earlier solver gives:
    the same permutation and the same total, bit for bit."""

    @staticmethod
    def _check(captured):
        assert captured
        for c in captured:
            p, total = solve_min(c)
            ref_p, ref_total = reference_solve_min(c)
            assert np.array_equal(p, ref_p)
            assert total == ref_total

    def test_tie_heavy_instances_beyond_enumeration(self):
        rng = np.random.default_rng(33)
        instances = []
        for n in (20, 60, 150):
            instances += [
                rng.integers(0, 2, size=(n, n)).astype(float),
                rng.integers(0, 3, size=(n, n)).astype(float),
                _zero_block(n, n // 4, n),
                np.tile(rng.integers(0, 3, n).astype(float), (n, 1)),
            ]
        self._check(instances)

    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_dense_planted_plus_noise(self, n):
        values, a, b = _planted(n, n)
        p, value = solve_max(values)
        ref_p, ref_total = reference_solve_min(-values)
        assert np.array_equal(p, ref_p)
        assert value == -ref_total
        # and the squared distances between the rows of A and B, minimised
        self._check([np.add.outer((a * a).sum(1), (b * b).sum(1)) - 2.0 * a @ b.T])

    def test_rows_sharing_nearest_column_with_strict_gaps(self):
        self._check([_shared_nearest(n, n) for n in (64, 256, 512)])

    def test_displacement_chains_past_the_cap(self, monkeypatch):
        """The start stops after 4n steps with rows still free; the search
        finishes them, with optimal duals and the reference answer."""
        n = 100
        c = _price_war(n, 5)
        counters = _SolverCounters(monkeypatch)
        col_of_row, u, v = _shortest_augmenting_paths(c)
        assert counters.pops == 4 * n and counters.searched > 0
        TestDuals.assert_optimal_duals(c, col_of_row, u, v)
        self._check([c])

    def test_planted_compose_match(self, monkeypatch, toy_arch):
        rng = np.random.default_rng(31)
        ws = init_random(toy_arch, 31)
        graph = build_coupling_graph(toy_arch, "compose")
        ws_b = _noisy_nonzero(apply_assignment(ws, graph, graph.random_assignment(rng)), 0.01, rng)
        self._check(_captured_laps(monkeypatch, ws, ws_b, graph))

    def test_pruned_tie_match(self, monkeypatch):
        captured = _pruned_tie_laps(monkeypatch)
        assert any(c.shape[0] == 96 for c in captured)
        self._check(captured)

    def test_pruned_mlp_shaped_match(self, monkeypatch):
        """A match at the pruned-mlp benchmark's shape: each of its 448-wide
        hidden LAPs places its 336 dead rows as one block, and no LAP of the
        match searches an alternating path."""
        captured = _pruned_tie_laps(monkeypatch, ArchSpec(1, 8, 64, 448, 16, 4))
        counters = _SolverCounters(monkeypatch)
        self._check(captured)
        assert sum(c.shape[0] == 448 for c in captured) == 3
        assert counters.block_rows == 3 * 336 and not counters.paths

    @staticmethod
    def _refine(monkeypatch, c, col_of_row=None):
        """The refinement of ``c``, checked against the reference refinement,
        the whole solver, and brute force where n <= 7; returns its counters.
        Given ``col_of_row``, ``c`` is a 0/1 matrix whose zeros hold that
        perfect matching, and the duals are zero, so the tight edges are the
        zeros; the cost bound of a 0/1 matrix is 1.  Otherwise it refines the
        solver's own start and duals."""
        if col_of_row is None:
            col_of_row, u, v = _shortest_augmenting_paths(c)
            scale = max(1.0, float(np.abs(c).max()))
        else:
            u = v = np.zeros(c.shape[0])
            scale = 1.0
        counters = _SolverCounters(monkeypatch)
        p = _lex_smallest_on_tight(c, col_of_row, u, v, scale)
        monkeypatch.undo()
        assert np.array_equal(p, reference_lex_smallest_on_tight(c, col_of_row, u, v))
        assert np.array_equal(p, solve_min(c)[0])
        if c.shape[0] <= 7:
            assert np.array_equal(p, brute_force_min_assignment(c)[0])
        return counters

    @pytest.mark.parametrize("k, m, seed", [(5, 2, 0), (4, 3, 1), (30, 10, 2)])
    def test_trimming_along_forced_chains(self, monkeypatch, k, m, seed):
        """One trimming round per chain row; then the m tied rows are left on
        the same m columns, a block, placed in one more round with no path
        search."""
        c = _forced_chain(k, m, seed)
        counters = self._refine(monkeypatch, c, _shortest_augmenting_paths(c)[0])
        assert counters.degree_counts == 1 + k + 1
        assert counters.block_rows == m and not counters.paths
        self._check([c, -c])

    @pytest.mark.parametrize("b", [2, 5])
    def test_failing_candidates_before_one_succeeds(self, monkeypatch, b):
        """Row 0 makes one search, which backs out of each closed triple and
        then finds the path that frees column 3b."""
        c, start = _closed_triples(b)
        counters = self._refine(monkeypatch, c, start)
        assert counters.paths[start[0]] == [True]
        assert counters.block_rows == 0
        self._check([c, -c])

    @pytest.mark.parametrize("b", [2, 5])
    def test_blocks_on_columns_tight_outside_them(self, monkeypatch, b):
        """Each closed pair of ``_closed_blocks`` is a block, although row 0
        ties on one of its columns.  Placing the pairs leaves row 0 and the
        last row tied on the last two columns alone, a block found only in
        the next round: every row is placed and nothing is searched."""
        c, start = _closed_blocks(b)
        counters = self._refine(monkeypatch, c, start)
        assert counters.block_rows == 2 * b + 2 and not counters.paths
        self._check([c, -c])

    def test_two_blocks_of_one_size(self, monkeypatch):
        """Two blocks of three rows, on rows and columns neither contiguous
        nor sorted: each gives its rows, ascending, its columns, ascending."""
        c = _two_blocks()
        counters = self._refine(monkeypatch, c)
        assert counters.block_rows == 6 and not counters.paths
        assert solve_min(c)[0].tolist() == [1, 0, 2, 4, 3, 6, 5]
        self._check([c, -c])

    @pytest.mark.parametrize("n", [4, 7])
    def test_equal_degrees_on_unequal_columns_are_walked(self, monkeypatch, n):
        """n rows with n - 1 tight columns each, no two on the same ones: no
        block, so the refinement walks them."""
        c, start = _cyclic_ties(n)
        counters = self._refine(monkeypatch, c, start)
        assert counters.block_rows == 0 and counters.paths
        self._check([c, -c])

    @pytest.mark.parametrize("n, m, seed", [(7, 2, 1), (48, 12, 3), (448, 112, 0)])
    def test_block_after_trimming(self, monkeypatch, n, m, seed):
        """Pruned-mlp's first-sweep shape: the n - m dead rows of a zero block
        start with more tight columns than there are dead rows, and become one
        block only once trimming has frozen the live rows' columns."""
        block = _zero_block(n, m, seed)
        for c in (block, -block):
            _, u, v = _shortest_augmenting_paths(c)
            tight = c - u[:, None] - v <= taskport.lap._TIGHT_RTOL * max(1.0, float(np.abs(c).max()))
            assert tight[~c.any(axis=1)].sum(axis=1).min() > n - m
            counters = self._refine(monkeypatch, c)
            assert counters.block_rows == n - m and not counters.paths
        self._check([block, -block])

    def test_repeated_constant_rows_property(self, monkeypatch):
        """Small 0/1/2 matrices with some rows replaced by a constant row, so
        that constant rows repeat and tie: the refinement agrees with the
        reference, the solver and brute force."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def matrices(n):
            entries = st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n)
            constants = st.lists(st.integers(-1, 2), min_size=n, max_size=n)  # -1 keeps the row
            return st.tuples(st.just(n), entries, constants)

        placed = []

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.integers(1, 7).flatmap(matrices))
        def check(case):
            n, entries, constants = case
            c = np.array(entries, dtype=float).reshape(n, n)
            for i, k in enumerate(constants):
                if k >= 0:
                    c[i] = k
            placed.append(self._refine(monkeypatch, c).block_rows)

        check()
        assert sum(map(bool, placed)) > len(placed) // 2, placed


class TestSolveMax:
    def test_identity_value_matrix(self):
        p, value = solve_max(np.eye(4))
        assert np.array_equal(p, np.arange(4))
        assert value == 4.0

    def test_definitional_negation(self):
        rng = np.random.default_rng(22)
        c = rng.normal(size=(5, 5))
        pmax, vmax = solve_max(c)
        pmin, vmin = solve_min(-c)
        assert np.array_equal(pmax, pmin)
        assert vmax == -vmin

    def test_random_vs_enumeration(self):
        rng = np.random.default_rng(23)
        rows = np.arange(4)
        for _ in range(50):
            c = rng.normal(size=(4, 4))
            p, value = solve_max(c)
            best = max(
                float(np.sum(c[rows, perm]))
                for perm in __import__("itertools").permutations(range(4))
            )
            assert value == pytest.approx(best, abs=0)


class TestInvariances:
    def test_row_col_constant_shift(self):
        """Adding a constant to a row or column shifts the cost but never
        the argmin."""
        rng = np.random.default_rng(24)
        for _ in range(30):
            c = rng.normal(size=(6, 6))
            p0, t0 = solve_min(c)
            shifted = c.copy()
            shifted[2, :] += 4.0
            shifted[:, 5] += 0.5
            p1, t1 = solve_min(shifted)
            assert np.array_equal(p0, p1)
            assert t1 == pytest.approx(t0 + 4.5)

    def test_rejects_non_finite(self):
        c = np.zeros((3, 3))
        c[1, 1] = np.inf
        with pytest.raises(ValueError):
            solve_min(c)

    @pytest.mark.parametrize("c", [np.array([[1e308, -1e308], [-1e308, 1e308]]),
                                   np.full((3, 3), 1.7e308),
                                   np.full((1000, 1000), 1e306)],
                             ids=["opposed-1e308", "full-1.7e308", "n1000-1e306"])
    def test_rejects_magnitudes_that_overflow(self, c):
        """Finite costs whose total or duals would leave float64's range are
        refused up front, with no overflow warning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too large"):
                solve_min(c)
            with pytest.raises(ValueError, match="too large"):
                solve_max(c)

    def test_float32_range_value_matrices_still_solve(self):
        """Weights at float32's limit give value entries near 1e80, far
        below the refusal bound: they solve as before, without warnings."""
        rng = np.random.default_rng(28)
        a = rng.uniform(-3e38, 3e38, size=(64, 1024)).astype(np.float32).astype(np.float64)
        plant = rng.permutation(64)
        values = a @ a[plant].T
        assert np.abs(values).max() > 1e79
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, value = solve_max(values)
        ref_p, ref_total = reference_solve_min(-values)
        assert np.array_equal(p, ref_p) and value == -ref_total
        assert np.array_equal(p, np.argsort(plant))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            solve_min(np.zeros((2, 3)))

    def test_cubic_ish_scaling(self):
        """Soft check: doubling n from 128 to 256 costs at most ~10x."""
        rng = np.random.default_rng(25)
        timings = {}
        for n in (128, 256):
            c = rng.normal(size=(n, n))
            solve_min(rng.normal(size=(64, 64)))  # warm caches
            start = time.perf_counter()
            solve_min(c)
            timings[n] = time.perf_counter() - start
        assert timings[256] <= 10.0 * max(timings[128], 1e-3), timings


def _planted_compose_laps(monkeypatch, arch):
    """The LAPs of a compose-mode match of a random model against a planted,
    1%-noisy copy of itself."""
    rng = np.random.default_rng(31)
    ws = init_random(arch, 31)
    graph = build_coupling_graph(arch, "compose")
    ws_b = _noisy_nonzero(apply_assignment(ws, graph, graph.random_assignment(rng)), 0.01, rng)
    return _captured_laps(monkeypatch, ws, ws_b, graph)


class TestSearchAgainstPinned:
    """The search returns what the pinned copy of the search with the same
    start returns: the same assignment and the same duals, bit for bit, and
    it does the same work to get there."""

    @staticmethod
    def _instances():
        rng = np.random.default_rng(34)
        for n in (1, 2, 7, 32, 100, 256):
            yield rng.normal(size=(n, n))
            yield rng.integers(0, 3, size=(n, n)).astype(float)
            yield np.zeros((n, n))
            yield _zero_block(n, max(1, n // 4), n)
            yield -_zero_block(n, max(1, n // 4), n + 1)
            yield -_planted(n, n)[0]
            yield _price_war(n, n)
            yield _price_war_with_dead_rows(n, n, 0.5)
            yield _price_war_with_dead_rows(n, n, -1.0)
            yield _dead_rows(n, n)
            yield -_dead_rows(n, n)
            yield _dead_rows_at_1e6(n, n)
        yield _dead_row_bids_last()

    @staticmethod
    def _check(laps):
        assert laps
        for c in laps:
            got = _shortest_augmenting_paths(c)
            want = reference_row_reduction_shortest_augmenting_paths(c)
            for a, b in zip(got, want):
                assert np.array_equal(a, b), c.shape

    def test_seeded_tied_and_degenerate_instances(self):
        self._check(list(self._instances()))

    def test_planted_compose_match(self, monkeypatch, toy_arch):
        self._check(_planted_compose_laps(monkeypatch, toy_arch))

    def test_pruned_tie_match(self, monkeypatch):
        self._check(_pruned_tie_laps(monkeypatch))

    # (start pops, searched rows, refinement path searches, rows placed as
    # blocks) summed over the LAPs of each match.  A solver that does less
    # work, rather than the same work more cheaply, moves one of them.
    WORK = {"planted-compose": (1930, 12, 0, 0), "pruned-tie": (447, 0, 0, 216)}

    @pytest.mark.parametrize("match", sorted(WORK))
    def test_work_is_pinned(self, monkeypatch, toy_arch, match):
        if match == "planted-compose":
            laps = _planted_compose_laps(monkeypatch, toy_arch)
        else:
            laps = _pruned_tie_laps(monkeypatch)
        counters = _SolverCounters(monkeypatch)
        for c in laps:
            solve_min(c)
        searches = sum(len(found) for found in counters.paths.values())
        assert (counters.pops, counters.searched, searches, counters.block_rows) == self.WORK[match]
