"""Vectorised columnar execution of compiled physical plans.

:class:`VectorEngine` is the library's third planner-seam backend: it
executes the *same* physical operator trees produced by
:func:`repro.core.plan.compile_plan` — no parallel interpreter — but over
the array representation of the store (:class:`~repro.triplestore.columnar.ColumnarStore`)
instead of Python sets of tuples:

* intermediate relations are sorted unique ``int64`` *packed-key* arrays
  (``(s·n + p)·n + o``), so difference and intersection are one binary
  search of one operand in the other, union is concatenate + sort +
  adjacent-duplicate mask (:func:`~repro.triplestore.columnar.sorted_unique`),
  and two *disjoint* arrays merge with one binary search and a scatter;
* hash joins lower to one build-then-probe kernel over *access paths*
  (:class:`~repro.triplestore.columnar.AccessPath`): the build operand's
  rows grouped by the composite key of the cross equalities (θ keys
  compare object codes, η keys dictionary-encoded ρ-codes).  Where the
  planner chose the store's index (``via store-index``) the path is the
  base relation's own, cached on the store and shared by its versions —
  the join neither unpacks nor sorts the relation;
* the kernel's memory rule is **scratch O(block), result O(output)**:
  the probe operand is consumed :data:`_ROW_BLOCK` rows at a time and
  each block's matches :data:`_PAIR_BLOCK` pairs at a time, every
  operand — base relation or intermediate — travels as its packed keys
  and is unpacked per block and per column the join actually reads, and
  every block is reduced to sorted unique output keys before the next
  one starts — a join's temporaries do not grow with the pairs it
  matches;
* constant lookups (:class:`~repro.core.plan.IndexLookupOp`) are a slice
  of the relation's path, the residual evaluated on that slice; other
  selections evaluate conditions as boolean masks over the columns they
  name, a row block at a time;
* general Kleene stars run the same semi-naive fixpoint as
  :class:`~repro.core.plan.StarOp`: the constant operand is indexed
  once, each round probes it with the frontier and merges the (sorted,
  disjoint) frontier into the accumulator without re-sorting it;
* reach-shaped stars (:class:`~repro.core.plan.ReachStarOp`) use
  semi-naive *boolean matrix* iteration over the ``|O|×|O|`` adjacency
  matrix — the array representation the paper's Section 5 cost model is
  stated over — when :func:`use_dense_reach` says the store being run
  is small and dense enough, and the semi-naive join fixpoint
  otherwise.  The plan carries no verdict: it is the same plan every
  backend runs, and the store it meets decides.

Cross-backend agreement with the set executors (and the NaiveEngine
oracle) is enforced by the randomized differential harness in
``tests/diffcheck.py``.
"""

from __future__ import annotations

import mmap
import threading
import weakref
from functools import partial
from typing import Callable, Iterator, Optional

import numpy as np

from repro.errors import EvaluationBudgetError, MatrixTooLargeError, UnboundParameterError
from repro.core.conditions import Cond
from repro.core.expressions import (
    LEFT,
    REACH_COND_ANY,
    REACH_COND_SAME_LABEL,
    REACH_OUT,
    RIGHT,
)
from repro.core.engines.base import PlanEngine, TripleSet
from repro.core.plan import (
    DiffOp,
    EmptyOp,
    FilterOp,
    HashJoinOp,
    IndexLookupOp,
    IntersectOp,
    JoinSpec,
    PlanOp,
    ReachStarOp,
    ScanOp,
    StarOp,
    UnionOp,
    UniverseOp,
)
from repro.core.positions import Const, Param
from repro.triplestore.columnar import AccessPath, ColumnarStore, KeyPart, sorted_unique
from repro.triplestore.model import Triplestore

__all__ = ["MappedArrays", "VectorEngine", "VectorExecContext"]

_EMPTY = np.empty(0, dtype=np.int64)

#: A kernel array of at least this many bytes is an anonymous mapping of
#: its own (:class:`MappedArrays`); anything smaller stays on malloc.
_MAP_MIN = 1 << 20

#: An accumulator reserves this many times the keys it is grown to; the
#: untouched pages of a mapping are not resident.
_HEADROOM = 4


class MappedArrays:
    """The large int64 arrays of one execution context — results, held
    join output, folds, operand key columns, accumulators — each its own
    anonymous mapping, as :func:`~repro.storage.segments.decode_keys`
    inflates into.  A mapping goes back to the OS when its last view
    dies and malloc never sees it, so it neither raises glibc's dynamic
    mmap threshold nor leaves freed heap resident; block temporaries stay
    on malloc.  ``live`` counts the bytes the live mappings hold (not the
    headroom reserved past them), ``high_water`` the most ever held.
    """

    __slots__ = ("live", "high_water", "_held", "_lock")

    def __init__(self) -> None:
        self.live = self.high_water = 0
        self._held: dict[int, int] = {}
        # A mapping's finalizer counts it on whichever thread drops its
        # last view, which need not be the thread that holds the context.
        self._lock = threading.RLock()

    def empty(self, count: int, capacity: Optional[int] = None) -> np.ndarray:
        """An array of ``capacity`` (default ``count``) items, the first
        ``count`` of them held."""
        capacity = count if capacity is None else capacity
        if 8 * capacity < _MAP_MIN:
            return np.empty(capacity, dtype=np.int64)
        buf = mmap.mmap(-1, 8 * capacity)
        weakref.finalize(buf, self._count, id(buf), 0)
        self._count(id(buf), 8 * count)
        return np.frombuffer(buf, dtype=np.int64)

    def hold(self, arr: np.ndarray, count: int) -> None:
        """``arr`` (one of :meth:`empty`'s) holds ``count`` items; pages past them go back."""
        if isinstance(arr.base, memoryview):
            buf, start = arr.base.obj, -(-8 * count // mmap.PAGESIZE) * mmap.PAGESIZE
            if start < min(len(buf), self._held.get(id(buf), 0)):
                buf.madvise(mmap.MADV_DONTNEED, start, len(buf) - start)
            self._count(id(buf), 8 * count)

    def settle(self, arr: np.ndarray, count: int) -> np.ndarray:
        """``arr[:count]``, held; copied from a malloc'd ``arr`` more than half unused."""
        self.hold(arr, count)
        if 2 * count < len(arr) and not isinstance(arr.base, memoryview):
            return arr[:count].copy()
        return arr[:count]

    def _count(self, key: int, nbytes: int) -> None:
        with self._lock:
            self.live += nbytes - self._held.pop(key, 0)
            if nbytes:
                self._held[key] = nbytes
            self.high_water = max(self.high_water, self.live)


# --------------------------------------------------------------------- #
# Sorted-array set algebra
#
# Every intermediate result is a sorted unique key array (see
# columnar.sorted_unique), so the set operations are plain merges —
# np.union1d/setdiff1d are avoided for the same hash-table reason.
# --------------------------------------------------------------------- #


def _member_mask(keys: np.ndarray, within: np.ndarray) -> np.ndarray:
    """Boolean mask: which of ``keys`` occur in sorted-unique ``within``."""
    if len(within) == 0:
        return np.zeros(len(keys), dtype=bool)
    idx = np.searchsorted(within, keys)
    return within[np.minimum(idx, len(within) - 1, out=idx)] == keys


def _where(keys: np.ndarray, mask_of: Callable, mem: MappedArrays) -> np.ndarray:
    """The ``keys`` that ``mask_of`` keeps, asked a row block at a time."""
    out, kept = mem.empty(0, len(keys)), 0
    for lo in range(0, len(keys), _ROW_BLOCK):
        block = keys[lo : lo + _ROW_BLOCK]
        block = block[mask_of(block)]
        out[kept : kept + len(block)] = block
        kept += len(block)
    return mem.settle(out, kept)


def _fold(parts: list[np.ndarray], mem: MappedArrays) -> np.ndarray:
    """``sorted_unique`` of the parts concatenated — once that is large,
    sorted and rid of its duplicates in place, a row block at a time."""
    total = sum(map(len, parts))
    if 8 * total < _MAP_MIN:
        return sorted_unique(np.concatenate(parts) if len(parts) > 1 else parts[0])
    out, kept, last = mem.empty(total), 0, None
    np.concatenate(parts, out=out)
    out.sort()
    for lo in range(0, len(out), _ROW_BLOCK):
        block = out[lo : lo + _ROW_BLOCK]
        keep = np.empty(len(block), dtype=bool)
        keep[0] = block[0] != last
        np.not_equal(block[1:], block[:-1], out=keep[1:])
        last, block = block[-1], block[keep]
        out[kept : kept + len(block)] = block
        kept += len(block)
    return mem.settle(out, kept)


def _union_sorted(a: np.ndarray, b: np.ndarray, mem: MappedArrays) -> np.ndarray:
    if len(a) == 0:
        return b
    if len(b) == 0:
        return a
    return _fold([a, b], mem)


class _Accumulator:
    """A fixpoint's sorted unique keys at the front of one array reserved
    with :data:`_HEADROOM` times the keys it was last grown for: a round
    merges its frontier in where they lie, and only outgrowing the
    reservation moves them to a second array."""

    __slots__ = ("mem", "buf", "size")

    def __init__(self, keys: np.ndarray, mem: MappedArrays) -> None:
        self.mem, self.buf, self.size = mem, _EMPTY, 0
        self.merge(keys)

    @property
    def keys(self) -> np.ndarray:
        return self.buf[: self.size]

    def merge(self, fresh: np.ndarray) -> None:
        """Merge sorted unique keys none of which it holds."""
        j, size = self.size, self.size + len(fresh)
        if size > len(self.buf):
            buf = self.mem.empty(j, _HEADROOM * size)
            buf[:j] = self.buf[:j]
            self.buf = buf
        self.buf[j:size] = fresh
        # Two sorted runs: the stable sort (timsort) finds them and merges
        # them, from the back through a buffer the size of the frontier.
        self.buf[:size].sort(kind="stable")
        self.size = size
        self.mem.hold(self.buf, size)


def _absorb(acc: _Accumulator, produced: np.ndarray) -> np.ndarray:
    """One fixpoint round's bookkeeping: grow ``acc`` by ``produced −
    acc`` and return that (the frontier), found a row block at a time by
    binary search; taken in order it is sorted and disjoint from ``acc``,
    so it is merged in, not sorted in."""
    held = acc.keys
    frontier = _where(produced, lambda block: ~_member_mask(block, held), acc.mem)
    del held
    acc.merge(frontier)
    return frontier


def _diff_sorted(a: np.ndarray, b: np.ndarray, mem: MappedArrays) -> np.ndarray:
    if len(a) == 0 or len(b) == 0:
        return a
    return _where(a, lambda block: ~_member_mask(block, b), mem)


def _intersect_sorted(a: np.ndarray, b: np.ndarray, mem: MappedArrays) -> np.ndarray:
    if len(a) == 0 or len(b) == 0:
        return _EMPTY
    return _where(a, partial(_member_mask, within=b), mem)


# --------------------------------------------------------------------- #
# Operands and blocks
#
# A join operand is a packed-key array — a base relation's stored keys or
# an intermediate result alike.  Packed keys are never unpacked whole: the
# kernel walks an operand a row block at a time and reads the columns it
# needs.
# --------------------------------------------------------------------- #

#: Probe rows per block.  2¹⁴ int64 are 128 KiB: numpy's per-call cost is
#: noise against a kernel that long (timings are flat from this size up),
#: a block's dozen temporaries stay inside the L2 cache, and the
#: allocator sees the same sizes again.
_ROW_BLOCK = 1 << 14

#: Matched pairs per block — twice the row block, so a key-to-key join
#: (about one match per probe row) still emits one pair block per row block.
_PAIR_BLOCK = 1 << 15


def _gather(
    cs: ColumnarStore, rows: np.ndarray, at, positions: list[int]
) -> dict[int, np.ndarray]:
    """Code columns of the operand rows ``at`` (an index array or a
    slice), keyed by the join positions that read them (0..2 on the left
    operand, 3..5 on the right)."""
    picked = rows[at]
    return {pos: cs.column(picked, pos % 3) for pos in positions}


def _operand_path(
    cs: ColumnarStore, rows: np.ndarray, key: tuple[KeyPart, ...], presorted: bool, mem: MappedArrays
) -> AccessPath:
    """The access path of a join operand, built for this join — the key
    column of a large operand, when the path needs one, filled a row
    block at a time."""

    def column() -> np.ndarray:
        out = mem.empty(len(rows))
        for lo in range(0, len(rows), _ROW_BLOCK):
            out[lo : lo + _ROW_BLOCK] = cs.key_column(rows[lo : lo + _ROW_BLOCK], key)
        return out

    return cs.build_path(rows, key, presorted, column if len(rows) > _ROW_BLOCK else None)


# --------------------------------------------------------------------- #
# Vectorised condition evaluation
# --------------------------------------------------------------------- #


def _local_mask(cs: ColumnarStore, conds: tuple[Cond, ...], rows: np.ndarray) -> np.ndarray:
    """Boolean mask of one operand's rows satisfying all ``conds``.

    Positions are taken modulo 3, so the same helper serves selection
    conditions (0..2) and right-local join conditions (3..5).
    """
    mask = np.ones(len(rows), dtype=bool)
    for lo in range(0, len(rows), _ROW_BLOCK):
        block = rows[lo : lo + _ROW_BLOCK]
        keep = mask[lo : lo + _ROW_BLOCK]
        for cond in conds:
            if isinstance(cond.left, Const) and isinstance(cond.right, Const):
                # Constant-only: a static boolean over raw values (the code
                # sentinel for unknown constants must not make them compare
                # equal to each other).
                if not cond.evaluate((None,) * 3, None, lambda o: o):
                    keep[:] = False
                continue
            lv = _resolve_local(cs, cond, cond.left, block)
            rv = _resolve_local(cs, cond, cond.right, block)
            keep &= (lv == rv) if cond.is_equality else (lv != rv)
    return mask


def _resolve_local(cs: ColumnarStore, cond: Cond, term, rows: np.ndarray):
    """One term of a single-operand condition as a code column or scalar."""
    if isinstance(term, Const):
        # θ constants encode as object codes, η constants as data-value
        # codes; unknown constants get the -1 sentinel, which no stored
        # code equals (codes are non-negative).
        return cs.dv_code_of(term.value) if cond.on_data else cs.code_of(term.value)
    if isinstance(term, Param):
        raise UnboundParameterError(term.name)
    col = cs.column(rows, term.index % 3)
    return cs.dv_codes[col] if cond.on_data else col


def _pair_mask(
    cs: ColumnarStore, conds: tuple[Cond, ...], cols: dict[int, np.ndarray]
) -> np.ndarray:
    """Mask over one block of matched pairs (the pair conditions), from
    the columns gathered for the block (keyed by join position)."""
    mask = None
    for cond in conds:
        lv = _resolve_pair(cs, cond, cond.left, cols)
        rv = _resolve_pair(cs, cond, cond.right, cols)
        hit = (lv == rv) if cond.is_equality else (lv != rv)
        mask = hit if mask is None else mask & hit
    return mask


def _resolve_pair(cs: ColumnarStore, cond: Cond, term, cols: dict[int, np.ndarray]):
    if isinstance(term, Const):  # pragma: no cover — cross conds are Pos-Pos
        return cs.dv_code_of(term.value) if cond.on_data else cs.code_of(term.value)
    col = cols[term.index]
    return cs.dv_codes[col] if cond.on_data else col


# --------------------------------------------------------------------- #
# The join kernel: build an access path on one operand, probe it with the
# other a block at a time
# --------------------------------------------------------------------- #


#: Composite join keys fold one radix per cross equality; equalities whose
#: radix would push the key range past this stay out of the key and are
#: checked on the matched pairs instead (the fold must not wrap int64).
_MAX_COMPOSITE_KEY = 2**62


def _join_key(
    cs: ColumnarStore, spec: JoinSpec
) -> tuple[tuple[KeyPart, ...], tuple[KeyPart, ...], tuple[Cond, ...]]:
    """The spec's equi-join key on each operand, and the pair conditions.

    One key part per cross equality — θ compares object codes, η the
    dictionary-encoded ρ-codes — as far as the composite fits int64.
    The pair conditions are the cross inequalities plus any equality the
    key could not take.
    """
    lkey: list[KeyPart] = []
    rkey: list[KeyPart] = []
    pairwise = list(spec.cross_neq)
    key_range = 1
    for cond in spec.cross_eq:
        radix = max(cs.n_data_values, 1) if cond.on_data else cs.radix
        if key_range > _MAX_COMPOSITE_KEY // radix:
            pairwise.append(cond)
            continue
        key_range *= radix
        lkey.append((cond.left.index, cond.on_data))
        rkey.append((cond.right.index - 3, cond.on_data))
    return tuple(lkey), tuple(rkey), tuple(pairwise)


def _pair_blocks(
    cs: ColumnarStore,
    path: Optional[AccessPath],
    key: tuple[KeyPart, ...],
    probe: np.ndarray,
    n_build: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Matched ``(probe rows, build rows)`` index pairs, block by block.

    Every build row whose key equals the probe row's ``key`` — every
    build row at all without a ``path`` (the cartesian product the
    algebra demands of a join with no cross equality).  The probe operand
    is read :data:`_ROW_BLOCK` rows at a time: each block finds its
    rows' match ranges in the path, then enumerates the matches
    :data:`_PAIR_BLOCK` at a time.  No array here is longer than a block,
    and across the pair blocks it yields a row block holds two or three:
    each row's first slot and its pair count, or — when its pairs fill
    more than one pair block — where they start and end.
    """
    for r0 in range(0, len(probe), _ROW_BLOCK):
        block = probe[r0 : r0 + _ROW_BLOCK]
        rows = None  # probe row numbers in match-range order; None = as they lie
        if path is None:
            lo = np.zeros(len(block), dtype=np.int64)
            counts = np.full(len(block), n_build, dtype=np.int64)
        elif path.offsets is not None:
            code = cs.column(block, key[0][0])
            lo, hi = path.offsets[code], path.offsets[code + 1]
            counts = (hi - lo).astype(np.int64)
            del code, hi
        else:
            # Sorted needles make both binary searches walk the key column
            # front to back; a prefix key is searched in the keys, scaled.
            needles = cs.key_column(block, key)
            rows = np.argsort(needles)
            needles = needles[rows]
            needles *= path.scale
            lo = np.searchsorted(path.keys, needles)
            needles += path.scale
            counts = np.searchsorted(path.keys, needles) - lo
            del needles
        if rows is not None and r0:
            rows += r0
        ends = np.cumsum(counts)
        total = int(ends[-1])
        # Pair t (numbered through the block) of the row with range
        # [lo, hi) is the build path's slot lo + (t - starts), where
        # starts = ends - counts.
        slot0 = np.subtract(lo, ends, dtype=np.int64)
        slot0 += counts
        del lo
        if total <= _PAIR_BLOCK:
            del ends  # the usual case: one pair block holds them all
        else:
            # The row block splits: the rows whose pairs [starts, ends)
            # overlap [p0, p1), each clipped to it, make a pair block; a
            # row with more matches than one pair block holds is spread
            # over several.
            starts = ends - counts
            del counts
        for p0 in range(0, total, _PAIR_BLOCK):
            p1 = min(p0 + _PAIR_BLOCK, total)
            if total <= _PAIR_BLOCK:
                ra, rb, span = 0, len(block), counts
            else:
                ra = int(np.searchsorted(ends, p0, side="right"))
                rb = int(np.searchsorted(starts, p1, side="left"))
                span = np.minimum(ends[ra:rb], p1) - np.maximum(starts[ra:rb], p0)
            at = np.arange(p0, p1)
            at += np.repeat(slot0[ra:rb], span)
            if path is not None and path.perm is not None:
                at = path.perm[at].astype(np.intp)
            # Probe row numbers, as they lie unless sorted for the search.
            probe_rows = np.arange(r0 + ra, r0 + rb) if rows is None else rows[ra:rb]
            yield np.repeat(probe_rows, span), at


def _merge_join(
    cs: ColumnarStore,
    spec: JoinSpec,
    lrows: np.ndarray,
    rrows: np.ndarray,
    build_side: str = RIGHT,
    path: Optional[AccessPath] = None,
    mem: Optional[MappedArrays] = None,
) -> np.ndarray:
    """Join two pre-filtered operands; packed-key output.

    The one join of the columnar backends.  Each operand is a packed-key
    array, in any order (an exchanged shard is not sorted).  The
    ``build_side`` operand is indexed on its half of the equi-join key
    and probed with the other; ``path`` is the build operand's access
    path when the caller already holds one (a base relation's, from the
    store; a fixpoint's constant operand, built once outside the loop),
    otherwise it is built here.  Without cross equalities the join is
    the operand's own projection when nothing links the two sides, and
    the cartesian product the algebra demands otherwise.

    Whatever the shape, the work arrives as blocks of (left row, right
    row) index pairs, and each block is finished before the next is
    enumerated: pair conditions as a mask over the block, the output
    projection as per-column gathers packed into keys, ``sorted_unique``.
    Scratch is O(block); what is held between blocks is sorted unique
    output keys, folded whenever they exceed twice the distinct keys
    seen, so a projection that collapses never piles up its duplicates;
    folds and the output are ``mem``'s (a fresh one without it).
    """
    n_left, n_right = len(lrows), len(rrows)
    if n_left == 0 or n_right == 0:
        return _EMPTY
    mem = MappedArrays() if mem is None else mem
    lkey, rkey, pairwise = _join_key(cs, spec)
    side = None if lkey else spec.one_sided()
    if side is not None:
        # Nothing links the operands and the output reads one of them:
        # the other only had to be non-empty.  A block of "pairs" is a
        # block of that operand's rows.
        n_rows = n_left if side == LEFT else n_right
        blocks = (
            (slice(lo, lo + _ROW_BLOCK),) * 2 for lo in range(0, n_rows, _ROW_BLOCK)
        )
    elif build_side == RIGHT:
        if path is None and rkey:
            path = _operand_path(cs, rrows, rkey, False, mem)
        blocks = _pair_blocks(cs, path, lkey, lrows, n_right)
    else:
        if path is None and lkey:
            path = _operand_path(cs, lrows, lkey, False, mem)
        blocks = ((li, ri) for ri, li in _pair_blocks(cs, path, rkey, rrows, n_left))
    i, j, k = spec.out
    n = cs.radix
    # Output positions 1–2 that are one operand's: its keys' leading digits.
    lead = {(0, 1): lrows, (3, 4): rrows}.get((i, j))
    # The positions read: the output's and the pair conditions'.
    reads = {*spec.out, *(t.index for c in pairwise for t in (c.left, c.right))}
    if lead is not None and not pairwise:
        reads = {k}
    lreads = [pos for pos in reads if pos < 3]
    rreads = [pos for pos in reads if pos >= 3]
    # The sorted unique keys of the last fold, then the blocks' raw keys.
    parts: list[np.ndarray] = []
    held = distinct = 0
    for li, ri in blocks:
        cols = {**_gather(cs, lrows, li, lreads), **_gather(cs, rrows, ri, rreads)}
        # Pack the projection from the gathered columns — no (M, 3)
        # intermediate; this is the join's hot path.
        if lead is None:
            keys = cols[i] * n
            keys += cols[j]
        else:
            keys = lead[li if i == 0 else ri] // n
        keys *= n
        keys += cols[k]
        if pairwise:
            keys = keys[_pair_mask(cs, pairwise, cols)]
        del li, ri, cols  # a block's scratch does not outlive its keys
        parts.append(keys)
        held += len(keys)
        if held > 2 * max(distinct, _PAIR_BLOCK):
            parts = [_fold(parts, mem)]
            held = distinct = len(parts[0])
    if held == distinct:  # nothing since the last fold
        return parts[0] if parts else _EMPTY
    return _fold(parts, mem)


#: Object-count guard for dense boolean reachability matrices (mirrors
#: MatrixStore.DEFAULT_MAX_OBJECTS).  Read at every call, so a test can
#: patch it to 0 and force the sparse path on a tiny store.
DENSE_MATRIX_MAX_OBJECTS = 512
#: Minimum average out-degree |T|/|O| for the dense reachability
#: representation to pay off over the sparse fixpoint.
_DENSE_MIN_AVG_DEGREE = 0.5
#: Same-label reach stars build one dense matrix per distinct label; above
#: this many labels the semi-naive fixpoint wins regardless of density.
_MAX_DENSE_LABELS = 8

#: Compile-time join specs of the two Proposition 5 star shapes.
_REACH_SPEC_ANY = JoinSpec(REACH_OUT, REACH_COND_ANY)
_REACH_SPEC_SAME = JoinSpec(REACH_OUT, REACH_COND_SAME_LABEL)


def _bool_closure(adjacency: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean adjacency matrix.

    Semi-naive over matrix *squaring*: each round doubles the path
    length covered, so the loop runs O(log diameter) boolean matmuls.
    """
    closure = adjacency | np.eye(len(adjacency), dtype=bool)
    while True:
        # float32 keeps the matmul on the BLAS fast path and is exact
        # here: each product entry counts path witnesses, at most n ≤ 512
        # (a uint8 accumulator would wrap at 256 and drop reachable
        # pairs whose witness count is a multiple of 256).
        step = closure.astype(np.float32)
        grown = closure | ((step @ step) > 0)
        if np.array_equal(grown, closure):
            return closure
        closure = grown


def use_dense_reach(
    cs: ColumnarStore, n_triples: int, keys: np.ndarray, same_label: bool
) -> bool:
    """Whether a reach star runs the dense kernel on the store being run.

    ``cs`` is that store's columnar view (``cs.n`` is its ``|O|``),
    ``n_triples`` its ``|T|`` and ``keys`` the star's base relation as
    packed keys.  Dense when ``0 < |O| ≤``
    :data:`DENSE_MATRIX_MAX_OBJECTS` and ``|T|/|O| ≥``
    :data:`_DENSE_MIN_AVG_DEGREE`, and — for the same-label variant —
    the base holds at most :data:`_MAX_DENSE_LABELS` labels.  Every
    columnar execution context (vectorised and sharded) asks here, so
    one plan meets one verdict per store.  The compacted node set of
    any base relation is at most ``|O|``, so a dense verdict never
    trips the guard in :func:`_reach_dense_emit`.
    """
    n = cs.n
    if not (0 < n <= DENSE_MATRIX_MAX_OBJECTS and n_triples / n >= _DENSE_MIN_AVG_DEGREE):
        return False
    # One adjacency matrix *per label*: only worth it when the labels
    # are few — many sparse labels pay the per-matrix overhead hundreds
    # of times for tiny graphs.
    return not same_label or len(sorted_unique(cs.column(keys, 1))) <= _MAX_DENSE_LABELS


def reach_dense(cs: ColumnarStore, keys: np.ndarray, same_label: bool) -> np.ndarray:
    """Dense boolean-matrix reachability over a packed-key base relation.

    Module-level so every columnar execution context (vectorised and
    sharded) shares one implementation; raises
    :class:`~repro.errors.MatrixTooLargeError` when the compacted node
    set exceeds the guard.
    """
    if not same_label:
        return _reach_dense_emit(cs, keys)
    labels = cs.column(keys, 1)
    parts = [
        _reach_dense_emit(cs, keys[labels == label]) for label in sorted_unique(labels)
    ]
    return sorted_unique(np.concatenate(parts)) if parts else keys


def _reach_dense_emit(cs: ColumnarStore, keys: np.ndarray) -> np.ndarray:
    """Closure of one adjacency matrix, attached to its base triples.

    The matrix is built over the *compacted* node set of these triples'
    endpoints (for the same-label variant that is one label's
    sub-graph), so sparse labels get tiny matrices; the object-count
    guard applies to the compacted size.
    """
    subjects, objects = cs.column(keys, 0), cs.column(keys, 2)
    nodes = sorted_unique(np.concatenate((subjects, objects)))
    m = len(nodes)
    if m > DENSE_MATRIX_MAX_OBJECTS:
        raise MatrixTooLargeError(m, DENSE_MATRIX_MAX_OBJECTS, what="reachability matrix")
    sources = np.searchsorted(nodes, subjects)
    targets = np.searchsorted(nodes, objects)
    adjacency = np.zeros((m, m), dtype=bool)
    adjacency[sources, targets] = True
    closure = _bool_closure(adjacency)
    reach_rows = closure[targets]  # row i: nodes reachable from o_i
    row_idx, target_local = np.nonzero(reach_rows)
    # A base key with its object digit replaced: (s·n + p)·n + o'.
    return sorted_unique(keys[row_idx] - objects[row_idx] + nodes[target_local])


def lookup_keys(cs: ColumnarStore, op: IndexLookupOp, mem: MappedArrays) -> np.ndarray:
    """An :class:`~repro.core.plan.IndexLookupOp`'s sorted unique keys: a
    slice of its relation's path (whose rows ascend), the residual
    evaluated on that slice only."""
    needle = cs.key_of([cs.code_of(value) for value in op.bound_key()])
    keys = cs.relation_keys(op.name)[cs.access_path(op.name, op.positions).rows(needle)]
    if op.residual:
        keys = _where(keys, partial(_local_mask, cs, op.residual), mem)
    return keys


def universe_keys(cs: ColumnarStore, max_objects: int) -> np.ndarray:
    """The universal relation over the active domain, as sorted unique
    packed keys; :class:`~repro.errors.EvaluationBudgetError` past
    ``max_objects`` objects."""
    active = cs.active_codes()
    if len(active) > max_objects:
        raise EvaluationBudgetError(
            f"universal relation over {len(active)} objects would hold "
            f"{len(active) ** 3} triples (limit {max_objects} objects); "
            "raise max_universe_objects to proceed"
        )
    n = cs.radix
    pairs = (active[:, None] * n + active[None, :]).reshape(-1)
    return (pairs[:, None] * n + active[None, :]).reshape(-1)


# --------------------------------------------------------------------- #
# Execution context
# --------------------------------------------------------------------- #


class VectorExecContext:
    """Columnar twin of :class:`repro.core.plan.ExecContext`.

    Holds the store's columnar view, the budgets, the operator memo and
    the context's :class:`MappedArrays`; every operator result is a
    sorted unique packed-key array.
    """

    __slots__ = ("store", "cs", "rho", "max_universe_objects", "mem", "_memo")

    def __init__(self, store: Triplestore, max_universe_objects: int = 400) -> None:
        self.store = store
        self.cs = store.columnar()
        self.rho = store.rho
        self.max_universe_objects = max_universe_objects
        self.mem = MappedArrays()
        self._memo: dict[int, np.ndarray] = {}

    # -- entry points --------------------------------------------------- #

    def execute(self, plan: PlanOp) -> TripleSet:
        """Run a plan and decode the result back to object triples."""
        return self.cs.decode_triples(self.run(plan))

    def run(self, op: PlanOp) -> np.ndarray:
        """Execute ``op`` (memoised — shared sub-plans run once)."""
        result = self._memo.get(id(op))
        if result is None:
            result = self._dispatch(op)
            self._memo[id(op)] = result
        return result

    # -- operator dispatch ---------------------------------------------- #

    def _dispatch(self, op: PlanOp) -> np.ndarray:
        if isinstance(op, ScanOp):
            return self.cs.relation_keys(op.name)
        if isinstance(op, IndexLookupOp):
            return lookup_keys(self.cs, op, self.mem)
        if isinstance(op, FilterOp):
            return self._filter(op)
        if isinstance(op, UnionOp):
            return _union_sorted(self.run(op.left), self.run(op.right), self.mem)
        if isinstance(op, DiffOp):
            return _diff_sorted(self.run(op.left), self.run(op.right), self.mem)
        if isinstance(op, IntersectOp):
            return _intersect_sorted(self.run(op.left), self.run(op.right), self.mem)
        if isinstance(op, HashJoinOp):
            return self._join(op)
        if isinstance(op, StarOp):
            return self._star(op)
        if isinstance(op, ReachStarOp):
            return self._reach_star(op)
        if isinstance(op, EmptyOp):
            return _EMPTY
        if isinstance(op, UniverseOp):
            return universe_keys(self.cs, self.max_universe_objects)
        raise NotImplementedError(  # pragma: no cover — all ops covered
            f"no columnar execution for {type(op).__name__}"
        )

    def _filter(self, op: FilterOp) -> np.ndarray:
        return self._select(self.run(op.child), op.conditions)

    def _select(self, keys: np.ndarray, conds: tuple[Cond, ...]) -> np.ndarray:
        return _where(keys, partial(_local_mask, self.cs, conds), self.mem)

    def _join(self, op: HashJoinOp) -> np.ndarray:
        cs = self.cs
        spec = op.spec
        # Children run before the constant gate is consulted, mirroring
        # HashJoinOp._execute — a closed gate must not suppress a child's
        # budget error, or the backends would disagree on when they raise.
        left = self.run(op.left)
        right = self.run(op.right)
        if not spec.gate_open(self.rho):
            return _EMPTY
        if spec.left_local:
            left = self._select(left, spec.left_local)
        if spec.right_local:
            right = self._select(right, spec.right_local)
        build_right = op.build_side == RIGHT
        lkey, rkey, _ = _join_key(cs, spec)
        key = rkey if build_right else lkey
        if not key:
            path = None
        elif op.index_positions is not None:
            # The planner chose the store's index: the build child is an
            # unfiltered base relation, whose path every query shares.
            name = (op.right if build_right else op.left).name
            path = cs.access_path(name, tuple(pos for pos, _ in key))
        else:
            path = _operand_path(cs, right if build_right else left, key, True, self.mem)
        return _merge_join(cs, spec, left, right, op.build_side, path, self.mem)

    def _star(self, op: StarOp) -> np.ndarray:
        base = self.run(op.child)
        if not op.spec.gate_open(self.rho):
            return base
        return self._fixpoint(op.spec, op.side, base)

    def _fixpoint(self, spec: JoinSpec, side: str, base: np.ndarray) -> np.ndarray:
        """Semi-naive closure of ``base`` under the spec's join.

        The constant operand (right for a right star, left for a left
        one) is filtered and indexed once, outside the loop — the
        columnar analogue of :class:`StarOp`'s hoisted hash index; each
        round probes it with the frontier, as packed keys, and
        :func:`_absorb` merges what it produced into the one accumulator.
        """
        cs = self.cs
        const_right = side == RIGHT
        const_local = spec.right_local if const_right else spec.left_local
        varying_local = spec.left_local if const_right else spec.right_local
        const = base
        if const_local:
            const = self._select(const, const_local)
        lkey, rkey, _ = _join_key(cs, spec)
        key = rkey if const_right else lkey
        mem = self.mem
        path = _operand_path(cs, const, key, True, mem) if key and len(const) else None
        acc, varying = _Accumulator(base, mem), base
        while True:
            if varying_local:
                varying = self._select(varying, varying_local)
            left, right = (varying, const) if const_right else (const, varying)
            # What the round produced lives only as long as the absorb.
            varying = _absorb(acc, _merge_join(cs, spec, left, right, side, path, mem))
            if not varying.size:
                return mem.settle(acc.buf, acc.size)

    # -- reachability stars --------------------------------------------- #

    def _reach_star(self, op: ReachStarOp) -> np.ndarray:
        base = self.run(op.child)
        if base.size == 0:
            return base
        if use_dense_reach(self.cs, len(self.store), base, op.same_label):
            return reach_dense(self.cs, base, op.same_label)
        # Sparse strategy: Proposition 5's reach stars are ordinary right
        # stars of a fixed shape, so the semi-naive join fixpoint applies
        # verbatim — rounds are bounded by the graph diameter.
        spec = _REACH_SPEC_SAME if op.same_label else _REACH_SPEC_ANY
        return self._fixpoint(spec, RIGHT, base)


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #


class VectorEngine(PlanEngine):
    """Vectorised columnar executor — same plans, array-at-a-time runtime.

    Parameters
    ----------
    max_universe_objects:
        See :class:`~repro.core.engines.base.Engine`.
    """

    backend = "columnar"

    def context(self, store: Triplestore) -> VectorExecContext:
        return VectorExecContext(store, self.max_universe_objects)

    def execute_plan_keys(self, plan: PlanOp, store: Triplestore):
        """Run a compiled plan, returning ``(columnar view, packed keys)``.

        The undecoded twin of :meth:`execute_plan`: the caller (the
        :class:`~repro.api.ResultSet` cursor) decodes lazily, so
        ``limit``-style reads touch only the rows they yield.
        """
        ctx = self.context(store)
        return ctx.cs, ctx.run(plan)
