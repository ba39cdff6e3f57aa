"""Shard-wise columnar execution of compiled physical plans.

:class:`ShardedEngine` is the planner seam's fourth backend: it executes
the *same* physical operator trees as every other engine, over the
``k``-way subject-partitioned view of the store's columnar encoding
(:class:`~repro.triplestore.sharded.ShardedColumnarStore`).  Every
intermediate result is a list of ``k`` sorted unique packed-key arrays,
hash-partitioned on one triple position — which makes the shards
pairwise disjoint, so per-shard results union to the global result with
no cross-shard deduplication:

* ``ScanOp`` fans out to the store's cached per-shard arrays (the
  partition is built once per store, like indexes and statistics);
  ``IndexLookupOp`` partitions the columnar engine's slice of the
  relation's access path;
* ``HashJoinOp`` runs as ``k`` independent merge joins.  When both
  inputs are already partitioned on the join key (*co-partitioned*,
  e.g. two subject-partitioned scans joined on ``1=1'``), shard ``s``
  joins shard ``s`` directly; otherwise one *exchange* pass re-hashes
  the misaligned side(s)' packed keys on the join-key component first
  (ρ-codes for η keys).  Joins with no cross equality broadcast the
  gathered right operand to every left shard.  :func:`choose_shard_key`
  and :func:`shard_output_partition` decide both;
* set operations align the two partitions and merge shard-wise with the
  sorted-array algebra of :mod:`repro.core.engines.vectorized`;
* general stars and sparse reach stars run the semi-naive fixpoint with
  a canonical position-0 accumulator: the constant operand is filtered
  and exchanged once outside the loop, each round exchanges only the
  frontier.  Dense reach stars — where
  :func:`~repro.core.engines.vectorized.use_dense_reach` says so for
  the store being run — gather (the boolean matrix is already the
  compact representation) and leave the closure raw.

Shard tasks run one after another on the calling thread: the engine
starts no thread.  Cross-backend agreement with the set and columnar
executors (and the NaiveEngine oracle) is enforced by
``tests/diffcheck.py``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.errors import PlanVerificationError, ReproError
from repro.core.conditions import Cond
from repro.core.expressions import RIGHT
from repro.core.engines.base import PlanEngine, TripleSet
from repro.core.engines.vectorized import (
    _EMPTY,
    _REACH_SPEC_ANY,
    _REACH_SPEC_SAME,
    MappedArrays,
    _Accumulator,
    _absorb,
    _diff_sorted,
    _intersect_sorted,
    _local_mask,
    _merge_join,
    _union_sorted,
    _where,
    lookup_keys,
    reach_dense,
    universe_keys,
    use_dense_reach,
)
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
from repro.triplestore.columnar import sorted_unique
from repro.triplestore.model import Triplestore

__all__ = [
    "DEFAULT_SHARDS",
    "ShardedEngine",
    "ShardedExecContext",
    "ShardedKeys",
]

#: Shard count when the constructor does not say.
DEFAULT_SHARDS = 4


# --------------------------------------------------------------------- #
# Partition-key propagation
#
# Pure structural logic: per join, which cross equality the shards are
# aligned on, which sides an exchange re-hashes, and how the output
# comes out partitioned.
# --------------------------------------------------------------------- #


def choose_shard_key(
    spec: JoinSpec, left_part: Optional[int], right_part: Optional[int]
) -> tuple[Optional[Cond], int]:
    """Pick the cross equality a sharded executor partitions a join on.

    ``left_part`` / ``right_part`` are the triple positions the operands
    are currently hash-partitioned on (``None`` for an unpartitioned
    "raw" intermediate, which never aligns).  Returns ``(condition,
    aligned)`` where ``aligned`` counts how many operands are already
    partitioned on their side of the chosen key (2 = co-partitioned, no
    exchange needed).  θ-equalities are preferred — their join key is
    the object code the operands are already hashed by; η keys hash
    ρ-codes, which never align with a position partition.  ``(None, 0)``
    means no cross equality exists (a cartesian product: broadcast).
    """
    theta = [c for c in spec.cross_eq if not c.on_data]
    if theta:
        def aligned(cond: Cond) -> int:
            return int(cond.left.index == left_part) + int(
                cond.right.index - 3 == right_part
            )
        best = max(theta, key=aligned)
        return best, aligned(best)
    if spec.cross_eq:
        return spec.cross_eq[0], 0
    return None, 0


def shard_output_partition(
    spec: JoinSpec, cond: Optional[Cond], left_part: Optional[int]
) -> Optional[int]:
    """Which output position a shard-wise join's result is partitioned on.

    ``None`` means the output carries no component the shards were
    hashed by, so equal output triples can land in different shards.
    The executor keeps such results as *raw* shard chunks — joins,
    filters and decode consume them as-is — and re-partitions (thereby
    re-deduplicating) lazily, only when a consumer needs the disjoint
    partition invariant (set operations, fixpoint accumulators).
    """
    if cond is None:
        # Broadcast: left shards keep their partition; the output is
        # partitioned wherever it retains the left partition component.
        for m, o in enumerate(spec.out):
            if o < 3 and o == left_part:
                return m
        return None
    if cond.on_data:
        # η keys hash ρ-codes; no output position is hashed by them.
        return None
    li, ri = cond.left.index, cond.right.index - 3
    for m, o in enumerate(spec.out):
        if (o < 3 and o == li) or (o >= 3 and o - 3 == ri):
            return m
    return None


class ShardedKeys:
    """One sharded intermediate result.

    With ``part_pos`` set, ``shards[s]`` is a sorted unique packed-key
    array holding exactly the rows whose ``part_pos`` component hashes
    to ``s`` — shards are then pairwise disjoint and globally
    deduplicated by construction.  ``part_pos=None`` marks a *raw*
    result: each chunk is still sorted unique, but equal keys may recur
    across chunks (a join projected its partition key away).  Joins,
    filters and decode consume raw chunks as-is; consumers that need
    the disjoint invariant re-partition first (lazily, so join chains
    never pay for a partition nobody reads).
    """

    __slots__ = ("shards", "part_pos")

    def __init__(self, shards: list[np.ndarray], part_pos: Optional[int]) -> None:
        self.shards = shards
        self.part_pos = part_pos

    @property
    def total(self) -> int:
        return sum(len(s) for s in self.shards)

    def gather(self) -> np.ndarray:
        """All rows as one (unsorted) array — for decode and broadcast."""
        return self.shards[0] if len(self.shards) == 1 else np.concatenate(self.shards)

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        sizes = ",".join(str(len(s)) for s in self.shards)
        return f"ShardedKeys(part={self.part_pos}, [{sizes}])"


class ShardedExecContext:
    """Sharded twin of :class:`~repro.core.engines.vectorized.VectorExecContext`.

    Holds the store's sharded columnar view, the budgets and the operator
    memo; every operator result is a :class:`ShardedKeys`.
    """

    __slots__ = ("store", "cs", "ss", "rho", "max_universe_objects", "k", "mem", "_memo")

    def __init__(
        self,
        store: Triplestore,
        max_universe_objects: int = 400,
        shards: int = DEFAULT_SHARDS,
    ) -> None:
        self.store = store
        self.ss = store.sharded(shards)
        self.cs = self.ss.cs
        self.rho = store.rho
        self.max_universe_objects = max_universe_objects
        self.k = self.ss.k
        self.mem = MappedArrays()
        self._memo: dict[int, ShardedKeys] = {}

    # -- entry points --------------------------------------------------- #

    def execute(self, plan: PlanOp) -> TripleSet:
        """Run a plan and decode the merged shards back to object triples."""
        return self.cs.decode_triples(self.run(plan).gather())

    def run(self, op: PlanOp) -> ShardedKeys:
        """Execute ``op`` (memoised — shared sub-plans run once)."""
        result = self._memo.get(id(op))
        if result is None:
            result = self._dispatch(op)
            self._memo[id(op)] = result
        return result

    # -- shard plumbing -------------------------------------------------- #

    def _empty(self) -> ShardedKeys:
        return ShardedKeys([_EMPTY] * self.k, 0)

    def _from_raw(self, pieces: list[np.ndarray], pos: int) -> ShardedKeys:
        """Re-partition arbitrary key arrays onto ``pos``.

        ``pieces`` may overlap across (but not within) entries; the
        per-target ``sorted_unique`` restores global deduplication, so
        this is both the exchange and the merge step.
        """
        if self.k == 1:
            merged = pieces[0] if len(pieces) == 1 else sorted_unique(
                np.concatenate(pieces)
            )
            return ShardedKeys([merged], pos)
        buckets = [self.ss.partition(piece, pos) for piece in pieces]
        return ShardedKeys(
            [sorted_unique(np.concatenate([b[t] for b in buckets])) for t in range(self.k)],
            pos,
        )

    def _check_partition(self, sk: ShardedKeys, what: str) -> ShardedKeys:
        """The PLAN-SHARD invariant, checked at run time.

        ``_repartition`` trusts ``part_pos`` and short-circuits when it
        already matches the target — exactly the step a stale partition
        claim would corrupt (shard-wise set algebra on shards that are
        not disjoint).  So consumers that rely on the disjoint-partition
        invariant (set ops, fixpoint accumulators) re-check the claim
        against the actual shard contents first.
        """
        pos = sk.part_pos
        if pos is None:
            return sk
        for s, shard in enumerate(sk.shards):
            if len(shard) and not (self.ss.shard_ids(shard, pos) == s).all():
                raise PlanVerificationError(
                    f"PLAN-SHARD: {what} operand claims a partition on "
                    f"position {pos + 1} but shard {s} holds rows hashed "
                    "to other shards; a repartition was dropped or the "
                    "partition state is stale"
                )
        return sk

    def _repartition(self, sk: ShardedKeys, pos: int) -> ShardedKeys:
        """``sk`` partitioned on ``pos`` (no-op when already there).

        Raw results (``part_pos=None``) always re-partition — that is
        the step that restores global deduplication.
        """
        if sk.part_pos == pos:
            return sk
        return self._from_raw(sk.shards, pos)

    def _select(self, shards: list[np.ndarray], conds: tuple[Cond, ...]) -> list[np.ndarray]:
        """Per shard, the keys that satisfy ``conds`` (every key without any)."""
        if not conds:
            return shards
        mask_of = partial(_local_mask, self.cs, conds)
        return [_where(shard, mask_of, self.mem) for shard in shards]

    def _exchange(self, shards: list[np.ndarray], pos: int, on_data: bool) -> list[np.ndarray]:
        """Re-hash packed keys on the join-key component at ``pos``.

        θ keys hash the object code itself; η keys hash the ρ-code of
        the component, so both operands of an η join land in consistent
        shards.  A shard comes out unsorted: the merge join builds its
        own access path over it.
        """
        k, cs = self.k, self.cs
        if k == 1:
            return shards
        buckets = []
        for keys in shards:
            comp = cs.column(keys, pos)
            ids = (cs.dv_codes[comp] if on_data else comp) % k
            buckets.append([keys[ids == t] for t in range(k)])
        return [np.concatenate([b[t] for b in buckets]) for t in range(k)]

    # -- operator dispatch ---------------------------------------------- #

    def _dispatch(self, op: PlanOp) -> ShardedKeys:
        if isinstance(op, ScanOp):
            return ShardedKeys(self.ss.relation_shards(op.name), 0)
        if isinstance(op, IndexLookupOp):
            return ShardedKeys(self.ss.partition(lookup_keys(self.cs, op, self.mem), 0), 0)
        if isinstance(op, FilterOp):
            child = self.run(op.child)
            return ShardedKeys(self._select(child.shards, op.conditions), child.part_pos)
        if isinstance(op, UnionOp):
            return self._setop(op, _union_sorted)
        if isinstance(op, DiffOp):
            return self._setop(op, _diff_sorted)
        if isinstance(op, IntersectOp):
            return self._setop(op, _intersect_sorted)
        if isinstance(op, HashJoinOp):
            return self._join(op)
        if isinstance(op, StarOp):
            return self._star(op)
        if isinstance(op, ReachStarOp):
            return self._reach_star(op)
        if isinstance(op, EmptyOp):
            return self._empty()
        if isinstance(op, UniverseOp):
            keys = universe_keys(self.cs, self.max_universe_objects)
            return ShardedKeys(self.ss.partition(keys, 0), 0)
        raise NotImplementedError(  # pragma: no cover — all ops covered
            f"no sharded execution for {type(op).__name__}"
        )

    def _setop(self, op, merge: Callable) -> ShardedKeys:
        left = self.run(op.left)
        right = self.run(op.right)
        # Shard-wise set algebra needs both sides on one disjoint
        # partition; raw operands canonicalise to position 0.
        target = left.part_pos if left.part_pos is not None else 0
        left = self._check_partition(self._repartition(left, target), "set-op")
        right = self._check_partition(self._repartition(right, target), "set-op")
        shards = [merge(a, b, mem=self.mem) for a, b in zip(left.shards, right.shards)]
        return ShardedKeys(shards, target)

    def _join(self, op: HashJoinOp) -> ShardedKeys:
        cs, mem = self.cs, self.mem
        spec = op.spec
        # Children run before the constant gate is consulted, mirroring
        # the other backends — a closed gate must not suppress a child's
        # budget error.
        left = self.run(op.left)
        right = self.run(op.right)
        if not spec.gate_open(self.rho):
            return self._empty()
        lkeys = self._select(left.shards, spec.left_local)
        rkeys = self._select(right.shards, spec.right_local)
        cond, _ = choose_shard_key(spec, left.part_pos, right.part_pos)
        if cond is None:
            # Cartesian product: broadcast the gathered right operand.
            rall = np.concatenate(rkeys)
            pieces = [_merge_join(cs, spec, lk, rall, mem=mem) for lk in lkeys]
        else:
            li, ri = cond.left.index, cond.right.index - 3
            if cond.on_data or left.part_pos != li:
                lkeys = self._exchange(lkeys, li, cond.on_data)
            if cond.on_data or right.part_pos != ri:
                rkeys = self._exchange(rkeys, ri, cond.on_data)
            pieces = [_merge_join(cs, spec, lk, rk, mem=mem) for lk, rk in zip(lkeys, rkeys)]
        # A lost partition key stays raw (part_pos=None): the next join
        # exchanges by value anyway, and set-op consumers re-partition
        # lazily — join chains never pay for a partition nobody reads.
        return ShardedKeys(pieces, shard_output_partition(spec, cond, left.part_pos))

    # -- fixpoints ------------------------------------------------------- #

    def _star(self, op: StarOp) -> ShardedKeys:
        base = self.run(op.child)
        if not op.spec.gate_open(self.rho):
            return base
        return self._fixpoint(op.spec, base, op.side)

    def _fixpoint(self, spec: JoinSpec, base: ShardedKeys, side: str) -> ShardedKeys:
        """Semi-naive closure of ``base`` under the spec's join, shard-wise.

        The accumulator and frontier stay canonically partitioned on
        position 0; the constant operand (right for a right star, left
        for a left one) is filtered and exchanged once, outside the
        loop — the sharded analogue of :class:`StarOp`'s hoisted index.
        """
        cs = self.cs
        base = self._check_partition(self._repartition(base, 0), "fixpoint base")
        const_local = spec.right_local if side == RIGHT else spec.left_local
        varying_local = spec.left_local if side == RIGHT else spec.right_local
        const_keys = self._select(base.shards, const_local)
        # Both operands enter each round partitioned on 0 (the frontier
        # canonically, the constant via base); pick the join key once.
        cond, _ = choose_shard_key(spec, 0, 0)
        const_gathered: Optional[np.ndarray] = None
        if cond is None:
            if side == RIGHT:
                # Broadcast: the varying left stays sharded, the
                # constant right is gathered once.
                const_gathered = np.concatenate(const_keys)
        else:
            const_key = cond.right.index - 3 if side == RIGHT else cond.left.index
            if cond.on_data or const_key != 0:
                const_keys = self._exchange(const_keys, const_key, cond.on_data)
        # Both the broadcast-retained left operand (varying for a right
        # star, constant for a left one) and the accumulator sit on
        # position 0, so that is the left_part the output derives from.
        out_part = shard_output_partition(spec, cond, 0)
        mem = self.mem
        join = partial(_merge_join, cs, spec, mem=mem)
        accs = [_Accumulator(shard, mem) for shard in base.shards]
        frontier = base
        while frontier.total:
            vkeys = self._select(frontier.shards, varying_local)
            if cond is not None:
                vkey = cond.left.index if side == RIGHT else cond.right.index - 3
                if cond.on_data or vkey != 0:
                    vkeys = self._exchange(vkeys, vkey, cond.on_data)
                pairs = zip(vkeys, const_keys) if side == RIGHT else zip(const_keys, vkeys)
                pieces = [join(lk, rk) for lk, rk in pairs]
            elif side == RIGHT:
                pieces = [join(lk, const_gathered) for lk in vkeys]
            else:
                # Left star, no cross equality: the constant left stays
                # sharded, the varying right is gathered per round.
                vall = np.concatenate(vkeys)
                pieces = [join(lk, vall) for lk in const_keys]
            produced = (
                ShardedKeys(pieces, 0)
                if out_part == 0
                else self._from_raw(pieces, 0)
            )
            # Shard-wise too the frontier is sorted and disjoint from the
            # accumulator: merged in, not sorted in.
            frontier = ShardedKeys(list(map(_absorb, accs, produced.shards)), 0)
        return ShardedKeys([mem.settle(acc.buf, acc.size) for acc in accs], 0)

    def _reach_star(self, op: ReachStarOp) -> ShardedKeys:
        base = self.run(op.child)
        if base.total == 0:
            return base
        keys = base.gather()
        if use_dense_reach(self.cs, len(self.store), keys, op.same_label):
            # One sorted unique array: globally deduplicated but not
            # hash-partitioned — stays raw until a consumer asks.
            return ShardedKeys([reach_dense(self.cs, keys, op.same_label)], None)
        spec = _REACH_SPEC_SAME if op.same_label else _REACH_SPEC_ANY
        return self._fixpoint(spec, base, RIGHT)


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #


class ShardedEngine(PlanEngine):
    """Hash-sharded columnar executor — same plans, shard-wise runtime.

    Stored relations are partitioned on the subject: joins keyed on it
    run co-partitioned, with no exchange pass.

    Parameters
    ----------
    max_universe_objects:
        See :class:`~repro.core.engines.base.Engine`.
    shards:
        Number of hash shards (:data:`DEFAULT_SHARDS` by default).
    """

    backend = "sharded"

    def __init__(self, max_universe_objects: int = 400, shards: int = DEFAULT_SHARDS) -> None:
        super().__init__(max_universe_objects)
        if shards < 1:
            raise ReproError(f"shard count must be >= 1, got {shards}")
        self.shards = int(shards)

    def context(self, store: Triplestore) -> ShardedExecContext:
        return ShardedExecContext(store, self.max_universe_objects, shards=self.shards)

    def execute_plan_keys(self, plan: PlanOp, store: Triplestore):
        """Run a compiled plan, returning ``(columnar view, packed keys)``.

        The merged shards are restored to one sorted unique array —
        partitioned shards are disjoint but interleaved, and raw chunks
        may repeat keys across shards, so the canonical cursor form
        (sorted, deduplicated, deterministic iteration order) needs one
        ``sorted_unique`` pass either way.  Decode stays deferred.
        """
        ctx = self.context(store)
        return ctx.cs, sorted_unique(ctx.run(plan).gather())
