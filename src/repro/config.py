"""The engine's settings as one immutable value.

Every setting that changes how a query is planned or executed lives in
one frozen :class:`EngineConfig`.  :class:`~repro.core.pipeline.Engine`
builds it from its keyword arguments; NEST-G, the executors and the
serving layer take it whole.  Being frozen and hashable, the value is
also the engine component of every plan-cache key and shared-subplan
key: two configurations that differ anywhere never share a plan.
Variants are made with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanError, TransformError


@dataclass(frozen=True)
class EngineConfig:
    """How queries are transformed and executed.

    Attributes:
        join_method: ``"merge"`` (sort-merge, the paper's choice),
            ``"nested"`` (nested-loop) or ``"hash"`` for single-level
            joins.
        ja_algorithm: ``"ja2"`` (the paper's NEST-JA2) or the buggy
            ``"kim"`` / ``"kim-outer"`` kept for the section 5 gallery.
        dedupe_inner: project uncorrelated IN-subquery results
            duplicate-free before merging (see DESIGN.md).
        dedupe_outer: restore nested-iteration multiplicities after a
            root-level NEST-N-J merge (see DESIGN.md).
        exists_count_mode, quantifier_mode: how the section 8 predicate
            extensions (EXISTS, ANY/ALL) are rewritten.
        verify: run the static plan verifier and Kim-bug lint on each
            transformed plan, once, when it is planned.
        engine: ``"row"`` (tuple at a time) or ``"vectorized"`` (batch
            operators); same plans and page I/O.
        parallelism: worker shards for partition-parallel operators
            (1 = serial); same page I/O totals.
        parallel_threshold: inputs below this row count stay serial
            (None = the engine default).
    """

    join_method: str = "merge"
    ja_algorithm: str = "ja2"
    dedupe_inner: bool = False
    dedupe_outer: bool = False
    exists_count_mode: str = "star"
    quantifier_mode: str = "exact"
    verify: bool = True
    engine: str = "row"
    parallelism: int = 1
    parallel_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.join_method not in ("merge", "nested", "hash"):
            raise PlanError(f"unknown join method {self.join_method!r}")
        if self.ja_algorithm not in ("ja2", "kim", "kim-outer"):
            raise TransformError(f"unknown JA algorithm {self.ja_algorithm!r}")
        if self.engine not in ("row", "vectorized"):
            raise PlanError(f"unknown execution engine {self.engine!r}")
        if self.parallelism < 1:
            raise PlanError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
