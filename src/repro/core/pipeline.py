"""End-to-end query pipeline: parse → rewrite → transform → execute.

:class:`Engine` is the orchestrator the examples and benchmarks use.
It offers the two evaluation strategies the paper compares:

* ``method="nested_iteration"`` — System R's strategy (the baseline);
* ``method="transform"`` — rewrite the query with section 8's predicate
  extensions, run NEST-G (NEST-A / NEST-N-J / NEST-JA2), build the temp
  tables, and evaluate the canonical query with the chosen join method;
* ``method="auto"`` — try the transformation, fall back to nested
  iteration for queries outside the algorithms' reach.

A transformed query takes one path, cached or not: :func:`plan_transform`
turns it into a :class:`Plan` (NEST-G, the dedupe-outer fix-up, one
static verification), and the plan's temps and final query then run in
a private :class:`~repro.serve.session.SessionCatalog`.  A plan-cache
miss (:func:`repro.serve.plan.build_plan`) builds the same plan and
keeps it.

Every run returns a :class:`RunReport` with the result rows, the page
I/O consumed (the paper's cost measure), and the transformation trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.catalog.catalog import Catalog
from repro.config import EngineConfig
from repro.core.classify import catalog_resolver
from repro.core.nest_g import GeneralTransform, nest_g
from repro.core.predicates import rewrite_extended_predicates
from repro.core.transform import TempTableDef
from repro.engine.nested_iteration import NestedIterationExecutor, QueryResult
from repro.errors import ReproError, TransformError
from repro.optimizer.executor import SingleLevelExecutor, build_temp
from repro.sql.ast import Select
from repro.sql.parser import parse
from repro.sql.printer import to_sql
from repro.storage.stats import IOStats

if TYPE_CHECKING:
    from repro.analysis.diagnostics import Findings


@dataclass
class RunReport:
    """Everything a benchmark wants to know about one query run."""

    result: QueryResult
    io: IOStats
    method: str
    join_method: str | None = None
    canonical_sql: str | None = None
    setup_sql: list[str] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)
    steps: list[str] = field(default_factory=list)
    temp_pages: dict[str, int] = field(default_factory=dict)
    #: The static verifier's and Kim-bug lint's findings for a
    #: transformed plan (None when it was not verified).
    findings: Findings | None = None

    def describe(self) -> str:
        lines = [f"method: {self.method}"]
        if self.join_method:
            lines.append(f"join method: {self.join_method}")
        for sql in self.setup_sql:
            lines.append(f"setup: {sql}")
        if self.canonical_sql:
            lines.append(f"canonical: {self.canonical_sql}")
        lines.append(self.io.format())
        return "\n".join(lines)


def prepare_query(
    select: Select,
    catalog: Catalog,
    config: EngineConfig = EngineConfig(),
) -> Select:
    """Qualify all column references and rewrite extended predicates.

    Shared by the pipeline and the planner so both reason about the
    same normalized tree.
    """
    from repro.sql.ast import TableRef, walk
    from repro.sql.qualify import qualify

    from repro.errors import CatalogError

    bindings: dict[str, str] = {}
    for node in walk(select):
        if isinstance(node, TableRef):
            if not catalog.has_table(node.name):
                raise CatalogError(f"no such table: {node.name}")
            previous = bindings.setdefault(node.binding, node.name)
            if previous != node.name:
                raise TransformError(
                    f"binding {node.binding!r} refers to different tables "
                    "in different blocks; rename the aliases"
                )
    base = catalog_resolver(catalog)

    def has_column(binding: str, column: str) -> bool:
        table = bindings.get(binding)
        if table is not None and catalog.has_table(table):
            return catalog.schema_of(table).has_column(column)
        return base(binding, column)

    def list_columns(binding: str) -> list[str] | None:
        table = bindings.get(binding, binding)
        if catalog.has_table(table):
            return list(catalog.schema_of(table).column_names)
        return None

    qualified = qualify(select, has_column, list_columns=list_columns)
    return rewrite_extended_predicates(
        qualified, config.exists_count_mode, config.quantifier_mode
    )


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass
class Plan:
    """A query planned for execution: what to build, what to run last.

    Attributes:
        rewritten: the qualified, predicate-rewritten query.
        config: the settings it was planned under and executes with.
        transform: NEST-G's result (None for a nested-iteration plan).
            Its ``setup`` lists every temp in build order, ending with
            the dedupe-outer staging temp when the fix-up needs one.
        final_query: the query run over the temps — the canonical
            query or its dedupe-outer rewrite.
        strip: leading rowid columns to drop from the final rows.
        verify_trace: trace lines describing the verification outcome.
        findings: the verifier's and lint's findings (None when the
            plan was not verified).
    """

    rewritten: Select
    config: EngineConfig
    transform: GeneralTransform | None = None
    final_query: Select | None = None
    strip: int = 0
    verify_trace: list[str] = field(default_factory=list)
    findings: Findings | None = None

    @property
    def kind(self) -> str:
        return "nested_iteration" if self.transform is None else "transform"

    def run_final(self, session: Catalog, steps: list[str]) -> QueryResult:
        """Run the final query over the temps registered in ``session``.

        The plan was verified as a whole, so the executor's own check
        is off.
        """
        assert self.transform is not None and self.final_query is not None
        final = SingleLevelExecutor(session, self.config, verify=False)
        relation = final.execute(self.final_query)
        steps.append("final: " + "; ".join(final.steps))
        rows = relation.to_list()
        if self.strip:
            rows = [row[self.strip:] for row in rows]
        return QueryResult(
            columns=final.output_names(self.transform.query), rows=rows
        )


def plan_transform(
    rewritten: Select, catalog: Catalog, config: EngineConfig
) -> Plan:
    """Transform a prepared query and verify the result, once.

    Reads data only where NEST-G must: type-A blocks are evaluated, and
    the temps they read are built, in ``catalog`` — a session overlay,
    so they stay private to one run or plan build.  Raises
    :class:`~repro.errors.TransformError` for queries outside the
    algorithms' reach.
    """
    transform = nest_g(rewritten, catalog, config)
    final_query, strip = _dedupe_outer(transform, catalog, config)
    plan = Plan(rewritten, config, transform, final_query, strip)
    if config.verify:
        _verify(plan, catalog)
    return plan


def _dedupe_outer(
    transform: GeneralTransform, catalog: Catalog, config: EngineConfig
) -> tuple[Select, int]:
    """Apply the rowid multiplicity fix-up to the canonical query.

    When a NEST-N-J merge at the root may have fanned out outer rows
    and ``dedupe_outer`` is on, rewrite the canonical query to
    ``SELECT DISTINCT rid(T1), ..., rid(Tk), <items> ...`` using the
    implicit rowid of each original outer table; the executor strips
    the leading rowid columns.  DISTINCT over unique rowids collapses
    the fan-out to exactly one row per surviving outer tuple —
    restoring nested-iteration multiplicities even when outer rows are
    value-identical.  See DESIGN.md.

    Returns the final query and the number of leading columns to strip.
    """
    from repro.engine.relation import ROWID_COLUMN
    from repro.sql.ast import ColumnRef, SelectItem

    query = transform.query
    if not (config.dedupe_outer and transform.root_fanout_merge):
        return query, 0
    if query.group_by or query.has_aggregate_select() or query.distinct:
        # Aggregated root: dedup must happen *before* aggregation (the
        # fan-out would corrupt COUNT/SUM/AVG).  Stage the deduplicated
        # outer rows in a temp, then aggregate over it.
        return _stage_dedupe_outer(transform, catalog), 0
    rid_items = tuple(
        SelectItem(ColumnRef(ref.binding, ROWID_COLUMN), alias=f"RID{i}")
        for i, ref in enumerate(transform.root_tables)
    )
    rewritten = replace(query, items=rid_items + query.items, distinct=True)
    return rewritten, len(rid_items)


def _stage_dedupe_outer(
    transform: GeneralTransform, catalog: Catalog
) -> Select:
    """Pre-aggregation dedup: stage distinct outer rows in a temp.

    ``SELECT agg(...) FROM O, ... WHERE W [GROUP BY g]`` becomes::

        TEMP_D = SELECT DISTINCT rid(O), O.c1, ..., O.ck
                 FROM O, ... WHERE W
        SELECT agg(...') FROM TEMP_D [GROUP BY g']

    where the primes rewrite O's column references to TEMP_D's.
    ``TEMP_D`` is appended to ``transform.setup``, so it is built after
    the other temps, like any of them.  Supported for a single original
    outer table (the common shape); multiple outer tables would need
    disambiguated staging columns.
    """
    from repro.engine.relation import ROWID_COLUMN
    from repro.sql import ast as A
    from repro.sql.ast import ColumnRef, SelectItem, TableRef

    query = transform.query
    if len(transform.root_tables) != 1:
        raise TransformError(
            "dedupe_outer with aggregation supports a single outer table"
        )
    outer_binding = transform.root_tables[0].binding
    outer_table = transform.root_tables[0].name
    outer_columns = catalog.schema_of(outer_table).column_names

    temp_name = catalog.create_temp_name("DTEMP")
    staging_items = (
        SelectItem(ColumnRef(outer_binding, ROWID_COLUMN), alias="RID"),
    ) + tuple(
        SelectItem(ColumnRef(outer_binding, column), alias=column)
        for column in outer_columns
    )
    staging = Select(
        items=staging_items,
        from_tables=query.from_tables,
        where=query.where,
        distinct=True,
    )
    transform.setup.append(TempTableDef(temp_name, staging))

    def rewrite(expr):
        if isinstance(expr, ColumnRef):
            if expr.table == outer_binding:
                return ColumnRef(temp_name, expr.column)
            return expr
        rebuilt = expr
        if isinstance(expr, A.FuncCall) and not isinstance(expr.arg, A.Star):
            rebuilt = A.FuncCall(expr.name, rewrite(expr.arg), expr.distinct)
        elif isinstance(expr, A.Comparison):
            rebuilt = A.Comparison(
                rewrite(expr.left), expr.op, rewrite(expr.right), expr.outer
            )
        elif isinstance(expr, A.And):
            rebuilt = A.And(tuple(rewrite(op) for op in expr.operands))
        elif isinstance(expr, A.Or):
            rebuilt = A.Or(tuple(rewrite(op) for op in expr.operands))
        elif isinstance(expr, A.Not):
            rebuilt = A.Not(rewrite(expr.operand))
        return rebuilt

    return Select(
        items=tuple(
            SelectItem(rewrite(item.expr), item.alias) for item in query.items
        ),
        from_tables=(TableRef(temp_name),),
        group_by=tuple(rewrite(expr) for expr in query.group_by),
        having=rewrite(query.having) if query.having is not None else None,
        distinct=query.distinct,
    )


def _verify(plan: Plan, catalog: Catalog) -> None:
    """The plan's one static verification (see ``EngineConfig.verify``).

    The scope check on the *qualified* input runs first (PV003 enforces
    that qualification really qualified everything); then the plan
    verifier walks every temp and the final query exactly as they will
    execute, and the Kim-bug lint looks for the paper's section 5
    shapes.  Executors running the plan skip their own check.
    """
    from repro.analysis import lint_transform, verify_nested, verify_transform
    from repro.analysis.diagnostics import Findings
    from repro.analysis.verifier import CHAIN_RULES

    assert plan.transform is not None
    config = plan.config
    executed = replace(plan.transform, query=plan.final_query)
    findings = verify_nested(plan.rewritten, catalog, require_qualified=True)
    plan_findings, temps = verify_transform(
        executed, catalog, join_method=config.join_method
    )
    findings.extend(plan_findings)
    findings.extend(lint_transform(executed, catalog, temps))
    plan.findings = findings

    if config.ja_algorithm == "ja2":
        findings.raise_errors("static verification of transformed plan")
        plan.verify_trace = [
            f"verifier: {len(findings)} finding(s), no errors"
            if findings
            else "verifier: plan ok"
        ]
        return
    # Deliberately buggy algorithm: plan-level and Kim-bug findings
    # become warnings so the section 5 bug gallery can still execute
    # the plan.  A temp or final query that breaks a single-level rule
    # could not execute at all, so those findings still raise.
    Findings(
        [d for d in plan_findings if d.rule not in CHAIN_RULES]
    ).raise_errors("static verification of canonical query")
    plan.verify_trace = [
        f"verifier (not enforced for ja={config.ja_algorithm}): "
        f"[{d.rule}] {d.message}"
        for d in findings
    ] or ["verifier: plan ok"]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class Engine:
    """Runs queries against a catalog by either evaluation strategy.

    The keyword arguments other than ``plan_cache`` are the fields of
    :class:`~repro.config.EngineConfig` and become ``self.config``.
    Each call reads the config once; reconfigure by assigning a new
    value, e.g. ``engine.config = replace(engine.config,
    join_method="hash")``.

    ``verify`` runs the static plan verifier + Kim-bug lint once per
    plan.  With the paper-correct ``ja_algorithm="ja2"`` any error
    finding aborts the run; with the deliberately buggy algorithms
    ("kim", "kim-outer") plan-level findings become trace warnings (and
    ``RunReport.findings``) so the bug gallery still runs.

    Every entry point is safe to call from many threads on one catalog.
    """

    def __init__(
        self,
        catalog: Catalog,
        join_method: str = "merge",
        ja_algorithm: str = "ja2",
        dedupe_inner: bool = False,
        dedupe_outer: bool = False,
        exists_count_mode: str = "star",
        quantifier_mode: str = "exact",
        verify: bool = True,
        plan_cache=None,
        engine: str = "row",
        parallelism: int = 1,
        parallel_threshold: int | None = None,
    ) -> None:
        self.catalog = catalog
        #: Optional repro.serve.PlanCache consulted by run_cached().
        self.plan_cache = plan_cache
        self.config = EngineConfig(
            join_method=join_method,
            ja_algorithm=ja_algorithm,
            dedupe_inner=dedupe_inner,
            dedupe_outer=dedupe_outer,
            exists_count_mode=exists_count_mode,
            quantifier_mode=quantifier_mode,
            verify=verify,
            engine=engine,
            parallelism=parallelism,
            parallel_threshold=parallel_threshold,
        )

    # -- public API ----------------------------------------------------------

    def run(self, query: str | Select, method: str = "transform") -> RunReport:
        """Execute a query and report rows plus page I/O.

        The run holds the catalog read lock and one pinned MVCC
        snapshot (or the enclosing transaction's), so every read sees
        one committed state, and its temps live in a private session
        overlay.  ``io`` covers the whole run, including type-A
        evaluations during planning.
        """
        select = parse(query) if isinstance(query, str) else query
        config = self.config
        catalog = self.catalog
        before = catalog.buffer.stats()
        with catalog.read_lock(), catalog.snapshots.pinned():
            if method == "nested_iteration":
                return self._run_nested_iteration(select, config, before)
            if method == "transform":
                return self._run_transform(select, config, before)
            if method == "auto":
                try:
                    return self._run_transform(select, config, before)
                except TransformError:
                    return self._run_nested_iteration(select, config, before)
            if method == "cost":
                return self._run_cost_based(select, config, before)
        raise ReproError(f"unknown method {method!r}")

    def prepare(self, sql: str, method: str = "auto"):
        """Plan a parameterized statement once; bind + execute many times.

        Returns a :class:`repro.serve.PreparedStatement` whose ``?`` /
        ``:name`` markers bind directly into the compiled plan.
        """
        from repro.serve.prepared import PreparedStatement

        return PreparedStatement(self, sql, method=method)

    def run_cached(
        self, sql: str, params: tuple = (), method: str = "auto"
    ) -> RunReport:
        """Execute through the plan cache (requires ``plan_cache``).

        The SQL is normalized (predicate literals parameterized, text
        canonicalized) and looked up by fingerprint, method and
        ``config``; on a hit the stored plan replays without
        re-planning or re-verification.  Queries whose plan shape
        depends on the literal values get per-vector ("custom") cache
        entries, and ``method="cost"`` (re-costed per call) runs
        uncached.
        """
        from repro.engine.params import bound_params
        from repro.errors import BindError, ParameterizedPlanError
        from repro.serve.cache import PlanCache
        from repro.serve.normalize import (
            fingerprint,
            parameterize,
            substitute_params,
            user_param_count,
        )
        from repro.serve.plan import NonCacheablePlan, build_plan

        cache: PlanCache | None = self.plan_cache
        if cache is None:
            raise ReproError("engine has no plan cache; pass plan_cache=")
        select = parse(sql)
        declared = user_param_count(select)
        vector = tuple(params)
        if len(vector) != declared:
            raise BindError(
                f"statement takes {declared} parameter(s), got {len(vector)}"
            )
        normalized, extracted = parameterize(select)
        values = vector + extracted
        config = self.config
        key = (fingerprint(normalized), method, config)
        schema_version = self.catalog.schema_version
        data_version = self.catalog.data_version

        plan = cache.lookup(key, schema_version, data_version)
        if plan is None:
            try:
                plan = build_plan(self, config, normalized, method, key[0])
                cache.store(key, plan)
            except ParameterizedPlanError:
                # Custom plan: the literal values shape the plan, so
                # they join the cache key and are baked into the tree.
                custom_key = key + (values,)
                plan = cache.lookup(custom_key, schema_version, data_version)
                if plan is None:
                    literal = substitute_params(normalized, values)
                    plan = build_plan(self, config, literal, method, key[0])
                    cache.store(custom_key, plan)
                return plan.replay(self.catalog, ())
            except NonCacheablePlan:
                with bound_params(vector):
                    return self.run(select, method=method)
        return plan.replay(self.catalog, values)

    def transform(self, query: str | Select) -> GeneralTransform:
        """Transform without executing the final query.

        Temp tables needed to evaluate type-A blocks are built eagerly
        (and left registered); callers that only inspect the plan can
        drop them with ``catalog.drop_temp_tables()``.
        """
        select = parse(query) if isinstance(query, str) else query
        config = self.config
        rewritten = prepare_query(select, self.catalog, config)
        return nest_g(rewritten, self.catalog, config)

    def explain(self, query: str | Select) -> str:
        """Human-readable transformation plan for a query.

        Type-A blocks are evaluated in a private session overlay, so
        explaining never touches the temps of concurrent runs.
        """
        from repro.serve.session import SessionCatalog
        from repro.sql.printer import to_sql_pretty

        select = parse(query) if isinstance(query, str) else query
        config = self.config
        session = SessionCatalog(self.catalog)
        with self.catalog.read_lock(), self.catalog.snapshots.pinned():
            try:
                rewritten = prepare_query(select, session, config)
                transform = nest_g(rewritten, session, config)
            finally:
                session.drop_temp_tables()
        lines = ["-- original query", to_sql_pretty(rewritten), ""]
        lines.append("-- transformation trace")
        lines.extend(f"--   {line}" for line in transform.trace)
        lines.append("-- temp tables")
        for definition in transform.setup:
            lines.append(definition.describe())
        lines.append("-- canonical query")
        lines.append(to_sql(transform.query))
        return "\n".join(lines)

    # -- strategies ------------------------------------------------------------

    def _run_nested_iteration(
        self, select: Select, config: EngineConfig, before: IOStats
    ) -> RunReport:
        result = NestedIterationExecutor(self.catalog, config).execute(select)
        io = self.catalog.buffer.stats() - before
        return RunReport(result=result, io=io, method="nested_iteration")

    def _run_cost_based(
        self, select: Select, config: EngineConfig, before: IOStats
    ) -> RunReport:
        """Let the section-7 cost model pick the strategy (SEL 79 style)."""
        from repro.optimizer.planner import Planner

        choice = Planner(self.catalog).choose(select)
        if choice.method == "nested_iteration":
            report = self._run_nested_iteration(select, config, before)
        else:
            chosen = replace(
                config, join_method=choice.join_method or config.join_method
            )
            try:
                report = self._run_transform(select, chosen, before)
            except TransformError:
                report = self._run_nested_iteration(select, config, before)
        report.trace = [*choice.describe().splitlines(), *report.trace]
        return report

    def _run_transform(
        self, select: Select, config: EngineConfig, before: IOStats
    ) -> RunReport:
        """Plan, then build the temps and run the final query, privately."""
        from repro.serve.session import SessionCatalog

        session = SessionCatalog(self.catalog)
        try:
            plan = plan_transform(
                prepare_query(select, session, config), session, config
            )
            transform = plan.transform
            assert transform is not None
            steps: list[str] = []
            # NEST-G already built the temps its type-A blocks read.
            for definition in transform.setup[transform.built:]:
                build_temp(session, definition, config)
                steps.append(f"built {definition.name}")
            result = plan.run_final(session, steps)
            return RunReport(
                result=result,
                io=self.catalog.buffer.stats() - before,
                method="transform",
                join_method=config.join_method,
                canonical_sql=to_sql(transform.query),
                setup_sql=[d.describe() for d in transform.setup],
                trace=transform.trace + plan.verify_trace,
                steps=steps,
                temp_pages={
                    d.name: session.heap_of(d.name).num_pages
                    for d in transform.setup
                },
                findings=plan.findings,
            )
        finally:
            session.drop_temp_tables()
