//! Lowering expression trees into fused query specifications.
//!
//! A [`QuerySpec`] is the analogue of the paper's code tree (§4.2) combined
//! with the §6.2 layout mappings: every member access in the expression tree
//! is resolved to a `(slot, column)` reference, operator chains are fused
//! into at most one pipeline per blocking operator, and joins become
//! left-deep hash joins with their build-side filters attached.

use crate::program::MAX_KEY_PARTS;
use mrq_common::{DataType, MrqError, Result, Schema, Value};
use mrq_expr::{
    binary_type, method_type, unary_type, AggFunc, BinaryOp, CanonicalQuery, Expr, QueryMethod,
    SortDirection, SourceId, UnaryOp,
};
use std::collections::HashMap;

/// Resolves the schema of a source id. The provider implements this over its
/// bound collections; tests use a simple map.
pub trait Catalog {
    /// Schema of the given source.
    fn schema(&self, source: SourceId) -> Option<Schema>;
}

impl Catalog for HashMap<SourceId, Schema> {
    fn schema(&self, source: SourceId) -> Option<Schema> {
        self.get(&source).cloned()
    }
}

/// A `(table slot, column index)` reference. Slot 0 is the probe-side root
/// table; slot `i + 1` is the build side of the `i`-th join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table slot.
    pub slot: usize,
    /// Column index within that table's schema.
    pub col: usize,
}

/// String predicate operators (LIKE-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrOp {
    /// `StartsWith`
    StartsWith,
    /// `EndsWith`
    EndsWith,
    /// `Contains`
    Contains,
}

impl StrOp {
    /// The query method this operator lowers.
    pub fn method(self) -> QueryMethod {
        match self {
            StrOp::StartsWith => QueryMethod::StartsWith,
            StrOp::EndsWith => QueryMethod::EndsWith,
            StrOp::Contains => QueryMethod::Contains,
        }
    }
}

/// A scalar expression over resolved column references. This is what the
/// generated per-row code evaluates.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// A column of one of the joined tables.
    Column(ColumnRef),
    /// A literal constant.
    Const(Value),
    /// A query parameter (bound at execution from the canonical query's
    /// parameter vector).
    Param(usize),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<ScalarExpr>,
    },
    /// A string-method predicate.
    Str {
        /// Which string operation.
        op: StrOp,
        /// The string being tested.
        target: Box<ScalarExpr>,
        /// The pattern argument.
        arg: Box<ScalarExpr>,
    },
}

impl ScalarExpr {
    /// Collects all column references in the expression.
    pub fn columns(&self, out: &mut Vec<ColumnRef>) {
        match self {
            ScalarExpr::Column(c) => {
                if !out.contains(c) {
                    out.push(*c);
                }
            }
            ScalarExpr::Binary { left, right, .. } => {
                left.columns(out);
                right.columns(out);
            }
            ScalarExpr::Unary { expr, .. } => expr.columns(out),
            ScalarExpr::Str { target, arg, .. } => {
                target.columns(out);
                arg.columns(out);
            }
            ScalarExpr::Const(_) | ScalarExpr::Param(_) => {}
        }
    }

    /// Collects every [`ScalarExpr::Param`] slot index referenced by the
    /// expression (duplicates included; callers take the max).
    pub fn params(&self, out: &mut Vec<usize>) {
        match self {
            ScalarExpr::Param(i) => out.push(*i),
            ScalarExpr::Binary { left, right, .. } => {
                left.params(out);
                right.params(out);
            }
            ScalarExpr::Unary { expr, .. } => expr.params(out),
            ScalarExpr::Str { target, arg, .. } => {
                target.params(out);
                arg.params(out);
            }
            ScalarExpr::Column(_) | ScalarExpr::Const(_) => {}
        }
    }

    /// True if every column reference uses the given slot.
    pub fn only_slot(&self, slot: usize) -> bool {
        let mut cols = Vec::new();
        self.columns(&mut cols);
        cols.iter().all(|c| c.slot == slot)
    }

    /// Rewrites column references through `f` (used by the hybrid engine to
    /// re-point references at staged buffers).
    pub fn remap_columns(&self, f: &impl Fn(ColumnRef) -> ColumnRef) -> ScalarExpr {
        match self {
            ScalarExpr::Column(c) => ScalarExpr::Column(f(*c)),
            ScalarExpr::Const(v) => ScalarExpr::Const(v.clone()),
            ScalarExpr::Param(i) => ScalarExpr::Param(*i),
            ScalarExpr::Binary { op, left, right } => ScalarExpr::Binary {
                op: *op,
                left: Box::new(left.remap_columns(f)),
                right: Box::new(right.remap_columns(f)),
            },
            ScalarExpr::Unary { op, expr } => ScalarExpr::Unary {
                op: *op,
                expr: Box::new(expr.remap_columns(f)),
            },
            ScalarExpr::Str { op, target, arg } => ScalarExpr::Str {
                op: *op,
                target: Box::new(target.remap_columns(f)),
                arg: Box::new(arg.remap_columns(f)),
            },
        }
    }
}

/// One aggregate computed per group.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Its input expression (`None` for `Count()`).
    pub input: Option<ScalarExpr>,
    /// The output type of the aggregate.
    pub dtype: DataType,
    /// The type of the input expression (`None` for `Count()`). Averages
    /// over decimal inputs accumulate exactly in fixed point, which keeps
    /// parallel merges bit-identical to sequential execution.
    pub input_dtype: Option<DataType>,
}

/// One hash join in the left-deep join chain.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSpec {
    /// Build-side source.
    pub source: SourceId,
    /// Slot assigned to build-side rows.
    pub slot: usize,
    /// Filters applied to build-side rows before the hash table is built
    /// (selection push-down, §2.3).
    pub build_filters: Vec<ScalarExpr>,
    /// Key expressions over the build side.
    pub build_keys: Vec<ScalarExpr>,
    /// Key expressions over the already-joined slots (the probe side).
    pub probe_keys: Vec<ScalarExpr>,
}

/// How a final output column is produced.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputExpr {
    /// Evaluated per surviving row (non-grouped queries).
    Scalar(ScalarExpr),
    /// The `i`-th group key (grouped queries).
    Key(usize),
    /// The `i`-th aggregate (grouped queries).
    Agg(usize),
}

/// One sort key over the output columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKeySpec {
    /// Index into the output columns (including hidden ones).
    pub output_col: usize,
    /// Sort descending.
    pub descending: bool,
}

/// The fused description of a query: what the generated code would compute.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The probe-side root source (slot 0).
    pub root: SourceId,
    /// Filters over root columns, applied while scanning.
    pub root_filters: Vec<ScalarExpr>,
    /// Left-deep hash joins.
    pub joins: Vec<JoinSpec>,
    /// Filters that need columns from more than one slot; applied after all
    /// probes succeed.
    pub post_filters: Vec<ScalarExpr>,
    /// Group-by key expressions (empty for non-grouped queries).
    pub group_keys: Vec<ScalarExpr>,
    /// Aggregates (empty for non-grouped queries).
    pub aggregates: Vec<AggSpec>,
    /// Output columns: `(name, expression)`. Trailing `hidden_outputs`
    /// columns exist only to carry sort keys and are dropped from results.
    pub output: Vec<(String, OutputExpr)>,
    /// Schema of the visible output columns.
    pub output_schema: Schema,
    /// Sort keys over output columns.
    pub sort: Vec<SortKeySpec>,
    /// Keep only the first `n` rows of the sorted output, as resolved at
    /// lowering time. When [`QuerySpec::take_param`] is set, engines must
    /// re-resolve the count from the execution-time parameter vector via
    /// [`QuerySpec::effective_take`] — this field then only records the
    /// lowering instance's value.
    pub take: Option<usize>,
    /// When the `Take` count came from a parameter slot (the canonicaliser
    /// lifts `Take(5)` literals into slots), the slot index it must be
    /// re-read from on every execution. A cached or prepared plan executed
    /// with fresh bindings would otherwise silently reuse the count that
    /// happened to be bound when the plan was first compiled.
    pub take_param: Option<usize>,
    /// Number of parameter slots the plan reads (max referenced slot + 1).
    /// Engines reject shorter parameter vectors up front instead of
    /// panicking mid-scan on a pool worker — prepared queries hand
    /// caller-supplied bindings straight to the engines.
    pub param_slots: usize,
    /// Number of trailing hidden output columns.
    pub hidden_outputs: usize,
}

impl QuerySpec {
    /// True if the query aggregates.
    pub fn is_grouped(&self) -> bool {
        !self.aggregates.is_empty() || !self.group_keys.is_empty()
    }

    /// Every parameter slot referenced anywhere in the plan: filters, join
    /// keys, group keys, aggregate inputs, outputs — plus the `Take` slot.
    pub fn referenced_params(&self) -> Vec<usize> {
        let mut slots = Vec::new();
        {
            let mut push = |e: &ScalarExpr| e.params(&mut slots);
            for e in &self.root_filters {
                push(e);
            }
            for join in &self.joins {
                for e in &join.build_filters {
                    push(e);
                }
                for e in &join.build_keys {
                    push(e);
                }
                for e in &join.probe_keys {
                    push(e);
                }
            }
            for e in &self.post_filters {
                push(e);
            }
            for e in &self.group_keys {
                push(e);
            }
            for agg in &self.aggregates {
                if let Some(e) = &agg.input {
                    push(e);
                }
            }
            for (_, o) in &self.output {
                if let OutputExpr::Scalar(e) = o {
                    push(e);
                }
            }
        }
        if let Some(i) = self.take_param {
            slots.push(i);
        }
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Rejects a parameter vector too short for the plan. Every engine
    /// calls this before touching a row, so a prepared query bound with too
    /// few values fails with a clean [`MrqError::Codegen`] instead of
    /// panicking a pool worker mid-scan.
    pub fn check_params(&self, params: &[Value]) -> Result<()> {
        if params.len() < self.param_slots {
            return Err(MrqError::Codegen(format!(
                "plan reads {} parameter slot(s) but only {} value(s) were bound",
                self.param_slots,
                params.len()
            )));
        }
        Ok(())
    }

    /// The `Take` limit for *this* execution: re-resolved from the bound
    /// parameter vector when the count was lifted into a parameter slot,
    /// the baked lowering-time value otherwise. Cached plans re-executed
    /// with different bindings get the binding's count, not the compile
    /// instance's.
    pub fn effective_take(&self, params: &[Value]) -> Result<Option<usize>> {
        let Some(slot) = self.take_param else {
            return Ok(self.take);
        };
        let n = params
            .get(slot)
            .and_then(Value::as_i64)
            .ok_or_else(|| MrqError::Codegen("Take requires an integer count".into()))?;
        if n < 0 {
            return Err(MrqError::Codegen("Take count must be non-negative".into()));
        }
        Ok(Some(n as usize))
    }

    /// Every column of `slot` referenced anywhere in the spec — the implicit
    /// projection of §6.1.1 that drives staging.
    pub fn referenced_columns(&self, slot: usize) -> Vec<usize> {
        let mut cols = Vec::new();
        let mut push_expr = |e: &ScalarExpr| {
            let mut refs = Vec::new();
            e.columns(&mut refs);
            for r in refs {
                if r.slot == slot && !cols.contains(&r.col) {
                    cols.push(r.col);
                }
            }
        };
        for e in &self.root_filters {
            push_expr(e);
        }
        for j in &self.joins {
            for e in j
                .build_filters
                .iter()
                .chain(j.build_keys.iter())
                .chain(j.probe_keys.iter())
            {
                push_expr(e);
            }
        }
        for e in &self.post_filters {
            push_expr(e);
        }
        for e in &self.group_keys {
            push_expr(e);
        }
        for a in &self.aggregates {
            if let Some(e) = &a.input {
                push_expr(e);
            }
        }
        for (_, o) in &self.output {
            if let OutputExpr::Scalar(e) = o {
                push_expr(e);
            }
        }
        cols.sort_unstable();
        cols
    }

    /// The number of visible (non-hidden) output columns.
    pub fn visible_outputs(&self) -> usize {
        self.output.len() - self.hidden_outputs
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Per-lambda-parameter binding: maps a field name to the scalar expression
/// that produces it (a plain column for scans, possibly a computed expression
/// after a join result selector).
type FieldMap = Vec<(String, ScalarExpr)>;

fn lookup(map: &FieldMap, field: &str) -> Option<ScalarExpr> {
    map.iter()
        .find(|(name, _)| name == field)
        .map(|(_, e)| e.clone())
}

/// What the "current element" of the pipeline is while walking the operator
/// chain outwards.
enum Binding {
    /// A (possibly joined) row described by a field map.
    Row(FieldMap),
    /// The groups produced by a `GroupBy` (keys described by name).
    Grouped { keys: FieldMap },
    /// Final output rows (after the projection); names map to output column
    /// indexes.
    Output(Vec<String>),
}

struct Lowering<'a> {
    catalog: &'a dyn Catalog,
    params: &'a [Value],
    /// The schema of every slot bound so far, root first.
    slot_schemas: Vec<Schema>,
    spec: QuerySpec,
    binding: Binding,
    /// Sort keys requested before the final projection (e.g. `OrderBy`
    /// followed by `Select`); resolved against output columns at the end.
    pending_sort: Vec<(ScalarExpr, bool)>,
    output_types: Vec<DataType>,
    /// The row field map that was current when `GroupBy` ran; aggregate
    /// selectors in the following `Select` are lowered against it.
    grouped_row_map: Option<FieldMap>,
}

/// Lowers a canonical query into a [`QuerySpec`], typing every filter,
/// key, aggregate and output through `mrq_expr`'s type table: an ill-typed
/// statement is an [`MrqError::Codegen`] here, before any strategy runs.
///
/// Returns [`MrqError::Unsupported`] for query shapes outside the compiled
/// subset (nested reference navigation, arbitrary method calls, grouping of
/// grouped results, …); the provider falls back to the interpreted engine in
/// that case, mirroring how the paper restricts which queries the native
/// path accepts (§5).
pub fn lower(query: &CanonicalQuery, catalog: &dyn Catalog) -> Result<QuerySpec> {
    // Flatten the call chain from the source outwards.
    let mut chain = Vec::new();
    let mut cursor = &query.expr;
    loop {
        match cursor {
            Expr::Call { target, .. } => {
                chain.push(cursor);
                cursor = target;
            }
            Expr::Source(_) => break,
            other => {
                return Err(MrqError::Unsupported(format!(
                    "query root must be a source, found {other}"
                )))
            }
        }
    }
    chain.reverse();
    let root = match cursor {
        Expr::Source(id) => *id,
        _ => unreachable!(),
    };
    let root_schema = catalog
        .schema(root)
        .ok_or_else(|| MrqError::Codegen(format!("no schema bound for {root:?}")))?;
    let root_map: FieldMap = root_schema
        .fields()
        .iter()
        .enumerate()
        .map(|(i, f)| {
            (
                f.name.clone(),
                ScalarExpr::Column(ColumnRef { slot: 0, col: i }),
            )
        })
        .collect();

    let mut lowering = Lowering {
        catalog,
        params: &query.params,
        slot_schemas: vec![root_schema],
        spec: QuerySpec {
            root,
            root_filters: Vec::new(),
            joins: Vec::new(),
            post_filters: Vec::new(),
            group_keys: Vec::new(),
            aggregates: Vec::new(),
            output: Vec::new(),
            output_schema: Schema::new("Result", vec![]),
            sort: Vec::new(),
            take: None,
            take_param: None,
            param_slots: 0,
            hidden_outputs: 0,
        },
        binding: Binding::Row(root_map),
        pending_sort: Vec::new(),
        output_types: Vec::new(),
        grouped_row_map: None,
    };

    for node in chain {
        lowering.apply(node)?;
    }
    lowering.finish()
}

impl<'a> Lowering<'a> {
    fn slot_count(&self) -> usize {
        self.slot_schemas.len()
    }

    fn apply(&mut self, node: &Expr) -> Result<()> {
        let (method, args, direction) = match node {
            Expr::Call {
                method,
                args,
                direction,
                ..
            } => (*method, args, *direction),
            _ => unreachable!("chain contains only call nodes"),
        };
        match method {
            QueryMethod::Where => self.apply_where(args),
            QueryMethod::Join => self.apply_join(args),
            QueryMethod::GroupBy => self.apply_group_by(args),
            QueryMethod::Select => self.apply_select(args),
            QueryMethod::OrderBy | QueryMethod::ThenBy => self.apply_order_by(args, direction),
            QueryMethod::Take => self.apply_take(args),
            QueryMethod::Sum
            | QueryMethod::Count
            | QueryMethod::Average
            | QueryMethod::Min
            | QueryMethod::Max => self.apply_scalar_aggregate(method, args),
            QueryMethod::First => {
                self.spec.take = Some(1);
                Ok(())
            }
            other => Err(MrqError::Unsupported(format!(
                "query operator {other:?} is not supported by the compiled path"
            ))),
        }
    }

    fn apply_where(&mut self, args: &[Expr]) -> Result<()> {
        let (param, body) = expect_lambda(args.first())?;
        let map = match &self.binding {
            Binding::Row(map) => map.clone(),
            _ => {
                return Err(MrqError::Unsupported(
                    "Where after GroupBy/Select is not supported by the compiled path".into(),
                ))
            }
        };
        let predicate = self.lower_filter(body, &[(param, &map)])?;
        let mut conjuncts = Vec::new();
        split_conjuncts(predicate, &mut conjuncts);
        for c in conjuncts {
            if self.spec.joins.is_empty() {
                self.spec.root_filters.push(c);
            } else {
                self.spec.post_filters.push(c);
            }
        }
        Ok(())
    }

    fn apply_join(&mut self, args: &[Expr]) -> Result<()> {
        if !matches!(self.binding, Binding::Row(_)) {
            return Err(MrqError::Unsupported(
                "Join after GroupBy/Select is not supported by the compiled path".into(),
            ));
        }
        if args.len() != 4 {
            return Err(MrqError::Codegen("Join requires four arguments".into()));
        }
        // Build side: a source possibly wrapped in Where calls.
        let (build_source, build_filter_lambdas) = unwrap_filtered_source(&args[0])?;
        let build_schema = self
            .catalog
            .schema(build_source)
            .ok_or_else(|| MrqError::Codegen(format!("no schema bound for {build_source:?}")))?;
        let slot = self.slot_count();
        self.slot_schemas.push(build_schema.clone());
        let build_map: FieldMap = build_schema
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| {
                (
                    f.name.clone(),
                    ScalarExpr::Column(ColumnRef { slot, col: i }),
                )
            })
            .collect();
        let mut build_filters = Vec::new();
        for (param, body) in &build_filter_lambdas {
            let filter = self.lower_filter(body, &[(param, &build_map)])?;
            split_conjuncts(filter, &mut build_filters);
        }

        let outer_map = match &self.binding {
            Binding::Row(map) => map.clone(),
            _ => unreachable!(),
        };
        let (outer_param, outer_body) = expect_lambda(Some(&args[1]))?;
        let probe_keys = self.lower_key_list(outer_body, &[(outer_param, &outer_map)])?;
        let (inner_param, inner_body) = expect_lambda(Some(&args[2]))?;
        let build_keys = self.lower_key_list(inner_body, &[(inner_param, &build_map)])?;
        if probe_keys.len() != build_keys.len() || probe_keys.is_empty() {
            return Err(MrqError::Codegen(
                "join key selectors must produce the same, non-zero number of keys".into(),
            ));
        }
        self.check_key(&probe_keys)?;
        for (probe, build) in probe_keys.iter().zip(&build_keys) {
            binary_type(
                BinaryOp::Eq,
                self.scalar_type(probe)?,
                self.scalar_type(build)?,
            )?;
        }

        // Result selector: outer => inner => body.
        let (res_outer, res_inner_lambda) = expect_lambda(Some(&args[3]))?;
        let (res_inner, res_body) = expect_lambda(Some(res_inner_lambda))?;
        let env: [(&str, &FieldMap); 2] = [(res_outer, &outer_map), (res_inner, &build_map)];
        let new_map: FieldMap = match res_body {
            Expr::Constructor { fields, .. } => {
                let mut map = Vec::with_capacity(fields.len());
                for (name, e) in fields {
                    map.push((name.clone(), self.lower_scalar(e, &env)?));
                }
                map
            }
            Expr::Parameter(p) if p == res_outer => outer_map.clone(),
            Expr::Parameter(p) if p == res_inner => build_map.clone(),
            other => {
                return Err(MrqError::Unsupported(format!(
                "join result selector must construct a record or return a parameter, found {other}"
            )))
            }
        };

        self.spec.joins.push(JoinSpec {
            source: build_source,
            slot,
            build_filters,
            build_keys,
            probe_keys,
        });
        self.binding = Binding::Row(new_map);
        Ok(())
    }

    fn apply_group_by(&mut self, args: &[Expr]) -> Result<()> {
        let map = match &self.binding {
            Binding::Row(map) => map.clone(),
            _ => {
                return Err(MrqError::Unsupported(
                    "GroupBy over grouped or projected results is not supported".into(),
                ))
            }
        };
        let (param, body) = expect_lambda(args.first())?;
        let env: [(&str, &FieldMap); 1] = [(param, &map)];
        let keys: FieldMap = match body {
            Expr::Constructor { fields, .. } => {
                let mut out = Vec::with_capacity(fields.len());
                for (name, e) in fields {
                    out.push((name.clone(), self.lower_scalar(e, &env)?));
                }
                out
            }
            Expr::Member { field, .. } => {
                vec![(field.clone(), self.lower_scalar(body, &env)?)]
            }
            other => {
                return Err(MrqError::Unsupported(format!(
                "GroupBy key selector must be a member access or record constructor, found {other}"
            )))
            }
        };
        self.spec.group_keys = keys.iter().map(|(_, e)| e.clone()).collect();
        self.check_key(&self.spec.group_keys)?;
        // Remember the row field map so aggregate selectors inside the
        // following Select can be lowered.
        self.binding = Binding::Grouped { keys };
        self.grouped_row_map = Some(map);
        Ok(())
    }

    fn apply_select(&mut self, args: &[Expr]) -> Result<()> {
        let (param, body) = expect_lambda(args.first())?;
        match &self.binding {
            Binding::Row(map) => {
                let map = map.clone();
                let env: [(&str, &FieldMap); 1] = [(param, &map)];
                let outputs: Vec<(String, ScalarExpr)> = match body {
                    Expr::Constructor { fields, .. } => {
                        let mut out = Vec::with_capacity(fields.len());
                        for (name, e) in fields {
                            out.push((name.clone(), self.lower_scalar(e, &env)?));
                        }
                        out
                    }
                    other => vec![("value".to_string(), self.lower_scalar(other, &env)?)],
                };
                let names = outputs.iter().map(|(n, _)| n.clone()).collect();
                for (name, e) in outputs {
                    let dtype = self.scalar_type(&e)?;
                    self.output_types.push(dtype);
                    self.spec.output.push((name, OutputExpr::Scalar(e)));
                }
                self.binding = Binding::Output(names);
                Ok(())
            }
            Binding::Grouped { keys } => {
                let keys = keys.clone();
                let row_map = self
                    .grouped_row_map
                    .clone()
                    .ok_or_else(|| MrqError::Codegen("GroupBy state missing".into()))?;
                let fields = match body {
                    Expr::Constructor { fields, .. } => fields.clone(),
                    other => {
                        return Err(MrqError::Unsupported(format!(
                            "the Select after a GroupBy must construct a record, found {other}"
                        )))
                    }
                };
                let mut names = Vec::new();
                for (name, e) in &fields {
                    let output = self.lower_group_output(e, param, &keys, &row_map)?;
                    let dtype = match &output {
                        OutputExpr::Key(i) => {
                            self.scalar_type(&self.spec.group_keys[*i].clone())?
                        }
                        OutputExpr::Agg(i) => self.spec.aggregates[*i].dtype,
                        OutputExpr::Scalar(s) => self.scalar_type(s)?,
                    };
                    self.output_types.push(dtype);
                    self.spec.output.push((name.clone(), output));
                    names.push(name.clone());
                }
                self.binding = Binding::Output(names);
                Ok(())
            }
            Binding::Output(_) => Err(MrqError::Unsupported(
                "Select over an already-projected result is not supported".into(),
            )),
        }
    }

    fn lower_group_output(
        &mut self,
        expr: &Expr,
        group_param: &str,
        keys: &FieldMap,
        row_map: &FieldMap,
    ) -> Result<OutputExpr> {
        // g.Key.<name>
        if let Expr::Member { target, field } = expr {
            if let Expr::Member {
                target: inner,
                field: key_field,
            } = target.as_ref()
            {
                if key_field == "Key"
                    && matches!(inner.as_ref(), Expr::Parameter(p) if p == group_param)
                {
                    let idx = keys
                        .iter()
                        .position(|(name, _)| name == field)
                        .ok_or_else(|| {
                            MrqError::Codegen(format!("unknown group key member `{field}`"))
                        })?;
                    return Ok(OutputExpr::Key(idx));
                }
            }
            // g.Key with a single key
            if field == "Key" && matches!(target.as_ref(), Expr::Parameter(p) if p == group_param) {
                if keys.len() == 1 {
                    return Ok(OutputExpr::Key(0));
                }
                return Err(MrqError::Unsupported(
                    "projecting a composite group key as a whole is not supported".into(),
                ));
            }
        }
        // g.Sum(x => ...), g.Count(), ...
        if let Expr::Call {
            method,
            target,
            args,
            ..
        } = expr
        {
            if matches!(target.as_ref(), Expr::Parameter(p) if p == group_param) {
                if let Some(func) = AggFunc::from_method(*method) {
                    let input = match args.first() {
                        Some(selector) => {
                            let (param, body) = expect_lambda(Some(selector))?;
                            let env: [(&str, &FieldMap); 1] = [(param, row_map)];
                            Some(self.lower_scalar(body, &env)?)
                        }
                        None => None,
                    };
                    let candidate = self.aggregate(func, input)?;
                    // Duplicate-aggregate elimination (§2.3): identical
                    // aggregate computations (same function over the same
                    // selector) are computed once and shared by every output
                    // column that references them.
                    if let Some(existing) =
                        self.spec.aggregates.iter().position(|a| *a == candidate)
                    {
                        return Ok(OutputExpr::Agg(existing));
                    }
                    let idx = self.spec.aggregates.len();
                    self.spec.aggregates.push(candidate);
                    return Ok(OutputExpr::Agg(idx));
                }
            }
        }
        Err(MrqError::Unsupported(format!(
            "unsupported expression in group projection: {expr}"
        )))
    }

    fn apply_order_by(&mut self, args: &[Expr], direction: SortDirection) -> Result<()> {
        let descending = direction == SortDirection::Descending;
        let (param, body) = expect_lambda(args.first())?;
        match &self.binding {
            Binding::Output(names) => {
                // The key selector must reference an output column by name.
                let field = match body {
                    Expr::Member { target, field } if matches!(target.as_ref(), Expr::Parameter(p) if p == param) => {
                        field.clone()
                    }
                    other => {
                        return Err(MrqError::Unsupported(format!(
                            "sort keys over projected results must be plain members, found {other}"
                        )))
                    }
                };
                let idx = names.iter().position(|n| *n == field).ok_or_else(|| {
                    MrqError::Codegen(format!("sort key `{field}` is not an output column"))
                })?;
                self.spec.sort.push(SortKeySpec {
                    output_col: idx,
                    descending,
                });
                Ok(())
            }
            Binding::Row(map) => {
                let map = map.clone();
                let env: [(&str, &FieldMap); 1] = [(param, &map)];
                let key = self.lower_scalar(body, &env)?;
                self.pending_sort.push((key, descending));
                Ok(())
            }
            Binding::Grouped { .. } => Err(MrqError::Unsupported(
                "OrderBy directly over groups is not supported".into(),
            )),
        }
    }

    fn apply_take(&mut self, args: &[Expr]) -> Result<()> {
        let n = match args.first() {
            Some(Expr::Constant(v)) => v.as_i64(),
            Some(Expr::QueryParam(i)) => {
                // The count is a parameter slot: record the slot so every
                // execution re-resolves it from its own bindings (a cached
                // plan must not freeze the first instance's count).
                self.spec.take_param = Some(*i);
                self.params.get(*i).and_then(Value::as_i64)
            }
            _ => None,
        }
        .ok_or_else(|| MrqError::Codegen("Take requires an integer count".into()))?;
        if n < 0 {
            return Err(MrqError::Codegen("Take count must be non-negative".into()));
        }
        self.spec.take = Some(n as usize);
        Ok(())
    }

    fn apply_scalar_aggregate(&mut self, method: QueryMethod, args: &[Expr]) -> Result<()> {
        let func = AggFunc::from_method(method).expect("checked by caller");
        let map = match &self.binding {
            Binding::Row(map) => map.clone(),
            _ => {
                return Err(MrqError::Unsupported(
                    "whole-query aggregates over grouped results are not supported".into(),
                ))
            }
        };
        let input = match args.first() {
            Some(selector) => {
                let (param, body) = expect_lambda(Some(selector))?;
                let env: [(&str, &FieldMap); 1] = [(param, &map)];
                Some(self.lower_scalar(body, &env)?)
            }
            None => None,
        };
        let aggregate = self.aggregate(func, input)?;
        self.output_types.push(aggregate.dtype);
        self.spec.aggregates.push(aggregate);
        self.spec
            .output
            .push((format!("{func:?}").to_lowercase(), OutputExpr::Agg(0)));
        self.binding = Binding::Output(vec![format!("{func:?}").to_lowercase()]);
        Ok(())
    }

    fn finish(mut self) -> Result<QuerySpec> {
        // Default projection: if no Select ran, output every root column (or
        // every group key + aggregate if grouped).
        if self.spec.output.is_empty() {
            match &self.binding {
                Binding::Row(map) => {
                    for (name, e) in map.clone() {
                        let dtype = self.scalar_type(&e)?;
                        self.output_types.push(dtype);
                        self.spec.output.push((name, OutputExpr::Scalar(e)));
                    }
                }
                Binding::Grouped { .. } => {
                    return Err(MrqError::Unsupported(
                        "a GroupBy must be followed by a Select in the compiled path".into(),
                    ))
                }
                Binding::Output(_) => {}
            }
        }
        // Resolve pending (pre-projection) sort keys against the output.
        let pending = std::mem::take(&mut self.pending_sort);
        for (key, descending) in pending {
            let existing = self.spec.output.iter().position(|(_, o)| match o {
                OutputExpr::Scalar(e) => *e == key,
                _ => false,
            });
            let idx = match existing {
                Some(i) => i,
                None => {
                    let dtype = self.scalar_type(&key)?;
                    self.output_types.push(dtype);
                    self.spec.output.push((
                        format!("__sort_{}", self.spec.output.len()),
                        OutputExpr::Scalar(key),
                    ));
                    self.spec.hidden_outputs += 1;
                    self.spec.output.len() - 1
                }
            };
            self.spec.sort.push(SortKeySpec {
                output_col: idx,
                descending,
            });
        }
        let visible = self.spec.output.len() - self.spec.hidden_outputs;
        let fields = self
            .spec
            .output
            .iter()
            .take(visible)
            .zip(self.output_types.iter())
            .map(|((name, _), dtype)| mrq_common::Field::new(name.clone(), *dtype))
            .collect();
        self.spec.output_schema = Schema::new("Result", fields);
        self.spec.param_slots = self
            .spec
            .referenced_params()
            .last()
            .map_or(0, |max| max + 1);
        Ok(self.spec)
    }

    // -- scalar lowering ----------------------------------------------------

    fn lower_scalar(&self, expr: &Expr, env: &[(&str, &FieldMap)]) -> Result<ScalarExpr> {
        match expr {
            Expr::Constant(v) => Ok(ScalarExpr::Const(v.clone())),
            Expr::QueryParam(i) => Ok(ScalarExpr::Param(*i)),
            Expr::Member { target, field } => match target.as_ref() {
                Expr::Parameter(p) => {
                    let map = env
                        .iter()
                        .find(|(name, _)| name == p)
                        .map(|(_, m)| *m)
                        .ok_or_else(|| {
                            MrqError::Codegen(format!("unbound lambda parameter `{p}`"))
                        })?;
                    lookup(map, field).ok_or_else(|| MrqError::UnknownField(field.clone()))
                }
                other => Err(MrqError::Unsupported(format!(
                    "nested member navigation `{other}.{field}` is not supported by the compiled path"
                ))),
            },
            Expr::Binary { op, left, right } => Ok(ScalarExpr::Binary {
                op: *op,
                left: Box::new(self.lower_scalar(left, env)?),
                right: Box::new(self.lower_scalar(right, env)?),
            }),
            Expr::Unary { op, expr } => Ok(ScalarExpr::Unary {
                op: *op,
                expr: Box::new(self.lower_scalar(expr, env)?),
            }),
            Expr::Call {
                method,
                target,
                args,
                ..
            } => {
                let op = match method {
                    QueryMethod::StartsWith => StrOp::StartsWith,
                    QueryMethod::EndsWith => StrOp::EndsWith,
                    QueryMethod::Contains => StrOp::Contains,
                    other => {
                        return Err(MrqError::Unsupported(format!(
                            "method {other:?} cannot appear inside a scalar expression"
                        )))
                    }
                };
                let arg = args.first().ok_or_else(|| {
                    MrqError::Codegen("string methods need a pattern argument".into())
                })?;
                Ok(ScalarExpr::Str {
                    op,
                    target: Box::new(self.lower_scalar(target, env)?),
                    arg: Box::new(self.lower_scalar(arg, env)?),
                })
            }
            Expr::Parameter(p) => Err(MrqError::Unsupported(format!(
                "whole-object references (`{p}`) cannot appear in scalar positions of the compiled path"
            ))),
            other => Err(MrqError::Unsupported(format!(
                "unsupported scalar expression {other}"
            ))),
        }
    }

    fn lower_key_list(&self, body: &Expr, env: &[(&str, &FieldMap)]) -> Result<Vec<ScalarExpr>> {
        match body {
            Expr::Constructor { fields, .. } => fields
                .iter()
                .map(|(_, e)| self.lower_scalar(e, env))
                .collect(),
            other => Ok(vec![self.lower_scalar(other, env)?]),
        }
    }

    // -- typing ---------------------------------------------------------------

    /// A filter body, which must be `Bool`.
    fn lower_filter(&self, body: &Expr, env: &[(&str, &FieldMap)]) -> Result<ScalarExpr> {
        let filter = self.lower_scalar(body, env)?;
        match self.scalar_type(&filter)? {
            DataType::Bool => Ok(filter),
            other => Err(MrqError::Codegen(format!(
                "a filter must be Bool, found {other}: {body}"
            ))),
        }
    }

    /// Types every part of a group or join key and bounds its arity.
    fn check_key(&self, parts: &[ScalarExpr]) -> Result<()> {
        if parts.len() > MAX_KEY_PARTS {
            return Err(MrqError::Codegen(format!(
                "a key has {} parts; at most {MAX_KEY_PARTS} are supported",
                parts.len()
            )));
        }
        parts.iter().try_for_each(|p| self.scalar_type(p).map(drop))
    }

    /// The type of a scalar expression: columns and parameters by their
    /// bound types, every operator through the type table.
    fn scalar_type(&self, expr: &ScalarExpr) -> Result<DataType> {
        match expr {
            ScalarExpr::Column(c) => Ok(self.slot_schemas[c.slot].field(c.col).dtype),
            ScalarExpr::Const(v) => v
                .dtype()
                .ok_or_else(|| MrqError::Codegen("untyped null constant".into())),
            ScalarExpr::Param(i) => self
                .params
                .get(*i)
                .and_then(Value::dtype)
                .ok_or_else(|| MrqError::Codegen(format!("parameter {i} out of range"))),
            ScalarExpr::Binary { op, left, right } => {
                binary_type(*op, self.scalar_type(left)?, self.scalar_type(right)?)
            }
            ScalarExpr::Unary { op, expr } => unary_type(*op, self.scalar_type(expr)?),
            ScalarExpr::Str { op, target, arg } => method_type(
                op.method(),
                self.scalar_type(target)?,
                self.scalar_type(arg)?,
            ),
        }
    }

    /// One aggregate, typed: `Count` is `Int64` and `Average` `Float64`;
    /// `Sum` has the type `+` gives its input twice (Int32 sums are Int64);
    /// `Min` and `Max` have their input's type. `Average` adds its inputs
    /// too, so `+` must take the input's type twice.
    fn aggregate(&self, func: AggFunc, input: Option<ScalarExpr>) -> Result<AggSpec> {
        let input_dtype = input.as_ref().map(|e| self.scalar_type(e)).transpose()?;
        let dtype = match (func, input_dtype) {
            (AggFunc::Count, _) => DataType::Int64,
            (_, None) => return Err(MrqError::Codegen(format!("{func:?} requires a selector"))),
            (AggFunc::Sum, Some(t)) => binary_type(BinaryOp::Add, t, t)?,
            (AggFunc::Average, Some(t)) => {
                binary_type(BinaryOp::Add, t, t).map(|_| DataType::Float64)?
            }
            (_, Some(t)) => t,
        };
        Ok(AggSpec {
            func,
            input,
            dtype,
            input_dtype,
        })
    }
}

fn expect_lambda(expr: Option<&Expr>) -> Result<(&str, &Expr)> {
    match expr {
        Some(Expr::Lambda { param, body }) => Ok((param.as_str(), body.as_ref())),
        other => Err(MrqError::Codegen(format!(
            "expected a lambda argument, found {other:?}"
        ))),
    }
}

/// Splits a predicate into its top-level conjuncts.
fn split_conjuncts(expr: ScalarExpr, out: &mut Vec<ScalarExpr>) {
    match expr {
        ScalarExpr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

/// Peels `Where` calls off a join's build side, returning the underlying
/// source and the filter lambdas (as `(param, body)` pairs).
fn unwrap_filtered_source(expr: &Expr) -> Result<(SourceId, Vec<(String, Expr)>)> {
    let mut filters = Vec::new();
    let mut cursor = expr;
    loop {
        match cursor {
            Expr::Source(id) => {
                filters.reverse();
                return Ok((*id, filters));
            }
            Expr::Call {
                method: QueryMethod::Where,
                target,
                args,
                ..
            } => {
                match args.first() {
                    Some(Expr::Lambda { param, body }) => {
                        filters.push((param.clone(), body.as_ref().clone()))
                    }
                    other => {
                        return Err(MrqError::Codegen(format!(
                            "expected a lambda argument, found {other:?}"
                        )))
                    }
                }
                cursor = target;
            }
            other => {
                return Err(MrqError::Unsupported(format!(
                    "join build sides must be plain or filtered sources, found {other}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrq_common::Field;
    use mrq_expr::{canonicalize, col, lam, lit, Query};

    fn catalog() -> HashMap<SourceId, Schema> {
        let mut map = HashMap::new();
        map.insert(
            SourceId(0),
            Schema::new(
                "Lineitem",
                vec![
                    Field::new("l_orderkey", DataType::Int64),
                    Field::new("l_quantity", DataType::Decimal),
                    Field::new("l_extendedprice", DataType::Decimal),
                    Field::new("l_discount", DataType::Decimal),
                    Field::new("l_shipdate", DataType::Date),
                    Field::new("l_returnflag", DataType::Str),
                ],
            ),
        );
        map.insert(
            SourceId(1),
            Schema::new(
                "Orders",
                vec![
                    Field::new("o_orderkey", DataType::Int64),
                    Field::new("o_custkey", DataType::Int64),
                    Field::new("o_orderdate", DataType::Date),
                ],
            ),
        );
        map
    }

    #[test]
    fn filter_project_query_lowers_to_scan_filter_output() {
        let q = Query::from_source(SourceId(0))
            .where_(lam(
                "l",
                Expr::binary(
                    BinaryOp::Le,
                    col("l", "l_shipdate"),
                    lit(mrq_common::Date::from_ymd(1998, 9, 2)),
                ),
            ))
            .select(lam("l", col("l", "l_extendedprice")))
            .into_expr();
        let spec = lower(&canonicalize(q), &catalog()).unwrap();
        assert_eq!(spec.root, SourceId(0));
        assert_eq!(spec.root_filters.len(), 1);
        assert!(spec.joins.is_empty());
        assert!(!spec.is_grouped());
        assert_eq!(spec.output.len(), 1);
        assert_eq!(spec.output_schema.field(0).dtype, DataType::Decimal);
        // The filter references only the ship-date column of slot 0.
        assert_eq!(spec.referenced_columns(0), vec![2, 4]);
    }

    #[test]
    fn conjunctive_filters_are_split() {
        let q = Query::from_source(SourceId(0))
            .where_(lam(
                "l",
                Expr::binary(
                    BinaryOp::And,
                    Expr::binary(
                        BinaryOp::Gt,
                        col("l", "l_quantity"),
                        lit(mrq_common::Decimal::from_int(5)),
                    ),
                    Expr::binary(BinaryOp::Eq, col("l", "l_returnflag"), lit("N")),
                ),
            ))
            .into_expr();
        let spec = lower(&canonicalize(q), &catalog()).unwrap();
        assert_eq!(spec.root_filters.len(), 2);
        // Default projection: all six root columns.
        assert_eq!(spec.output.len(), 6);
    }

    #[test]
    fn group_by_with_aggregates_lowers_keys_and_aggs() {
        let q = Query::from_source(SourceId(0))
            .group_by(lam("l", col("l", "l_returnflag")))
            .select(lam(
                "g",
                Expr::Constructor {
                    name: "R".into(),
                    fields: vec![
                        (
                            "flag".into(),
                            Expr::member(Expr::member(mrq_expr::var("g"), "Key"), "l_returnflag"),
                        ),
                        (
                            "total".into(),
                            mrq_expr::builder::agg(
                                AggFunc::Sum,
                                "g",
                                Some(lam("x", col("x", "l_quantity"))),
                            ),
                        ),
                        (
                            "n".into(),
                            mrq_expr::builder::agg(AggFunc::Count, "g", None),
                        ),
                    ],
                },
            ))
            .into_expr();
        let spec = lower(&canonicalize(q), &catalog()).unwrap();
        assert!(spec.is_grouped());
        assert_eq!(spec.group_keys.len(), 1);
        assert_eq!(spec.aggregates.len(), 2);
        assert_eq!(spec.aggregates[0].func, AggFunc::Sum);
        assert_eq!(spec.aggregates[0].dtype, DataType::Decimal);
        assert_eq!(spec.aggregates[1].dtype, DataType::Int64);
        assert_eq!(
            spec.output,
            vec![
                ("flag".to_string(), OutputExpr::Key(0)),
                ("total".to_string(), OutputExpr::Agg(0)),
                ("n".to_string(), OutputExpr::Agg(1)),
            ]
        );
    }

    #[test]
    fn duplicate_aggregates_are_computed_once_and_shared() {
        // The same Sum(l_quantity) appears twice and Count() appears twice;
        // each must lower to a single aggregate shared by both output columns
        // (§2.3, "overlaps in the aggregation computations").
        let q = Query::from_source(SourceId(0))
            .group_by(lam("l", col("l", "l_returnflag")))
            .select(lam(
                "g",
                Expr::Constructor {
                    name: "R".into(),
                    fields: vec![
                        (
                            "total".into(),
                            mrq_expr::builder::agg(
                                AggFunc::Sum,
                                "g",
                                Some(lam("x", col("x", "l_quantity"))),
                            ),
                        ),
                        (
                            "total_again".into(),
                            mrq_expr::builder::agg(
                                AggFunc::Sum,
                                "g",
                                Some(lam("x", col("x", "l_quantity"))),
                            ),
                        ),
                        (
                            "n".into(),
                            mrq_expr::builder::agg(AggFunc::Count, "g", None),
                        ),
                        (
                            "n_again".into(),
                            mrq_expr::builder::agg(AggFunc::Count, "g", None),
                        ),
                        (
                            "other".into(),
                            mrq_expr::builder::agg(
                                AggFunc::Sum,
                                "g",
                                Some(lam("x", col("x", "l_extendedprice"))),
                            ),
                        ),
                    ],
                },
            ))
            .into_expr();
        let spec = lower(&canonicalize(q), &catalog()).unwrap();
        assert_eq!(spec.aggregates.len(), 3, "duplicates must be eliminated");
        assert_eq!(spec.output[0].1, OutputExpr::Agg(0));
        assert_eq!(spec.output[1].1, OutputExpr::Agg(0));
        assert_eq!(spec.output[2].1, OutputExpr::Agg(1));
        assert_eq!(spec.output[3].1, OutputExpr::Agg(1));
        assert_eq!(spec.output[4].1, OutputExpr::Agg(2));
    }

    #[test]
    fn join_with_filtered_build_side_pushes_the_selection_down() {
        let q = Query::from_source(SourceId(0))
            .join_query(
                Query::from_source(SourceId(1)).where_(lam(
                    "o",
                    Expr::binary(
                        BinaryOp::Lt,
                        col("o", "o_orderdate"),
                        lit(mrq_common::Date::from_ymd(1995, 3, 15)),
                    ),
                )),
                lam("l", col("l", "l_orderkey")),
                lam("o", col("o", "o_orderkey")),
                lam(
                    "l",
                    lam(
                        "o",
                        Expr::Constructor {
                            name: "LO".into(),
                            fields: vec![
                                ("price".into(), col("l", "l_extendedprice")),
                                ("odate".into(), col("o", "o_orderdate")),
                            ],
                        },
                    ),
                ),
            )
            .into_expr();
        let spec = lower(&canonicalize(q), &catalog()).unwrap();
        assert_eq!(spec.joins.len(), 1);
        let join = &spec.joins[0];
        assert_eq!(join.source, SourceId(1));
        assert_eq!(join.slot, 1);
        assert_eq!(join.build_filters.len(), 1);
        assert_eq!(join.build_keys.len(), 1);
        assert_eq!(join.probe_keys.len(), 1);
        assert!(join.build_filters[0].only_slot(1));
        assert!(join.probe_keys[0].only_slot(0));
        // Output carries one column from each side.
        assert_eq!(spec.output.len(), 2);
        assert_eq!(spec.referenced_columns(1), vec![0, 2]);
    }

    #[test]
    fn pre_projection_sort_keys_resolve_to_output_columns() {
        // Where -> OrderBy -> Select, like the sorting micro-benchmark.
        let q = Query::from_source(SourceId(0))
            .order_by(lam("l", col("l", "l_extendedprice")))
            .select(lam(
                "l",
                Expr::Constructor {
                    name: "Out".into(),
                    fields: vec![
                        ("l_orderkey".into(), col("l", "l_orderkey")),
                        ("l_extendedprice".into(), col("l", "l_extendedprice")),
                    ],
                },
            ))
            .into_expr();
        let spec = lower(&canonicalize(q), &catalog()).unwrap();
        assert_eq!(spec.sort.len(), 1);
        assert_eq!(spec.sort[0].output_col, 1);
        assert_eq!(spec.hidden_outputs, 0);

        // If the sort key is not projected, a hidden output column carries it.
        let q2 = Query::from_source(SourceId(0))
            .order_by_desc(lam("l", col("l", "l_quantity")))
            .select(lam("l", col("l", "l_orderkey")))
            .into_expr();
        let spec2 = lower(&canonicalize(q2), &catalog()).unwrap();
        assert_eq!(spec2.hidden_outputs, 1);
        assert_eq!(spec2.visible_outputs(), 1);
        assert!(spec2.sort[0].descending);
        assert_eq!(spec2.sort[0].output_col, 1);
    }

    #[test]
    fn take_resolves_parameterised_counts() {
        let q = Query::from_source(SourceId(0)).take(10).into_expr();
        let canon = canonicalize(q);
        // Canonicalisation turned the literal into a parameter.
        assert_eq!(canon.params, vec![Value::Int64(10)]);
        let spec = lower(&canon, &catalog()).unwrap();
        assert_eq!(spec.take, Some(10));
    }

    #[test]
    fn whole_query_count_becomes_a_single_aggregate() {
        let q = Query::from_source(SourceId(0)).count().into_expr();
        let spec = lower(&canonicalize(q), &catalog()).unwrap();
        assert!(spec.group_keys.is_empty());
        assert_eq!(spec.aggregates.len(), 1);
        assert_eq!(spec.aggregates[0].func, AggFunc::Count);
        assert_eq!(spec.output.len(), 1);
    }

    #[test]
    fn unsupported_shapes_are_rejected_not_miscompiled() {
        // Nested member navigation.
        let q = Query::from_source(SourceId(0))
            .where_(lam(
                "s",
                Expr::binary(
                    BinaryOp::Eq,
                    Expr::member(Expr::member(mrq_expr::var("s"), "Shop"), "City"),
                    lit("London"),
                ),
            ))
            .into_expr();
        let err = lower(&canonicalize(q), &catalog()).unwrap_err();
        assert!(matches!(
            err,
            MrqError::Unsupported(_) | MrqError::UnknownField(_)
        ));

        // GroupBy without a Select.
        let q2 = Query::from_source(SourceId(0))
            .group_by(lam("l", col("l", "l_returnflag")))
            .into_expr();
        assert!(lower(&canonicalize(q2), &catalog()).is_err());

        // Unknown field.
        let q3 = Query::from_source(SourceId(0))
            .select(lam("l", col("l", "no_such_column")))
            .into_expr();
        assert!(matches!(
            lower(&canonicalize(q3), &catalog()),
            Err(MrqError::UnknownField(_))
        ));
    }
}
