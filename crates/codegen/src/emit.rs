//! Source emission.
//!
//! The paper's provider turns the code tree into C# and/or C source text and
//! compiles it (§4.2, §5.2). This reproduction runs the lowered
//! [`QuerySpec`] compiled to closures instead and invokes no compiler, so
//! the emitted source only documents what the paper's system would compile
//! for a query: `Provider::explain` emits it on request, and nothing on the
//! execution path does.

use crate::spec::{AggSpec, OutputExpr, QuerySpec, ScalarExpr, StrOp};
use mrq_expr::{AggFunc, UnaryOp};
use std::fmt::Write as _;

/// Which backend source language to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Managed (C#-like) source, the §4 strategy.
    CSharp,
    /// Native (C-like) source, the §5/§6 strategy.
    C,
}

/// Renders a scalar expression as C-like source.
pub fn render_scalar(expr: &ScalarExpr) -> String {
    match expr {
        ScalarExpr::Column(c) => format!("slot{}->col{}", c.slot, c.col),
        ScalarExpr::Const(v) => match v {
            mrq_common::Value::Str(s) => format!("\"{s}\""),
            other => other.to_string(),
        },
        ScalarExpr::Param(i) => format!("ctx->param_{i}"),
        ScalarExpr::Binary { op, left, right } => format!(
            "({} {} {})",
            render_scalar(left),
            op.symbol(),
            render_scalar(right)
        ),
        ScalarExpr::Unary { op, expr } => match op {
            UnaryOp::Not => format!("!({})", render_scalar(expr)),
            UnaryOp::Neg => format!("-({})", render_scalar(expr)),
        },
        ScalarExpr::Str { op, target, arg } => {
            let func = match op {
                StrOp::StartsWith => "str_starts_with",
                StrOp::EndsWith => "str_ends_with",
                StrOp::Contains => "str_contains",
            };
            format!("{func}({}, {})", render_scalar(target), render_scalar(arg))
        }
    }
}

fn render_agg(agg: &AggSpec, idx: usize) -> String {
    let input = agg
        .input
        .as_ref()
        .map(render_scalar)
        .unwrap_or_else(|| "1".to_string());
    match agg.func {
        AggFunc::Count => format!("group->agg_{idx} += 1;"),
        AggFunc::Sum => format!("group->agg_{idx} += {input};"),
        AggFunc::Average => {
            format!("group->agg_{idx}_sum += {input}; group->agg_{idx}_count += 1;")
        }
        AggFunc::Min => format!("if ({input} < group->agg_{idx}) group->agg_{idx} = {input};"),
        AggFunc::Max => format!("if ({input} > group->agg_{idx}) group->agg_{idx} = {input};"),
    }
}

/// Emits the source code the paper's provider would compile for this query.
///
/// The emitted text follows the structure of the paper's listings: a single
/// `Execute`/`EvaluateQuery` entry point, hash-table builds for join build
/// sides, one tight loop over the probe side with inlined predicates, fused
/// aggregation, and a final sort/take epilogue.
pub fn emit_source(spec: &QuerySpec, backend: Backend) -> String {
    let mut out = String::new();
    match backend {
        Backend::CSharp => {
            let _ = writeln!(
                out,
                "// generated by the MRQ query provider (managed backend)"
            );
            let _ = writeln!(out, "public static class Executor {{");
            let _ = writeln!(
                out,
                "  public static IEnumerable<Result> Execute(IEnumerable<Source0> data_0, ...) {{"
            );
        }
        Backend::C => {
            let _ = writeln!(
                out,
                "/* generated by the MRQ query provider (native backend) */"
            );
            let _ = writeln!(out, "int EvaluateQuery(Context* ctx) {{");
        }
    }
    for join in &spec.joins {
        let _ = writeln!(
            out,
            "  /* build hash table for slot {} (source {:?}) */",
            join.slot, join.source
        );
        for f in &join.build_filters {
            let _ = writeln!(out, "  //   filter: {}", render_scalar(f));
        }
        let keys: Vec<String> = join.build_keys.iter().map(render_scalar).collect();
        let _ = writeln!(out, "  //   key: [{}]", keys.join(", "));
    }
    let loop_head = match backend {
        Backend::CSharp => "  foreach (var elem_0 in data_0) {",
        Backend::C => "  for (i = ctx->curr_elem; i < ctx->input_sze; i++) {",
    };
    let _ = writeln!(out, "{loop_head}");
    for f in &spec.root_filters {
        let _ = writeln!(out, "    if (!({})) continue;", render_scalar(f));
    }
    for join in &spec.joins {
        let keys: Vec<String> = join.probe_keys.iter().map(render_scalar).collect();
        let _ = writeln!(
            out,
            "    /* probe hash table {} with [{}] */",
            join.slot,
            keys.join(", ")
        );
    }
    for f in &spec.post_filters {
        let _ = writeln!(out, "    if (!({})) continue;", render_scalar(f));
    }
    if spec.is_grouped() {
        let keys: Vec<String> = spec.group_keys.iter().map(render_scalar).collect();
        let _ = writeln!(out, "    /* group by [{}] */", keys.join(", "));
        for (idx, agg) in spec.aggregates.iter().enumerate() {
            let _ = writeln!(out, "    {}", render_agg(agg, idx));
        }
    } else {
        let cols: Vec<String> = spec
            .output
            .iter()
            .map(|(name, o)| match o {
                OutputExpr::Scalar(e) => format!("{name} = {}", render_scalar(e)),
                _ => unreachable!(),
            })
            .collect();
        match backend {
            Backend::CSharp => {
                let _ = writeln!(
                    out,
                    "    yield return new Result {{ {} }};",
                    cols.join(", ")
                );
            }
            Backend::C => {
                let _ = writeln!(
                    out,
                    "    ctx->out_elem = (Result){{ {} }};",
                    cols.join(", ")
                );
                let _ = writeln!(out, "    ctx->curr_elem = i + 1;");
                let _ = writeln!(out, "    return 1;");
            }
        }
    }
    let _ = writeln!(out, "  }}");
    if !spec.sort.is_empty() {
        let keys: Vec<String> = spec
            .sort
            .iter()
            .map(|k| {
                format!(
                    "out{}{}",
                    k.output_col,
                    if k.descending { " desc" } else { "" }
                )
            })
            .collect();
        let _ = writeln!(out, "  /* quicksort result by [{}] */", keys.join(", "));
    }
    if let Some(n) = spec.take {
        let _ = writeln!(out, "  /* take first {n} */");
    }
    match backend {
        Backend::CSharp => {
            let _ = writeln!(out, "    yield break;");
            let _ = writeln!(out, "  }}");
            let _ = writeln!(out, "}}");
        }
        Backend::C => {
            let _ = writeln!(out, "  return 0;");
            let _ = writeln!(out, "}}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::lower;
    use mrq_common::{DataType, Date, Field, Schema};
    use mrq_expr::{canonicalize, col, lam, lit, Expr, Query, SourceId};
    use std::collections::HashMap;

    fn spec() -> QuerySpec {
        let mut catalog = HashMap::new();
        catalog.insert(
            SourceId(0),
            Schema::new(
                "Lineitem",
                vec![
                    Field::new("l_shipdate", DataType::Date),
                    Field::new("l_quantity", DataType::Decimal),
                ],
            ),
        );
        let q = Query::from_source(SourceId(0))
            .where_(lam(
                "l",
                Expr::binary(
                    mrq_expr::BinaryOp::Le,
                    col("l", "l_shipdate"),
                    lit(Date::from_ymd(1998, 9, 2)),
                ),
            ))
            .select(lam("l", col("l", "l_quantity")))
            .into_expr();
        lower(&canonicalize(q), &catalog).unwrap()
    }

    #[test]
    fn csharp_and_c_sources_follow_the_papers_shape() {
        let spec = spec();
        let cs = emit_source(&spec, Backend::CSharp);
        assert!(cs.contains("public static class Executor"));
        assert!(cs.contains("foreach"));
        assert!(cs.contains("yield return"));
        assert!(cs.contains("continue;"), "filter must be inlined: {cs}");

        let c = emit_source(&spec, Backend::C);
        assert!(c.contains("int EvaluateQuery(Context* ctx)"));
        assert!(c.contains("ctx->curr_elem = i + 1;"));
        assert!(c.contains("return 1;"));
        assert!(
            c.contains("ctx->param_0"),
            "parameter must be read from the context"
        );
    }

    #[test]
    fn render_scalar_reads_like_c() {
        let spec = spec();
        let filter = render_scalar(&spec.root_filters[0]);
        assert!(filter.contains("slot0->col0"));
        assert!(filter.contains("<="));
    }
}
