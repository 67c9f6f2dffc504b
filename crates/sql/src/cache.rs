//! Compilation cache (paper Section 4.2, "Compilation Cache").
//!
//! Deploying the same (or a whitespace/case-equivalent) feature script twice
//! must not pay the full parse-and-bind cost again. SQL text is normalized at
//! the token level — keyword case and whitespace are canonicalized — so
//! `select A from T` and `SELECT a  FROM T` share one cached plan when the
//! identifier case matches. The cache also tracks hit/miss counters, which
//! the benchmarks report.
//!
//! Cached plans carry their deploy-time artifacts with them: each
//! [`CompiledQuery`] owns a
//! [`SpecializationSlot`](crate::plan::SpecializationSlot) that the exec
//! layer fills with the plan's specialized bytecode program on first
//! deployment. A cache hit therefore shares not just the bound plan but the
//! compiled program too — re-deploying an equivalent script never pays
//! specialization again.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use openmldb_obs as obs;
use openmldb_types::Result;

use crate::ast::SelectStatement;
use crate::parser::parse_select;
use crate::plan::{compile_select, Catalog, CompiledQuery};
use crate::token::{tokenize, TokenKind};

/// Normalize SQL to a canonical token string: whitespace collapsed, keywords
/// uppercased, literals and identifiers preserved.
pub fn normalize_sql(sql: &str) -> Result<String> {
    let tokens = tokenize(sql)?;
    let mut out = String::with_capacity(sql.len());
    for t in tokens {
        match t.kind {
            TokenKind::Eof => break,
            TokenKind::Semicolon => continue,
            kind => {
                if !out.is_empty() {
                    out.push(' ');
                }
                match kind {
                    TokenKind::Keyword(k) => out.push_str(&k),
                    TokenKind::Ident(i) => out.push_str(&i),
                    TokenKind::Int(n) => {
                        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{n}"));
                    }
                    TokenKind::Float(f) => {
                        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{f}"));
                    }
                    TokenKind::Str(s) => {
                        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("'{s}'"));
                    }
                    TokenKind::Interval { value, unit } => {
                        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{value}{unit}"));
                    }
                    other => out.push_str(punct(&other)),
                }
            }
        }
    }
    Ok(out)
}

fn punct(k: &TokenKind) -> &'static str {
    match k {
        TokenKind::Comma => ",",
        TokenKind::Dot => ".",
        TokenKind::LParen => "(",
        TokenKind::RParen => ")",
        TokenKind::Star => "*",
        TokenKind::Plus => "+",
        TokenKind::Minus => "-",
        TokenKind::Slash => "/",
        TokenKind::Percent => "%",
        TokenKind::Eq => "=",
        TokenKind::NotEq => "!=",
        TokenKind::Lt => "<",
        TokenKind::LtEq => "<=",
        TokenKind::Gt => ">",
        TokenKind::GtEq => ">=",
        _ => "",
    }
}

/// A cache of compiled query plans keyed by normalized SQL.
///
/// Catalog changes must be signalled with [`PlanCache::invalidate_all`] (the
/// facade does this on CREATE TABLE), since plans embed resolved schemas.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<u64, Arc<CompiledQuery>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Compile `sql` against `catalog`, reusing a cached plan when the
    /// normalized text matches a prior compilation.
    pub fn compile(&self, sql: &str, catalog: &dyn Catalog) -> Result<Arc<CompiledQuery>> {
        self.compile_traced(sql, catalog).map(|(plan, _)| plan)
    }

    /// [`PlanCache::compile`], additionally reporting whether the probe hit
    /// (`true`) or compiled from scratch (`false`) — the per-call outcome
    /// callers attribute to a deployment (the global counters cannot say
    /// whose script paid the compile).
    pub fn compile_traced(
        &self,
        sql: &str,
        catalog: &dyn Catalog,
    ) -> Result<(Arc<CompiledQuery>, bool)> {
        let cached = obs::span(obs::Stage::CacheLookup, || -> Result<_> {
            let normalized = normalize_sql(sql)?;
            let mut h = DefaultHasher::new();
            normalized.hash(&mut h);
            let key = h.finish();
            let plan = self
                .plans
                .lock()
                .expect("cache poisoned")
                .get(&key)
                .cloned();
            Ok((key, plan))
        });
        let (key, hit) = cached?;
        if let Some(plan) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            crate::metrics::plan_cache_hits().inc();
            openmldb_obs::flight::event(openmldb_obs::FlightEventKind::PlanCacheHit, 0, key);
            return Ok((plan, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        crate::metrics::plan_cache_misses().inc();
        openmldb_obs::flight::event(openmldb_obs::FlightEventKind::PlanCacheMiss, 0, key);
        let plan = obs::span(obs::Stage::Plan, || -> Result<_> {
            let stmt = parse_select(sql)?;
            Ok(Arc::new(compile_select(&stmt, catalog)?))
        })?;
        self.plans
            .lock()
            .expect("cache poisoned")
            .insert(key, plan.clone());
        Ok((plan, false))
    }

    /// Compile an already-parsed SELECT (the DEPLOY path carries an AST,
    /// not text), keyed by the AST's canonical debug rendering so identical
    /// feature scripts deployed under different names share one plan.
    /// Returns the plan plus the hit/miss outcome, like
    /// [`PlanCache::compile_traced`]. Cold path: DEPLOY runs once per
    /// script, so the rendering allocation is acceptable.
    pub fn compile_stmt_traced(
        &self,
        stmt: &SelectStatement,
        catalog: &dyn Catalog,
    ) -> Result<(Arc<CompiledQuery>, bool)> {
        let key = obs::span(obs::Stage::CacheLookup, || {
            let mut repr = String::new();
            let _ = std::fmt::Write::write_fmt(&mut repr, format_args!("{stmt:?}"));
            let mut h = DefaultHasher::new();
            repr.hash(&mut h);
            h.finish()
        });
        let hit = {
            let plans = self.plans.lock().expect("cache poisoned");
            plans.get(&key).cloned()
        };
        if let Some(plan) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            crate::metrics::plan_cache_hits().inc();
            openmldb_obs::flight::event(openmldb_obs::FlightEventKind::PlanCacheHit, 0, key);
            return Ok((plan, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        crate::metrics::plan_cache_misses().inc();
        openmldb_obs::flight::event(openmldb_obs::FlightEventKind::PlanCacheMiss, 0, key);
        let plan = obs::span(obs::Stage::Plan, || -> Result<_> {
            Ok(Arc::new(compile_select(stmt, catalog)?))
        })?;
        self.plans
            .lock()
            .expect("cache poisoned")
            .insert(key, plan.clone());
        Ok((plan, false))
    }

    /// Drop every cached plan (schemas changed).
    pub fn invalidate_all(&self) {
        self.plans.lock().expect("cache poisoned").clear();
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.plans.lock().expect("cache poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_types::{DataType, Schema};

    struct OneTable(Schema);
    impl Catalog for OneTable {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            (name == "t").then(|| self.0.clone())
        }
    }

    fn catalog() -> OneTable {
        OneTable(
            Schema::from_pairs(&[
                ("k", DataType::Bigint),
                ("v", DataType::Double),
                ("ts", DataType::Timestamp),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn normalization_collapses_whitespace_and_keyword_case() {
        let a = normalize_sql("select   k from t").unwrap();
        let b = normalize_sql("SELECT k\n\tFROM t;").unwrap();
        assert_eq!(a, b);
        // identifier case is preserved (identifiers are case-sensitive)
        let c = normalize_sql("SELECT K FROM t").unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn cache_hits_on_equivalent_sql() {
        let cache = PlanCache::new();
        let cat = catalog();
        let p1 = cache.compile("select k from t", &cat).unwrap();
        let p2 = cache.compile("SELECT k FROM t;", &cat).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidation_forces_recompile() {
        let cache = PlanCache::new();
        let cat = catalog();
        let p1 = cache.compile("SELECT k FROM t", &cat).unwrap();
        cache.invalidate_all();
        let p2 = cache.compile("SELECT k FROM t", &cat).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn cache_hits_share_the_specialization_slot() {
        // The deploy-time bytecode program rides the plan's specialization
        // slot: a cache hit must expose the same slot (same OnceLock), so
        // whoever fills it first — the exec layer's `specialize` — serves
        // every later deployment of the equivalent script.
        let cache = PlanCache::new();
        let cat = catalog();
        let p1 = cache.compile("SELECT k FROM t", &cat).unwrap();
        let p2 = cache.compile("select   k from t;", &cat).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        let filled: Arc<dyn std::any::Any + Send + Sync> = Arc::new(42usize);
        let got = p1.specialized.get_or_init(|| filled.clone());
        assert!(Arc::ptr_eq(
            &got,
            &p2.specialized.get().expect("slot visible through the hit")
        ));
    }

    #[test]
    fn different_queries_do_not_collide() {
        let cache = PlanCache::new();
        let cat = catalog();
        let p1 = cache.compile("SELECT k FROM t", &cat).unwrap();
        let p2 = cache.compile("SELECT v FROM t", &cat).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.len(), 2);
    }
}
