//! The traced run's passes and the per-layer metrics they yield.

use crate::inputs::Inputs;
use crate::passes::{
    bare_pass, counter_mismatches, engine_pass, reached_solver, traced_pass, wrong_in_summary,
    CheckedPass, EnginePass, StoreFigures,
};
use crate::report::Report;
use crate::trace::{write_spans, Span, Trace, MEMO_KINDS};
use hat_core::CheckStats;
use std::path::Path;
use std::time::{Duration, Instant};

/// The three passes of a traced run over the same inputs in the same order:
///
/// 1. a pass on bare solvers, the ablation baseline of the whole memo stack;
/// 2. an untraced engine pass (`Engine::new` to drop), the reference for work
///    counters and the tracing overhead;
/// 3. the same pass through the engine's oracle stack assembled by hand and traced
///    at every layer boundary ([`traced_pass`]).
pub struct TracedPasses {
    pub untraced: EnginePass,
    traced: CheckedPass,
    figures: StoreFigures,
    bytes_on_disk: u64,
    trace: Trace,
    bare: CheckedPass,
    bare_trace: Trace,
}

impl TracedPasses {
    /// Runs the three passes, the engine and traced ones over the given stores, and
    /// counts their verdicts into `report`.
    pub fn run(
        inputs: &Inputs,
        untraced_store: &Path,
        traced_store: &Path,
        epoch: Instant,
        report: &mut Report,
    ) -> std::io::Result<TracedPasses> {
        // The bare pass runs first: it warms the allocator and the code, so neither of
        // the two passes whose difference is the tracing overhead is the process's first.
        let (bare, bare_trace) = bare_pass(&inputs.benches, Trace::new(epoch, 1 << 40));
        report.attempted += inputs.method_count();
        report.failed += bare.wrong(inputs);

        let mut trace = Trace::new(epoch, 0);
        let span = trace.log.begin("engine.pass", None);
        let untraced = engine_pass(&inputs.benches, untraced_store)?;
        trace.log.end(span);
        report.attempted += inputs.method_count();
        report.failed += wrong_in_summary(inputs, untraced.summary.as_ref());

        let (traced, figures, trace) = traced_pass(&inputs.benches, traced_store, trace)?;
        let bytes_on_disk = store_bytes(traced_store);
        report.attempted += inputs.method_count();
        report.failed += traced.wrong(inputs);
        Ok(TracedPasses {
            untraced,
            traced,
            figures,
            bytes_on_disk,
            trace,
            bare,
            bare_trace,
        })
    }

    /// Methods of the untraced and the traced pass that reached the solver.
    pub fn methods_reaching_solver(&self) -> usize {
        let untraced = self
            .untraced
            .summary
            .iter()
            .flat_map(|s| &s.benchmarks)
            .flat_map(|b| &b.reports);
        untraced
            .chain(self.traced.reports())
            .filter(|r| reached_solver(r))
            .count()
    }

    /// Solver queries and scoped sessions the traced pass's oracle saw.
    pub fn solver_calls(&self) -> usize {
        self.trace.totals.solver_queries + self.trace.totals.sessions
    }

    /// Reports the `check`, `solver`, `sfa`, `memo` and `store` metrics and the trace
    /// fidelity, adding the caller's own counter mismatches and spans, and writes every
    /// span to `spans_out`.
    pub fn finish(
        self,
        report: &mut Report,
        more_mismatches: usize,
        more_spans: Vec<Span>,
        spans_out: &Path,
    ) -> std::io::Result<()> {
        let (trace, bare_trace) = (&self.trace, &self.bare_trace);
        let (traced, bare, totals) = (&self.traced, &self.bare, &trace.totals);
        let sum =
            |f: fn(&CheckStats) -> usize| -> usize { traced.reports().map(|r| f(&r.stats)).sum() };
        let sum_time = |f: fn(&CheckStats) -> Duration| -> Duration {
            traced.reports().map(|r| f(&r.stats)).sum()
        };
        report.count("check.methods", traced.methods.iter().map(Vec::len).sum());
        report.secs("check.busy_s", traced.busy());
        report.secs("check.max_method_s", traced.max_method());

        report.count("solver.queries", totals.solver_queries);
        report.secs("solver.query_s", totals.solver_time);
        report.count("solver.sessions", totals.sessions);
        report.secs("solver.session_open_s", totals.session_open_time);
        report.secs("solver.busy_s", sum_time(|s| s.sat_time));
        report.count("solver.enum_checks", sum(|s| s.enum_queries));
        report.count("solver.pruned_subtrees", sum(|s| s.pruned_subtrees));
        report.count("solver.theory_checks", bare_trace.totals.theory_checks);
        report.count("solver.scoped_checks", bare_trace.totals.scoped_checks);

        report.secs("sfa.walk_s", sum_time(|s| s.fa_time));
        report.count("sfa.inclusions", sum(|s| s.fa_inclusions));
        report.count("sfa.product_states", sum(|s| s.product_states));
        report.count("sfa.dfa_transitions", sum(|s| s.dfa_transitions));
        report.count("sfa.subsumption_checks", sum(|s| s.subsumption_checks));
        report.count("sfa.subsumed_pairs", sum(|s| s.subsumed_pairs));
        report.count("sfa.alphabet_pruned", sum(|s| s.alphabet_pruned));

        for (kind, memo) in MEMO_KINDS.iter().zip(&totals.memo) {
            report.count(format!("memo.{kind}.lookups"), memo.lookups);
            report.count(format!("memo.{kind}.hits"), memo.hits);
            report.secs(format!("memo.{kind}.lookup_s"), memo.lookup_time);
            report.count(format!("memo.{kind}.stores"), memo.stores);
            report.secs(format!("memo.{kind}.store_s"), memo.store_time);
        }
        report.count("memo.query.hits", sum(|s| s.cache_hits));
        report.count("memo.query.misses", sum(|s| s.cache_misses));
        report.secs("memo.query.hit_s", totals.answered_time);
        report.secs("memo.flush_s", totals.flush_time);
        report.count("memo.shared_locks", sum(|s| s.shared_tier_locks));
        report.metric(
            "memo.net_s",
            traced.busy().as_secs_f64() - bare.busy().as_secs_f64(),
            "s",
        );

        let figures = &self.figures;
        let lsm = figures.lsm.unwrap_or_default();
        report.secs("store.open_s", figures.open);
        report.count("store.records_loaded", figures.records_loaded);
        report.secs("store.close_s", figures.close);
        report.metric("store.bytes_on_disk", self.bytes_on_disk as f64, "bytes");
        report.count("store.flushes", lsm.flushes);
        report.count("store.compactions", lsm.compactions);
        report.metric("store.write_amp", lsm.write_amplification(), "ratio");

        let mismatches = more_mismatches
            + match &self.untraced.summary {
                Some(summary) => counter_mismatches(summary, traced),
                None => traced.methods.iter().map(Vec::len).sum(),
            };
        report.broken |= mismatches > 0;
        let untraced = self.untraced.wall;
        report.secs("trace.untraced_pass_s", untraced);
        report.secs("trace.traced_pass_s", traced.wall);
        report.secs("trace.bare_pass_s", bare.wall);
        report.metric(
            "trace.overhead_s",
            traced.wall.as_secs_f64() - untraced.as_secs_f64(),
            "s",
        );
        report.count("trace.counter_mismatches", mismatches);

        let mut spans = trace.log.spans.clone();
        spans.extend(bare_trace.log.spans.iter().cloned());
        spans.extend(more_spans);
        report.count("trace.spans", spans.len());
        write_spans(spans_out, &spans)?;
        eprintln!(
            "perfbench: wrote {} spans to {}",
            spans.len(),
            spans_out.display()
        );
        Ok(())
    }
}

/// Bytes the store occupies on disk: manifest, lock and segment files.
fn store_bytes(store: &Path) -> u64 {
    fn walk(dir: &Path) -> u64 {
        std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|entry| match entry.metadata() {
                Ok(m) if m.is_dir() => walk(&entry.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    }
    store.parent().map_or(0, walk)
}
