//! One pass over a workload's configurations, three ways: through the engine (the path
//! users run, untraced), through the engine's oracle stack assembled by hand and traced
//! at every layer boundary, and through bare solvers with no memo stack at all.

use crate::inputs::Inputs;
use crate::trace::{Trace, TracingOracle};
use hat_core::{CheckStats, Checker, MethodReport};
use hat_engine::{
    CachingOracle, Engine, EngineConfig, LocalTier, LsmConfig, LsmStatsSnapshot, MemoStore,
    RunSummary,
};
use hat_logic::Solver;
use hat_sfa::SolverOracle;
use hat_suite::Benchmark;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine configuration of every pass: one worker, defaults otherwise.
pub fn engine_config(store: &Path) -> EngineConfig {
    EngineConfig {
        jobs: 1,
        cache_path: Some(store.to_path_buf()),
        ..EngineConfig::default()
    }
}

/// An untraced engine pass.
pub struct EnginePass {
    /// `Engine::new`: store open (and load, when the store exists) plus pool spawn.
    pub setup: Duration,
    /// `Engine::check_benchmarks` until the engine is dropped and the store durable.
    pub wall: Duration,
    /// `None` when a check failed to run (the engine panics on a job error).
    pub summary: Option<RunSummary>,
}

pub fn engine_pass(benches: &[Benchmark], store: &Path) -> std::io::Result<EnginePass> {
    let start = Instant::now();
    let engine = Engine::new(engine_config(store))?;
    let setup = start.elapsed();
    let start = Instant::now();
    let summary = catch_unwind(AssertUnwindSafe(|| engine.check_benchmarks(benches))).ok();
    drop(engine);
    Ok(EnginePass {
        setup,
        wall: start.elapsed(),
        summary,
    })
}

/// Wrong verdicts of an engine pass; every verdict counts as wrong if the pass failed.
pub fn wrong_in_summary(inputs: &Inputs, summary: Option<&RunSummary>) -> usize {
    match summary {
        Some(s) if s.benchmarks.len() == inputs.benches.len() => s
            .benchmarks
            .iter()
            .enumerate()
            .map(|(b, run)| inputs.wrong(b, &run.reports))
            .sum(),
        _ => inputs.method_count(),
    }
}

/// A hand-assembled pass: per configuration, per method, the outcome and the time
/// `Checker::check_method` took.
pub struct CheckedPass {
    pub wall: Duration,
    pub methods: Vec<Vec<(Result<MethodReport, String>, Duration)>>,
}

impl CheckedPass {
    pub fn reports(&self) -> impl Iterator<Item = &MethodReport> {
        self.methods
            .iter()
            .flatten()
            .filter_map(|(r, _)| r.as_ref().ok())
    }

    pub fn busy(&self) -> Duration {
        self.methods.iter().flatten().map(|(_, t)| *t).sum()
    }

    pub fn max_method(&self) -> Duration {
        self.methods
            .iter()
            .flatten()
            .map(|(_, t)| *t)
            .max()
            .unwrap_or_default()
    }

    /// Wrong verdicts; a check that failed to run counts as wrong.
    pub fn wrong(&self, inputs: &Inputs) -> usize {
        let mut wrong = 0;
        for (b, methods) in self.methods.iter().enumerate() {
            for (m, (outcome, _)) in methods.iter().enumerate() {
                wrong += usize::from(!outcome.as_ref().is_ok_and(|r| inputs.right(b, m, r)));
            }
        }
        wrong
    }
}

/// Store figures of a traced pass.
pub struct StoreFigures {
    pub open: Duration,
    pub records_loaded: usize,
    pub close: Duration,
    pub lsm: Option<LsmStatsSnapshot>,
}

/// Checks every method through `TracingOracle(CachingOracle)` over a store opened at
/// `store`, assembled as the engine assembles a job: the store opened and closed by
/// the calling thread, the checks run on a worker thread of their own with one local
/// tier shared by every job, the key prefix of the configuration's axioms, and the
/// engine's default enumeration, pruning, inclusion and subsumption settings.
pub fn traced_pass(
    benches: &[Benchmark],
    store: &Path,
    mut trace: Trace,
) -> std::io::Result<(CheckedPass, StoreFigures, Trace)> {
    let pass = trace.log.begin("pass.traced", None);
    let open = trace.log.begin("store.open", None);
    let memo = Arc::new(MemoStore::with_disk_log_config(
        store,
        LsmConfig::from_env(),
    )?);
    let open = trace.log.end(open);
    // Timed like an engine pass: from the opened store until it is closed.
    let start = Instant::now();
    let records_loaded = memo.stats().disk_loaded;
    let (methods, mut trace) = on_worker(trace, |trace| {
        let local = Rc::new(LocalTier::default());
        check_all(benches, trace, |bench, prefix| {
            let oracle = CachingOracle::with_key_prefix(
                bench.delta.axioms.clone(),
                Arc::clone(&memo),
                prefix.to_string(),
            )
            .with_local_tier(Rc::clone(&local));
            Box::new(TracingOracle::new(oracle, Rc::clone(trace)))
        })
    });
    let close = trace.log.begin("store.close", None);
    memo.flush();
    let lsm = memo.lsm_stats();
    drop(memo);
    let close = trace.log.end(close);
    trace.log.end(pass);
    let figures = StoreFigures {
        open,
        records_loaded,
        close,
        lsm,
    };
    let checked = CheckedPass {
        wall: start.elapsed(),
        methods,
    };
    Ok((checked, figures, trace))
}

/// Checks every method through `TracingOracle(Solver)` on a worker thread: the same
/// checker with no memo stack, the ablation baseline of the whole stack.
pub fn bare_pass(benches: &[Benchmark], mut trace: Trace) -> (CheckedPass, Trace) {
    let start = Instant::now();
    let pass = trace.log.begin("pass.bare", None);
    let (methods, mut trace) = on_worker(trace, |trace| {
        check_all(benches, trace, |bench, _| {
            let solver = Solver::with_axioms(bench.delta.axioms.clone());
            Box::new(TracingOracle::new(solver, Rc::clone(trace)))
        })
    });
    trace.log.end(pass);
    let checked = CheckedPass {
        wall: start.elapsed(),
        methods,
    };
    (checked, trace)
}

/// Runs `work` on a thread of its own, as the engine runs every job on a worker
/// thread. The same checks run on the main thread measured faster (plausibly the
/// main thread's malloc arena), which would make the traced pass incomparable with
/// the engine pass.
fn on_worker<T: Send>(
    trace: Trace,
    work: impl FnOnce(&Rc<RefCell<Trace>>) -> T + Send,
) -> (T, Trace) {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let trace = Rc::new(RefCell::new(trace));
                let result = work(&trace);
                let trace = Rc::try_unwrap(trace)
                    .expect("every traced oracle is dropped with its checker")
                    .into_inner();
                (result, trace)
            })
            .join()
            .expect("a benchmark pass thread panicked")
    })
}

/// One fresh checker per method job, each under a `check` span whose request id is
/// the job's position in the pass.
fn check_all(
    benches: &[Benchmark],
    trace: &Rc<RefCell<Trace>>,
    mut oracle: impl FnMut(&Benchmark, &str) -> Box<dyn SolverOracle>,
) -> Vec<Vec<(Result<MethodReport, String>, Duration)>> {
    let knobs = EngineConfig::default();
    let mut job = 0u64;
    benches
        .iter()
        .map(|bench| {
            let prefix = CachingOracle::key_prefix_for(&bench.delta.axioms);
            bench
                .methods
                .iter()
                .map(|method| {
                    job += 1;
                    let mut checker =
                        Checker::with_oracle(bench.delta.clone(), oracle(bench, &prefix));
                    checker.inclusion.enumeration = knobs.enumeration;
                    checker.inclusion.prune = knobs.prune;
                    checker.inclusion.mode = knobs.inclusion;
                    checker.inclusion.subsume = knobs.subsume;
                    let span = trace.borrow_mut().log.begin("check", Some(job));
                    let start = Instant::now();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        checker.check_method(&method.sig, &method.body)
                    }));
                    let took = start.elapsed();
                    trace.borrow_mut().log.end(span);
                    let outcome = match outcome {
                        Ok(Ok(report)) => Ok(report),
                        Ok(Err(e)) => Err(e.to_string()),
                        Err(_) => Err("the checker panicked".to_string()),
                    };
                    (outcome, took)
                })
                .collect()
        })
        .collect()
}

/// Whether a check reached the solver: a query that missed the per-query cache, or a
/// minterm enumeration, which runs in a scoped session outside that cache and so
/// shows in `enum_queries` but never in `cache_misses`.
pub fn reached_solver(r: &MethodReport) -> bool {
    r.stats.cache_misses + r.stats.enum_queries > 0
}

/// The work counters a traced pass must reproduce exactly.
pub fn work_counters(r: &MethodReport) -> [usize; 13] {
    let s: &CheckStats = &r.stats;
    [
        usize::from(r.verified),
        s.sat_queries,
        s.cache_hits,
        s.cache_misses,
        s.enum_queries,
        s.pruned_subtrees,
        s.product_states,
        s.dfa_transitions,
        s.minterm_memo_hits,
        s.inclusion_memo_hits,
        s.transition_memo_hits,
        s.shape_memo_hits,
        s.simulation_memo_hits,
    ]
}

/// Number of methods whose work counters differ between an engine pass and a traced
/// pass of the same inputs in the same order; a missing report counts as differing.
pub fn counter_mismatches(engine: &RunSummary, traced: &CheckedPass) -> usize {
    let mut mismatches = engine.benchmarks.len().abs_diff(traced.methods.len());
    for (want, got) in engine.benchmarks.iter().zip(&traced.methods) {
        mismatches += want.reports.len().abs_diff(got.len());
        for (w, (g, _)) in want.reports.iter().zip(got) {
            match g {
                Ok(g) if work_counters(w) == work_counters(g) => {}
                _ => mismatches += 1,
            }
        }
    }
    mismatches
}
