//! `suite-cold` and `gen-cold`: repeated cold passes of one in-process engine, each
//! writing a fresh on-disk store.

use crate::inputs::Inputs;
use crate::layers::TracedPasses;
use crate::passes::{engine_config, engine_pass, wrong_in_summary};
use crate::report::{log_sample, median, median_secs, peak_rss_mb, percentile, tail_rank, Report};
use hat_engine::Engine;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `Engine::new` samples taken on empty stores before each pass, on top of the one
/// the pass itself contributes. Set-up takes well under a millisecond and shifts with
/// the file system's state, so its median needs many samples spread over the run.
const SETUP_SAMPLES_PER_PASS: usize = 16;

/// Fewest passes a run makes, however long they take. Single passes of one process
/// vary by a tenth and more, in runs of slow or fast passes, so the median needs
/// several.
const MIN_PASSES: usize = 5;

/// A fresh store location under `work`; its directory is removed with [`discard`].
pub fn fresh_store(work: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = work.join(name);
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join("store.cache"))
}

pub fn discard(store: &Path) {
    if let Some(dir) = store.parent() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The untraced run: passes until `seconds` have elapsed (at least [`MIN_PASSES`]).
pub fn run(inputs: &Inputs, work: &Path, seconds: Duration) -> std::io::Result<Report> {
    let mut setup = Vec::new();
    let mut report = Report::default();
    let mut passes = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut rates = Vec::new();
    let mut first_pass_rss = 0.0;
    let deadline = Instant::now() + seconds;
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        for i in 0..SETUP_SAMPLES_PER_PASS {
            let store = fresh_store(work, &format!("setup{i}"))?;
            let start = Instant::now();
            let engine = Engine::new(engine_config(&store))?;
            setup.push(start.elapsed());
            drop(engine);
            discard(&store);
        }
        let store = fresh_store(work, &format!("pass{}", passes.len()))?;
        let pass = engine_pass(&inputs.benches, &store)?;
        discard(&store);
        if passes.is_empty() {
            // Later passes of one process can only add allocator retention (their new
            // worker thread may draw a new malloc arena) that a one-pass process never
            // sees, so the footprint is taken through the first pass.
            first_pass_rss = peak_rss_mb();
        }
        setup.push(pass.setup);
        passes.push(pass.wall);
        report.attempted += inputs.method_count();
        report.failed += wrong_in_summary(inputs, pass.summary.as_ref());
        if let Some(summary) = &pass.summary {
            rates.push(summary.benchmarks.len() as f64 / pass.wall.as_secs_f64());
            latencies_ms.extend(
                summary
                    .benchmarks
                    .iter()
                    .map(|b| b.check_time.as_secs_f64() * 1e3),
            );
        }
        eprintln!(
            "perfbench: pass {} took {:.3} s",
            passes.len(),
            pass.wall.as_secs_f64()
        );
    }
    // The tail percentile is fixed by the sample the fewest passes give, not by the
    // sample this run took: a faster checker makes more passes, and must still be
    // compared at the same percentile.
    let tail = tail_rank(MIN_PASSES * inputs.benches.len());
    let tail_ms = percentile(&latencies_ms, tail);
    eprintln!(
        "perfbench: {} passes, {} configuration samples; req_p99_ms reports p{tail}",
        passes.len(),
        latencies_ms.len()
    );
    log_sample("set-up", &setup);
    log_sample("passes", &passes);
    report.metric("pass_s", median_secs(&passes), "s");
    report.metric("setup_s", median_secs(&setup), "s");
    report.metric("req_p50_ms", median(&latencies_ms), "ms");
    report.metric("req_p99_ms", tail_ms, "ms");
    report.metric("req_per_s", median(&rates), "1/s");
    report.finish_end_to_end(first_pass_rss);
    Ok(report)
}

/// The traced run: see [`TracedPasses`]. Every pass writes a fresh store.
pub fn run_traced(inputs: &Inputs, work: &Path, spans_out: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let untraced_store = fresh_store(work, "untraced")?;
    let traced_store = fresh_store(work, "traced")?;
    let passes = TracedPasses::run(
        inputs,
        &untraced_store,
        &traced_store,
        Instant::now(),
        &mut report,
    );
    discard(&untraced_store);
    discard(&traced_store);
    let passes = passes?;
    let (p50, p95) = passes
        .untraced
        .summary
        .as_ref()
        .map(|s| (s.queue_wait_p50, s.queue_wait_p95))
        .unwrap_or_default();
    report.metric("schedule.queue_wait_p50_ms", p50.as_secs_f64() * 1e3, "ms");
    report.metric("schedule.queue_wait_p95_ms", p95.as_secs_f64() * 1e3, "ms");
    for name in [
        "daemon.overhead_p50_ms",
        "daemon.overhead_p99_ms",
        "daemon.server_p50_ms",
    ] {
        report.metric(name, 0.0, "ms");
    }
    report.metric("store.prep_s", 0.0, "s");
    passes.finish(&mut report, 0, Vec::new(), spans_out)?;
    Ok(report)
}
