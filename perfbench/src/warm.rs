//! `warm-serve`: an in-process `marpled` on a store prepared by a cold suite pass in a
//! child process, serving two closed-loop client connections that send
//! single-configuration `check` requests in a seeded order.

use crate::cold::{discard, fresh_store};
use crate::inputs::Inputs;
use crate::layers::TracedPasses;
use crate::passes::{engine_config, engine_pass, reached_solver, work_counters, wrong_in_summary};
use crate::report::{
    log_sample, median, median_secs, peak_rss_mb, percentile, tail_percentile, windowed_tail,
    Report,
};
use crate::trace::{Span, SpanLog};
use hat_daemon::{Addr, Daemon, DaemonConfig, DaemonHandle, RemoteClient, Request};
use hat_testkit::XorShift;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// The hidden subcommand that prepares the store in a separate process.
pub const PREPARE_COMMAND: &str = "prepare-store";

/// Daemon restarts timed for `setup_s` before the serving daemon starts (which is
/// timed too).
const RESTARTS: usize = 12;

/// Closed-loop client connections: one per core of the two-core reference machine.
const CLIENTS: u64 = 2;

/// `perfbench prepare-store --store PATH`: one cold engine pass of the suite into
/// `PATH`. Exits non-zero if any verdict is wrong.
pub fn prepare_store_main(args: &[String]) -> ExitCode {
    let store = match args {
        [flag, store] if flag == "--store" => store,
        _ => {
            eprintln!("usage: perfbench {PREPARE_COMMAND} --store PATH");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::suite();
    match engine_pass(&inputs.benches, Path::new(store)) {
        Ok(pass) if wrong_in_summary(&inputs, pass.summary.as_ref()) == 0 => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!("perfbench: the store-preparation pass produced wrong verdicts");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: preparing the store failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs [`PREPARE_COMMAND`] in a child process and waits for it; returns the store
/// path and the child's wall time.
fn prepare(work: &Path) -> std::io::Result<(PathBuf, Duration)> {
    let store = fresh_store(work, "warm")?;
    let start = Instant::now();
    let status = Command::new(std::env::current_exe()?)
        .arg(PREPARE_COMMAND)
        .arg("--store")
        .arg(&store)
        .status()?;
    let took = start.elapsed();
    if !status.success() {
        return Err(std::io::Error::other(format!(
            "the store-preparation process failed ({status})"
        )));
    }
    eprintln!(
        "perfbench: store prepared in {:.3} s by a separate process (reported, not gated)",
        took.as_secs_f64()
    );
    Ok((store, took))
}

/// Spawns a daemon on `store` and waits for its first `pong`; returns the handle and
/// the time from spawn to pong.
fn start_daemon(store: &Path, addr: &Addr) -> std::io::Result<(DaemonHandle, Duration)> {
    let start = Instant::now();
    let handle = Daemon::spawn(DaemonConfig {
        addr: addr.clone(),
        engine: engine_config(store),
        quiet: true,
        ..DaemonConfig::default()
    })?;
    RemoteClient::connect(handle.addr())
        .and_then(|mut client| client.ping())
        .map_err(std::io::Error::other)?;
    Ok((handle, start.elapsed()))
}

/// One answered request.
struct RequestSample {
    /// When the reply was complete.
    end: Instant,
    latency: Duration,
    server: Duration,
    queue_p50: Duration,
    queue_p95: Duration,
}

/// What one client connection saw.
#[derive(Default)]
struct ClientRun {
    requests: Vec<RequestSample>,
    /// Requests that got no reply.
    errors: usize,
    /// Replies that came back wrong or reached the solver (see [`reached_solver`]).
    wrong: usize,
    /// Replies whose work counters differ from the reference pass.
    mismatches: usize,
    /// Times of complete sweeps over every configuration.
    passes: Vec<Duration>,
    spans: Vec<Span>,
}

/// Two closed-loop clients until `seconds` elapse. Each sweeps the configurations in
/// a fresh seeded order per sweep. `reference` holds each configuration's work
/// counters, which every reply must reproduce; spans are recorded when `epoch` is set.
fn serve(
    inputs: &Inputs,
    addr: &Addr,
    seed: u64,
    seconds: Duration,
    reference: Option<&[Vec<[usize; 13]>]>,
    epoch: Option<Instant>,
) -> (Vec<ClientRun>, Duration) {
    let start = Instant::now();
    let deadline = start + seconds;
    let runs = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(inputs, addr, seed, c, deadline, reference, epoch)))
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("a benchmark client thread panicked"))
            .collect()
    });
    (runs, start.elapsed())
}

fn client(
    inputs: &Inputs,
    addr: &Addr,
    seed: u64,
    id: u64,
    deadline: Instant,
    reference: Option<&[Vec<[usize; 13]>]>,
    epoch: Option<Instant>,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut log = epoch.map(|e| SpanLog::new(e, (2 + id) << 40));
    let mut conn = RemoteClient::connect(addr);
    let mut order: Vec<usize> = (0..inputs.benches.len()).collect();
    let mut sweep = 0u64;
    'sweeps: loop {
        shuffle(&mut order, seed ^ (id << 48) ^ (sweep << 16));
        sweep += 1;
        let sweep_start = Instant::now();
        for &b in &order {
            if Instant::now() >= deadline {
                break 'sweeps;
            }
            let bench = &inputs.benches[b];
            let request = Request::Check {
                adt: bench.adt.clone(),
                library: bench.library.clone(),
            };
            let request_id = (id << 32) | (run.requests.len() + run.errors + 1) as u64;
            let span = log
                .as_mut()
                .map(|l| l.begin("daemon.verify", Some(request_id)));
            let start = Instant::now();
            let reply = match &mut conn {
                Ok(c) => c.verify(request, |_, _, _| {}),
                Err(e) => Err(e.clone()),
            };
            let latency = start.elapsed();
            if let (Some(l), Some(s)) = (log.as_mut(), span) {
                l.end(s);
            }
            let Ok(reply) = reply else {
                run.errors += 1;
                conn = RemoteClient::connect(addr);
                if conn.is_err() {
                    break 'sweeps;
                }
                continue;
            };
            let summary = &reply.summary;
            let reports: Vec<_> = summary.benchmarks.iter().flat_map(|r| &r.reports).collect();
            let wrong = summary.benchmarks.len() != 1
                || inputs.wrong(b, &summary.benchmarks[0].reports) > 0;
            run.wrong += usize::from(wrong || reports.iter().any(|r| reached_solver(r)));
            if let Some(reference) = reference {
                let counters: Vec<_> = reports.iter().map(|r| work_counters(r)).collect();
                run.mismatches += usize::from(counters != reference[b]);
            }
            run.requests.push(RequestSample {
                end: start + latency,
                latency,
                server: summary.wall,
                queue_p50: summary.queue_wait_p50,
                queue_p95: summary.queue_wait_p95,
            });
        }
        run.passes.push(sweep_start.elapsed());
    }
    run.spans = log.map(|l| l.spans).unwrap_or_default();
    run
}

/// Fisher–Yates shuffle driven by the workspace's xorshift stream.
fn shuffle<T>(items: &mut [T], seed: u64) {
    // Spread small seeds over the state so seeds 1, 2, 3… give unrelated orders.
    let mut rng = XorShift::seeded(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d);
    for _ in 0..8 {
        rng.next();
    }
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Every client's answered requests, in the order their replies completed.
fn in_time_order(runs: &[ClientRun]) -> Vec<&RequestSample> {
    let mut requests: Vec<&RequestSample> = runs.iter().flat_map(|r| &r.requests).collect();
    requests.sort_by_key(|s| s.end);
    requests
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The untraced run.
pub fn run(inputs: &Inputs, work: &Path, seed: u64, seconds: Duration) -> std::io::Result<Report> {
    let (store, _) = prepare(work)?;
    let addr = Addr::Unix(work.join("marpled.sock"));
    let mut setup = Vec::new();
    for _ in 0..RESTARTS {
        let (daemon, took) = start_daemon(&store, &addr)?;
        setup.push(took);
        daemon.stop();
    }
    let (daemon, took) = start_daemon(&store, &addr)?;
    setup.push(took);
    let (runs, wall) = serve(inputs, daemon.addr(), seed, seconds, None, None);
    daemon.stop();
    discard(&store);

    let mut report = Report::default();
    let latencies: Vec<f64> = in_time_order(&runs).iter().map(|s| ms(s.latency)).collect();
    let passes: Vec<Duration> = runs.iter().flat_map(|r| r.passes.iter().copied()).collect();
    let errors: usize = runs.iter().map(|r| r.errors).sum();
    report.attempted = latencies.len() + errors;
    report.failed = errors + runs.iter().map(|r| r.wrong).sum::<usize>();
    let (tail, tail_ms) = windowed_tail(&latencies);
    let whole = tail_percentile(&latencies);
    eprintln!(
        "perfbench: {} requests over {} connections in {:.3} s, {} full sweeps; \
         req_p99_ms reports the median of window p{tail}s (whole run: p{} {:.3} ms)",
        latencies.len(),
        CLIENTS,
        wall.as_secs_f64(),
        passes.len(),
        whole.0,
        whole.1,
    );
    log_sample("set-up", &setup);
    log_sample("passes", &passes);
    report.metric("pass_s", median_secs(&passes), "s");
    report.metric("setup_s", median_secs(&setup), "s");
    report.metric("req_p50_ms", median(&latencies), "ms");
    report.metric("req_p99_ms", tail_ms, "ms");
    report.metric(
        "req_per_s",
        latencies.len() as f64 / wall.as_secs_f64(),
        "1/s",
    );
    report.finish_end_to_end(peak_rss_mb());
    Ok(report)
}

/// The traced run: an untraced and a traced in-process pass over the prepared store,
/// a bare-solver pass, then the daemon phase with a span per request.
pub fn run_traced(
    inputs: &Inputs,
    work: &Path,
    seed: u64,
    seconds: Duration,
    spans_out: &Path,
) -> std::io::Result<Report> {
    let epoch = Instant::now();
    let mut report = Report::default();
    let (store, prep) = prepare(work)?;

    let passes = TracedPasses::run(inputs, &store, &store, epoch, &mut report)?;
    // Warm, no check may reach the solver: a method that does counts as failed, and
    // a solver query or session seen at the traced oracle fails the run.
    report.failed += passes.methods_reaching_solver();
    report.broken |= passes.solver_calls() > 0;

    let reference: Option<Vec<Vec<[usize; 13]>>> = passes.untraced.summary.as_ref().map(|s| {
        s.benchmarks
            .iter()
            .map(|b| b.reports.iter().map(work_counters).collect())
            .collect()
    });
    let addr = Addr::Unix(work.join("marpled.sock"));
    let (daemon, _) = start_daemon(&store, &addr)?;
    let (runs, _) = serve(
        inputs,
        daemon.addr(),
        seed,
        seconds,
        reference.as_deref(),
        Some(epoch),
    );
    daemon.stop();
    discard(&store);

    let requests = in_time_order(&runs);
    let errors: usize = runs.iter().map(|r| r.errors).sum();
    report.attempted += requests.len() + errors;
    report.failed += errors + runs.iter().map(|r| r.wrong).sum::<usize>();
    let queue_p50: Vec<f64> = requests.iter().map(|s| ms(s.queue_p50)).collect();
    let queue_p95: Vec<f64> = requests.iter().map(|s| ms(s.queue_p95)).collect();
    report.metric("schedule.queue_wait_p50_ms", median(&queue_p50), "ms");
    report.metric(
        "schedule.queue_wait_p95_ms",
        percentile(&queue_p95, 95.0),
        "ms",
    );
    let overhead: Vec<f64> = requests
        .iter()
        .map(|s| ms(s.latency.saturating_sub(s.server)))
        .collect();
    let server: Vec<f64> = requests.iter().map(|s| ms(s.server)).collect();
    report.metric("daemon.overhead_p50_ms", median(&overhead), "ms");
    report.metric("daemon.overhead_p99_ms", windowed_tail(&overhead).1, "ms");
    report.metric("daemon.server_p50_ms", median(&server), "ms");
    report.secs("store.prep_s", prep);

    let mismatches = runs.iter().map(|r| r.mismatches).sum();
    let spans = runs.into_iter().flat_map(|r| r.spans).collect();
    passes.finish(&mut report, mismatches, spans, spans_out)?;
    Ok(report)
}
