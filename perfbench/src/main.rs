//! `perfbench` — the repository benchmark of the marple HAT checker.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-cold|gen-cold|warm-serve --seed N --seconds S --trace 0|1 \
//!     [--gen-seed N]
//! ```
//!
//! One run measures one workload in this process (the `warm-serve` store is prepared
//! by a child process). It prints progress to stderr and, as the last line of stdout,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Workloads, metric
//! names and the layer → end-to-end map are documented in `perfbench/README.md`.

mod cold;
mod inputs;
mod layers;
mod passes;
mod report;
mod trace;
mod warm;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload suite-cold|gen-cold|warm-serve --seed N \
--seconds S --trace 0|1 [--gen-seed N]";

/// Scratch root, relative to the directory the benchmark runs from.
const WORK_ROOT: &str = ".perfbench_work";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SuiteCold,
    GenCold,
    WarmServe,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite-cold",
            Workload::GenCold => "gen-cold",
            Workload::WarmServe => "warm-serve",
        }
    }
}

/// Validated command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Workload,
    /// Orders the requests of `warm-serve`; names the spans file of a traced run.
    seed: u64,
    /// Minimum measured time of one run.
    seconds: u64,
    trace: bool,
    /// Stream the `gen-cold` configurations are drawn from.
    gen_seed: u64,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut gen_seed = hat_gen::CORPUS_SEED;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("`{flag}` needs a whole number, not `{value}`"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "suite-cold" => Workload::SuiteCold,
                        "gen-cold" => Workload::GenCold,
                        "warm-serve" => Workload::WarmServe,
                        other => return Err(format!("unknown workload `{other}`")),
                    })
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.clamp(1, 120)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("`--trace` is 0 or 1, not `{other}`")),
                    })
                }
                "--gen-seed" => gen_seed = number()?,
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("`--workload` is required")?,
            seed: seed.ok_or("`--seed` is required")?,
            seconds: seconds.ok_or("`--seconds` is required")?,
            trace: trace.ok_or("`--trace` is required")?,
            gen_seed,
        })
    }
}

/// A per-run scratch directory under [`WORK_ROOT`], removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(tag: &str) -> std::io::Result<WorkDir> {
        let path = Path::new(WORK_ROOT).join(format!("{tag}-{}", std::process::id()));
        // A directory of the same name can only be left over from a killed run whose
        // PID was reused.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(warm::PREPARE_COMMAND) {
        return warm::prepare_store_main(&argv[1..]);
    }
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> std::io::Result<report::Report> {
    let work = WorkDir::create(args.workload.name())?;
    let spans_out = Path::new(WORK_ROOT).join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    let seconds = std::time::Duration::from_secs(args.seconds);
    let inputs = match args.workload {
        Workload::SuiteCold | Workload::WarmServe => inputs::Inputs::suite(),
        Workload::GenCold => inputs::Inputs::generated(args.gen_seed),
    };
    eprintln!(
        "perfbench: {} seed {}: {} configurations, {} methods",
        args.workload.name(),
        args.seed,
        inputs.benches.len(),
        inputs.method_count()
    );
    match (args.workload, args.trace) {
        (Workload::WarmServe, false) => warm::run(&inputs, work.path(), args.seed, seconds),
        (Workload::WarmServe, true) => {
            warm::run_traced(&inputs, work.path(), args.seed, seconds, &spans_out)
        }
        (_, false) => cold::run(&inputs, work.path(), seconds),
        (_, true) => cold::run_traced(&inputs, work.path(), &spans_out),
    }
}
