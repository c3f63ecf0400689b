//! Workload inputs and the answers every verdict is checked against. The answers never
//! come from the checker under test: suite verdicts are checked against each method's
//! hand-written `expect_verified` *and* the committed golden snapshot, generated ones
//! against the verdict each [`hat_gen::GenSpec`] is constructed to have.

use hat_core::MethodReport;
use hat_suite::Benchmark;
use std::collections::HashMap;

/// The committed golden verdicts of the hand-written suite (every configuration except
/// FileSystem/KVStore, which is checked against `expect_verified` alone).
const GOLDEN: &str = include_str!("../../crates/engine/tests/golden_verdicts.txt");

/// The configurations of one workload, in the order a pass checks them, with their
/// known answers.
pub struct Inputs {
    pub benches: Vec<Benchmark>,
    /// `answers[b][m]`: the constructed or hand-written verdict of method `m` of
    /// configuration `b`.
    answers: Vec<Vec<bool>>,
    /// `ADT/Library::method` → committed golden verdict.
    golden: HashMap<String, bool>,
}

impl Inputs {
    /// The 19 hand-written configurations, in suite order.
    pub fn suite() -> Inputs {
        let benches = hat_suite::all_benchmarks();
        let answers = benches
            .iter()
            .map(|b| b.methods.iter().map(|m| m.expect_verified).collect())
            .collect();
        Inputs {
            benches,
            answers,
            golden: parse_golden(GOLDEN),
        }
    }

    /// The first [`hat_gen::CORPUS_SIZE`] configurations of `gen_seed`'s `hat-gen`
    /// stream: with the default seed, the committed corpus.
    pub fn generated(gen_seed: u64) -> Inputs {
        let specs: Vec<hat_gen::GenSpec> = (0..hat_gen::CORPUS_SIZE)
            .map(|i| hat_gen::spec(gen_seed, i))
            .collect();
        let answers = specs
            .iter()
            .map(|s| {
                s.live_methods()
                    .into_iter()
                    .map(|i| s.methods[i].expect_verified())
                    .collect()
            })
            .collect();
        Inputs {
            benches: specs.iter().map(hat_gen::GenSpec::build).collect(),
            answers,
            golden: HashMap::new(),
        }
    }

    /// Number of (configuration, method) verdicts one pass produces.
    pub fn method_count(&self) -> usize {
        self.answers.iter().map(Vec::len).sum()
    }

    /// Whether `report` is the right verdict for method `m` of configuration `b`.
    pub fn right(&self, b: usize, m: usize, report: &MethodReport) -> bool {
        let bench = &self.benches[b];
        let name = &bench.methods[m].sig.name;
        let key = format!("{}/{}::{name}", bench.adt, bench.library);
        report.name == *name
            && report.verified == self.answers[b][m]
            && self.golden.get(&key).is_none_or(|&g| g == report.verified)
    }

    /// Number of wrong verdicts among `reports`, the reports of configuration `b` in
    /// method order. A missing report counts as wrong.
    pub fn wrong(&self, b: usize, reports: &[MethodReport]) -> usize {
        let right = reports
            .iter()
            .take(self.answers[b].len())
            .enumerate()
            .filter(|&(m, r)| self.right(b, m, r))
            .count();
        self.answers[b].len() - right
    }
}

fn parse_golden(text: &str) -> HashMap<String, bool> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut words = l.split_whitespace();
            let key = words.next()?;
            let verdict = words.find_map(|w| w.strip_prefix("verdict="))?;
            Some((key.to_string(), verdict == "true"))
        })
        .collect()
}
