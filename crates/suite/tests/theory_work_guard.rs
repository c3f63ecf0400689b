//! Deterministic work gate for the solver's theory layer: checks every non-`slow` suite
//! configuration on bare solvers (no memo stack, one fresh checker per method) and
//! compares the summed `SolverStats` with the recorded baseline
//! (`tests/theory_work.txt`).
//!
//! - `theory_checks` and `scoped_checks` must equal the baseline exactly. Conflict
//!   cores decide every blocking clause and so the whole SAT search: a core that
//!   changes shape moves these counts even when every verdict stays right.
//! - `theory_evals` (full theory evaluations, core minimisation included) may
//!   fall but never rise, and must stay below the count deletion-based minimisation
//!   made, which the file's header records.
//!
//! If a change legitimately lowers `theory_evals`, re-record with
//! `UPDATE_BASELINE=1 cargo test -p hat-suite --test theory_work_guard`.

use hat_core::Checker;
use hat_logic::{Atom, Formula, Ident, ScopedSession, Solver, SolverStats, Sort};
use hat_sfa::SolverOracle;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// A bare solver that adds its counters to a shared total when its checker drops it.
struct Counted {
    solver: Solver,
    total: Rc<RefCell<SolverStats>>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        let (mut total, stats) = (self.total.borrow_mut(), &self.solver.stats);
        total.theory_checks += stats.theory_checks;
        total.scoped_checks += stats.scoped_checks;
        total.theory_evals += stats.theory_evals;
    }
}

impl SolverOracle for Counted {
    fn is_sat(&mut self, vars: &[(Ident, Sort)], facts: &[Formula]) -> bool {
        self.solver.is_sat(vars, facts)
    }

    fn entails(&mut self, vars: &[(Ident, Sort)], facts: &[Formula], goal: &Formula) -> bool {
        SolverOracle::entails(&mut self.solver, vars, facts, goal)
    }

    fn query_count(&self) -> usize {
        self.solver.query_count()
    }

    fn query_time(&self) -> Duration {
        self.solver.query_time()
    }

    fn scoped_session<'a>(
        &'a mut self,
        vars: &[(Ident, Sort)],
        base: &[Formula],
        literals: &[Atom],
    ) -> Option<ScopedSession<'a>> {
        self.solver.scoped_session(vars, base, literals)
    }
}

/// The value of `key` in the baseline, from a `key value` line (optionally behind `#`).
fn field(baseline: &str, key: &str) -> usize {
    baseline
        .lines()
        .find_map(|line| {
            let mut words = line.trim_start_matches('#').split_whitespace();
            (words.next() == Some(key)).then(|| words.next()).flatten()
        })
        .unwrap_or_else(|| panic!("the baseline records `{key}`"))
        .parse()
        .expect("baseline values are integers")
}

#[test]
fn suite_theory_work_matches_the_recorded_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/theory_work.txt");
    let baseline = std::fs::read_to_string(path).expect("committed baseline file");
    let total = Rc::new(RefCell::new(SolverStats::default()));
    for bench in hat_suite::all_benchmarks().into_iter().filter(|b| !b.slow) {
        for m in &bench.methods {
            let solver = Counted {
                solver: Solver::with_axioms(bench.delta.axioms.clone()),
                total: Rc::clone(&total),
            };
            let mut checker = Checker::with_oracle(bench.delta.clone(), Box::new(solver));
            checker
                .check_method(&m.sig, &m.body)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", bench.adt, bench.library));
        }
    }
    let total = total.borrow();
    let measured = [
        ("theory_checks", total.theory_checks),
        ("scoped_checks", total.scoped_checks),
        ("theory_evals", total.theory_evals),
    ];
    if std::env::var_os("UPDATE_BASELINE").is_some() {
        let mut text: String = baseline
            .lines()
            .filter(|l| l.starts_with('#'))
            .fold(String::new(), |text, line| text + line + "\n");
        for (key, value) in measured {
            text += &format!("{key} {value}\n");
        }
        std::fs::write(path, text).expect("baseline rewritten");
        return;
    }
    for (key, value) in &measured[..2] {
        assert_eq!(
            *value,
            field(&baseline, key),
            "{key} moved: conflict cores changed shape, so the SAT search did too"
        );
    }
    let (evals, recorded) = (total.theory_evals, field(&baseline, "theory_evals"));
    assert!(
        evals <= recorded,
        "{evals} theory evaluations, above the recorded {recorded}: core minimisation \
         does more work than it did (re-record with UPDATE_BASELINE=1 only if intended)"
    );
    let deletion = field(&baseline, "deletion_evals");
    assert!(
        evals < deletion,
        "{evals} theory evaluations, no fewer than deletion-based minimisation's {deletion}"
    );
}
