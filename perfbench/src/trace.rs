//! Layer spans and counters recorded from the benchmark's side of each layer boundary.
//!
//! [`TracingOracle`] decorates any [`SolverOracle`] — the engine's [`CachingOracle`] or
//! a bare [`Solver`] — and times every call that crosses the oracle boundary: solver
//! queries (split by whether they reached the solver), scoped-session openings, memo
//! lookups and stores per [`MemoKind`], and memo flushes. It forwards every counter
//! unchanged, so the checker's [`hat_core::CheckStats`] read exactly as without it.
//! Spans are kept in memory and written out once, when the run ends.

use hat_engine::CachingOracle;
use hat_logic::{Atom, Formula, Ident, ScopedSession, Solver, Sort};
use hat_sfa::{MemoAnswer, MemoKind, MemoQuery, SolverOracle};
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub layer: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// The method job or client request the span belongs to; 0 for none.
    pub request: u64,
}

/// An in-memory span recorder with a current parent and request.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    parent: u64,
    request: u64,
    pub spans: Vec<Span>,
}

/// An open span, closed by [`SpanLog::end`].
#[must_use]
pub struct Open {
    index: usize,
    outer_parent: u64,
    outer_request: u64,
}

impl SpanLog {
    /// A recorder whose span ids start above `id_base` (logs merged into one file use
    /// disjoint bases) and whose times are relative to `epoch`.
    pub fn new(epoch: Instant, id_base: u64) -> SpanLog {
        SpanLog {
            epoch,
            next_id: id_base,
            parent: 0,
            request: 0,
            spans: Vec::new(),
        }
    }

    /// Opens a span that encloses every span recorded until it ends.
    pub fn begin(&mut self, layer: &'static str, request: Option<u64>) -> Open {
        let now = self.epoch.elapsed();
        self.next_id += 1;
        let open = Open {
            index: self.spans.len(),
            outer_parent: self.parent,
            outer_request: self.request,
        };
        let request = request.unwrap_or(self.request);
        self.spans.push(Span {
            id: self.next_id,
            layer,
            start: now,
            end: now,
            parent: self.parent,
            request,
        });
        self.parent = self.next_id;
        self.request = request;
        open
    }

    /// Closes `open`; returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let span = &mut self.spans[open.index];
        span.end = self.epoch.elapsed();
        self.parent = open.outer_parent;
        self.request = open.outer_request;
        span.end - span.start
    }

    /// Records a finished leaf span under the current parent.
    pub fn leaf(&mut self, layer: &'static str, start: Instant, end: Instant) {
        self.next_id += 1;
        self.spans.push(Span {
            id: self.next_id,
            layer,
            start: start.duration_since(self.epoch),
            end: end.duration_since(self.epoch),
            parent: self.parent,
            request: self.request,
        });
    }
}

/// Writes spans as tab-separated `id layer start_ns end_ns parent request` lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tlayer\tstart_ns\tend_ns\tparent\trequest")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.layer,
            s.start.as_nanos(),
            s.end.as_nanos(),
            s.parent,
            s.request
        )?;
    }
    out.flush()
}

/// Calls and time of one memo record kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoTotals {
    pub lookups: usize,
    pub hits: usize,
    pub lookup_time: Duration,
    pub stores: usize,
    pub store_time: Duration,
}

/// Every memo record kind, in the order of [`kind_index`].
pub const MEMO_KINDS: [&str; 5] = [
    "minterms",
    "inclusion",
    "shape",
    "transition",
    "subsumption",
];

fn kind_index(kind: MemoKind) -> usize {
    match kind {
        MemoKind::Minterms => 0,
        MemoKind::Inclusion => 1,
        MemoKind::Shape => 2,
        MemoKind::Transition => 3,
        MemoKind::Subsumption => 4,
    }
}

const LOOKUP_SPANS: [&str; 5] = [
    "memo.minterms.lookup",
    "memo.inclusion.lookup",
    "memo.shape.lookup",
    "memo.transition.lookup",
    "memo.subsumption.lookup",
];

const STORE_SPANS: [&str; 5] = [
    "memo.minterms.store",
    "memo.inclusion.store",
    "memo.shape.store",
    "memo.transition.store",
    "memo.subsumption.store",
];

/// Totals of every call that crossed the oracle boundary.
#[derive(Debug, Default, Clone)]
pub struct OracleTotals {
    /// `is_sat`/`entails` calls that reached the decision procedure, and their time.
    pub solver_queries: usize,
    pub solver_time: Duration,
    /// Time of the `is_sat`/`entails` calls answered without it (memo hits, constant
    /// formulas).
    pub answered_time: Duration,
    pub sessions: usize,
    pub session_open_time: Duration,
    pub memo: [MemoTotals; 5],
    pub flush_time: Duration,
    /// Theory checks and scoped checks of bare solvers (the caching oracle keeps its
    /// solver private).
    pub theory_checks: usize,
    pub scoped_checks: usize,
}

/// Spans and totals shared by every oracle of one traced pass.
#[derive(Debug)]
pub struct Trace {
    pub log: SpanLog,
    pub totals: OracleTotals,
}

impl Trace {
    pub fn new(epoch: Instant, id_base: u64) -> Trace {
        Trace {
            log: SpanLog::new(epoch, id_base),
            totals: OracleTotals::default(),
        }
    }
}

/// Solver counters an oracle can hand over when it is dropped.
pub trait Harvest {
    fn harvest(&self, totals: &mut OracleTotals);
}

impl Harvest for CachingOracle {
    fn harvest(&self, _: &mut OracleTotals) {}
}

impl Harvest for Solver {
    fn harvest(&self, totals: &mut OracleTotals) {
        totals.theory_checks += self.stats.theory_checks;
        totals.scoped_checks += self.stats.scoped_checks;
    }
}

/// A [`SolverOracle`] decorator that records every call into its inner oracle.
pub struct TracingOracle<O: SolverOracle + Harvest> {
    inner: O,
    trace: Rc<RefCell<Trace>>,
}

impl<O: SolverOracle + Harvest> TracingOracle<O> {
    pub fn new(inner: O, trace: Rc<RefCell<Trace>>) -> Self {
        TracingOracle { inner, trace }
    }

    fn query(&mut self, ask: impl FnOnce(&mut O) -> bool) -> bool {
        let misses = self.inner.cache_misses();
        let start = Instant::now();
        let answer = ask(&mut self.inner);
        let end = Instant::now();
        let solved = self.inner.cache_misses() > misses;
        let mut trace = self.trace.borrow_mut();
        let totals = &mut trace.totals;
        if solved {
            totals.solver_queries += 1;
            totals.solver_time += end - start;
        } else {
            totals.answered_time += end - start;
        }
        let layer = if solved { "solver.query" } else { "memo.query" };
        trace.log.leaf(layer, start, end);
        answer
    }
}

impl<O: SolverOracle + Harvest> Drop for TracingOracle<O> {
    fn drop(&mut self) {
        self.inner.harvest(&mut self.trace.borrow_mut().totals);
    }
}

impl<O: SolverOracle + Harvest> SolverOracle for TracingOracle<O> {
    fn is_sat(&mut self, vars: &[(Ident, Sort)], facts: &[Formula]) -> bool {
        self.query(|o| o.is_sat(vars, facts))
    }

    fn entails(&mut self, vars: &[(Ident, Sort)], facts: &[Formula], goal: &Formula) -> bool {
        self.query(|o| o.entails(vars, facts, goal))
    }

    fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    fn query_time(&self) -> Duration {
        self.inner.query_time()
    }

    fn cache_hits(&self) -> usize {
        self.inner.cache_hits()
    }

    fn cache_misses(&self) -> usize {
        self.inner.cache_misses()
    }

    fn shared_tier_locks(&self) -> usize {
        self.inner.shared_tier_locks()
    }

    fn scoped_session<'a>(
        &'a mut self,
        vars: &[(Ident, Sort)],
        base: &[Formula],
        literals: &[Atom],
    ) -> Option<ScopedSession<'a>> {
        let start = Instant::now();
        let session = self.inner.scoped_session(vars, base, literals);
        let end = Instant::now();
        let mut trace = self.trace.borrow_mut();
        trace.totals.sessions += usize::from(session.is_some());
        trace.totals.session_open_time += end - start;
        trace.log.leaf("solver.session_open", start, end);
        session
    }

    fn memoises(&self, kind: MemoKind) -> bool {
        self.inner.memoises(kind)
    }

    fn memo_lookup(&mut self, query: &MemoQuery) -> Option<MemoAnswer<'static>> {
        let start = Instant::now();
        let answer = self.inner.memo_lookup(query);
        let end = Instant::now();
        let k = kind_index(query.kind());
        let mut trace = self.trace.borrow_mut();
        let memo = &mut trace.totals.memo[k];
        memo.lookups += 1;
        memo.hits += usize::from(answer.is_some());
        memo.lookup_time += end - start;
        trace.log.leaf(LOOKUP_SPANS[k], start, end);
        answer
    }

    fn memo_store(&mut self, query: &MemoQuery, answer: &MemoAnswer) {
        let start = Instant::now();
        self.inner.memo_store(query, answer);
        let end = Instant::now();
        let k = kind_index(query.kind());
        let mut trace = self.trace.borrow_mut();
        let memo = &mut trace.totals.memo[k];
        memo.stores += 1;
        memo.store_time += end - start;
        trace.log.leaf(STORE_SPANS[k], start, end);
    }

    fn flush_memos(&mut self) {
        let start = Instant::now();
        self.inner.flush_memos();
        let end = Instant::now();
        let mut trace = self.trace.borrow_mut();
        trace.totals.flush_time += end - start;
        trace.log.leaf("memo.flush", start, end);
    }
}
