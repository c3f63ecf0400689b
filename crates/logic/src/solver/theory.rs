//! Theory consistency checking: congruence closure over uninterpreted functions and
//! predicates, plus integer difference-bound reasoning.
//!
//! A [`TheoryCheck`] is built once per solver session (and once per standalone query)
//! over every atom the session can assign. The build hash-conses the atoms' terms into
//! a node DAG keyed by `(pred?, symbol, argument ids)`, with per-node use-lists, so a
//! check never re-interns a term. Each check resets the union-find, replays the merges
//! of its literals and propagates congruence through the use-lists of the merged
//! classes (Downey–Sethi–Tarjan), then runs the constant, disequality and
//! difference-bound steps over node ids.
//!
//! Only the applications that occur in the checked equalities, predicates and boolean
//! terms take part in congruence; every other node stays a class of its own. Terms of
//! atoms outside the checked set therefore cannot change a verdict, and terms that
//! occur only in orderings are compared by identity, not by congruence, exactly as the
//! per-check e-graph this replaced compared them.
//!
//! Conflicts are minimised with QuickXplain (Junker, AAAI 2004) over the reversed
//! literal order. The check is monotone (a superset of an inconsistent set is
//! inconsistent), so this returns exactly the core that front-to-back deletion would,
//! in O(k log(n/k)) evaluations instead of n.

use crate::axioms::AxiomSet;
use crate::constant::Constant;
use crate::formula::Atom;
use crate::sort::Sort;
use crate::term::{FuncSym, Term};
use crate::Ident;
use std::collections::{BTreeMap, HashMap};

#[cfg(test)]
mod reference;

/// "No node": a leaf's head, a constant-free class, an unnumbered class.
const NONE: u32 = u32::MAX;

/// A theory consistency checker over the atoms of one solver session.
#[derive(Debug)]
pub(crate) struct TheoryCheck {
    graph: Graph,
    state: CheckState,
    evals: usize,
}

/// The hash-consed term graph of a session; immutable after the build.
#[derive(Debug, Default)]
struct Graph {
    /// Per node: `symbol << 1 | pred` for an application, `NONE` for a leaf.
    head: Vec<u32>,
    /// Per node: its argument ids, as a range of `arg_pool`.
    args: Vec<(u32, u32)>,
    arg_pool: Vec<u32>,
    /// Applications keyed by `[head, args..]`.
    apps: HashMap<Vec<u32>, u32>,
    /// Per node: the applications that take it as a direct argument.
    uses: Vec<Vec<u32>>,
    /// Per node: itself if it is a constant, else `NONE`.
    constant: Vec<u32>,
    /// Per atom of the session, in the order they were given.
    atoms: Vec<AtomDesc>,
    /// Per atom: the applications its equality, predicate or boolean term mentions, as
    /// a range of `atom_app_pool`; these are the nodes congruence may merge.
    atom_apps: Vec<(u32, u32)>,
    atom_app_pool: Vec<u32>,
    true_node: u32,
    false_node: u32,
}

#[derive(Debug)]
enum AtomDesc {
    /// `l = r`; `int` puts both sides into the difference-bound graph.
    Eq { l: Side, r: Side, int: bool },
    /// `l < r` when `strict`, else `l <= r`.
    Order { l: Side, r: Side, strict: bool },
    /// A predicate application or boolean term: merged with `true` or `false`.
    Bool(u32),
}

/// A top-level term of an equality or ordering atom.
#[derive(Debug, Clone, Copy)]
struct Side {
    node: u32,
    bound: Bound,
}

/// The difference bounds a term carries by its shape.
#[derive(Debug, Clone, Copy)]
enum Bound {
    None,
    /// An integer constant: pinned to its value.
    Pin(i64),
    /// `base ± k`: a fixed offset from `base`.
    Offset(u32, i64),
}

impl Graph {
    fn args(&self, node: u32) -> &[u32] {
        let (start, len) = self.args[node as usize];
        &self.arg_pool[start as usize..(start + len) as usize]
    }

    fn atom_apps(&self, atom: usize) -> &[u32] {
        let (start, len) = self.atom_apps[atom];
        &self.atom_app_pool[start as usize..(start + len) as usize]
    }
}

/// Builds a [`Graph`]: interns leaves, symbols and applications as the atoms are added.
struct Interner<'a> {
    env: &'a BTreeMap<Ident, Sort>,
    axioms: &'a AxiomSet,
    graph: Graph,
    vars: HashMap<Ident, u32>,
    consts: HashMap<Constant, u32>,
    symbols: HashMap<String, u32>,
    /// Applications interned since the current atom began.
    seen: Vec<u32>,
}

impl Interner<'_> {
    fn push_node(&mut self, head: u32, args: &[u32]) -> u32 {
        let g = &mut self.graph;
        let node = g.head.len() as u32;
        g.head.push(head);
        g.args.push((g.arg_pool.len() as u32, args.len() as u32));
        g.arg_pool.extend_from_slice(args);
        g.uses.push(Vec::new());
        g.constant.push(NONE);
        for &a in args {
            let uses = &mut g.uses[a as usize];
            if uses.last() != Some(&node) {
                uses.push(node);
            }
        }
        node
    }

    fn constant(&mut self, c: &Constant) -> u32 {
        if let Some(&node) = self.consts.get(c) {
            return node;
        }
        let node = self.push_node(NONE, &[]);
        self.graph.constant[node as usize] = node;
        self.consts.insert(c.clone(), node);
        node
    }

    fn app(&mut self, name: &str, pred: bool, args: Vec<u32>) -> u32 {
        let next = self.symbols.len() as u32;
        let symbol = *self.symbols.entry(name.to_string()).or_insert(next);
        let mut key = args;
        key.insert(0, symbol << 1 | u32::from(pred));
        let node = match self.graph.apps.get(&key) {
            Some(&node) => node,
            None => {
                let node = self.push_node(key[0], &key[1..]);
                self.graph.apps.insert(key, node);
                node
            }
        };
        self.seen.push(node);
        node
    }

    fn term(&mut self, t: &Term) -> u32 {
        match t {
            Term::Var(x) => {
                if let Some(&node) = self.vars.get(x) {
                    return node;
                }
                let node = self.push_node(NONE, &[]);
                self.vars.insert(x.clone(), node);
                node
            }
            Term::Const(c) => self.constant(c),
            Term::App(sym, args) => {
                let ids = args.iter().map(|a| self.term(a)).collect();
                self.app(sym.name(), false, ids)
            }
        }
    }

    fn side(&mut self, t: &Term) -> Side {
        let node = self.term(t);
        let bound = match t {
            Term::Const(Constant::Int(k)) => Bound::Pin(*k),
            Term::App(sym, args) if args.len() == 2 => match (&args[0], &args[1], sym) {
                (b, Term::Const(Constant::Int(k)), FuncSym::Add)
                | (Term::Const(Constant::Int(k)), b, FuncSym::Add) => {
                    Bound::Offset(self.term(b), *k)
                }
                (b, Term::Const(Constant::Int(k)), FuncSym::Sub) => {
                    Bound::Offset(self.term(b), k.wrapping_neg())
                }
                _ => Bound::None,
            },
            _ => Bound::None,
        };
        Side { node, bound }
    }

    fn term_is_int(&self, t: &Term) -> bool {
        match t {
            Term::Var(x) => self.env.get(x) == Some(&Sort::Int),
            Term::Const(Constant::Int(_)) => true,
            Term::Const(_) => false,
            Term::App(FuncSym::Named(f), _) => self.axioms.func_ret_sort(f) == Some(&Sort::Int),
            Term::App(_, _) => true,
        }
    }

    fn atom(&mut self, atom: &Atom) {
        self.seen.clear();
        let desc = match atom {
            Atom::Eq(l, r) => AtomDesc::Eq {
                l: self.side(l),
                r: self.side(r),
                int: self.term_is_int(l) || self.term_is_int(r),
            },
            Atom::Lt(l, r) | Atom::Le(l, r) => AtomDesc::Order {
                l: self.side(l),
                r: self.side(r),
                strict: matches!(atom, Atom::Lt(..)),
            },
            Atom::Pred(p, args) => {
                let ids = args.iter().map(|a| self.term(a)).collect();
                AtomDesc::Bool(self.app(p, true, ids))
            }
            Atom::BoolTerm(t) => AtomDesc::Bool(self.term(t)),
        };
        let g = &mut self.graph;
        let start = g.atom_app_pool.len() as u32;
        if !matches!(desc, AtomDesc::Order { .. }) {
            self.seen.sort_unstable();
            self.seen.dedup();
            g.atom_app_pool.extend_from_slice(&self.seen);
        }
        g.atom_apps
            .push((start, g.atom_app_pool.len() as u32 - start));
        g.atoms.push(desc);
    }
}

/// Per-check state; its buffers are reused from check to check.
#[derive(Debug, Default)]
struct CheckState {
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Per node: the next member of its class (a circular list per class).
    next: Vec<u32>,
    /// Per root: the constant node of its class, or `NONE`.
    constant: Vec<u32>,
    /// Per node: `epoch` when the node is an application that takes part in congruence
    /// in this check.
    present: Vec<u32>,
    epoch: u32,
    /// Signatures of applications whose arguments changed class during this check.
    /// An application whose arguments are all roots has its build-time key as its
    /// signature, so the graph's `apps` index answers for it.
    sigs: HashMap<Vec<u32>, u32>,
    pending: Vec<(u32, u32)>,
    key: Vec<u32>,
    disequalities: Vec<(u32, u32)>,
    /// Ordering literals and integer equalities of this check.
    int_lits: Vec<(usize, bool)>,
    /// Per root: its index in the difference-bound graph, or `NONE`.
    slot: Vec<u32>,
    /// Roots numbered in the difference-bound graph; index 0 is the zero node.
    classes: Vec<u32>,
    /// Difference constraints `to - from <= weight`, as `(from, to, weight)`.
    edges: Vec<(u32, u32, i64)>,
    dist: Vec<i64>,
    bounds: Vec<i64>,
}

impl CheckState {
    fn reset(&mut self, g: &Graph) {
        let n = g.head.len() as u32;
        self.parent.clear();
        self.parent.extend(0..n);
        self.next.clear();
        self.next.extend(0..n);
        self.size.clear();
        self.size.resize(n as usize, 1);
        self.constant.clear();
        self.constant.extend_from_slice(&g.constant);
        self.slot.resize(n as usize, NONE);
        self.present.resize(n as usize, 0);
        if self.epoch == u32::MAX {
            self.present.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.sigs.clear();
        self.disequalities.clear();
        self.int_lits.clear();
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let up = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = up;
            x = up;
        }
        x
    }

    /// Merges the classes of `a` and `b` and closes the result under congruence.
    /// Returns false when two distinct constants end up in one class.
    fn merge(&mut self, g: &Graph, a: u32, b: u32) -> bool {
        self.pending.push((a, b));
        while let Some((a, b)) = self.pending.pop() {
            let (mut from, mut into) = (self.find(a), self.find(b));
            if from == into {
                continue;
            }
            if self.size[from as usize] > self.size[into as usize] {
                std::mem::swap(&mut from, &mut into);
            }
            match (self.constant[from as usize], self.constant[into as usize]) {
                (NONE, _) => {}
                (c, NONE) => self.constant[into as usize] = c,
                _ => {
                    self.pending.clear();
                    return false;
                }
            }
            self.parent[from as usize] = into;
            self.size[into as usize] += self.size[from as usize];
            // Only applications over the absorbed class change signature.
            let mut member = from;
            loop {
                for &app in &g.uses[member as usize] {
                    if self.present[app as usize] == self.epoch {
                        self.resign(g, app);
                    }
                }
                member = self.next[member as usize];
                if member == from {
                    break;
                }
            }
            self.next.swap(from as usize, into as usize);
        }
        true
    }

    /// Looks the current signature of `app` up and queues a merge with the
    /// application that already holds it, or records `app` as its holder.
    fn resign(&mut self, g: &Graph, app: u32) {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.push(g.head[app as usize]);
        for &arg in g.args(app) {
            key.push(self.find(arg));
        }
        let holder = self.sigs.get(&key[..]).or_else(|| {
            g.apps
                .get(&key[..])
                .filter(|&&node| self.present[node as usize] == self.epoch)
        });
        match holder {
            Some(&holder) => {
                if self.find(holder) != self.find(app) {
                    self.pending.push((app, holder));
                }
            }
            None => {
                self.sigs.insert(key.clone(), app);
            }
        }
        self.key = key;
    }

    /// The difference-bound graph's index of `node`'s class, numbering it if new.
    fn class_slot(&mut self, node: u32) -> u32 {
        let root = self.find(node);
        if self.slot[root as usize] == NONE {
            self.slot[root as usize] = self.classes.len() as u32;
            self.classes.push(root);
        }
        self.slot[root as usize]
    }

    fn add_side(&mut self, side: Side) -> u32 {
        const ZERO: u32 = 0;
        let idx = self.class_slot(side.node);
        match side.bound {
            Bound::None => {}
            Bound::Pin(k) => {
                self.edges.push((ZERO, idx, k));
                self.edges.push((idx, ZERO, k.wrapping_neg()));
            }
            Bound::Offset(base, off) => {
                let b = self.class_slot(base);
                self.edges.push((b, idx, off));
                self.edges.push((idx, b, off.wrapping_neg()));
            }
        }
        idx
    }

    /// Integer difference-bound reasoning over the congruence classes of the
    /// integer-sorted sides of the checked literals.
    fn bounds_consistent(&mut self, g: &Graph) -> bool {
        if self.int_lits.is_empty() {
            return true;
        }
        self.classes.clear();
        self.classes.push(NONE); // the zero node
        self.edges.clear();
        for i in 0..self.int_lits.len() {
            let (atom, value) = self.int_lits[i];
            match g.atoms[atom] {
                AtomDesc::Eq { l, r, .. } => {
                    self.add_side(l);
                    self.add_side(r);
                }
                AtomDesc::Order { l, r, strict } => {
                    let (a, b) = (self.add_side(l), self.add_side(r));
                    self.edges.push(match (strict, value) {
                        // a < b  ⇒ a - b <= -1
                        (true, true) => (b, a, -1),
                        // ¬(a < b) ⇒ b - a <= 0
                        (true, false) => (a, b, 0),
                        // a <= b ⇒ a - b <= 0
                        (false, true) => (b, a, 0),
                        // ¬(a <= b) ⇒ b - a <= -1
                        (false, false) => (a, b, -1),
                    });
                }
                AtomDesc::Bool(_) => unreachable!("only equalities and orderings are collected"),
            }
        }
        let consistent = self.no_negative_cycle() && self.disequalities_not_forced();
        for &root in &self.classes[1..] {
            self.slot[root as usize] = NONE;
        }
        consistent
    }

    /// Bellman-Ford negative-cycle detection from a virtual source.
    fn no_negative_cycle(&mut self) -> bool {
        let n = self.classes.len();
        self.dist.clear();
        self.dist.resize(n, 0);
        let relax = |dist: &mut [i64], &(from, to, weight): &(u32, u32, i64)| {
            let via = dist[from as usize].saturating_add(weight);
            let shorter = via < dist[to as usize];
            if shorter {
                dist[to as usize] = via;
            }
            shorter
        };
        for _ in 0..n {
            let mut changed = false;
            for e in &self.edges {
                changed |= relax(&mut self.dist, e);
            }
            if !changed {
                return true;
            }
        }
        !self.edges.iter().any(|e| relax(&mut self.dist, e))
    }

    /// Whether no disequality joins two integer classes the bounds force equal
    /// (all-pairs tightest bounds by Floyd–Warshall; the graph is small).
    fn disequalities_not_forced(&mut self) -> bool {
        if self.disequalities.is_empty() {
            return true;
        }
        const INF: i64 = i64::MAX / 4;
        let n = self.classes.len();
        let d = &mut self.bounds;
        d.clear();
        d.resize(n * n, INF);
        for i in 0..n {
            d[i * n + i] = 0;
        }
        for &(from, to, weight) in &self.edges {
            let cell = &mut d[from as usize * n + to as usize];
            *cell = (*cell).min(weight);
        }
        for k in 0..n {
            for i in 0..n {
                let ik = d[i * n + k];
                for j in 0..n {
                    let via = ik.saturating_add(d[k * n + j]);
                    if via < d[i * n + j] {
                        d[i * n + j] = via;
                    }
                }
            }
        }
        for i in 0..self.disequalities.len() {
            let (a, b) = self.disequalities[i];
            let (ra, rb) = (self.find(a), self.find(b));
            let (ia, ib) = (self.slot[ra as usize], self.slot[rb as usize]);
            if ia != NONE && ib != NONE {
                let (ia, ib) = (ia as usize, ib as usize);
                if self.bounds[ia * n + ib] == 0 && self.bounds[ib * n + ia] == 0 {
                    return false;
                }
            }
        }
        true
    }
}

impl TheoryCheck {
    /// Builds a checker over `atoms`, the atoms a literal set may later refer to by
    /// index, for the given variable sorts and axioms.
    pub(crate) fn new<'a>(
        atoms: impl IntoIterator<Item = &'a Atom>,
        env: &BTreeMap<Ident, Sort>,
        axioms: &AxiomSet,
    ) -> Self {
        let mut b = Interner {
            env,
            axioms,
            graph: Graph::default(),
            vars: HashMap::new(),
            consts: HashMap::new(),
            symbols: HashMap::new(),
            seen: Vec::new(),
        };
        b.graph.true_node = b.constant(&Constant::Bool(true));
        b.graph.false_node = b.constant(&Constant::Bool(false));
        for atom in atoms {
            b.atom(atom);
        }
        TheoryCheck {
            graph: b.graph,
            state: CheckState::default(),
            evals: 0,
        }
    }

    /// Checks whether a literal set — `(atom index, polarity)` pairs over the atoms
    /// the checker was built with — is consistent with the theory.
    ///
    /// On conflict, returns a *minimised* conflict core: a subsequence of the literals
    /// that is still theory-inconsistent and from which no single literal can be
    /// removed. Small cores matter enormously for the lazy-SMT loop: a blocking clause
    /// built from the full literal set excludes exactly one propositional model, so the
    /// loop can cycle through exponentially many theory-equivalent models; a blocking
    /// clause built from a minimal core excludes the whole family at once. The core is
    /// deterministic (the one front-to-back deletion returns), so cached verdicts and
    /// parallel runs see identical blocking behaviour.
    pub(crate) fn consistent(&mut self, lits: &[(usize, bool)]) -> Result<(), Vec<(usize, bool)>> {
        if self.eval(lits.iter().copied()) {
            return Ok(());
        }
        // Preference order: later literals are kept first, as deletion keeps them.
        let order: Vec<usize> = (0..lits.len()).rev().collect();
        let mut core = Vec::new();
        if !order.is_empty() {
            self.quickxplain(lits, &mut Vec::new(), false, &order, &mut core);
        }
        core.sort_unstable();
        Err(core.into_iter().map(|i| lits[i]).collect())
    }

    /// Number of full evaluations of a literal set made since the last call, including
    /// those made while minimising cores; resets the count.
    pub(crate) fn take_evals(&mut self) -> usize {
        std::mem::take(&mut self.evals)
    }

    /// Junker's QXP: appends to `core` the preferred minimal subset of `candidates`
    /// (positions into `lits`, most preferred first) that is inconsistent together with
    /// `background`, which is itself consistent unless the last addition to it
    /// (`grew`) made it inconsistent. Requires `background ∪ candidates` inconsistent.
    fn quickxplain(
        &mut self,
        lits: &[(usize, bool)],
        background: &mut Vec<usize>,
        grew: bool,
        candidates: &[usize],
        core: &mut Vec<usize>,
    ) {
        if grew && !self.eval(background.iter().map(|&i| lits[i])) {
            return;
        }
        if let [only] = candidates {
            core.push(*only);
            return;
        }
        let (first, second) = candidates.split_at(candidates.len() / 2);
        let mark = background.len();
        background.extend_from_slice(first);
        let found = core.len();
        self.quickxplain(lits, background, true, second, core);
        background.truncate(mark);
        background.extend_from_slice(&core[found..]);
        let grew = background.len() > mark;
        self.quickxplain(lits, background, grew, first, core);
        background.truncate(mark);
    }

    fn eval(&mut self, lits: impl Iterator<Item = (usize, bool)> + Clone) -> bool {
        self.evals += 1;
        let (g, s) = (&self.graph, &mut self.state);
        s.reset(g);
        for (atom, _) in lits.clone() {
            for &app in g.atom_apps(atom) {
                s.present[app as usize] = s.epoch;
            }
        }
        for (atom, value) in lits {
            let merged = match g.atoms[atom] {
                AtomDesc::Eq { l, r, int } => {
                    if int {
                        s.int_lits.push((atom, value));
                    }
                    if value {
                        s.merge(g, l.node, r.node)
                    } else {
                        s.disequalities.push((l.node, r.node));
                        true
                    }
                }
                AtomDesc::Order { .. } => {
                    s.int_lits.push((atom, value));
                    true
                }
                AtomDesc::Bool(node) => {
                    let value = if value { g.true_node } else { g.false_node };
                    s.merge(g, node, value)
                }
            };
            if !merged {
                return false;
            }
        }
        for i in 0..s.disequalities.len() {
            let (a, b) = s.disequalities[i];
            if s.find(a) == s.find(b) {
                return false;
            }
        }
        s.bounds_consistent(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_testkit::XorShift;

    type Answer = Result<(), Vec<(Atom, bool)>>;

    fn env() -> BTreeMap<Ident, Sort> {
        let mut m = BTreeMap::new();
        for x in ["x", "y", "z"] {
            m.insert(x.to_string(), Sort::Int);
        }
        for a in ["a", "b", "c"] {
            m.insert(a.to_string(), Sort::named("T"));
        }
        m.insert("t".to_string(), Sort::Bool);
        m
    }

    fn axioms() -> AxiomSet {
        let mut ax = AxiomSet::new();
        ax.declare_func("len", vec![Sort::named("T")], Sort::Int);
        ax
    }

    /// The answer of a checker built over `universe`, which must hold every atom of
    /// `lits`, with the core mapped back to atoms.
    fn answer(universe: &[Atom], lits: &[(Atom, bool)]) -> Answer {
        let (e, ax) = (env(), axioms());
        let mut check = TheoryCheck::new(universe, &e, &ax);
        let indexed: Vec<(usize, bool)> = lits
            .iter()
            .map(|(atom, value)| {
                let i = universe.iter().position(|u| u == atom);
                (i.expect("the universe holds every literal's atom"), *value)
            })
            .collect();
        check.consistent(&indexed).map_err(|core| {
            core.into_iter()
                .map(|(i, v)| (universe[i].clone(), v))
                .collect()
        })
    }

    /// The answer of a checker built over exactly the literals' atoms, asserted equal
    /// to the reference checker's verdict and core.
    fn answer_alone(lits: &[(Atom, bool)]) -> Answer {
        let universe: Vec<Atom> = lits.iter().map(|(a, _)| a.clone()).collect();
        let got = answer(&universe, lits);
        let (e, ax) = (env(), axioms());
        let expected = reference::TheoryCheck::new(&e, &ax).consistent(lits);
        assert_eq!(got, expected, "the reference disagrees on {lits:?}");
        got
    }

    fn check(lits: Vec<(Atom, bool)>) -> bool {
        answer_alone(&lits).is_ok()
    }

    fn eq(l: Term, r: Term) -> Atom {
        Atom::Eq(l, r)
    }

    fn f(t: Term) -> Term {
        Term::app("f", vec![t])
    }

    fn g(t: Term) -> Term {
        Term::app("g", vec![t])
    }

    #[test]
    fn transitive_equality_conflict() {
        // a = b, b = "k1", a = "k2" is inconsistent.
        let lits = vec![
            (Atom::Eq(Term::var("a"), Term::var("b")), true),
            (Atom::Eq(Term::var("b"), Term::atom("k1")), true),
            (Atom::Eq(Term::var("a"), Term::atom("k2")), true),
        ];
        assert!(!check(lits));
    }

    #[test]
    fn congruence_propagates_through_functions() {
        // a = b ∧ f(a) ≠ f(b) is inconsistent.
        let lits = vec![
            (Atom::Eq(Term::var("a"), Term::var("b")), true),
            (
                Atom::Eq(
                    Term::app("f", vec![Term::var("a")]),
                    Term::app("f", vec![Term::var("b")]),
                ),
                false,
            ),
        ];
        assert!(!check(lits));
    }

    #[test]
    fn predicate_congruence() {
        // a = b ∧ p(a) ∧ ¬p(b) is inconsistent.
        let lits = vec![
            (Atom::Eq(Term::var("a"), Term::var("b")), true),
            (Atom::Pred("p".into(), vec![Term::var("a")]), true),
            (Atom::Pred("p".into(), vec![Term::var("b")]), false),
        ];
        assert!(!check(lits));
    }

    #[test]
    fn ordering_cycle_detected() {
        // x < y ∧ y < x inconsistent.
        let lits = vec![
            (Atom::Lt(Term::var("x"), Term::var("y")), true),
            (Atom::Lt(Term::var("y"), Term::var("x")), true),
        ];
        assert!(!check(lits));
        // x < y ∧ y <= x inconsistent.
        let lits = vec![
            (Atom::Lt(Term::var("x"), Term::var("y")), true),
            (Atom::Le(Term::var("y"), Term::var("x")), true),
        ];
        assert!(!check(lits));
        // x <= y ∧ y <= x consistent.
        let lits = vec![
            (Atom::Le(Term::var("x"), Term::var("y")), true),
            (Atom::Le(Term::var("y"), Term::var("x")), true),
        ];
        assert!(check(lits));
    }

    #[test]
    fn bounds_with_constants() {
        // x < 3 ∧ 5 < x inconsistent.
        let lits = vec![
            (Atom::Lt(Term::var("x"), Term::int(3)), true),
            (Atom::Lt(Term::int(5), Term::var("x")), true),
        ];
        assert!(!check(lits));
        // x < 3 ∧ 1 < x consistent (x = 2).
        let lits = vec![
            (Atom::Lt(Term::var("x"), Term::int(3)), true),
            (Atom::Lt(Term::int(1), Term::var("x")), true),
        ];
        assert!(check(lits));
    }

    #[test]
    fn forced_equality_vs_disequality() {
        // x <= y ∧ y <= x ∧ x ≠ y inconsistent.
        let lits = vec![
            (Atom::Le(Term::var("x"), Term::var("y")), true),
            (Atom::Le(Term::var("y"), Term::var("x")), true),
            (Atom::Eq(Term::var("x"), Term::var("y")), false),
        ];
        assert!(!check(lits));
        // x <= y ∧ x ≠ y consistent.
        let lits = vec![
            (Atom::Le(Term::var("x"), Term::var("y")), true),
            (Atom::Eq(Term::var("x"), Term::var("y")), false),
        ];
        assert!(check(lits));
    }

    #[test]
    fn equality_feeds_arithmetic() {
        // x = 3 ∧ x < 2 inconsistent (equality merges class with the constant 3).
        let lits = vec![
            (Atom::Eq(Term::var("x"), Term::int(3)), true),
            (Atom::Lt(Term::var("x"), Term::int(2)), true),
        ];
        assert!(!check(lits));
    }

    #[test]
    fn negated_ordering() {
        // ¬(x < y) ∧ ¬(y < x) ∧ x ≠ y inconsistent (x = y forced).
        let lits = vec![
            (Atom::Lt(Term::var("x"), Term::var("y")), false),
            (Atom::Lt(Term::var("y"), Term::var("x")), false),
            (Atom::Eq(Term::var("x"), Term::var("y")), false),
        ];
        assert!(!check(lits));
    }

    #[test]
    fn arithmetic_offsets() {
        // x + 1 <= y ∧ y <= x inconsistent.
        let xp1 = Term::add(Term::var("x"), Term::int(1));
        let lits = vec![
            (Atom::Le(xp1, Term::var("y")), true),
            (Atom::Le(Term::var("y"), Term::var("x")), true),
        ];
        assert!(!check(lits));
    }

    #[test]
    fn consistent_mixed_assignment() {
        let lits = vec![
            (Atom::Pred("isDir".into(), vec![Term::var("a")]), true),
            (Atom::Pred("isDir".into(), vec![Term::var("b")]), false),
            (Atom::Eq(Term::var("x"), Term::int(0)), true),
            (Atom::Lt(Term::var("x"), Term::var("y")), true),
        ];
        assert!(check(lits));
    }

    #[test]
    fn size_one_core_at_either_end() {
        let clash = (eq(Term::atom("k1"), Term::atom("k2")), true);
        let others = [
            (eq(Term::var("a"), Term::var("b")), true),
            (Atom::Lt(Term::var("x"), Term::var("y")), true),
            (Atom::Pred("p".into(), vec![Term::var("a")]), false),
        ];
        let first: Vec<_> = std::iter::once(clash.clone())
            .chain(others.clone())
            .collect();
        assert_eq!(answer_alone(&first), Err(vec![clash.clone()]));
        let last: Vec<_> = others
            .into_iter()
            .chain(std::iter::once(clash.clone()))
            .collect();
        assert_eq!(answer_alone(&last), Err(vec![clash]));
    }

    #[test]
    fn core_can_be_the_whole_set() {
        let lits = vec![
            (Atom::Lt(Term::var("x"), Term::var("y")), true),
            (Atom::Lt(Term::var("y"), Term::var("z")), true),
            (Atom::Le(Term::var("z"), Term::var("x")), true),
        ];
        assert_eq!(answer_alone(&lits), Err(lits.clone()));
    }

    #[test]
    fn constant_clashes() {
        // x = 1 ∧ x = 2.
        let lits = vec![
            (eq(Term::var("x"), Term::int(1)), true),
            (Atom::Le(Term::var("y"), Term::var("z")), true),
            (eq(Term::var("x"), Term::int(2)), true),
        ];
        assert_eq!(
            answer_alone(&lits),
            Err(vec![lits[0].clone(), lits[2].clone()])
        );
        // p(a) ∧ ¬p(b) ∧ a = b merges `true` with `false` through the predicate.
        let lits = vec![
            (Atom::Pred("p".into(), vec![Term::var("a")]), true),
            (eq(Term::var("x"), Term::var("y")), false),
            (Atom::Pred("p".into(), vec![Term::var("b")]), false),
            (eq(Term::var("a"), Term::var("b")), true),
        ];
        assert_eq!(
            answer_alone(&lits),
            Err(vec![lits[0].clone(), lits[2].clone(), lits[3].clone()])
        );
    }

    #[test]
    fn congruence_through_nested_apps() {
        let lits = vec![
            (eq(f(g(Term::var("a"))), f(g(Term::var("b")))), false),
            (eq(Term::var("a"), Term::var("c")), false),
            (eq(Term::var("a"), Term::var("b")), true),
        ];
        assert_eq!(
            answer_alone(&lits),
            Err(vec![lits[0].clone(), lits[2].clone()])
        );
        // Without a = b the inner apps stay apart.
        assert!(check(lits[..2].to_vec()));
    }

    #[test]
    fn ordering_cycle_and_bounds_forced_disequality_cores() {
        let cycle = vec![
            (Atom::Le(Term::var("x"), Term::var("y")), true),
            (eq(Term::var("a"), Term::var("b")), true),
            (
                Atom::Lt(Term::var("y"), Term::add(Term::var("z"), Term::int(1))),
                true,
            ),
            (Atom::Lt(Term::var("z"), Term::var("x")), true),
        ];
        assert_eq!(
            answer_alone(&cycle),
            Err(vec![cycle[0].clone(), cycle[2].clone(), cycle[3].clone()])
        );
        // x ≤ 2 ∧ 2 ≤ x forces x = 2, which x ≠ 2 denies.
        let forced = vec![
            (eq(Term::var("x"), Term::int(2)), false),
            (Atom::Le(Term::var("y"), Term::var("x")), true),
            (Atom::Le(Term::var("x"), Term::int(2)), true),
            (Atom::Lt(Term::var("x"), Term::int(2)), false),
        ];
        assert_eq!(
            answer_alone(&forced),
            Err(vec![
                forced[0].clone(),
                forced[2].clone(),
                forced[3].clone()
            ])
        );
    }

    #[test]
    fn unchecked_atoms_of_the_session_change_nothing() {
        let len = |t: Term| Term::app("len", vec![t]);
        let extra = [
            eq(len(Term::var("a")), len(Term::var("b"))),
            eq(f(Term::var("b")), Term::var("c")),
            Atom::Pred("p".into(), vec![f(Term::var("a"))]),
            eq(g(f(Term::var("b"))), Term::atom("k1")),
            Atom::Lt(len(Term::var("c")), Term::int(3)),
        ];
        let sets = [
            // Congruence over terms that only the extra atoms mention.
            vec![
                (eq(Term::var("a"), Term::var("b")), true),
                (eq(g(f(Term::var("a"))), Term::atom("k2")), true),
                (eq(f(Term::var("a")), Term::var("c")), false),
            ],
            // Terms only in orderings are compared by identity, not by congruence.
            vec![
                (eq(Term::var("a"), Term::var("b")), true),
                (Atom::Lt(len(Term::var("a")), len(Term::var("b"))), true),
            ],
            // A conflict whose core must not grow or move.
            vec![
                (eq(Term::var("a"), Term::var("b")), true),
                (Atom::Pred("p".into(), vec![f(Term::var("b"))]), false),
                (eq(Term::var("x"), Term::int(4)), true),
                (Atom::Pred("p".into(), vec![f(Term::var("a"))]), true),
            ],
        ];
        for lits in sets {
            let alone = answer_alone(&lits);
            let mut universe = extra.to_vec();
            universe.extend(lits.iter().map(|(a, _)| a.clone()));
            universe.rotate_left(2);
            assert_eq!(answer(&universe, &lits), alone, "{lits:?}");
        }
    }

    /// A random term of the named sort `T`, of nesting depth at most `depth`.
    fn object(rng: &mut XorShift, depth: u32) -> Term {
        match rng.below(if depth == 0 { 8 } else { 11 }) {
            0 | 1 => Term::var("a"),
            2 | 3 => Term::var("b"),
            4 | 5 => Term::var("c"),
            6 => Term::atom("k1"),
            7 => Term::atom("k2"),
            8 | 9 => f(object(rng, depth - 1)),
            _ => g(object(rng, depth - 1)),
        }
    }

    /// A random integer term: variables, small constants, `len` apps, `±k` offsets.
    fn integer(rng: &mut XorShift, depth: u32) -> Term {
        match rng.below(if depth == 0 { 5 } else { 8 }) {
            0 => Term::var("x"),
            1 => Term::var("y"),
            2 => Term::var("z"),
            3 => Term::int(rng.below(4) as i64),
            4 => Term::app("len", vec![object(rng, 1)]),
            5 | 6 => Term::add(integer(rng, depth - 1), Term::int(rng.below(3) as i64)),
            _ => Term::sub(integer(rng, depth - 1), Term::int(1 + rng.below(2) as i64)),
        }
    }

    fn random_atom(rng: &mut XorShift) -> Atom {
        match rng.below(9) {
            0 | 1 => eq(object(rng, 2), object(rng, 2)),
            2 => eq(integer(rng, 1), integer(rng, 1)),
            3 => Atom::Lt(integer(rng, 1), integer(rng, 1)),
            4 => Atom::Le(integer(rng, 1), integer(rng, 1)),
            5 => Atom::Pred("p".into(), vec![object(rng, 2)]),
            6 => Atom::Pred("q".into(), vec![object(rng, 1), object(rng, 1)]),
            7 => Atom::BoolTerm(Term::var("t")),
            _ => Atom::BoolTerm(Term::app("h", vec![object(rng, 1)])),
        }
    }

    /// The differential the rewrite rests on: over random sessions of random atoms,
    /// many literal sets per session, the hash-consed checker with QuickXplain and the
    /// per-check e-graph with deletion agree on every verdict and on every core, literal
    /// for literal and in order.
    #[test]
    fn differential_against_the_deletion_reference() {
        let (e, ax) = (env(), axioms());
        let reference = reference::TheoryCheck::new(&e, &ax);
        let mut rng = XorShift::seeded(0x7e0c_0de5);
        let (mut sets, mut conflicts, mut big_cores) = (0, 0, 0);
        for session in 0..1500 {
            let mut universe: Vec<Atom> = Vec::new();
            // Every other session leaves out atoms that clash on their own (`a ≠ a`,
            // `k1 = k2`): those end most conflicts in a one-literal core.
            let sound_alone = |atom: &Atom| {
                session % 2 == 0
                    || [true, false]
                        .iter()
                        .all(|&v| reference.consistent(&[(atom.clone(), v)]).is_ok())
            };
            while universe.len() < 14 {
                let atom = random_atom(&mut rng);
                if !universe.contains(&atom) && sound_alone(&atom) {
                    universe.push(atom);
                }
            }
            let mut check = TheoryCheck::new(&universe, &e, &ax);
            for _ in 0..4 {
                let mut picks: Vec<usize> = (0..universe.len()).collect();
                for i in (1..picks.len()).rev() {
                    picks.swap(i, rng.below(i as u64 + 1) as usize);
                }
                picks.truncate(4 + rng.below(universe.len() as u64 - 3) as usize);
                let lits: Vec<(usize, bool)> = picks.iter().map(|&i| (i, rng.flip())).collect();
                let atoms: Vec<(Atom, bool)> = lits
                    .iter()
                    .map(|&(i, v)| (universe[i].clone(), v))
                    .collect();
                let got: Answer = check.consistent(&lits).map_err(|core| {
                    core.into_iter()
                        .map(|(i, v)| (universe[i].clone(), v))
                        .collect()
                });
                let expected = reference.consistent(&atoms);
                assert_eq!(got, expected, "session {session}: {atoms:?}");
                sets += 1;
                if let Err(core) = expected {
                    conflicts += 1;
                    big_cores += usize::from(core.len() >= 3);
                }
            }
        }
        // The draw must exercise minimisation, not just consistent sets.
        assert!(
            conflicts * 5 >= sets,
            "{conflicts} conflicts in {sets} sets"
        );
        assert!(
            big_cores * 10 >= conflicts,
            "{big_cores} cores of 3+ literals"
        );
    }
}
