//! The reference theory checker: the per-check e-graph with deletion-based core
//! minimisation that [`super::TheoryCheck`] replaced. It is kept as the oracle of the
//! theory differential, which requires the replacement to return identical verdicts and
//! identical cores.

use crate::axioms::AxiomSet;
use crate::constant::Constant;
use crate::formula::Atom;
use crate::sort::Sort;
use crate::term::{FuncSym, Term};
use crate::Ident;
use std::collections::BTreeMap;

/// A theory consistency checker for a fixed sort environment and axiom set.
#[derive(Debug)]
pub(super) struct TheoryCheck<'a> {
    env: &'a BTreeMap<Ident, Sort>,
    axioms: &'a AxiomSet,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    Var(Ident),
    Const(Constant),
    App(String, Vec<usize>),
}

#[derive(Debug, Default)]
struct Egraph {
    nodes: Vec<Node>,
    parent: Vec<usize>,
}

impl Egraph {
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        true
    }

    fn intern(&mut self, node: Node) -> usize {
        if let Some(i) = self.nodes.iter().position(|n| *n == node) {
            return i;
        }
        self.nodes.push(node);
        self.parent.push(self.nodes.len() - 1);
        self.nodes.len() - 1
    }

    fn intern_term(&mut self, t: &Term) -> usize {
        match t {
            Term::Var(x) => self.intern(Node::Var(x.clone())),
            Term::Const(c) => self.intern(Node::Const(c.clone())),
            Term::App(sym, args) => {
                let arg_ids: Vec<usize> = args.iter().map(|a| self.intern_term(a)).collect();
                self.intern(Node::App(format!("f:{}", sym.name()), arg_ids))
            }
        }
    }

    /// Closes the relation under congruence: apps with the same symbol and congruent
    /// arguments are merged. Quadratic fixpoint; fine at this scale.
    fn congruence_closure(&mut self) {
        loop {
            let mut merged = false;
            let apps: Vec<(usize, String, Vec<usize>)> = self
                .nodes
                .iter()
                .enumerate()
                .filter_map(|(i, n)| match n {
                    Node::App(s, args) => Some((i, s.clone(), args.clone())),
                    _ => None,
                })
                .collect();
            for i in 0..apps.len() {
                for j in (i + 1)..apps.len() {
                    let (ni, si, ai) = &apps[i];
                    let (nj, sj, aj) = &apps[j];
                    if si != sj || ai.len() != aj.len() {
                        continue;
                    }
                    if self.find(*ni) == self.find(*nj) {
                        continue;
                    }
                    let congruent = ai
                        .iter()
                        .zip(aj.iter())
                        .all(|(a, b)| self.find(*a) == self.find(*b));
                    if congruent && self.union(*ni, *nj) {
                        merged = true;
                    }
                }
            }
            if !merged {
                break;
            }
        }
    }

    /// Returns a conflict if two distinct constants ended up in the same class.
    fn constant_conflict(&mut self) -> bool {
        let n = self.nodes.len();
        let mut class_const: BTreeMap<usize, Constant> = BTreeMap::new();
        for i in 0..n {
            if let Node::Const(c) = self.nodes[i].clone() {
                let r = self.find(i);
                match class_const.get(&r) {
                    Some(existing) if *existing != c => return true,
                    _ => {
                        class_const.insert(r, c);
                    }
                }
            }
        }
        false
    }
}

impl<'a> TheoryCheck<'a> {
    /// Creates a checker for the given variable sorts and axioms.
    pub(super) fn new(env: &'a BTreeMap<Ident, Sort>, axioms: &'a AxiomSet) -> Self {
        TheoryCheck { env, axioms }
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

    /// Checks whether the literal set is consistent with the theory.
    ///
    /// On conflict, returns a *minimised* conflict core: a subset of the literals that is
    /// still theory-inconsistent and from which no single literal can be removed. Small
    /// cores matter enormously for the lazy-SMT loop: a blocking clause built from the
    /// full literal set excludes exactly one propositional model, so the loop can cycle
    /// through exponentially many theory-equivalent models; a blocking clause built from
    /// a minimal core excludes the whole family at once.
    pub(super) fn consistent(&self, lits: &[(Atom, bool)]) -> Result<(), Vec<(Atom, bool)>> {
        if self.check(lits) {
            Ok(())
        } else {
            Err(self.minimise_core(lits.to_vec()))
        }
    }

    /// Deletion-based core minimisation: drop each literal whose removal keeps the set
    /// inconsistent. Deterministic (literals are visited in order), so cached verdicts
    /// and parallel runs see identical blocking behaviour.
    fn minimise_core(&self, mut core: Vec<(Atom, bool)>) -> Vec<(Atom, bool)> {
        let mut i = 0;
        while i < core.len() {
            let removed = core.remove(i);
            if self.check(&core) {
                // The literal is load-bearing; put it back and move on.
                core.insert(i, removed);
                i += 1;
            }
        }
        core
    }

    fn check(&self, lits: &[(Atom, bool)]) -> bool {
        let mut eg = Egraph::default();
        let true_node = eg.intern(Node::Const(Constant::Bool(true)));
        let false_node = eg.intern(Node::Const(Constant::Bool(false)));

        let mut disequalities: Vec<(usize, usize)> = Vec::new();
        let mut ordering: Vec<(Term, Term, bool, bool)> = Vec::new(); // (a, b, strict, positive)

        for (atom, value) in lits {
            match atom {
                Atom::Eq(l, r) => {
                    let (a, b) = (eg.intern_term(l), eg.intern_term(r));
                    if *value {
                        eg.union(a, b);
                    } else {
                        disequalities.push((a, b));
                    }
                }
                Atom::Lt(l, r) => ordering.push((l.clone(), r.clone(), true, *value)),
                Atom::Le(l, r) => ordering.push((l.clone(), r.clone(), false, *value)),
                Atom::Pred(p, args) => {
                    let arg_ids: Vec<usize> = args.iter().map(|a| eg.intern_term(a)).collect();
                    let node = eg.intern(Node::App(format!("p:{p}"), arg_ids));
                    eg.union(node, if *value { true_node } else { false_node });
                }
                Atom::BoolTerm(t) => {
                    let node = eg.intern_term(t);
                    eg.union(node, if *value { true_node } else { false_node });
                }
            }
        }

        eg.congruence_closure();

        if eg.constant_conflict() {
            return false;
        }
        for (a, b) in &disequalities {
            if eg.find(*a) == eg.find(*b) {
                return false;
            }
        }

        // Integer difference-bound reasoning on top of the equivalence classes.
        self.check_orderings(&mut eg, &ordering, &disequalities, lits)
    }

    fn check_orderings(
        &self,
        eg: &mut Egraph,
        ordering: &[(Term, Term, bool, bool)],
        disequalities: &[(usize, usize)],
        lits: &[(Atom, bool)],
    ) -> bool {
        // Collect integer-sorted terms: those in ordering atoms plus integer constants and
        // arithmetic offsets appearing anywhere.
        let mut int_terms: Vec<Term> = Vec::new();
        let push = |t: &Term, v: &mut Vec<Term>| {
            if !v.contains(t) {
                v.push(t.clone());
            }
        };
        for (a, b, _, _) in ordering {
            push(a, &mut int_terms);
            push(b, &mut int_terms);
        }
        for (atom, _) in lits {
            if let Atom::Eq(l, r) = atom {
                if self.term_is_int(l) || self.term_is_int(r) {
                    push(l, &mut int_terms);
                    push(r, &mut int_terms);
                }
            }
        }
        if int_terms.is_empty() {
            return true;
        }

        // Node mapping: congruence class representative of each int term, plus a zero node.
        let mut ids: Vec<usize> = Vec::new();
        let class_of = |eg: &mut Egraph, t: &Term, ids: &mut Vec<usize>| -> usize {
            let n = eg.intern_term(t);
            let r = eg.find(n);
            if let Some(i) = ids.iter().position(|x| *x == r) {
                i
            } else {
                ids.push(r);
                ids.len() - 1
            }
        };

        #[derive(Clone)]
        struct Edge {
            from: usize,
            to: usize,
            weight: i64,
        }
        let mut edges: Vec<Edge> = Vec::new();
        // constraint: to - from <= weight
        let add_le = |to: usize, from: usize, weight: i64, edges: &mut Vec<Edge>| {
            edges.push(Edge { from, to, weight });
        };

        let zero = {
            ids.push(usize::MAX); // sentinel representative for the zero node
            ids.len() - 1
        };

        let mut term_node: BTreeMap<Term, usize> = BTreeMap::new();
        for t in &int_terms {
            let idx = class_of(eg, t, &mut ids);
            term_node.insert(t.clone(), idx);
            // Integer constants pin the class to a value.
            if let Term::Const(Constant::Int(k)) = t {
                add_le(idx, zero, *k, &mut edges);
                add_le(zero, idx, -*k, &mut edges);
            }
            // Arithmetic offsets t' ± k.
            if let Term::App(sym, args) = t {
                if args.len() == 2 {
                    let (base, k, sign) = match (&args[0], &args[1], sym) {
                        (b, Term::Const(Constant::Int(k)), FuncSym::Add) => (Some(b), *k, 1),
                        (Term::Const(Constant::Int(k)), b, FuncSym::Add) => (Some(b), *k, 1),
                        (b, Term::Const(Constant::Int(k)), FuncSym::Sub) => (Some(b), *k, -1),
                        _ => (None, 0, 0),
                    };
                    if let Some(base) = base {
                        let b_idx = class_of(eg, base, &mut ids);
                        let off = k * sign as i64;
                        // t - base <= off and base - t <= -off
                        add_le(idx, b_idx, off, &mut edges);
                        add_le(b_idx, idx, -off, &mut edges);
                    }
                }
            }
        }

        for (a, b, strict, positive) in ordering {
            let ia = *term_node.get(a).expect("collected above");
            let ib = *term_node.get(b).expect("collected above");
            match (strict, positive) {
                // a < b  ⇒ a - b <= -1
                (true, true) => add_le(ia, ib, -1, &mut edges),
                // ¬(a < b) ⇒ b <= a ⇒ b - a <= 0
                (true, false) => add_le(ib, ia, 0, &mut edges),
                // a <= b ⇒ a - b <= 0
                (false, true) => add_le(ia, ib, 0, &mut edges),
                // ¬(a <= b) ⇒ b < a ⇒ b - a <= -1
                (false, false) => add_le(ib, ia, -1, &mut edges),
            }
        }

        // Equal classes collapse to the same node already (class_of uses representatives).

        // Bellman-Ford negative-cycle detection from a virtual source.
        let n = ids.len();
        let mut dist = vec![0i64; n];
        for _ in 0..n {
            let mut changed = false;
            for e in &edges {
                if dist[e.from].saturating_add(e.weight) < dist[e.to] {
                    dist[e.to] = dist[e.from].saturating_add(e.weight);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for e in &edges {
            if dist[e.from].saturating_add(e.weight) < dist[e.to] {
                return false; // negative cycle
            }
        }

        // Disequalities between integer classes that the bounds force equal.
        if !disequalities.is_empty() {
            // all-pairs tightest bounds (Floyd–Warshall); n is small.
            const INF: i64 = i64::MAX / 4;
            let mut d = vec![vec![INF; n]; n];
            for (i, row) in d.iter_mut().enumerate() {
                row[i] = 0;
            }
            for e in &edges {
                // bound on (to - from)
                if e.weight < d[e.from][e.to] {
                    d[e.from][e.to] = e.weight;
                }
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        let via = d[i][k].saturating_add(d[k][j]);
                        if via < d[i][j] {
                            d[i][j] = via;
                        }
                    }
                }
            }
            for (a, b) in disequalities {
                let (ra, rb) = (eg.find(*a), eg.find(*b));
                let ia = ids.iter().position(|x| *x == ra);
                let ib = ids.iter().position(|x| *x == rb);
                if let (Some(ia), Some(ib)) = (ia, ib) {
                    if d[ia][ib] == 0 && d[ib][ia] == 0 {
                        return false; // forced equal but asserted distinct
                    }
                }
            }
        }
        true
    }
}
