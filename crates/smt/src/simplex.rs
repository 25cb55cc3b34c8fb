//! General simplex for linear arithmetic, with integer branch-and-bound.
//!
//! The solver follows Dutertre & de Moura's *general simplex*: every
//! constraint `Σ cᵢ·xᵢ ⋈ b` is turned into a slack variable `s = Σ cᵢ·xᵢ`
//! with bounds on `s`; a candidate assignment `β` always satisfies the
//! tableau equations and the bounds of non-basic variables, and pivoting
//! repairs basic variables that violate their bounds (Bland's rule for
//! termination).
//!
//! Integer feasibility is decided by branch-and-bound on
//! fractionally-assigned integer variables. The search is budgeted: if
//! the node budget (or the deadline) is exhausted the solver answers
//! [`LpResult::Unknown`], which callers must surface rather than treat
//! as either verdict.
//!
//! Every bound carries the caller's *reason* for it (an opaque tag, or
//! `None` for a fact that needs none), and an infeasible verdict is
//! explained by the reasons of the bounds that cause it
//! ([`Simplex::conflict`]): the Farkas row of the violated basic
//! variable — its violated bound plus the blocking bound of every
//! nonbasic variable in its row — or, after branch-and-bound, the union
//! of the leaves' explanations (branch bounds carry no reason, because
//! the two branches together cover every integer).

use crate::Rat;
use dsolve_logic::{deadline_expired, Budget};
use dsolve_obs::{micro, MicroCounter};
use std::collections::HashMap;
use std::time::Instant;

/// Feasibility verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpResult {
    /// A satisfying assignment exists.
    Sat,
    /// The constraints are infeasible.
    Unsat,
    /// The search budget (branch-and-bound nodes or deadline) ran out
    /// before feasibility was decided.
    Unknown,
}

/// A simplex tableau over rational variables with optional integrality.
///
/// The tableau supports assertion scopes: [`Simplex::push`] marks a
/// point and [`Simplex::pop`] restores every bound tightened since.
/// Only *bounds* are assertions here — rows are definitions
/// (`s = Σ cᵢ·xᵢ`) and stay valid forever, so the undo trail records
/// nothing but displaced bounds. Pivoting merely re-parameterizes the
/// same equation system and β always satisfies the equations and all
/// nonbasic bounds (restored bounds are weaker, so it keeps
/// satisfying them); [`Simplex::check`] repairs any basic variable a
/// restored bound leaves violated.
#[derive(Clone, Debug, Default)]
pub struct Simplex {
    nvars: usize,
    lower: Vec<Option<Rat>>,
    upper: Vec<Option<Rat>>,
    is_int: Vec<bool>,
    beta: Vec<Rat>,
    /// `rows[r]` expresses `basic[r] = Σ coeff·nonbasic`.
    rows: Vec<HashMap<usize, Rat>>,
    basic: Vec<usize>,
    row_of: HashMap<usize, usize>,
    /// Reason tag of each lower/upper bound, parallel to `lower`/`upper`.
    lower_why: Vec<Option<u32>>,
    upper_why: Vec<Option<u32>>,
    /// Reasons behind the last infeasible verdict.
    conflict: Vec<u32>,
    /// Displaced bounds: `(var, is_lower, previous bound, its reason)`.
    /// Recorded only while at least one scope is open.
    trail: Vec<(usize, bool, Option<Rat>, Option<u32>)>,
    /// Trail watermarks for open scopes.
    scopes: Vec<usize>,
    /// Whether the last integer check's infeasible verdict came from
    /// branch-and-bound, not from the rational relaxation.
    searched: bool,
    /// Pivots performed since the last flush. Zeroed when [`Simplex::check`]
    /// flushes it to the thread-local micro accumulator, so clones (the
    /// tableau is `Clone`) never carry residue into double counting.
    n_pivots: u64,
}

impl Simplex {
    /// Creates an empty tableau.
    pub fn new() -> Simplex {
        Simplex::default()
    }

    /// Adds a fresh variable; `is_int` requests integer feasibility checks.
    pub fn new_var(&mut self, is_int: bool) -> usize {
        let v = self.nvars;
        self.nvars += 1;
        self.lower.push(None);
        self.upper.push(None);
        self.lower_why.push(None);
        self.upper_why.push(None);
        self.is_int.push(is_int);
        self.beta.push(Rat::ZERO);
        v
    }

    /// Adds a variable fixed to `value` for good (integer-valued when
    /// `value` is). Its bounds are a definition, like a row, so no scope
    /// restores them.
    pub(crate) fn new_const(&mut self, value: Rat) -> usize {
        let v = self.new_var(value.is_integer());
        // A new variable is nonbasic and in no row, so moving it touches
        // nothing else.
        self.lower[v] = Some(value);
        self.upper[v] = Some(value);
        self.beta[v] = value;
        v
    }

    /// Introduces a slack variable `s = Σ coeff·var` and returns `s`.
    ///
    /// The combination must be over existing variables; zero coefficients
    /// are ignored.
    pub fn add_row(&mut self, combo: &[(usize, Rat)]) -> usize {
        let s = self.new_var(false);
        let mut row: HashMap<usize, Rat> = HashMap::new();
        let mut val = Rat::ZERO;
        for &(v, c) in combo {
            if c.is_zero() {
                continue;
            }
            // If v is basic, substitute its row so the tableau stays in
            // terms of nonbasic variables.
            if let Some(&r) = self.row_of.get(&v) {
                let sub = self.rows[r].clone();
                for (w, cw) in sub {
                    let e = row.entry(w).or_insert(Rat::ZERO);
                    *e += c * cw;
                    if e.is_zero() {
                        row.remove(&w);
                    }
                }
            } else {
                let e = row.entry(v).or_insert(Rat::ZERO);
                *e += c;
                if e.is_zero() {
                    row.remove(&v);
                }
            }
            val += c * self.beta[v];
        }
        self.beta[s] = val;
        self.row_of.insert(s, self.rows.len());
        self.basic.push(s);
        self.rows.push(row);
        s
    }

    /// Removes the row that defines slack `s` (a variable returned by
    /// [`Simplex::add_row`] that carries no bound), so that checks no
    /// longer pay for it. An unbounded slack constrains nothing, so the
    /// other variables are exactly as constrained as before; `s` is left
    /// in no row, and a nonbasic `s` is first pivoted into the basis.
    pub(crate) fn remove_row(&mut self, s: usize) {
        // Dropping a bounded row would drop a constraint: unsound.
        assert!(
            self.lower[s].is_none() && self.upper[s].is_none(),
            "removing a bounded row"
        );
        if !self.row_of.contains_key(&s) {
            // Pivot on the row (mentioning s) whose basic variable has the
            // fewest bounds, so that it rarely needs moving as a nonbasic.
            let bounds = |v: usize| {
                usize::from(self.lower[v].is_some()) + usize::from(self.upper[v].is_some())
            };
            let Some(r) = (0..self.rows.len())
                .filter(|&r| self.rows[r].contains_key(&s))
                .min_by_key(|&r| (bounds(self.basic[r]), self.basic[r]))
            else {
                // In no row: nothing to remove.
                return;
            };
            let xi = self.basic[r];
            self.pivot(r, xi, s);
            // Nonbasic variables sit within their bounds.
            let v = self.beta[xi];
            let clamped = match (self.lower[xi], self.upper[xi]) {
                (Some(l), _) if v < l => l,
                (_, Some(u)) if v > u => u,
                _ => v,
            };
            self.update(xi, clamped);
        }
        let r = self.row_of.remove(&s).expect("s is basic");
        self.rows.swap_remove(r);
        self.basic.swap_remove(r);
        if r < self.rows.len() {
            self.row_of.insert(self.basic[r], r);
        }
    }

    /// Opens an assertion scope; [`Simplex::pop`] restores every bound
    /// (and its reason) tightened after this call. Variables and rows
    /// added inside the scope are kept — both are definitional, not
    /// assertions.
    pub fn push(&mut self) {
        self.scopes.push(self.trail.len());
    }

    /// Closes the innermost scope, restoring displaced bounds in
    /// reverse order. The candidate assignment β is left as-is: it
    /// still satisfies the (unchanged) equations, and every restored
    /// bound is weaker than the one it replaces, so nonbasic variables
    /// stay within bounds.
    pub fn pop(&mut self) {
        let mark = self.scopes.pop().expect("pop without matching push");
        while self.trail.len() > mark {
            let (var, is_lower, old, why) = self.trail.pop().expect("nonempty trail");
            if is_lower {
                self.lower[var] = old;
                self.lower_why[var] = why;
            } else {
                self.upper[var] = old;
                self.upper_why[var] = why;
            }
        }
    }

    /// Asserts `var >= bound` for reason `why`; returns `false` on
    /// immediate conflict (explained by [`Simplex::conflict`]).
    pub fn assert_lower(&mut self, var: usize, bound: Rat, why: Option<u32>) -> bool {
        if let Some(u) = self.upper[var] {
            if bound > u {
                self.conflict = self.upper_why[var].into_iter().chain(why).collect();
                return false;
            }
        }
        if self.lower[var].is_none_or(|l| bound > l) {
            if !self.scopes.is_empty() {
                self.trail
                    .push((var, true, self.lower[var], self.lower_why[var]));
            }
            self.lower[var] = Some(bound);
            self.lower_why[var] = why;
            if !self.row_of.contains_key(&var) && self.beta[var] < bound {
                self.update(var, bound);
            }
        }
        true
    }

    /// Asserts `var <= bound` for reason `why`; returns `false` on
    /// immediate conflict (explained by [`Simplex::conflict`]).
    pub fn assert_upper(&mut self, var: usize, bound: Rat, why: Option<u32>) -> bool {
        if let Some(l) = self.lower[var] {
            if bound < l {
                self.conflict = self.lower_why[var].into_iter().chain(why).collect();
                return false;
            }
        }
        if self.upper[var].is_none_or(|u| bound < u) {
            if !self.scopes.is_empty() {
                self.trail
                    .push((var, false, self.upper[var], self.upper_why[var]));
            }
            self.upper[var] = Some(bound);
            self.upper_why[var] = why;
            if !self.row_of.contains_key(&var) && self.beta[var] > bound {
                self.update(var, bound);
            }
        }
        true
    }

    /// The reasons behind the last infeasible verdict — a `false` from
    /// an assertion, or `Unsat` from a check — unordered and possibly
    /// repeated. Bounds asserted without a reason do not appear.
    pub fn conflict(&self) -> &[u32] {
        &self.conflict
    }

    /// Whether the last `Unsat` from an integer check rests on
    /// branch-and-bound: its explanation is then the union of the
    /// leaves' Farkas rows — sound, but a record of one search rather than
    /// a certificate, and a search over the same facts from another
    /// tableau may branch differently and not finish within its budget.
    pub(crate) fn conflict_searched(&self) -> bool {
        self.searched
    }

    /// Current value of `var` in the candidate assignment.
    pub fn value(&self, var: usize) -> Rat {
        self.beta[var]
    }

    fn update(&mut self, nonbasic: usize, v: Rat) {
        let delta = v - self.beta[nonbasic];
        if delta.is_zero() {
            return;
        }
        for (r, row) in self.rows.iter().enumerate() {
            if let Some(&c) = row.get(&nonbasic) {
                let b = self.basic[r];
                self.beta[b] += c * delta;
            }
        }
        self.beta[nonbasic] = v;
    }

    fn pivot_and_update(&mut self, bi: usize, xi: usize, xj: usize, v: Rat) {
        let aij = *self.rows[bi].get(&xj).expect("pivot coefficient");
        let theta = (v - self.beta[xi]) / aij;
        self.beta[xi] = v;
        self.beta[xj] += theta;
        for (r, row) in self.rows.iter().enumerate() {
            if r == bi {
                continue;
            }
            if let Some(&akj) = row.get(&xj) {
                let b = self.basic[r];
                self.beta[b] += akj * theta;
            }
        }
        self.pivot(bi, xi, xj);
    }

    /// Pivots basic `xi` (row `bi`) with nonbasic `xj`.
    fn pivot(&mut self, bi: usize, xi: usize, xj: usize) {
        let mut row = std::mem::take(&mut self.rows[bi]);
        let aij = row.remove(&xj).expect("pivot coefficient");
        // xi = aij*xj + rest  =>  xj = (1/aij)*xi - rest/aij
        let inv = aij.recip();
        let mut newrow: HashMap<usize, Rat> = HashMap::new();
        newrow.insert(xi, inv);
        for (w, c) in row {
            newrow.insert(w, -(c * inv));
        }
        // Substitute into every other row mentioning xj.
        for r in 0..self.rows.len() {
            if r == bi {
                continue;
            }
            if let Some(c) = self.rows[r].remove(&xj) {
                for (w, cw) in &newrow {
                    let e = self.rows[r].entry(*w).or_insert(Rat::ZERO);
                    *e += c * *cw;
                    if e.is_zero() {
                        let w = *w;
                        self.rows[r].remove(&w);
                    }
                }
            }
        }
        self.rows[bi] = newrow;
        self.basic[bi] = xj;
        self.row_of.remove(&xi);
        self.row_of.insert(xj, bi);
        self.n_pivots += 1;
    }

    /// Decides rational feasibility.
    pub fn check(&mut self) -> LpResult {
        let r = self.check_inner();
        micro::add(
            MicroCounter::SimplexPivots,
            std::mem::take(&mut self.n_pivots),
        );
        r
    }

    fn check_inner(&mut self) -> LpResult {
        loop {
            // Find the basic variable with the smallest index violating a
            // bound (Bland's rule).
            let mut viol: Option<(usize, usize, bool)> = None; // (row, var, need_increase)
            for (r, &b) in self.basic.iter().enumerate() {
                if let Some(l) = self.lower[b] {
                    if self.beta[b] < l && viol.is_none_or(|(_, v, _)| b < v) {
                        viol = Some((r, b, true));
                    }
                }
                if let Some(u) = self.upper[b] {
                    if self.beta[b] > u && viol.is_none_or(|(_, v, _)| b < v) {
                        viol = Some((r, b, false));
                    }
                }
            }
            let Some((r, xi, increase)) = viol else {
                return LpResult::Sat;
            };
            let target = if increase {
                self.lower[xi].expect("violated lower bound")
            } else {
                self.upper[xi].expect("violated upper bound")
            };
            // Find an admissible nonbasic variable (smallest index).
            let mut choice: Option<usize> = None;
            for (&xj, &a) in &self.rows[r] {
                let ok = if increase {
                    (a.is_positive() && self.upper[xj].is_none_or(|u| self.beta[xj] < u))
                        || (a.is_negative() && self.lower[xj].is_none_or(|l| self.beta[xj] > l))
                } else {
                    (a.is_negative() && self.upper[xj].is_none_or(|u| self.beta[xj] < u))
                        || (a.is_positive() && self.lower[xj].is_none_or(|l| self.beta[xj] > l))
                };
                if ok && choice.is_none_or(|c| xj < c) {
                    choice = Some(xj);
                }
            }
            let Some(xj) = choice else {
                self.conflict = self.farkas_row(r, xi, increase);
                return LpResult::Unsat;
            };
            self.pivot_and_update(r, xi, xj, target);
        }
    }

    /// Explains why basic `xi` (row `r`) cannot be repaired: its violated
    /// bound, plus the bound every nonbasic variable of the row sits at —
    /// the one that blocks moving `xi` in the needed direction.
    fn farkas_row(&self, r: usize, xi: usize, increase: bool) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::with_capacity(self.rows[r].len() + 1);
        out.extend(if increase {
            self.lower_why[xi]
        } else {
            self.upper_why[xi]
        });
        for (&xj, &a) in &self.rows[r] {
            // Raising xi needs xj up when a > 0, so xj's upper bound
            // blocks it; every other case mirrors that.
            let blocked_above = a.is_positive() == increase;
            out.extend(if blocked_above {
                self.upper_why[xj]
            } else {
                self.lower_why[xj]
            });
        }
        out
    }

    /// Decides integer feasibility by branch-and-bound with the default
    /// node budget and no deadline.
    pub fn check_int(&mut self) -> LpResult {
        self.check_int_within(Budget::default().max_bb_nodes, None)
    }

    /// Decides integer feasibility by branch-and-bound, exploring at most
    /// `max_nodes` branch nodes and respecting an optional deadline.
    ///
    /// Returns [`LpResult::Unknown`] when either budget runs out before
    /// the search is decided — never a guessed verdict.
    pub fn check_int_within(&mut self, max_nodes: u64, deadline: Option<Instant>) -> LpResult {
        let ints: Vec<usize> = (0..self.nvars).filter(|&v| self.is_int[v]).collect();
        self.check_int_among(&ints, max_nodes, deadline)
    }

    /// Like [`Simplex::check_int_within`], but integrality is required of
    /// `ints` only, branching on the first fractional one in that order.
    /// A long-lived tableau keeps the variables of terms no assertion
    /// mentions any more; they are free, and branching on them would only
    /// spend nodes.
    pub(crate) fn check_int_among(
        &mut self,
        ints: &[usize],
        max_nodes: u64,
        deadline: Option<Instant>,
    ) -> LpResult {
        let mut nodes = max_nodes;
        let mut max_depth = 0u64;
        let r = self.check_int_rec(ints, &mut nodes, deadline, 1, &mut max_depth);
        self.searched = r == LpResult::Unsat && nodes < max_nodes;
        micro::add(MicroCounter::SimplexBbNodes, max_nodes - nodes);
        micro::record_max(MicroCounter::SimplexBbMaxDepth, max_depth);
        r
    }

    fn check_int_rec(
        &mut self,
        ints: &[usize],
        nodes: &mut u64,
        deadline: Option<Instant>,
        depth: u64,
        max_depth: &mut u64,
    ) -> LpResult {
        if self.check() == LpResult::Unsat {
            return LpResult::Unsat;
        }
        // Find an integer variable with a fractional value.
        let frac = ints.iter().copied().find(|&v| !self.beta[v].is_integer());
        let Some(v) = frac else {
            return LpResult::Sat;
        };
        if *nodes == 0 || deadline_expired(deadline) {
            return LpResult::Unknown;
        }
        *nodes -= 1;
        if depth > *max_depth {
            *max_depth = depth;
        }
        let val = self.beta[v];
        let mut unknown = false;
        let mut conflict: Vec<u32> = Vec::new();
        // Each branch tightens one bound under a scope and pops it on
        // the way out (even on Sat: callers expect the tableau's
        // asserted bounds unchanged by the search, exactly as the old
        // clone-per-branch version guaranteed). The branch bounds carry
        // no reason: v ≤ ⌊val⌋ ∨ v ≥ ⌈val⌉ holds for every integer, so
        // the union of both branches' explanations is infeasible alone.
        for upper in [true, false] {
            self.push();
            let ok = if upper {
                self.assert_upper(v, val.floor(), None)
            } else {
                self.assert_lower(v, val.ceil(), None)
            };
            let res = if ok {
                self.check_int_rec(ints, nodes, deadline, depth + 1, max_depth)
            } else {
                LpResult::Unsat
            };
            self.pop();
            match res {
                LpResult::Sat => return LpResult::Sat,
                LpResult::Unknown => unknown = true,
                LpResult::Unsat => conflict.append(&mut self.conflict),
            }
        }
        // An undecided branch means infeasibility was not established.
        if unknown {
            LpResult::Unknown
        } else {
            self.conflict = conflict;
            LpResult::Unsat
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rat {
        Rat::from_int(n)
    }

    #[test]
    fn trivial_bounds() {
        let mut s = Simplex::new();
        let x = s.new_var(true);
        assert!(s.assert_lower(x, r(1), None));
        assert!(s.assert_upper(x, r(5), None));
        assert_eq!(s.check(), LpResult::Sat);
        assert!(s.value(x) >= r(1) && s.value(x) <= r(5));
    }

    #[test]
    fn contradictory_bounds() {
        let mut s = Simplex::new();
        let x = s.new_var(true);
        assert!(s.assert_lower(x, r(3), None));
        assert!(!s.assert_upper(x, r(2), None));
    }

    #[test]
    fn row_feasibility() {
        // x + y <= 4, x >= 3, y >= 2 is infeasible.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let sl = s.add_row(&[(x, r(1)), (y, r(1))]);
        assert!(s.assert_upper(sl, r(4), None));
        assert!(s.assert_lower(x, r(3), None));
        assert!(s.assert_lower(y, r(2), None));
        assert_eq!(s.check(), LpResult::Unsat);
    }

    #[test]
    fn row_feasible_case() {
        // x + y <= 4, x >= 1, y >= 2 is feasible.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let sl = s.add_row(&[(x, r(1)), (y, r(1))]);
        assert!(s.assert_upper(sl, r(4), None));
        assert!(s.assert_lower(x, r(1), None));
        assert!(s.assert_lower(y, r(2), None));
        assert_eq!(s.check(), LpResult::Sat);
        assert!(s.value(x) + s.value(y) <= r(4));
    }

    #[test]
    fn equality_chain() {
        // x = y + 1, y = z + 1, x = z  is infeasible.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let z = s.new_var(true);
        let r1 = s.add_row(&[(x, r(1)), (y, r(-1))]); // x - y = 1
        assert!(s.assert_lower(r1, r(1), None) && s.assert_upper(r1, r(1), None));
        let r2 = s.add_row(&[(y, r(1)), (z, r(-1))]); // y - z = 1
        assert!(s.assert_lower(r2, r(1), None) && s.assert_upper(r2, r(1), None));
        let r3 = s.add_row(&[(x, r(1)), (z, r(-1))]); // x - z = 0
        assert!(s.assert_lower(r3, r(0), None) && s.assert_upper(r3, r(0), None));
        assert_eq!(s.check(), LpResult::Unsat);
    }

    #[test]
    fn integer_infeasible_rational_feasible() {
        // 2x = 1 has the rational solution x = 1/2 but no integer one.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let row = s.add_row(&[(x, r(2))]);
        assert!(s.assert_lower(row, r(1), None) && s.assert_upper(row, r(1), None));
        assert_eq!(s.check(), LpResult::Sat);
        assert_eq!(s.check_int(), LpResult::Unsat);
    }

    #[test]
    fn integer_branching_finds_solution() {
        // 2x + 2y = 4 with 0 <= x,y has integer solutions.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let row = s.add_row(&[(x, r(2)), (y, r(2))]);
        assert!(s.assert_lower(row, r(4), None) && s.assert_upper(row, r(4), None));
        assert!(s.assert_lower(x, r(0), None));
        assert!(s.assert_lower(y, r(0), None));
        assert_eq!(s.check_int(), LpResult::Sat);
    }

    #[test]
    fn exhausted_node_budget_reports_unknown() {
        // 2x = 1 needs at least one branch node; with a zero-node budget
        // the answer must be Unknown, never a silent Sat.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let row = s.add_row(&[(x, r(2))]);
        assert!(s.assert_lower(row, r(1), None) && s.assert_upper(row, r(1), None));
        assert_eq!(s.check_int_within(0, None), LpResult::Unknown);
        // With budget available the same system is decided exactly.
        assert_eq!(s.check_int_within(400, None), LpResult::Unsat);
    }

    #[test]
    fn expired_deadline_reports_unknown() {
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let row = s.add_row(&[(x, r(2))]);
        assert!(s.assert_lower(row, r(1), None) && s.assert_upper(row, r(1), None));
        let past = Instant::now() - std::time::Duration::from_millis(1);
        assert_eq!(s.check_int_within(400, Some(past)), LpResult::Unknown);
    }

    #[test]
    fn strict_style_tightened_bounds() {
        // Encodes x < y ∧ y < x + 1 over ints as x <= y-1, y <= x:
        // infeasible.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let d1 = s.add_row(&[(x, r(1)), (y, r(-1))]); // x - y
        assert!(s.assert_upper(d1, r(-1), None));
        let d2 = s.add_row(&[(y, r(1)), (x, r(-1))]); // y - x
        assert!(s.assert_upper(d2, r(0), None));
        assert_eq!(s.check(), LpResult::Unsat);
    }

    #[test]
    fn pop_restores_displaced_bounds() {
        let mut s = Simplex::new();
        let x = s.new_var(true);
        assert!(s.assert_lower(x, r(0), None));
        assert!(s.assert_upper(x, r(10), None));
        s.push();
        assert!(s.assert_lower(x, r(5), None));
        assert!(s.assert_upper(x, r(6), None));
        assert_eq!(s.check(), LpResult::Sat);
        assert!(s.value(x) >= r(5) && s.value(x) <= r(6));
        s.pop();
        // The base bounds are back and a previously excluded point is
        // admissible again.
        assert!(s.assert_upper(x, r(2), None));
        assert_eq!(s.check(), LpResult::Sat);
        assert!(s.value(x) <= r(2));
    }

    #[test]
    fn scoped_conflict_does_not_outlive_pop() {
        // x + y <= 4 at base; scoped x >= 3, y >= 2 is infeasible, but
        // after pop the base system is feasible again.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let sl = s.add_row(&[(x, r(1)), (y, r(1))]);
        assert!(s.assert_upper(sl, r(4), None));
        s.push();
        assert!(s.assert_lower(x, r(3), None));
        assert!(s.assert_lower(y, r(2), None));
        assert_eq!(s.check(), LpResult::Unsat);
        s.pop();
        assert_eq!(s.check(), LpResult::Sat);
        assert!(s.assert_lower(x, r(1), None));
        assert!(s.assert_lower(y, r(2), None));
        assert_eq!(s.check(), LpResult::Sat);
    }

    #[test]
    fn nested_scopes_restore_in_order() {
        let mut s = Simplex::new();
        let x = s.new_var(true);
        assert!(s.assert_upper(x, r(10), None));
        s.push();
        assert!(s.assert_upper(x, r(7), None));
        s.push();
        assert!(s.assert_upper(x, r(3), None));
        assert!(!s.assert_lower(x, r(4), None));
        s.pop();
        // Middle scope: bound is 7 again.
        assert!(s.assert_lower(x, r(5), None));
        assert_eq!(s.check(), LpResult::Sat);
        s.pop();
        // The scoped lower bound is gone and the base upper is back.
        assert!(s.assert_lower(x, r(9), None));
        assert_eq!(s.check(), LpResult::Sat);
        assert!(s.value(x) >= r(9) && s.value(x) <= r(10));
    }

    #[test]
    fn branch_and_bound_leaves_bounds_intact() {
        // After check_int the asserted bounds must be exactly what the
        // caller asserted — the search's branch bounds must all unwind.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let row = s.add_row(&[(x, r(2)), (y, r(2))]);
        assert!(s.assert_lower(row, r(4), None) && s.assert_upper(row, r(4), None));
        assert!(s.assert_lower(x, r(0), None));
        assert!(s.assert_lower(y, r(0), None));
        assert_eq!(s.check_int(), LpResult::Sat);
        // x = 2 (forcing y = 0) must still be admissible: a leaked
        // branch bound like x <= 0 or x <= 1 would reject it.
        assert!(s.assert_lower(x, r(2), None));
        assert_eq!(s.check_int(), LpResult::Sat);
        assert_eq!(s.value(y), r(0));
    }

    #[test]
    fn add_row_over_basic_variable() {
        // Rows built on top of earlier slack variables still solve.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let s1 = s.add_row(&[(x, r(1)), (y, r(1))]);
        let s2 = s.add_row(&[(s1, r(1)), (x, r(1))]); // 2x + y
        assert!(s.assert_lower(s2, r(10), None));
        assert!(s.assert_upper(x, r(2), None));
        assert!(s.assert_upper(y, r(2), None));
        // 2x + y <= 6 < 10: infeasible.
        assert_eq!(s.check(), LpResult::Unsat);
    }

    #[test]
    fn constants_survive_pop() {
        // A constant created inside a scope keeps its value after pop.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        s.push();
        let three = s.new_const(r(3));
        let d = s.add_row(&[(x, r(1)), (three, r(-1))]);
        assert!(s.assert_lower(d, r(0), None) && s.assert_upper(d, r(0), None));
        assert_eq!(s.check(), LpResult::Sat);
        s.pop();
        assert!(!s.assert_upper(three, r(2), None));
        assert!(s.assert_upper(x, r(10), None));
        assert_eq!(s.check(), LpResult::Sat);
        assert_eq!(s.value(three), r(3));
    }

    #[test]
    fn integrality_only_among_the_given_variables() {
        // 2x = 1 is integer-infeasible, but with x left out of the
        // integer set the rational solution stands.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let row = s.add_row(&[(x, r(2))]);
        assert!(s.assert_lower(row, r(1), None) && s.assert_upper(row, r(1), None));
        assert_eq!(s.check_int_among(&[], 400, None), LpResult::Sat);
        assert_eq!(s.check_int_among(&[x], 400, None), LpResult::Unsat);
    }

    #[test]
    fn removing_rows_keeps_the_rest_of_the_system() {
        // x + y ≤ 4 stays; the rows x − y and 2x + y, once popped bounds
        // leave them unbounded, are removed (after the failed check left
        // some of them nonbasic).
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let sum = s.add_row(&[(x, r(1)), (y, r(1))]);
        assert!(s.assert_upper(sum, r(4), None));
        s.push();
        let diff = s.add_row(&[(x, r(1)), (y, r(-1))]);
        let t = s.add_row(&[(x, r(2)), (y, r(1))]);
        assert!(s.assert_lower(y, r(0), None));
        assert!(s.assert_lower(diff, r(3), None));
        assert!(s.assert_lower(t, r(9), None));
        assert_eq!(s.check(), LpResult::Unsat);
        s.pop();
        s.remove_row(t);
        s.remove_row(diff);
        assert_eq!(s.rows.len(), 1);
        assert_eq!(s.check(), LpResult::Sat);
        assert!(s.assert_lower(x, r(3), None) && s.assert_lower(y, r(2), None));
        assert_eq!(s.check(), LpResult::Unsat);
    }

    #[test]
    fn removing_a_nonbasic_slack_pivots_it_out_first() {
        // d = x + y ≥ 3 pivots d out of the basis (x takes its place);
        // after pop, removing d pivots it back and drops its row, and x
        // is nonbasic again within its bounds.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        assert!(s.assert_lower(x, r(0), None) && s.assert_upper(x, r(5), None));
        s.push();
        let d = s.add_row(&[(x, r(1)), (y, r(1))]);
        assert!(s.assert_lower(d, r(3), None));
        assert_eq!(s.check(), LpResult::Sat);
        assert!(!s.row_of.contains_key(&d), "d left the basis");
        s.pop();
        s.remove_row(d);
        assert!(s.rows.is_empty() && !s.row_of.contains_key(&x));
        assert!(s.value(x) >= r(0) && s.value(x) <= r(5));
        assert_eq!(s.check(), LpResult::Sat);
        assert!(!s.assert_lower(x, r(6), None));
    }

    fn sorted(reasons: &[u32]) -> Vec<u32> {
        let mut v = reasons.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn farkas_explanation_omits_uninvolved_bounds() {
        // x + y <= 4 (reason 0), x >= 3 (1), y >= 2 (2) conflict; the
        // bounds z >= 7 (3) and x <= 9 (4) play no part.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let z = s.new_var(true);
        let sl = s.add_row(&[(x, r(1)), (y, r(1))]);
        assert!(s.assert_upper(sl, r(4), Some(0)));
        assert!(s.assert_lower(z, r(7), Some(3)));
        assert!(s.assert_upper(x, r(9), Some(4)));
        assert!(s.assert_lower(x, r(3), Some(1)));
        assert!(s.assert_lower(y, r(2), Some(2)));
        assert_eq!(s.check(), LpResult::Unsat);
        assert_eq!(sorted(s.conflict()), vec![0, 1, 2]);
    }

    #[test]
    fn immediate_bound_clash_names_both_bounds() {
        let mut s = Simplex::new();
        let x = s.new_var(true);
        assert!(s.assert_lower(x, r(3), Some(5)));
        assert!(s.assert_upper(x, r(8), Some(6)));
        assert!(!s.assert_upper(x, r(2), Some(7)));
        assert_eq!(sorted(s.conflict()), vec![5, 7]);
    }

    #[test]
    fn branch_and_bound_explained_by_the_row_alone() {
        // 2x = 1 is rationally feasible; branch-and-bound refutes it in
        // two leaves whose branch bounds carry no reason, so the union
        // is the row's own literal. The unrelated y bound stays out.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        assert!(s.assert_lower(y, r(0), Some(9)));
        let row = s.add_row(&[(x, r(2))]);
        assert!(s.assert_lower(row, r(1), Some(4)) && s.assert_upper(row, r(1), Some(4)));
        assert_eq!(s.check_int(), LpResult::Unsat);
        assert_eq!(sorted(s.conflict()), vec![4]);
        assert!(s.conflict_searched());
    }

    #[test]
    fn infeasible_relaxation_needs_no_search() {
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let y = s.new_var(true);
        let sl = s.add_row(&[(x, r(1)), (y, r(1))]);
        assert!(s.assert_upper(sl, r(4), Some(0)));
        assert!(s.assert_lower(x, r(3), Some(1)));
        assert!(s.assert_lower(y, r(2), Some(2)));
        assert_eq!(s.check_int(), LpResult::Unsat);
        assert!(!s.conflict_searched());
    }

    #[test]
    fn branch_and_bound_unions_both_leaves() {
        // 1 <= 2x (reason 1) and 2x <= 1 (reason 2): the branch x <= 0
        // is refuted by the first bound alone, x >= 1 by the second.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        let row = s.add_row(&[(x, r(2))]);
        assert!(s.assert_lower(row, r(1), Some(1)) && s.assert_upper(row, r(1), Some(2)));
        assert_eq!(s.check_int(), LpResult::Unsat);
        assert_eq!(sorted(s.conflict()), vec![1, 2]);
    }

    #[test]
    fn pop_restores_bound_reasons() {
        // x >= 0 for reason 1; a scoped x >= 5 for reason 2 displaces
        // it. After pop, a clash with x <= -1 must name reason 1 again.
        let mut s = Simplex::new();
        let x = s.new_var(true);
        assert!(s.assert_lower(x, r(0), Some(1)));
        s.push();
        assert!(s.assert_lower(x, r(5), Some(2)));
        assert!(!s.assert_upper(x, r(4), Some(3)));
        assert_eq!(sorted(s.conflict()), vec![2, 3]);
        s.pop();
        assert!(!s.assert_upper(x, r(-1), Some(3)));
        assert_eq!(sorted(s.conflict()), vec![1, 3]);
    }
}
