//! Query specifications and the naive reference enumerator.
//!
//! Each benchmark query is written down once as a [`QuerySpec`]. The
//! spec builds the [`Pattern`] the program compiles, and the same spec
//! drives [`enumerate`], a backtracking enumerator that evaluates the
//! documented semantics directly on one key's events: `SEQ` order by
//! `(timestamp, seq)`, an inclusive window `last - first <= window`, a
//! trailing negation whose scope is every event after the last
//! positive one up to `first + window`, and the selection policies.
//! Nothing here calls the program's evaluator.

use std::sync::Arc;

use acep_types::{
    attr, attr_plus, constant, Event, EventTypeId, Pattern, PatternExpr, SelectionPolicy, Value,
};

/// How the positive slots of a query combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `SEQ`: slots in stream order.
    Seq,
    /// `AND`: slots in any order.
    And,
}

/// A predicate of the query, on positive slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cond {
    /// No predicate.
    None,
    /// Each slot's attribute 1 exceeds the previous slot's by more than
    /// the offset (`prev.a1 + offset < next.a1`).
    Rising(f64),
    /// The given slot's attribute 0 is positive.
    Positive(usize),
}

/// One query of a workload.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub name: &'static str,
    pub shape: Shape,
    /// Event type of each positive slot, in variable order.
    pub types: Vec<u32>,
    /// Event type of a trailing negation (`SEQ` only).
    pub trailing_neg: Option<u32>,
    pub window: u64,
    pub cond: Cond,
    pub policy: SelectionPolicy,
}

impl QuerySpec {
    /// The program's form of this query.
    pub fn pattern(&self) -> Pattern {
        let mut items: Vec<PatternExpr> = self
            .types
            .iter()
            .map(|&t| PatternExpr::prim(EventTypeId(t)))
            .collect();
        let expr = match self.shape {
            Shape::Seq => {
                if let Some(t) = self.trailing_neg {
                    items.push(PatternExpr::neg(PatternExpr::prim(EventTypeId(t))));
                }
                PatternExpr::seq(items)
            }
            Shape::And => PatternExpr::and(items),
        };
        let mut pattern = Pattern::builder(self.name).expr(expr).window(self.window);
        match self.cond {
            Cond::None => {}
            Cond::Rising(offset) => {
                for v in 1..self.types.len() as u32 {
                    pattern = pattern.condition(attr_plus(v - 1, 1, offset).lt(attr(v, 1)));
                }
            }
            Cond::Positive(slot) => {
                pattern = pattern.condition(attr(slot as u32, 0).gt(constant(0)));
            }
        }
        pattern
            .build()
            .expect("benchmark query is valid")
            .with_policy(self.policy)
    }

    /// Whether an event of type `t` reaches this query's engine.
    pub fn is_relevant(&self, t: u32) -> bool {
        self.types.contains(&t) || self.trailing_neg == Some(t)
    }

    /// Provable time of a match whose positive events span
    /// `[min_ts, max_ts]`: its last event time, or with a trailing
    /// negation the end of the negation scope.
    pub fn provable_at(&self, min_ts: u64, max_ts: u64) -> Provable {
        match self.trailing_neg {
            Some(_) => Provable::AllUpTo(min_ts + self.window),
            None => Provable::Through(max_ts),
        }
    }
}

/// What a delivery prefix must prove before a match is final.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provable {
    /// The match's own events, the last at this timestamp, are
    /// released.
    Through(u64),
    /// No event with a timestamp at or before this one can still
    /// arrive.
    AllUpTo(u64),
}

fn a(ev: &Event, i: usize) -> f64 {
    match &ev.attrs[i] {
        Value::Int(v) => *v as f64,
        Value::Float(v) => *v,
        other => panic!("numeric attribute expected, got {other:?}"),
    }
}

fn pos(ev: &Event) -> (u64, u64) {
    (ev.timestamp, ev.seq)
}

/// Whether `g` could fill positive slot `j` given the events bound to
/// the slots before it.
fn fits(q: &QuerySpec, j: usize, g: &Event, bound: &[&Arc<Event>]) -> bool {
    if g.type_id.0 != q.types[j] {
        return false;
    }
    match q.cond {
        Cond::None => true,
        Cond::Rising(offset) => j == 0 || a(bound[j - 1], 1) + offset < a(g, 1),
        Cond::Positive(slot) => j != slot || a(g, 0) > 0.0,
    }
}

/// Every match of `q` on one key's events (sorted by `(timestamp,
/// seq)`), each as the seqs of its positive events in variable order.
/// The result is sorted.
pub fn enumerate(q: &QuerySpec, events: &[Arc<Event>]) -> Vec<Vec<u64>> {
    let relevant: Vec<&Arc<Event>> = events
        .iter()
        .filter(|e| q.is_relevant(e.type_id.0))
        .collect();
    let mut out = Vec::new();
    let mut chosen: Vec<&Arc<Event>> = Vec::with_capacity(q.types.len());
    extend(q, &relevant, &mut chosen, &mut out);
    out.sort();
    out
}

fn extend<'e>(
    q: &QuerySpec,
    events: &[&'e Arc<Event>],
    chosen: &mut Vec<&'e Arc<Event>>,
    out: &mut Vec<Vec<u64>>,
) {
    let j = chosen.len();
    if j == q.types.len() {
        if complete(q, events, chosen) {
            out.push(chosen.iter().map(|e| e.seq).collect());
        }
        return;
    }
    // SEQ slots follow the previous slot; AND slots may sit anywhere in
    // the window around the slots chosen so far.
    let start = match (q.shape, chosen.last()) {
        (Shape::Seq, Some(prev)) => events.partition_point(|e| pos(e) <= pos(prev)),
        _ => 0,
    };
    for &g in &events[start..] {
        if let Some(first) = chosen.first() {
            if q.shape == Shape::Seq && g.timestamp > first.timestamp + q.window {
                break;
            }
        }
        if chosen.iter().any(|c| c.seq == g.seq) || !fits(q, j, g, chosen) {
            continue;
        }
        if q.shape == Shape::And {
            let lo = chosen
                .iter()
                .map(|c| c.timestamp)
                .min()
                .unwrap_or(g.timestamp);
            let hi = chosen
                .iter()
                .map(|c| c.timestamp)
                .max()
                .unwrap_or(g.timestamp);
            if hi.max(g.timestamp) - lo.min(g.timestamp) > q.window {
                continue;
            }
        }
        chosen.push(g);
        extend(q, events, chosen, out);
        chosen.pop();
    }
}

/// Negation scope and selection policy of a full candidate binding.
fn complete(q: &QuerySpec, events: &[&Arc<Event>], chosen: &[&Arc<Event>]) -> bool {
    if let Some(neg) = q.trailing_neg {
        let first = chosen[0].timestamp;
        let last = pos(chosen[chosen.len() - 1]);
        let negated = events
            .iter()
            .any(|e| e.type_id.0 == neg && pos(e) > last && e.timestamp <= first + q.window);
        if negated {
            return false;
        }
    }
    let member = |g: &Event| chosen.iter().any(|c| c.seq == g.seq);
    match q.policy {
        SelectionPolicy::SkipTillAny => true,
        SelectionPolicy::StrictContiguity => {
            let lo = chosen
                .iter()
                .map(|c| pos(c))
                .min()
                .expect("non-empty binding");
            let hi = chosen
                .iter()
                .map(|c| pos(c))
                .max()
                .expect("non-empty binding");
            events
                .iter()
                .filter(|e| pos(e) > lo && pos(e) < hi)
                .all(|e| member(e))
        }
        SelectionPolicy::SkipTillNext => {
            assert_eq!(
                q.shape,
                Shape::Seq,
                "skip-till-next is enumerated for SEQ only"
            );
            // No skipped event between two consecutive slots could have
            // filled the later one.
            (1..chosen.len()).all(|j| {
                events
                    .iter()
                    .filter(|e| pos(e) > pos(chosen[j - 1]) && pos(e) < pos(chosen[j]))
                    .filter(|e| !member(e))
                    .all(|e| !fits(q, j, e, &chosen[..j]))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u32, ts: u64, seq: u64, a0: i64, a1: f64) -> Arc<Event> {
        Event::new(
            EventTypeId(t),
            ts,
            seq,
            vec![Value::Int(a0), Value::Float(a1), Value::Int(0)],
        )
    }

    fn seq3(policy: SelectionPolicy) -> QuerySpec {
        QuerySpec {
            name: "t",
            shape: Shape::Seq,
            types: vec![0, 1, 2],
            trailing_neg: None,
            window: 10,
            cond: Cond::None,
            policy,
        }
    }

    #[test]
    fn seq_respects_order_and_inclusive_window() {
        let q = seq3(SelectionPolicy::SkipTillAny);
        let events = vec![
            ev(0, 0, 1, 0, 0.0),
            ev(1, 5, 2, 0, 0.0),
            ev(2, 10, 3, 0, 0.0),
            ev(2, 11, 4, 0, 0.0),
        ];
        // c at ts 10 is exactly on the window edge; ts 11 is outside.
        assert_eq!(enumerate(&q, &events), vec![vec![1, 2, 3]]);
        let reversed = vec![
            ev(1, 0, 1, 0, 0.0),
            ev(0, 1, 2, 0, 0.0),
            ev(2, 2, 3, 0, 0.0),
        ];
        assert!(enumerate(&q, &reversed).is_empty());
    }

    #[test]
    fn skip_till_any_takes_every_combination() {
        let q = seq3(SelectionPolicy::SkipTillAny);
        let events = vec![
            ev(0, 0, 1, 0, 0.0),
            ev(0, 1, 2, 0, 0.0),
            ev(1, 2, 3, 0, 0.0),
            ev(1, 3, 4, 0, 0.0),
            ev(2, 4, 5, 0, 0.0),
        ];
        assert_eq!(enumerate(&q, &events).len(), 4);
    }

    #[test]
    fn skip_till_next_and_strict_prune_skipped_candidates() {
        let events = vec![
            ev(0, 0, 1, 0, 0.0),
            ev(1, 1, 2, 0, 0.0),
            ev(1, 2, 3, 0, 0.0),
            ev(2, 3, 4, 0, 0.0),
        ];
        // Next: a b(2) c only — b(3) skips the qualifying b(2).
        let next = enumerate(&seq3(SelectionPolicy::SkipTillNext), &events);
        assert_eq!(next, vec![vec![1, 2, 4]]);
        // Strict: no match — b(3) sits between b(2) and c, b(2)
        // between a and b(3).
        assert!(enumerate(&seq3(SelectionPolicy::StrictContiguity), &events).is_empty());
        let contiguous = vec![
            ev(0, 0, 1, 0, 0.0),
            ev(1, 1, 2, 0, 0.0),
            ev(2, 2, 3, 0, 0.0),
        ];
        let strict = enumerate(&seq3(SelectionPolicy::StrictContiguity), &contiguous);
        assert_eq!(strict, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn trailing_negation_scope_ends_at_first_plus_window() {
        let q = QuerySpec {
            trailing_neg: Some(2),
            types: vec![0, 1],
            ..seq3(SelectionPolicy::SkipTillAny)
        };
        // The negating event at ts 10 = first + window kills the match;
        // one at ts 11 does not.
        let killed = vec![
            ev(0, 0, 1, 0, 0.0),
            ev(1, 4, 2, 0, 0.0),
            ev(2, 10, 3, 0, 0.0),
        ];
        assert!(enumerate(&q, &killed).is_empty());
        let kept = vec![
            ev(0, 0, 1, 0, 0.0),
            ev(1, 4, 2, 0, 0.0),
            ev(2, 11, 3, 0, 0.0),
        ];
        assert_eq!(enumerate(&q, &kept), vec![vec![1, 2]]);
        // A negating event before the last positive one is out of scope.
        let before = vec![
            ev(0, 0, 1, 0, 0.0),
            ev(2, 1, 2, 0, 0.0),
            ev(1, 4, 3, 0, 0.0),
        ];
        assert_eq!(enumerate(&q, &before), vec![vec![1, 3]]);
        assert_eq!(q.provable_at(0, 4), Provable::AllUpTo(10));
        assert_eq!(
            seq3(SelectionPolicy::SkipTillAny).provable_at(0, 4),
            Provable::Through(4)
        );
    }

    #[test]
    fn conditions_and_conjunctions() {
        let rising = QuerySpec {
            cond: Cond::Rising(0.25),
            ..seq3(SelectionPolicy::SkipTillAny)
        };
        let events = vec![
            ev(0, 0, 1, 0, 1.0),
            ev(1, 1, 2, 0, 1.25),
            ev(1, 2, 3, 0, 1.5),
            ev(2, 3, 4, 0, 2.0),
        ];
        // 1.0 + 0.25 < 1.25 fails; the b at 1.5 works.
        assert_eq!(enumerate(&rising, &events), vec![vec![1, 3, 4]]);
        let and = QuerySpec {
            shape: Shape::And,
            ..seq3(SelectionPolicy::SkipTillAny)
        };
        let shuffled = vec![
            ev(2, 0, 1, 0, 0.0),
            ev(0, 4, 2, 0, 0.0),
            ev(1, 10, 3, 0, 0.0),
            ev(0, 11, 4, 0, 0.0),
        ];
        // {c1, a2, b3} spans 10; {c1, a4, b3} spans 11 and is out.
        assert_eq!(enumerate(&and, &shuffled), vec![vec![2, 3, 1]]);
        let positive = QuerySpec {
            cond: Cond::Positive(1),
            ..seq3(SelectionPolicy::SkipTillAny)
        };
        let gated = vec![
            ev(0, 0, 1, 0, 0.0),
            ev(1, 1, 2, 0, 0.0),
            ev(1, 2, 3, 5, 0.0),
            ev(2, 3, 4, 0, 0.0),
        ];
        assert_eq!(enumerate(&positive, &gated), vec![vec![1, 3, 4]]);
    }
}
