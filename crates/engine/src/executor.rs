//! The executor abstraction shared by both evaluation mechanisms.

use std::sync::Arc;

use acep_checkpoint::{CheckpointError, EventMap, EventTable, ExecutorRec};
use acep_plan::EvalPlan;
use acep_types::{Event, Timestamp};

use crate::context::ExecContext;
use crate::finalize::FinalizerHistory;
use crate::lazy_exec::LazyExecutor;
use crate::matches::Match;
use crate::order_exec::OrderExecutor;
use crate::tree_exec::TreeExecutor;

/// A pattern-evaluation engine instance following one plan.
///
/// `Send` is required so boxed executors (and the engines owning them)
/// can move onto worker threads — the `acep-stream` sharded runtime
/// owns one engine per (partition key, query) inside each worker.
pub trait Executor: Send {
    /// Processes one event, appending any completed matches to `out`.
    fn on_event(&mut self, ev: &Arc<Event>, out: &mut Vec<Match>);

    /// Advances stream time to `now` without an event: pending
    /// finalizations (trailing negation / Kleene) whose deadline
    /// strictly precedes `now` are emitted. Driven by an external
    /// completeness signal — an event-time watermark — this tightens
    /// emission latency but never changes the match set: the caller
    /// promises every future event carries `timestamp >= now`, exactly
    /// the promise an event stamped `now` makes implicitly.
    fn advance_time(&mut self, now: Timestamp, out: &mut Vec<Match>);

    /// Flushes matches still pending at end of stream.
    fn finish(&mut self, out: &mut Vec<Match>);

    /// Exports the negation/Kleene event history (for plan migration).
    fn export_history(&self) -> FinalizerHistory;

    /// Imports history exported from the previously deployed plan.
    fn import_history(&mut self, history: FinalizerHistory);

    /// Number of partial matches currently stored (the paper's memory
    /// metric).
    fn partial_count(&self) -> usize;

    /// Events currently held in the executor's per-position history
    /// buffers (the lazy executor's primary stored state; eager
    /// executors report their join-position buffers for comparison).
    /// Defaults to 0 for executors without event buffers.
    fn buffered_events(&self) -> usize {
        0
    }

    /// Attaches the per-key shared seen-event ring (see
    /// [`SharedSeen`](crate::selection::SharedSeen)), merging any
    /// privately logged events into it. No-op for executors that keep
    /// no seen log (non-restrictive selection policies).
    fn share_seen(&mut self, shared: &crate::selection::SharedSeen) {
        let _ = shared;
    }

    /// Binding nodes currently allocated in the executor's
    /// partial-match arena, live *and* garbage awaiting compaction —
    /// the actual memory footprint behind
    /// [`partial_count`](Self::partial_count) (telemetry's
    /// live/allocated arena ratio). Defaults to 0 for executors
    /// without an arena.
    fn arena_nodes(&self) -> usize {
        0
    }

    /// Total predicate/join comparisons performed (the paper's work
    /// metric).
    fn comparisons(&self) -> u64;

    /// Earliest finalization deadline among matches pending a
    /// trailing-negation/Kleene scope, or `None` when a bare
    /// [`advance_time`](Self::advance_time) cannot emit anything. The
    /// streaming layer indexes engines by this value so watermark
    /// advances skip engines with nothing pending.
    fn min_pending_deadline(&self) -> Option<Timestamp>;

    /// Serializes the executor's full recoverable state into a
    /// checkpoint record, interning referenced events into `table`.
    /// [`restore_executor`] inverts this given the same plan.
    fn export_rec(&self, table: &mut EventTable) -> ExecutorRec;
}

/// Instantiates the matching executor for a plan.
pub fn build_executor(ctx: Arc<ExecContext>, plan: &EvalPlan) -> Box<dyn Executor> {
    match plan {
        EvalPlan::Order(p) => Box::new(OrderExecutor::new(ctx, p)),
        EvalPlan::Tree(p) => Box::new(TreeExecutor::new(ctx, p)),
        EvalPlan::Lazy(p) => Box::new(LazyExecutor::new(ctx, p)),
    }
}

/// Whether `plan` covers exactly the slots `0..n` of a sub-pattern —
/// what the executor constructors assert. Restore paths check it
/// because a decoded plan is only structurally valid (a permutation,
/// or an acyclic tree) and may still belong to another sub-pattern.
pub fn plan_covers(plan: &EvalPlan, n: usize) -> bool {
    let mut slots = match plan {
        EvalPlan::Order(p) => p.order.clone(),
        EvalPlan::Lazy(p) => p.order.clone(),
        EvalPlan::Tree(p) if p.num_leaves() == n => p.leaves_under(p.root),
        EvalPlan::Tree(_) => return false,
    };
    slots.sort_unstable();
    slots.into_iter().eq(0..n)
}

/// Rebuilds an executor from a checkpoint record. `plan` must be the
/// plan the exporting executor was built from (the record only holds
/// state, not structure — structure is rebuilt deterministically from
/// the plan, so indices in the record line up). A plan that does not
/// cover the sub-pattern's slots is a `BadValue`, not a panic.
pub fn restore_executor(
    ctx: Arc<ExecContext>,
    plan: &EvalPlan,
    rec: &ExecutorRec,
    events: &EventMap,
) -> Result<Box<dyn Executor>, CheckpointError> {
    if !plan_covers(plan, ctx.n) {
        return Err(CheckpointError::BadValue("plan size"));
    }
    match (plan, rec) {
        (EvalPlan::Order(p), ExecutorRec::Order(r)) => {
            Ok(Box::new(OrderExecutor::restore(ctx, p, r, events)?))
        }
        (EvalPlan::Tree(p), ExecutorRec::Tree(r)) => {
            Ok(Box::new(TreeExecutor::restore(ctx, p, r, events)?))
        }
        (EvalPlan::Lazy(p), ExecutorRec::Lazy(r)) => {
            Ok(Box::new(LazyExecutor::restore(ctx, p, r, events)?))
        }
        _ => Err(CheckpointError::BadValue("plan/executor kind mismatch")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acep_plan::{OrderPlan, TreePlan};
    use acep_types::{EventTypeId, Pattern};

    #[test]
    fn build_dispatches_on_plan_kind() {
        let p = Pattern::sequence("p", &[EventTypeId(0), EventTypeId(1)], 100);
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let o = build_executor(Arc::clone(&ctx), &EvalPlan::Order(OrderPlan::identity(2)));
        let t = build_executor(ctx, &EvalPlan::Tree(TreePlan::left_deep(&[0, 1])));
        assert_eq!(o.partial_count(), 0);
        assert_eq!(t.partial_count(), 0);
    }

    #[test]
    fn restore_rejects_a_plan_of_the_wrong_size() {
        let p = Pattern::sequence("p", &[EventTypeId(0), EventTypeId(1)], 100);
        let ctx = ExecContext::compile(&p.canonical().branches[0]).unwrap();
        let exec = build_executor(Arc::clone(&ctx), &EvalPlan::Order(OrderPlan::identity(2)));
        let mut table = EventTable::new();
        let rec = exec.export_rec(&mut table);
        let events = EventMap::new();
        for plan in [
            EvalPlan::Order(OrderPlan::identity(3)),
            EvalPlan::Order(OrderPlan::identity(1)),
            EvalPlan::Tree(TreePlan::left_deep(&[0, 2])),
            EvalPlan::Tree(TreePlan::leaf(0)),
        ] {
            assert!(!plan_covers(&plan, 2), "{plan:?}");
            assert_eq!(
                restore_executor(Arc::clone(&ctx), &plan, &rec, &events).err(),
                Some(CheckpointError::BadValue("plan size")),
                "{plan:?}"
            );
        }
        assert!(
            restore_executor(ctx, &EvalPlan::Order(OrderPlan::identity(2)), &rec, &events).is_ok()
        );
    }
}
