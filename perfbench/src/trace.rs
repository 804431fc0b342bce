//! The traced run: spans recorded by the benchmark around its calls
//! into each layer, and the per-layer metrics built from them.
//!
//! The core figures come from a single-threaded replay that composes
//! one [`QueryController`] per query and one [`KeyedEngine`] per (key,
//! query) the way a W=1 shard does: each relevant event is observed by
//! its query's controller, then evaluated by the key's engine, which
//! migrates when the controller has deployed a new plan. Under a
//! disorder bound the shard also advances the engines with a due
//! finalization deadline before each released event; the replay does
//! the same from the same deadline heap.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use acep_checkpoint::CheckpointLog;
use acep_core::{AdaptiveConfig, EngineTemplate, KeyedEngine, PolicyKind, QueryController};
use acep_plan::{NoopRecorder, Planner, PlannerKind};
use acep_stats::{StatisticsCollector, StatsConfig};
use acep_stream::{
    CountingSink, LastAttrKeyExtractor, MatchSink, RuntimeStats, ShardedRuntime, SourceId,
    StreamConfig, TaggedMatch,
};
use acep_types::{DisorderConfig, Event};

use crate::e2e::{config, Ledger};
use crate::latency::median;
use crate::workload::{key_of, Workload};
use crate::{Outcome, Report};

/// Span names; a span stores the index.
const NAMES: [&str; 17] = [
    "replay",
    "core.observe",
    "core.engine",
    "core.migrate",
    "core.finalize",
    "core.finish",
    "stream.pass",
    "stream.push",
    "stream.flush",
    "stream.checkpoint",
    "stream.finish",
    "stream.sink",
    "stats.observe",
    "plan.generate",
    "checkpoint.decode",
    "checkpoint.recover",
    "core.dispatch",
];
const REPLAY: u16 = 0;
const OBSERVE: u16 = 1;
const ENGINE: u16 = 2;
const MIGRATE: u16 = 3;
const FINALIZE: u16 = 4;
const FINISH: u16 = 5;
const PASS: u16 = 6;
const PUSH: u16 = 7;
const FLUSH: u16 = 8;
const CHECKPOINT: u16 = 9;
const STREAM_FINISH: u16 = 10;
const SINK: u16 = 11;
const STATS_OBSERVE: u16 = 12;
const PLAN: u16 = 13;
const DECODE: u16 = 14;
const RECOVER: u16 = 15;
const DISPATCH: u16 = 16;
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    thread: u16,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Span recording, or nothing: the untraced replay runs the same code
/// with [`NoTrace`].
trait Trace {
    fn open(&mut self, name: u16) -> u32;
    fn close(&mut self) -> u32;
    /// Closes the innermost span and opens a sibling at the same
    /// instant, so back-to-back layer calls leave no gap between them.
    fn switch(&mut self, name: u16) -> u32;
    fn rename(&mut self, span: u32, name: u16);
}

struct NoTrace;

impl Trace for NoTrace {
    #[inline(always)]
    fn open(&mut self, _: u16) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self) -> u32 {
        0
    }
    #[inline(always)]
    fn switch(&mut self, _: u16) -> u32 {
        0
    }
    #[inline(always)]
    fn rename(&mut self, _: u32, _: u16) {}
}

/// Spans of the benchmark's main thread, kept in memory.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(1 << 20),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span<R>(&mut self, name: u16, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }
}

impl Trace for Tracer {
    #[inline]
    fn open(&mut self, name: u16) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            thread: 0,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    #[inline]
    fn close(&mut self) -> u32 {
        let id = self.stack.pop().expect("close without open");
        self.spans[id as usize].end_ns = self.now();
        id
    }

    #[inline]
    fn switch(&mut self, name: u16) -> u32 {
        let done = self.stack.pop().expect("switch without open");
        let now = self.now();
        self.spans[done as usize].end_ns = now;
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            thread: 0,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        id
    }

    fn rename(&mut self, span: u32, name: u16) {
        self.spans[span as usize].name = name;
    }
}

/// Self time per span name of `spans[from..]`, in seconds: a span's
/// duration minus the part its children cover. Parents precede their
/// children.
fn self_times(spans: &[Span], from: usize) -> [f64; NAMES.len()] {
    let spans = &spans[from..];
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize - from] += s.end_ns - s.start_ns;
        }
    }
    let mut out = [0.0; NAMES.len()];
    for (s, c) in spans.iter().zip(&child_ns) {
        out[s.name as usize] += (s.end_ns - s.start_ns).saturating_sub(*c) as f64 * 1e-9;
    }
    out
}

/// Counting sink that records a span around each delivery on the
/// worker thread.
struct SpanSink {
    epoch: Instant,
    matches: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl MatchSink for SpanSink {
    fn on_match(&self, m: TaggedMatch) {
        self.on_batch(vec![m]);
    }

    fn on_batch(&self, ms: Vec<TaggedMatch>) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.matches.fetch_add(ms.len() as u64, Ordering::Relaxed);
        drop(ms);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("sink lock").push(Span {
            name: SINK,
            thread: 1,
            parent: NO_PARENT,
            start_ns,
            end_ns,
        });
    }
}

struct StreamFigures {
    pass_s: f64,
    push_s: f64,
    finish_s: f64,
    sink_s: f64,
    decode_s: f64,
    recover_s: f64,
    matches: u64,
    stats: RuntimeStats,
}

/// A traced W=1 pass: push, flush, checkpoint, finish, then decode and
/// recover the checkpoint. The pass time excludes the checkpoint, as
/// in the untraced rounds.
fn stream_pass(
    w: &Workload,
    events: &[(SourceId, Arc<Event>)],
    stream: StreamConfig,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Option<StreamFigures> {
    let set = w.pattern_set(None, None);
    let sink = Arc::new(SpanSink {
        epoch: tr.epoch,
        matches: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
    });
    let mut rt = ShardedRuntime::new(
        &set,
        Arc::new(LastAttrKeyExtractor),
        sink.clone(),
        stream.clone(),
    )
    .expect("benchmark runtime configuration is valid");
    let first = tr.spans.len();
    let pass = tr.open(PASS);
    for chunk in events.chunks(crate::e2e::CHUNK) {
        tr.span(PUSH, || rt.push_tagged(chunk));
    }
    let flushed = tr.span(FLUSH, || rt.try_flush());
    let mut log = CheckpointLog::new();
    let cp = tr.span(CHECKPOINT, || rt.checkpoint(&mut log));
    let finished = tr.span(STREAM_FINISH, || rt.try_finish());
    tr.close();
    if let Err(e) = flushed.and(cp.map(|_| ())) {
        ledger.pass(events.len(), Err(e));
        return None;
    }
    let stats = ledger.pass(events.len(), finished)?;
    let times = self_times(&tr.spans, first);
    let p = tr.spans[pass as usize];
    let pass_s = (p.end_ns - p.start_ns) as f64 * 1e-9 - times[CHECKPOINT as usize];
    let manifest = log
        .latest_manifest()
        .expect("reading the manifest")
        .expect("a sealed checkpoint");
    tr.open(DECODE);
    let decoded = log.recover_shard(manifest.checkpoint_id, 0);
    let decode = tr.close();
    ledger.check(decoded.is_ok(), || "decoding the checkpoint failed".into());
    tr.open(RECOVER);
    let recovered = ShardedRuntime::recover(
        &set,
        Arc::new(LastAttrKeyExtractor),
        Arc::new(CountingSink::new(set.len())),
        stream,
        &log,
    );
    let recover = tr.close();
    ledger.check(recovered.is_ok(), || {
        "recovering the checkpoint failed".into()
    });
    drop(recovered);
    let sink_spans = std::mem::take(&mut *sink.spans.lock().expect("sink lock"));
    let sink_s = self_times(&sink_spans, 0)[SINK as usize];
    tr.spans.extend(sink_spans);
    let dur = |id: u32| {
        let s = tr.spans[id as usize];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    };
    Some(StreamFigures {
        pass_s,
        push_s: times[PUSH as usize],
        finish_s: times[STREAM_FINISH as usize],
        sink_s,
        decode_s: dur(decode),
        recover_s: dur(recover),
        matches: sink.matches.load(Ordering::Relaxed),
        stats,
    })
}

/// Compiled queries under `policy`; `planner` overrides each query's
/// planner, except that a trailing-negation query keeps its own under a
/// lazy-chain override. Every replay is checked against the adaptive
/// one, and at the window edge the order and tree plans emit negation
/// matches the lazy-chain plans rightly reject (README.md, Known
/// faults).
fn templates(
    w: &Workload,
    policy: PolicyKind,
    planner: Option<PlannerKind>,
) -> Vec<EngineTemplate> {
    w.queries
        .iter()
        .map(|(q, kind)| {
            let planner = match planner {
                Some(PlannerKind::LazyChain) if q.trailing_neg.is_some() => *kind,
                p => p.unwrap_or(*kind),
            };
            let config = AdaptiveConfig {
                planner,
                policy,
                ..AdaptiveConfig::default()
            };
            EngineTemplate::new(&q.pattern(), w.num_types, config)
                .expect("benchmark query compiles")
        })
        .collect()
}

struct Slot {
    engine: KeyedEngine,
    queued: Option<u64>,
}

struct Replay {
    wall_s: f64,
    matches: Vec<u64>,
    comparisons: u64,
    controllers: Vec<QueryController>,
}

/// The single-threaded composition of controllers and keyed engines
/// over the sorted input (see the module docs).
fn replay<T: Trace>(w: &Workload, templates: &[EngineTemplate], tr: &mut T) -> Replay {
    let mut controllers: Vec<QueryController> =
        templates.iter().map(EngineTemplate::controller).collect();
    let mut keys: HashMap<u64, Vec<Option<Slot>>> = HashMap::new();
    let mut deadlines: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut engine_time = 0;
    let mut matches = vec![0u64; templates.len()];
    let mut out = Vec::new();
    let start = Instant::now();
    tr.open(REPLAY);
    for ev in &w.sorted {
        tr.open(DISPATCH);
        if w.bound > 0 && ev.timestamp > engine_time {
            engine_time = ev.timestamp;
            while let Some(&Reverse((d, key, qi))) = deadlines.peek() {
                if d >= engine_time {
                    break;
                }
                deadlines.pop();
                let Some(Some(slot)) = keys.get_mut(&key).map(|e| &mut e[qi]) else {
                    continue;
                };
                if slot.queued != Some(d) {
                    continue;
                }
                tr.open(FINALIZE);
                slot.engine.advance_time(engine_time, &mut out);
                slot.queued = slot.engine.min_pending_deadline();
                tr.close();
                if let Some(next) = slot.queued {
                    deadlines.push(Reverse((next, key, qi)));
                }
                matches[qi] += out.len() as u64;
                out.clear();
            }
        }
        if !templates.iter().any(|t| t.is_relevant(ev.type_id)) {
            tr.close();
            continue;
        }
        let key = key_of(ev);
        let engines = keys
            .entry(key)
            .or_insert_with(|| templates.iter().map(|_| None).collect());
        for (qi, template) in templates.iter().enumerate() {
            if !template.is_relevant(ev.type_id) {
                continue;
            }
            let controller = &mut controllers[qi];
            tr.switch(OBSERVE);
            controller.observe(ev);
            let span = tr.switch(ENGINE);
            let slot = engines[qi].get_or_insert_with(|| Slot {
                engine: controller.new_engine_for(key),
                queued: None,
            });
            let before = slot.engine.replacements();
            slot.engine.on_event(controller, ev, &mut out);
            if slot.engine.replacements() != before {
                tr.rename(span, MIGRATE);
            }
            let next = slot.engine.min_pending_deadline();
            if next != slot.queued {
                slot.queued = next;
                if let Some(d) = next {
                    deadlines.push(Reverse((d, key, qi)));
                }
            }
            matches[qi] += out.len() as u64;
            out.clear();
        }
        tr.close();
    }
    tr.open(FINISH);
    let mut comparisons = 0;
    for engines in keys.values_mut() {
        for (qi, slot) in engines.iter_mut().enumerate() {
            if let Some(slot) = slot {
                slot.engine.finish(&mut out);
                comparisons += slot.engine.comparisons();
                matches[qi] += out.len() as u64;
                out.clear();
            }
        }
    }
    tr.close();
    tr.close();
    Replay {
        wall_s: start.elapsed().as_secs_f64(),
        matches,
        comparisons,
        controllers,
    }
}

/// Per-round figures of the traced run.
#[derive(Default)]
struct Round {
    times: HashMap<&'static str, f64>,
}

fn write_spans(w: &Workload, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}.tsv", w.name));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "id\tparent\tthread\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            f,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.thread, NAMES[s.name as usize], s.start_ns, s.end_ns
        )?;
    }
    f.flush()?;
    Ok(path.display().to_string())
}

pub fn run(w: &Workload, seconds: f64) -> Outcome {
    let mut ledger = Ledger::default();
    let mut report = Report::default();
    let adaptive = templates(w, PolicyKind::invariant_with_distance(0.1), None);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut last: Option<(StreamFigures, Vec<Span>)> = None;
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut tr = Tracer::new(Instant::now());
        let mut round = Round::default();
        // The replays run first so that both stream passes find the
        // allocator as warm as each other.
        let plain = replay(w, &adaptive, &mut NoTrace);
        let traced = replay(w, &adaptive, &mut tr);
        ledger.attempted += 2 * w.events() as u64;
        ledger.check(plain.matches == traced.matches, || {
            "traced replay changed the matches".into()
        });
        let Some(stream) = stream_pass(w, &w.delivered, config(w), &mut tr, &mut ledger) else {
            break;
        };
        let runtime_matches = stream.stats.total_matches();
        ledger.check(
            traced.matches.iter().sum::<u64>() == runtime_matches,
            || {
                format!(
                    "replay {:?} matches, runtime {runtime_matches}",
                    traced.matches
                )
            },
        );
        // Reordering costs the difference to the same events delivered
        // sorted with no disorder bound; an in-order workload has none.
        let reorder_s = if w.bound == 0 {
            0.0
        } else {
            let sorted: Vec<_> = w
                .sorted
                .iter()
                .map(|e| (SourceId::MERGED, Arc::clone(e)))
                .collect();
            let in_order = StreamConfig {
                disorder: DisorderConfig::in_order(),
                ..config(w)
            };
            let mut baseline_spans = Tracer::new(tr.epoch);
            let Some(baseline) =
                stream_pass(w, &sorted, in_order, &mut baseline_spans, &mut ledger)
            else {
                break;
            };
            ledger.check(baseline.matches == stream.matches, || {
                format!(
                    "sorted pass {} matches, delivered pass {}",
                    baseline.matches, stream.matches
                )
            });
            stream.pass_s - baseline.pass_s
        };
        round.times.insert("runtime_pass_s", stream.pass_s);
        round.times.insert("plain_replay_s", plain.wall_s);
        round.times.insert("stream.push_s", stream.push_s);
        round.times.insert("stream.finish_s", stream.finish_s);
        round.times.insert("stream.sink_s", stream.sink_s);
        round.times.insert("stream.reorder_s", reorder_s);
        round.times.insert("checkpoint.decode_s", stream.decode_s);
        round
            .times
            .insert("checkpoint.rebuild_s", stream.recover_s - stream.decode_s);

        // The traced replay's root span is the round's first span.
        let root = tr.spans[0];
        let times = self_times(&tr.spans, 0);
        let layer_s: f64 = [DISPATCH, OBSERVE, ENGINE, MIGRATE, FINALIZE, FINISH]
            .iter()
            .map(|&n| times[n as usize])
            .sum();
        let replay_s = (root.end_ns - root.start_ns) as f64 * 1e-9;
        round
            .times
            .insert("core.dispatch_s", times[DISPATCH as usize]);
        round
            .times
            .insert("core.observe_s", times[OBSERVE as usize]);
        round.times.insert(
            "core.engine_s",
            times[ENGINE as usize] + times[FINALIZE as usize] + times[FINISH as usize],
        );
        round
            .times
            .insert("core.migrate_s", times[MIGRATE as usize]);
        round.times.insert("trace.replay_s", replay_s);
        round
            .times
            .insert("trace.overhead_s", traced.wall_s - plain.wall_s);
        round.times.insert("trace.coverage", layer_s / replay_s);

        // Standalone statistics maintenance, one collector per query.
        let mut stats_s = 0.0;
        for t in &adaptive {
            let mut collector =
                StatisticsCollector::new(w.num_types, t.pattern(), &StatsConfig::default());
            let span = tr.open(STATS_OBSERVE);
            for ev in &w.sorted {
                if t.is_relevant(ev.type_id) {
                    collector.observe(ev);
                }
            }
            tr.close();
            let s = tr.spans[span as usize];
            stats_s += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        round.times.insert("stats.observe_s", stats_s);

        // Plan generation on the final snapshots of the traced replay.
        for (kind, name) in [
            (PlannerKind::Greedy, "plan.greedy_us"),
            (PlannerKind::ZStream, "plan.zstream_us"),
            (PlannerKind::LazyChain, "plan.lazy_us"),
        ] {
            const CALLS: usize = 200;
            let planner = Planner::new(kind);
            let mut total = 0.0;
            let mut calls = 0;
            for (t, c) in adaptive.iter().zip(&traced.controllers) {
                for (b, sub) in t.pattern().branches.iter().enumerate() {
                    let Some(snapshot) = c.snapshot(b) else {
                        continue;
                    };
                    let span = tr.open(PLAN);
                    for _ in 0..CALLS {
                        std::hint::black_box(planner.generate(sub, snapshot, &mut NoopRecorder));
                    }
                    tr.close();
                    let s = tr.spans[span as usize];
                    total += (s.end_ns - s.start_ns) as f64 * 1e-3;
                    calls += CALLS;
                }
            }
            round.times.insert(name, total / calls.max(1) as f64);
        }

        // Static plans: the workload's planners, then each executor kind.
        let fixed = replay(w, &templates(w, PolicyKind::Static, None), &mut NoTrace);
        ledger.attempted += w.events() as u64;
        ledger.check(fixed.matches == traced.matches, || {
            format!(
                "static replay {:?} != adaptive {:?}",
                fixed.matches, traced.matches
            )
        });
        round
            .times
            .insert("engine.comparisons", traced.comparisons as f64);
        round
            .times
            .insert("engine.static_comparisons", fixed.comparisons as f64);
        for (kind, name) in [
            (PlannerKind::Greedy, "engine.order_ns"),
            (PlannerKind::ZStream, "engine.tree_ns"),
            (PlannerKind::LazyChain, "engine.lazy_ns"),
        ] {
            let r = replay(
                w,
                &templates(w, PolicyKind::Static, Some(kind)),
                &mut NoTrace,
            );
            ledger.attempted += w.events() as u64;
            ledger.check(r.matches == traced.matches, || {
                format!("{name} replay {:?} != {:?}", r.matches, traced.matches)
            });
            round.times.insert(name, r.wall_s * 1e9 / w.events() as f64);
        }
        rounds.push(round);
        last = Some((stream, tr.spans));
        if !ledger.errors.is_empty() {
            break;
        }
    }
    let Some((stream, spans)) = last else {
        return Outcome { ledger, report };
    };
    match write_spans(w, &spans) {
        Ok(path) => eprintln!("{}: {} spans written to {path}", w.name, spans.len()),
        Err(e) => eprintln!("writing spans failed: {e}"),
    }
    let med = |name: &str| median(&rounds.iter().map(|r| r.times[name]).collect::<Vec<_>>());
    let s = &stream.stats;
    let shard = &s.shards[0];
    let adaptation = s.total_adaptation();
    let count = |v: u64| v as f64;
    report.add("stream.push_s", med("stream.push_s"), "s");
    report.add("stream.finish_s", med("stream.finish_s"), "s");
    report.add(
        "stream.producer_parks",
        count(shard.ring.producer_parks),
        "count",
    );
    report.add(
        "stream.consumer_parks",
        count(shard.ring.consumer_parks),
        "count",
    );
    report.add("stream.reorder_s", med("stream.reorder_s"), "s");
    report.add(
        "stream.reorder_depth_max",
        shard.max_reorder_depth as f64,
        "events",
    );
    report.add(
        "stream.finalize_visits",
        count(s.total_finalize_visits()),
        "count",
    );
    report.add("stream.sink_s", med("stream.sink_s"), "s");
    report.add(
        "stream.engines_live",
        s.total_engines_live() as f64,
        "count",
    );
    report.add(
        "stream.generations_live",
        s.total_generations_live() as f64,
        "count",
    );
    report.add("core.dispatch_s", med("core.dispatch_s"), "s");
    report.add("core.observe_s", med("core.observe_s"), "s");
    report.add("core.engine_s", med("core.engine_s"), "s");
    report.add("core.migrate_s", med("core.migrate_s"), "s");
    report.add("core.decide_s", adaptation.decision_time.as_secs_f64(), "s");
    report.add("core.plan_s", adaptation.planning_time.as_secs_f64(), "s");
    report.add("core.d_fired", count(adaptation.reopt_triggers), "count");
    report.add(
        "core.deployments",
        count(adaptation.plan_replacements),
        "count",
    );
    report.add(
        "core.key_migrations",
        count(s.total_key_migrations()),
        "count",
    );
    let runs = adaptation.planner_invocations;
    let waste = runs.saturating_sub(adaptation.plan_replacements);
    report.add(
        "core.replan_waste",
        if runs == 0 {
            0.0
        } else {
            waste as f64 / runs as f64
        },
        "ratio",
    );
    report.add("stats.observe_s", med("stats.observe_s"), "s");
    report.add("plan.greedy_us", med("plan.greedy_us"), "us");
    report.add("plan.zstream_us", med("plan.zstream_us"), "us");
    report.add("plan.lazy_us", med("plan.lazy_us"), "us");
    report.add("engine.comparisons", med("engine.comparisons"), "count");
    report.add(
        "engine.static_comparisons",
        med("engine.static_comparisons"),
        "count",
    );
    report.add("engine.order_ns", med("engine.order_ns"), "ns/event");
    report.add("engine.tree_ns", med("engine.tree_ns"), "ns/event");
    report.add("engine.lazy_ns", med("engine.lazy_ns"), "ns/event");
    report.add(
        "engine.partials_live",
        s.total_partials_live() as f64,
        "count",
    );
    report.add(
        "engine.buffered_events",
        s.total_buffered_events() as f64,
        "count",
    );
    report.add("checkpoint.decode_s", med("checkpoint.decode_s"), "s");
    report.add("checkpoint.rebuild_s", med("checkpoint.rebuild_s"), "s");
    report.add("trace.replay_s", med("trace.replay_s"), "s");
    report.add("trace.overhead_s", med("trace.overhead_s"), "s");
    report.add("trace.coverage", med("trace.coverage"), "ratio");
    eprintln!(
        "{}: {} traced rounds in {:.1} s; single-thread replay {:.3} s ({:.0} events/s), \
         W=1 runtime pass {:.3} s ({:.0} events/s), medians",
        w.name,
        rounds.len(),
        start.elapsed().as_secs_f64(),
        med("plain_replay_s"),
        w.events() as f64 / med("plain_replay_s"),
        med("runtime_pass_s"),
        w.events() as f64 / med("runtime_pass_s"),
    );
    Outcome { ledger, report }
}
