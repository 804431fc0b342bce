//! The three workloads: inputs generated from a seed, their queries,
//! and the settings each runs under.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use acep_core::{AdaptiveConfig, PolicyKind};
use acep_plan::PlannerKind;
use acep_stream::{PatternSet, SourceId};
use acep_types::{Event, EventTypeId, KeyExtractor, LastAttrKeyExtractor, SelectionPolicy, Value};
use acep_workloads::{bounded_shuffle, iot_fleet, DatasetKind, IotConfig, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::query::{Cond, QuerySpec, Shape};

pub const NAMES: [&str; 3] = ["stocks_drift", "skew_flip", "iot_fleet"];

/// One generated workload.
pub struct Workload {
    pub name: &'static str,
    pub num_types: usize,
    /// Queries with the planner each is registered with.
    pub queries: Vec<(QuerySpec, PlannerKind)>,
    /// Events in delivery order.
    pub delivered: Vec<(SourceId, Arc<Event>)>,
    /// The same events in `(timestamp, seq)` order.
    pub sorted: Vec<Arc<Event>>,
    /// Declared disorder bound of the delivery (0 = in order).
    pub bound: u64,
    /// Offered rate of the paced pass, events per second.
    pub paced_rate: f64,
    /// Events of the delivery prefix the paced pass replays.
    pub paced_events: usize,
    /// Partition keys whose matches are checked one by one.
    pub sample_keys: Vec<u64>,
}

fn stocks_query(name: &'static str, n: usize, window: u64) -> QuerySpec {
    QuerySpec {
        name,
        shape: Shape::Seq,
        types: (0..n as u32).collect(),
        trailing_neg: None,
        window,
        cond: Cond::Rising(0.25),
        policy: SelectionPolicy::SkipTillAny,
    }
}

/// The paper's "frequent, minor" drift regime: 64 stock symbols of 6,000
/// events each, delivered out of order under a 256 ms merged bound.
///
/// The event contents come from the scenario's fixed seed; `seed` draws
/// the delivery order and the sampled keys. The shard releases events
/// in `(timestamp, seq)` order whatever the delivery, so every seed
/// replays one adaptation trajectory. Content seeds would not: the
/// controller's thrash differs so much between them that one pass ran
/// at 46k events/s on one content seed and 112k on another.
fn stocks_drift(seed: u64) -> Workload {
    const BOUND: u64 = 256;
    let scenario = Scenario::new(DatasetKind::Stocks);
    let window = scenario.config.window_ms;
    let sorted = scenario.keyed_events(64, 6_000);
    let delivered = bounded_shuffle(&sorted, BOUND, seed);
    let negt3 = QuerySpec {
        name: "negt3",
        types: vec![0, 1],
        trailing_neg: Some(2),
        cond: Cond::None,
        ..stocks_query("negt3", 2, window)
    };
    Workload {
        name: "stocks_drift",
        num_types: scenario.num_types(),
        queries: vec![
            (stocks_query("seq3", 3, window), PlannerKind::Greedy),
            (negt3, PlannerKind::Greedy),
            (stocks_query("seq4", 4, window), PlannerKind::ZStream),
        ],
        delivered: tag(delivered),
        sample_keys: sample(&sorted, seed, 0, 3),
        sorted,
        bound: BOUND,
        paced_rate: 20_000.0,
        paced_events: 40_000,
    }
}

/// A regime change: 2,000 round-robin keys whose frequent and rare
/// types swap near the middle of the stream (the shape of the smoke
/// grid's `scale_keys` stream). The seed permutes the key order and
/// shifts the type cycle and the flip point.
fn skew_flip(seed: u64) -> Workload {
    const KEYS: usize = 2_000;
    const PER_KEY: usize = 200;
    const WINDOW: u64 = 30_000;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F11B);
    let mut keys: Vec<u64> = (0..KEYS as u64).collect();
    for i in (1..KEYS).rev() {
        keys.swap(i, rng.gen_range(0..i + 1));
    }
    let total = KEYS * PER_KEY;
    let phase: usize = rng.gen_range(0..53);
    let flip = total / 2 + rng.gen_range(0..total / 50);
    let sorted: Vec<Arc<Event>> = (0..total)
        .map(|i| {
            let r = (i + phase) % 53;
            let late = i >= flip;
            let tid = match (r, r % 5, late) {
                (0, _, false) => 2,
                (0, _, true) => 0,
                (_, 0, _) => 1,
                (_, _, false) => 0,
                (_, _, true) => 2,
            };
            Event::new(
                EventTypeId(tid),
                3 * (i as u64 + 1),
                i as u64,
                vec![
                    Value::Int(rng.gen_range(-3..4)),
                    Value::Int(keys[i % KEYS] as i64),
                ],
            )
        })
        .collect();
    let spec = |name, shape| QuerySpec {
        name,
        shape,
        types: vec![0, 1, 2],
        trailing_neg: None,
        window: WINDOW,
        cond: Cond::None,
        policy: SelectionPolicy::SkipTillAny,
    };
    Workload {
        name: "skew_flip",
        num_types: 3,
        queries: vec![
            (spec("seq3", Shape::Seq), PlannerKind::Greedy),
            (spec("and3", Shape::And), PlannerKind::LazyChain),
        ],
        delivered: tag(sorted.clone()),
        sample_keys: sample(&sorted, seed, 0, 16),
        sorted,
        bound: 0,
        paced_rate: 125_000.0,
        paced_events: 300_000,
    }
}

/// Key cardinality and state: 100k Zipf devices, 400k events with
/// correlated bursts, delivered in order.
fn iot(seed: u64) -> Workload {
    let config = IotConfig {
        seed,
        ..IotConfig::default()
    };
    let sorted = iot_fleet(&config);
    let query = QuerySpec {
        name: "iot/seq3",
        shape: Shape::Seq,
        types: vec![0, 1, 2],
        trailing_neg: None,
        window: config.window_ms,
        cond: Cond::Positive(1),
        policy: SelectionPolicy::SkipTillAny,
    };
    Workload {
        name: "iot_fleet",
        num_types: IotConfig::NUM_TYPES,
        queries: vec![(query, PlannerKind::Greedy)],
        delivered: tag(sorted.clone()),
        sample_keys: sample(&sorted, seed, 2, 6),
        sorted,
        bound: 0,
        paced_rate: 70_000.0,
        paced_events: 140_000,
    }
}

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "stocks_drift" => Some(stocks_drift(seed)),
        "skew_flip" => Some(skew_flip(seed)),
        "iot_fleet" => Some(iot(seed)),
        _ => None,
    }
}

fn tag(events: Vec<Arc<Event>>) -> Vec<(SourceId, Arc<Event>)> {
    events.into_iter().map(|e| (SourceId::MERGED, e)).collect()
}

pub fn key_of(ev: &Event) -> u64 {
    LastAttrKeyExtractor.shard_key(ev)
}

/// `hot` of the busiest keys plus `random` others drawn from the seed,
/// in ascending order.
fn sample(events: &[Arc<Event>], seed: u64, hot: usize, random: usize) -> Vec<u64> {
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for ev in events {
        *counts.entry(key_of(ev)).or_default() += 1;
    }
    let mut keys: Vec<(usize, u64)> = counts.into_iter().map(|(k, n)| (n, k)).collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    let mut picked: HashSet<u64> = keys.iter().take(hot).map(|&(_, k)| k).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05A3_F1E5);
    while picked.len() < (hot + random).min(keys.len()) {
        picked.insert(keys[rng.gen_range(0..keys.len())].1);
    }
    let mut picked: Vec<u64> = picked.into_iter().collect();
    picked.sort_unstable();
    picked
}

impl Workload {
    /// The registered query set. `policy` and `planner` override every
    /// query's adaptation policy and planner when given.
    pub fn pattern_set(
        &self,
        policy: Option<PolicyKind>,
        planner: Option<PlannerKind>,
    ) -> PatternSet {
        let mut set = PatternSet::new(self.num_types);
        for (q, kind) in &self.queries {
            let config = AdaptiveConfig {
                planner: planner.unwrap_or(*kind),
                policy: policy.unwrap_or(PolicyKind::invariant_with_distance(0.1)),
                ..AdaptiveConfig::default()
            };
            set.register(q.name, q.pattern(), config)
                .expect("benchmark query registers");
        }
        set
    }

    pub fn events(&self) -> usize {
        self.sorted.len()
    }
}
