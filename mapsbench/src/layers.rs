//! The traced layer replay: one stream re-driven period by period
//! through the public per-layer entry points the service's tick is made
//! of, with a wall-clock span around each call.
//!
//! One `PeriodGraphCache` holds every live worker (the one-shard shape
//! of the service), so the replay's revenue and match count must equal
//! the service run's bit for bit: that is checked by the caller. The
//! spans cover the whole replay except loop overhead, and
//! [`LayerTimes::coverage`] says how much.

use crate::stream::Stream;
use maps_core::{
    paper_default_strategy, Observation, PeriodGraphCache, PeriodInput, StrategyKind, TaskInput,
    WorkerChurn, WorkerInput,
};
use maps_matching::MatchScratch;
use maps_service::ServiceEvent;
use maps_simulator::{
    settle_period, GroundTask, GroundTruthProbe, MatchPolicy, RunningMoments, SimOptions,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Seconds spent in each layer over one replay, plus its counters.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// `PricingStrategy::calibrate` (Algorithm 1).
    pub calibrate_s: f64,
    /// Admitting the stream's events between ticks (validation, id
    /// assignment, staging, departures).
    pub admit_s: f64,
    /// Scheduled expiries/releases, task materialization and the
    /// matched workers' lifecycle.
    pub lifecycle_s: f64,
    /// `PeriodGraphCache::apply` (index churn and live-id merge).
    pub apply_s: f64,
    /// `PeriodGraphCache::fill_worker_inputs`.
    pub gather_s: f64,
    /// `PeriodGraphCache::build_graph_capped` (k-NN + graph assembly).
    pub knn_graph_s: f64,
    /// `PricingStrategy::price_period`.
    pub price_s: f64,
    /// `settle_period` (requester decisions + market clearing).
    pub settle_s: f64,
    /// `PricingStrategy::observe`.
    pub observe_s: f64,
    /// Wall time of the whole replay.
    pub wall_s: f64,
    /// Edges over every period's graph.
    pub edges: u64,
    /// Matched tasks.
    pub matched: u64,
    /// Total revenue (summed in the service's order).
    pub revenue: f64,
    /// Ticks replayed.
    pub ticks: u64,
}

impl LayerTimes {
    /// The per-tick layers: what the service's tick does, one shard.
    pub fn tick_s(&self) -> f64 {
        self.lifecycle_s
            + self.apply_s
            + self.gather_s
            + self.knn_graph_s
            + self.price_s
            + self.settle_s
            + self.observe_s
    }

    /// Share of the replay's wall time its spans cover.
    pub fn coverage(&self) -> f64 {
        (self.calibrate_s + self.admit_s + self.tick_s()) / self.wall_s
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Available,
    Busy,
    Gone,
}

#[derive(Debug, Clone, Copy)]
struct Record {
    expires_at: u32,
    status: Status,
    /// Period whose staging window holds the worker's latest arrival,
    /// and its position there.
    staged_at: u32,
    staged_pos: u32,
}

enum Timed {
    Expire(u32),
    Release(u32, WorkerInput),
}

/// Adds the seconds since `*mark` to `*acc` and moves `*mark` to now.
fn lap(mark: &mut Instant, acc: &mut f64) {
    let now = Instant::now();
    *acc += now.duration_since(*mark).as_secs_f64();
    *mark = now;
}

/// Replays `stream` through the layers with a calibrated MAPS strategy
/// and a per-task edge cap of `k`.
pub fn replay(stream: &Stream, k: usize) -> LayerTimes {
    let grid = stream.grid;
    let mut out = LayerTimes::default();
    let start = Instant::now();
    let mut mark = start;

    let mut strategy = paper_default_strategy(StrategyKind::Maps, grid.num_cells());
    let mut probe = GroundTruthProbe::new(&stream.demands, SimOptions::default().probe_seed);
    strategy.calibrate(&mut probe);
    lap(&mut mark, &mut out.calibrate_s);

    let mut cache = PeriodGraphCache::new(&grid, stream.expected_workers);
    let mut records: Vec<Record> = Vec::new();
    let mut schedule: BTreeMap<u32, Vec<Timed>> = BTreeMap::new();
    let mut staged: Vec<Option<(u32, WorkerInput)>> = Vec::new();
    let mut arrivals: Vec<(u32, WorkerInput)> = Vec::new();
    let mut departures: Vec<u32> = Vec::new();
    let mut pending: Vec<GroundTask> = Vec::new();
    let mut task_inputs: Vec<TaskInput> = Vec::new();
    let mut worker_inputs: Vec<WorkerInput> = Vec::new();
    let mut observations: Vec<Observation> = Vec::new();
    let mut keep: Vec<bool> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    let mut clearing = MatchScratch::new();
    let mut moments = RunningMoments::new();
    lap(&mut mark, &mut out.admit_s);

    for (t, epoch) in stream.epochs.iter().enumerate() {
        let t = t as u32;
        for event in epoch {
            if event.validate().is_err() {
                continue;
            }
            match *event {
                ServiceEvent::WorkerArrive { worker } => {
                    let id = records.len() as u32;
                    let expires_at = t.saturating_add(worker.duration);
                    let mut record = Record {
                        expires_at,
                        status: Status::Gone,
                        staged_at: t,
                        staged_pos: staged.len() as u32,
                    };
                    if expires_at > t {
                        record.status = Status::Available;
                        let input = WorkerInput::new(&grid, worker.location, worker.radius);
                        staged.push(Some((id, input)));
                        schedule
                            .entry(expires_at)
                            .or_default()
                            .push(Timed::Expire(id));
                    }
                    records.push(record);
                }
                ServiceEvent::WorkerDepart { id } => {
                    let Some(record) = records.get_mut(id as usize) else {
                        continue;
                    };
                    if record.status == Status::Available {
                        // Same-window departures cancel the staged arrival.
                        let cancelled = record.staged_at == t
                            && staged[record.staged_pos as usize].take().is_some();
                        if !cancelled {
                            departures.push(id);
                        }
                    }
                    record.status = Status::Gone;
                }
                ServiceEvent::TaskRequest { task } => pending.push(task),
                ServiceEvent::PeriodTick => unreachable!("epochs hold no ticks"),
            }
        }
        lap(&mut mark, &mut out.admit_s);

        if let Some(events) = schedule.remove(&t) {
            for event in events {
                match event {
                    Timed::Expire(id) => {
                        let record = &mut records[id as usize];
                        if record.status == Status::Available {
                            departures.push(id);
                        }
                        record.status = Status::Gone;
                    }
                    Timed::Release(id, input) => {
                        let record = &mut records[id as usize];
                        if record.status == Status::Busy && t < record.expires_at {
                            record.status = Status::Available;
                            record.staged_at = t;
                            record.staged_pos = staged.len() as u32;
                            staged.push(Some((id, input)));
                        } else {
                            record.status = Status::Gone;
                        }
                    }
                }
            }
        }
        arrivals.extend(staged.drain(..).flatten());
        task_inputs.clear();
        task_inputs.extend(pending.iter().map(|task| TaskInput {
            origin: task.origin,
            distance: task.distance,
            cell: task.cell,
        }));
        lap(&mut mark, &mut out.lifecycle_s);

        cache.apply(WorkerChurn {
            arrivals: &arrivals,
            departures: &departures,
            relocations: &[],
        });
        arrivals.clear();
        departures.clear();
        lap(&mut mark, &mut out.apply_s);

        cache.fill_worker_inputs(&mut worker_inputs);
        lap(&mut mark, &mut out.gather_s);

        let graph = cache.build_graph_capped(&task_inputs, k);
        out.edges += graph.n_edges() as u64;
        lap(&mut mark, &mut out.knn_graph_s);

        let prices = strategy.price_period(&PeriodInput {
            grid: &grid,
            tasks: &task_inputs,
            workers: &worker_inputs,
            graph: &graph,
        });
        lap(&mut mark, &mut out.price_s);

        let settlement = settle_period(
            &pending,
            &task_inputs,
            &prices,
            &graph,
            &mut moments,
            &mut observations,
            &mut keep,
            &mut weights,
            &mut clearing,
        );
        out.revenue += settlement.revenue;
        lap(&mut mark, &mut out.settle_s);

        for (l, dense) in clearing.matched_pairs() {
            out.matched += 1;
            let task = &pending[l];
            let id = cache.live_ids()[dense as usize];
            let record = &mut records[id as usize];
            departures.push(id);
            record.status = Status::Gone;
            if let MatchPolicy::Relocate { speed } = stream.match_policy {
                let travel = (task.distance / speed).ceil().max(1.0) as u32;
                let busy_until = t.saturating_add(travel);
                if busy_until < record.expires_at {
                    record.status = Status::Busy;
                    let radius = cache.worker(id).expect("matched worker is live").radius;
                    let input = WorkerInput::new(&grid, task.destination, radius);
                    schedule
                        .entry(busy_until)
                        .or_default()
                        .push(Timed::Release(id, input));
                }
            }
        }
        pending.clear();
        lap(&mut mark, &mut out.lifecycle_s);

        strategy.observe(&observations);
        lap(&mut mark, &mut out.observe_s);
        out.ticks += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}
