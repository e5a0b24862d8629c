//! Workload inputs: every workload is an epoch-structured event stream
//! generated from the run seed, plus what the service needs to set up
//! (grid, match policy, per-cell demand for calibration).
//!
//! `rush_hour` and `fine_grid` come from the simulator's generators
//! (`BeijingConfig`, `SyntheticConfig`) and keep their `GroundTruth` for
//! the `Simulation::run` oracle. `churn_durable` is generated here: a
//! write-heavy stream of short-lived workers with explicit (partly
//! stale) departures, a trickle of tasks and a fixed share of events
//! with non-finite geometry.

use maps_market::{Demand, DemandDistribution};
use maps_service::ServiceEvent;
use maps_simulator::{
    BeijingConfig, GroundTask, GroundTruth, GroundWorker, MatchPolicy, SyntheticConfig,
};
use maps_spatial::{GridSpec, Point, Rect};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// One workload's generated input.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Pricing grid.
    pub grid: GridSpec,
    /// Worker lifecycle after a match.
    pub match_policy: MatchPolicy,
    /// Per-cell demand the calibration probe answers from.
    pub demands: Vec<Demand>,
    /// Each epoch's events in canonical (serial) order, without the
    /// closing `PeriodTick`.
    pub epochs: Vec<Vec<ServiceEvent>>,
    /// Events in the stream with non-finite geometry (admission must
    /// reject exactly these).
    pub malformed: u64,
    /// Sizing hint for the service's spatial indexes.
    pub expected_workers: usize,
    /// The ground truth the stream was flattened from, when there is one
    /// (the `Simulation::run` oracle consumes it).
    pub truth: Option<GroundTruth>,
}

impl Stream {
    /// Events the service is offered in one pass: every arrival,
    /// departure and task request plus one tick per epoch.
    pub fn events(&self) -> u64 {
        self.epochs.iter().map(|e| e.len() as u64 + 1).sum()
    }

    /// FNV-1a digest of the serial event stream (ticks included), over
    /// the raw bits of every field.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for epoch in &self.epochs {
            for event in epoch {
                hash_event(&mut h, event);
            }
            hash_event(&mut h, &ServiceEvent::PeriodTick);
        }
        h.0
    }

    /// Flattens a ground-truth world the way the service replay driver
    /// does: per period, arrivals in admission order, then task
    /// requests in stream order.
    pub fn from_truth(truth: GroundTruth) -> Self {
        let epochs = truth
            .periods
            .iter()
            .map(maps_service::ingest::period_events)
            .collect();
        Self {
            grid: truth.grid,
            match_policy: truth.match_policy,
            demands: truth.demands.clone(),
            epochs,
            malformed: 0,
            expected_workers: truth.total_workers().max(1),
            truth: Some(truth),
        }
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn hash_event(h: &mut Fnv, event: &ServiceEvent) {
    match event {
        ServiceEvent::WorkerArrive { worker } => {
            h.word(0);
            h.word(worker.location.x.to_bits());
            h.word(worker.location.y.to_bits());
            h.word(worker.radius.to_bits());
            h.word(u64::from(worker.duration));
        }
        ServiceEvent::WorkerDepart { id } => {
            h.word(1);
            h.word(u64::from(*id));
        }
        ServiceEvent::TaskRequest { task } => {
            h.word(2);
            h.word(task.origin.x.to_bits());
            h.word(task.origin.y.to_bits());
            h.word(task.destination.x.to_bits());
            h.word(task.destination.y.to_bits());
            h.word(task.distance.to_bits());
            h.word(task.valuation.to_bits());
        }
        ServiceEvent::PeriodTick => h.word(3),
    }
}

/// `rush_hour`: the Beijing-like rush-hour window, `δ_w = 25`.
pub fn rush_hour(scale: f64, seed: u64) -> Stream {
    Stream::from_truth(BeijingConfig::rush_hour(25).with_scale(scale).build(seed))
}

/// Size of a `fine_grid` world.
#[derive(Debug, Clone, Copy)]
pub struct FineGridSize {
    /// `|W|`.
    pub workers: usize,
    /// `|R|`.
    pub tasks: usize,
    /// `T`.
    pub periods: usize,
    /// Grid side (`G = side²`).
    pub grid_side: u32,
}

/// `fine_grid`: Table 3 defaults with `G = 625` and `|R| = 40,000`.
pub fn fine_grid(size: FineGridSize, seed: u64) -> Stream {
    Stream::from_truth(
        SyntheticConfig::paper_default()
            .with_num_workers(size.workers)
            .with_num_tasks(size.tasks)
            .with_periods(size.periods)
            .with_grid_side(size.grid_side)
            .build(seed),
    )
}

/// Size of a `churn_durable` stream.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSize {
    /// Epochs (ticks).
    pub epochs: usize,
    /// Worker arrivals per epoch.
    pub arrivals: usize,
    /// Explicit departures per epoch.
    pub departures: usize,
    /// Task requests per epoch.
    pub tasks: usize,
}

/// Side of the `churn_durable` region.
const CHURN_REGION: f64 = 100.0;
/// Worker availability window of `churn_durable`, in epochs.
const CHURN_DURATION: u32 = 2;
/// One event in this many carries non-finite geometry.
const MALFORMED_EVERY: usize = 1000;

/// `churn_durable`: a write-heavy stream of short-lived workers.
///
/// Each epoch mixes `arrivals` worker arrivals (`δ_w = 2`), `departures`
/// explicit departures and `tasks` task requests in a seeded random
/// order. Departures name ids admitted in the last few epochs, so some
/// hit workers that are staged, live, already expired or already
/// departed. Every `MALFORMED_EVERY`-th event position is replaced by
/// an arrival or task with a NaN coordinate; those never consume an
/// admission id, so the generator's id arithmetic stays exact.
pub fn churn_durable(size: ChurnSize, seed: u64) -> Stream {
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ (0xC4_u64 << 32));
    let grid = GridSpec::square(Rect::square(CHURN_REGION), 10);
    let demands: Vec<Demand> = grid
        .cells()
        .map(|_| Demand::paper_normal(rng.gen_range(1.5..2.5), 1.0))
        .collect();
    let point = |rng: &mut ChaCha12Rng| {
        Point::new(
            rng.gen_range(0.0..CHURN_REGION),
            rng.gen_range(0.0..CHURN_REGION),
        )
    };
    let mut next_id: u32 = 0;
    let mut epoch_first_id: Vec<u32> = Vec::with_capacity(size.epochs);
    let mut malformed = 0u64;
    let per_epoch = size.arrivals + size.departures + size.tasks;
    let mut epochs = Vec::with_capacity(size.epochs);
    for e in 0..size.epochs {
        epoch_first_id.push(next_id);
        // Departures draw from ids admitted since three epochs ago.
        let lo = epoch_first_id[e.saturating_sub(3)];
        // Remaining draws of each kind: arrivals, departures, tasks.
        let mut left = [size.arrivals, size.departures, size.tasks];
        let mut events = Vec::with_capacity(per_epoch);
        for i in 0..per_epoch {
            let mut pick = rng.gen_range(0..left.iter().sum::<usize>());
            let mut kind = 0;
            while pick >= left[kind] {
                pick -= left[kind];
                kind += 1;
            }
            left[kind] -= 1;
            let bad = (e * per_epoch + i) % MALFORMED_EVERY == MALFORMED_EVERY - 1;
            malformed += u64::from(bad);
            // A departure has no geometry to corrupt, and one before any
            // arrival has no id to name: both become task requests.
            if kind == 1 && (bad || next_id == lo) {
                kind = 2;
            }
            let event = match kind {
                0 => {
                    let mut location = point(&mut rng);
                    if bad {
                        location.x = f64::NAN;
                    } else {
                        next_id += 1;
                    }
                    ServiceEvent::WorkerArrive {
                        worker: GroundWorker {
                            location,
                            radius: 10.0,
                            duration: CHURN_DURATION,
                        },
                    }
                }
                1 => ServiceEvent::WorkerDepart {
                    id: rng.gen_range(lo..next_id),
                },
                _ => {
                    let mut origin = point(&mut rng);
                    let destination = point(&mut rng);
                    let distance = origin.euclidean(destination).max(0.1);
                    let cell = grid.cell_of(origin);
                    let valuation = demands[cell.index()].sample(&mut rng);
                    if bad {
                        origin.y = f64::NAN;
                    }
                    ServiceEvent::TaskRequest {
                        task: GroundTask {
                            origin,
                            destination,
                            distance,
                            valuation,
                            cell,
                        },
                    }
                }
            };
            events.push(event);
        }
        epochs.push(events);
    }
    Stream {
        grid,
        match_policy: MatchPolicy::Consume,
        demands,
        epochs,
        malformed,
        expected_workers: size.arrivals * CHURN_DURATION as usize,
        truth: None,
    }
}
