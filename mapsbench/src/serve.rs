//! Serving passes: one stream through the public `maps-service` API,
//! timed from outside.
//!
//! A *serial* pass pushes the stream into a `ShardedService` on the
//! calling thread; an *ingest* pass fills two `IngestService` lanes from
//! one generator thread while the calling thread sequences them into a
//! journaled service. Set-up — construction, Algorithm-1
//! calibration and journal attach with its baseline checkpoint — is
//! timed apart from serving.

use crate::stream::Stream;
use maps_core::StrategyKind;
use maps_service::ingest::chunk_bounds;
use maps_service::{
    IngestConfig, IngestService, JournalConfig, ServiceConfig, ServiceError, ServiceEvent,
    ShardedService,
};
use maps_simulator::alloc::TrackingAllocator;
use maps_simulator::{GroundTruthProbe, SimOptions};
use std::time::Instant;

/// Shards of every service the benchmark builds.
pub const SHARDS: usize = 4;
/// Lanes of every ingest pass (filled by one generator thread).
pub const LANES: usize = 2;
/// Slots per ingest lane.
pub const LANE_CAPACITY: usize = 1024;

/// The configuration every service (and every recovery) uses.
pub fn service_config(stream: &Stream) -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        max_edges_per_task: SimOptions::default().max_edges_per_task,
        expected_workers: stream.expected_workers,
    }
}

/// Builds and calibrates a MAPS service for `stream` — the same
/// construction `maps_service::replay_service` performs.
pub fn new_service(stream: &Stream) -> ShardedService {
    let mut service = ShardedService::new(
        stream.grid,
        stream.match_policy,
        StrategyKind::Maps,
        service_config(stream),
    );
    let mut probe = GroundTruthProbe::new(&stream.demands, SimOptions::default().probe_seed);
    service.calibrate(&mut probe);
    service
}

/// Whether the benchmark's generator made `event` malformed (a NaN
/// coordinate) — judged from the event itself, not by the service.
pub fn is_malformed(event: &ServiceEvent) -> bool {
    match event {
        ServiceEvent::WorkerArrive { worker } => {
            worker.location.x.is_nan() || worker.location.y.is_nan()
        }
        ServiceEvent::TaskRequest { task } => task.origin.x.is_nan() || task.origin.y.is_nan(),
        ServiceEvent::WorkerDepart { .. } | ServiceEvent::PeriodTick => false,
    }
}

/// What one pass measured and produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Set-up seconds.
    pub setup_s: f64,
    /// Serving seconds (first event offered → last tick closed).
    pub serve_s: f64,
    /// Events offered (ticks included).
    pub events: u64,
    /// Per-tick latency in milliseconds.
    pub ticks_ms: Vec<f64>,
    /// Per-epoch serving seconds (its events and its tick; for ingest
    /// passes, the sequencer's time between consecutive ticks).
    pub epochs_s: Vec<f64>,
    /// Serial passes, traced: seconds inside non-tick `try_push` calls.
    pub admit_s: f64,
    /// Ingest passes: generator seconds in `send_batch`/`end_epoch`.
    pub send_s: f64,
    /// Ingest passes: seconds inside `sequence_with`.
    pub sequence_s: f64,
    /// Peak heap above the pre-set-up baseline, bytes.
    pub peak_bytes: usize,
    /// Failures: valid events rejected, malformed events admitted,
    /// send failures, journal and service errors.
    pub failed: u64,
    /// Events the service rejected.
    pub rejected: u64,
    /// `Outcome::deterministic_bits` at the end of the pass.
    pub bits: Vec<u64>,
    /// Total revenue at the end of the pass.
    pub revenue: f64,
    /// Matched tasks at the end of the pass.
    pub matched: u64,
}

impl Pass {
    /// Reads the outcome and counters. Unless every event was already
    /// classified one by one, a rejection count other than the number of
    /// malformed events counts as failures.
    fn finish(
        &mut self,
        stream: &Stream,
        service: &ShardedService,
        base_bytes: usize,
        exact: bool,
    ) {
        self.peak_bytes = TrackingAllocator::peak_bytes().saturating_sub(base_bytes);
        let outcome = service.outcome_snapshot();
        self.bits = outcome.deterministic_bits();
        self.revenue = outcome.total_revenue;
        self.matched = outcome.matched_tasks;
        self.rejected = service.rejected_events();
        if !exact {
            self.failed += self.rejected.abs_diff(stream.malformed);
        }
        if service.periods_served() as usize != stream.epochs.len() {
            self.failed += 1;
        }
    }
}

/// Serial pass. With `exact`, every event's admission result is checked
/// against the generator's own malformed mark (one extra branch per
/// event; used outside timed phases). With `traced`, the non-tick calls
/// of each epoch are timed as one span.
pub fn serial(stream: &Stream, traced: bool, exact: bool) -> Pass {
    let mut pass = Pass::default();
    TrackingAllocator::reset_peak();
    let base = TrackingAllocator::current_bytes();
    let setup = Instant::now();
    let mut service = new_service(stream);
    pass.setup_s = setup.elapsed().as_secs_f64();
    pass.ticks_ms.reserve(stream.epochs.len());
    pass.epochs_s.reserve(stream.epochs.len());

    let start = Instant::now();
    for epoch in &stream.epochs {
        let opened = Instant::now();
        for event in epoch {
            match service.try_push(*event) {
                Ok(()) => pass.failed += u64::from(exact && is_malformed(event)),
                Err(ServiceError::Rejected(_)) => {
                    pass.failed += u64::from(exact && !is_malformed(event));
                }
                Err(_) => pass.failed += 1,
            }
        }
        let tick = Instant::now();
        if traced {
            pass.admit_s += tick.duration_since(opened).as_secs_f64();
        }
        if service.try_push(ServiceEvent::PeriodTick).is_err() {
            pass.failed += 1;
        }
        let closed = Instant::now();
        pass.ticks_ms
            .push(closed.duration_since(tick).as_secs_f64() * 1e3);
        pass.epochs_s
            .push(closed.duration_since(opened).as_secs_f64());
    }
    pass.serve_s = start.elapsed().as_secs_f64();
    pass.events = stream.events();
    pass.finish(stream, &service, base, exact);
    pass
}

/// Ingest pass into a service journaled under `journal`. Tick latency
/// runs from just before the generator closes the epoch on its last
/// lane to the sequencer's tick callback.
pub fn ingest(stream: &Stream, journal: &JournalConfig) -> Pass {
    let mut pass = Pass::default();
    TrackingAllocator::reset_peak();
    let base = TrackingAllocator::current_bytes();
    let setup = Instant::now();
    let mut service = new_service(stream);
    if service.attach_journal(journal).is_err() {
        pass.failed += 1;
    }
    pass.setup_s = setup.elapsed().as_secs_f64();

    let (front, producers) = IngestService::new(IngestConfig {
        producers: LANES,
        queue_capacity: LANE_CAPACITY,
    });
    let epochs = stream.epochs.len();
    let mut tick_at: Vec<Instant> = Vec::with_capacity(epochs);
    let start = Instant::now();
    let (generated, sequenced) = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut producers = producers;
            let mut closed_at: Vec<Instant> = Vec::with_capacity(epochs);
            let mut send_s = 0.0;
            for epoch in &stream.epochs {
                let bounds = chunk_bounds(epoch.len(), LANES);
                for (lane, producer) in producers.iter_mut().enumerate() {
                    let sent = Instant::now();
                    producer.send_batch(&epoch[bounds[lane]..bounds[lane + 1]]);
                    if lane + 1 == LANES {
                        closed_at.push(Instant::now());
                    }
                    producer.end_epoch();
                    send_s += sent.elapsed().as_secs_f64();
                }
            }
            (closed_at, send_s)
        });
        let sequencing = Instant::now();
        let sequenced = front.sequence_with(&mut service, |_, _| tick_at.push(Instant::now()));
        let sequence_s = sequencing.elapsed().as_secs_f64();
        (generator.join(), (sequenced, sequence_s))
    });
    pass.serve_s = start.elapsed().as_secs_f64();
    pass.events = stream.events();
    let (sequenced, sequence_s) = sequenced;
    pass.sequence_s = sequence_s;
    match sequenced {
        Ok(n) if n as usize == epochs => {}
        _ => pass.failed += 1,
    }
    match generated {
        Ok((closed_at, send_s)) => {
            pass.send_s = send_s;
            pass.ticks_ms = closed_at
                .iter()
                .zip(&tick_at)
                .map(|(closed, tick)| tick.saturating_duration_since(*closed).as_secs_f64() * 1e3)
                .collect();
        }
        Err(_) => pass.failed += 1,
    }
    pass.epochs_s = tick_at
        .iter()
        .scan(start, |prev, &tick| {
            let secs = tick.saturating_duration_since(*prev).as_secs_f64();
            *prev = tick;
            Some(secs)
        })
        .collect();
    pass.finish(stream, &service, base, false);
    pass
}
