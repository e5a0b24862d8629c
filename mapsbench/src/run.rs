//! One benchmark run: generate a workload from the seed, check the
//! oracles, serve it for the time budget, and report the end-to-end
//! metrics (untraced) or the per-layer metrics (traced).

use crate::layers;
use crate::serve::{self, Pass};
use crate::stats::{host_ref_ms, median, percentile};
use crate::stream::{self, ChurnSize, FineGridSize, Stream};
use maps_core::StrategyKind;
use maps_service::journal::{checkpoint_path, list_checkpoints};
use maps_service::{read_journal, recover, JournalConfig, JournalWriter, TICK_PRODUCER};
use maps_simulator::{SimOptions, Simulation};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Beijing-like rush hour at full scale, serial push.
    RushHour,
    /// Table 3 with `G = 625`, `|R| = 40,000`; several worlds per run.
    FineGrid,
    /// Generated churn stream through two ingest lanes into a journaled
    /// service, then recovery.
    ChurnDurable,
}

/// Rayon width of every call the benchmark makes into the program.
/// The vendored rayon spawns scoped threads for each parallel call, and
/// on a shared two-vCPU host a second busy thread made every figure
/// slower and less repeatable; with one, serial workloads keep one core
/// busy and `churn_durable` two (its generator and its sequencer).
pub const RAYON_WIDTH: usize = 1;

impl Workload {
    /// Every workload the command runs (`BENCHMARK.json` gates all but
    /// `rush_hour`; see `DESIGN.md`).
    pub const ALL: [Workload; 3] = [
        Workload::RushHour,
        Workload::FineGrid,
        Workload::ChurnDurable,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RushHour => "rush_hour",
            Workload::FineGrid => "fine_grid",
            Workload::ChurnDurable => "churn_durable",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Checkpoint cadence of the workload's journals, in epochs.
    /// `fine_grid`'s 400 periods end on a multiple of 16, so at that
    /// cadence its recovery replays nothing and times only the journal
    /// read; at 150 its newest checkpoint is at period 300 and recovery
    /// re-drives the last 100 epochs, as after a crash mid-cadence.
    pub fn checkpoint_every(self) -> u32 {
        match self {
            Workload::FineGrid => 150,
            Workload::RushHour | Workload::ChurnDurable => 16,
        }
    }
}

/// Input sizes: the benchmark's, or tiny ones for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Seconds-scale sizes for the benchmark's own tests.
    Tiny,
}

/// Worlds one `fine_grid` run serves.
const FINE_WORLDS: u64 = 3;
/// `recover()` calls per run: at least `MIN_RECOVERIES`, and more
/// while they add up to less than `RECOVERY_BUDGET_S`, up to
/// `MAX_RECOVERIES`. `recovery_s` is the fastest call (see `Recovery`).
const MIN_RECOVERIES: usize = 5;
const MAX_RECOVERIES: usize = 200;
const RECOVERY_BUDGET_S: f64 = 5.0;
/// Untraced passes per stream, at least (see `Summary`).
const MIN_PASSES: usize = 7;
/// Set-ups per run, at least (extra ones are made without serving).
const MIN_SETUPS: usize = 5;

/// Generates the workload's streams from the run seed.
pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Vec<Stream> {
    let tiny = scale == Scale::Tiny;
    match workload {
        Workload::RushHour => vec![stream::rush_hour(if tiny { 0.02 } else { 1.0 }, seed)],
        Workload::FineGrid => {
            let size = if tiny {
                FineGridSize {
                    workers: 200,
                    tasks: 1_600,
                    periods: 40,
                    grid_side: 25,
                }
            } else {
                FineGridSize {
                    workers: 5_000,
                    tasks: 40_000,
                    periods: 400,
                    grid_side: 25,
                }
            };
            (0..FINE_WORLDS)
                .map(|i| stream::fine_grid(size, seed.wrapping_mul(FINE_WORLDS) + i))
                .collect()
        }
        Workload::ChurnDurable => {
            let size = if tiny {
                ChurnSize {
                    epochs: 12,
                    arrivals: 400,
                    departures: 40,
                    tasks: 20,
                }
            } else {
                ChurnSize {
                    epochs: 100,
                    arrivals: 20_000,
                    departures: 2_000,
                    tasks: 50,
                }
            };
            vec![stream::churn_durable(size, seed)]
        }
    }
}

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Serving budget in seconds.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for journals and checkpoints (created and removed).
    pub work_dir: PathBuf,
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every correctness gate held.
    pub correct: bool,
    /// Operations attempted: events offered to a service, plus
    /// `recover()` calls.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, if it is not.
    pub mismatches: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    fn count(&mut self, pass: &Pass) {
        self.attempted += pass.events;
        self.failed += pass.failed;
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// What an oracle says a stream's service run must produce.
struct Expected {
    bits: Vec<u64>,
    revenue: f64,
    matched: u64,
}

/// Runs the benchmark.
pub fn run(opts: &Options) -> Report {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(RAYON_WIDTH)
        .build()
        .expect("rayon pool");
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let report = pool.install(|| run_in_pool(opts));
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    report
}

fn run_in_pool(opts: &Options) -> Report {
    let mut report = Report::default();
    let host_ms = host_ref_ms();
    eprintln!("host.ref_ms {host_ms}");
    let churn = opts.workload == Workload::ChurnDurable;

    let generation = Instant::now();
    let mut streams = generate(opts.workload, opts.scale, opts.seed);
    let gen_s = generation.elapsed().as_secs_f64();

    // Oracles, outside every timed phase. `churn_durable` has no ground
    // truth; its oracle is serial unjournaled push of the same stream,
    // with every event's admission checked against the generator's mark
    // (timed as spans around the service calls for the traced report).
    let mut oracle_pass = None;
    let expected: Vec<Expected> = streams
        .iter_mut()
        .map(|stream| match stream.truth.take() {
            Some(truth) => {
                let outcome = Simulation::new(truth, StrategyKind::Maps)
                    .with_options(SimOptions::default())
                    .run();
                Expected {
                    bits: outcome.deterministic_bits(),
                    revenue: outcome.total_revenue,
                    matched: outcome.matched_tasks,
                }
            }
            None => {
                let pass = serve::serial(stream, opts.trace, true);
                report.count(&pass);
                let want = Expected {
                    bits: pass.bits.clone(),
                    revenue: pass.revenue,
                    matched: pass.matched,
                };
                oracle_pass = Some(pass);
                want
            }
        })
        .collect();

    // The journal `recovery_s` recovers from: the first stream's, made
    // before the timed phase by the serial workloads' durable pass (the
    // same two-lane journaled ingest path `churn_durable` serves), and
    // kept from `churn_durable`'s first served pass.
    let cadence = opts.workload.checkpoint_every();
    let journal = JournalConfig::new(opts.work_dir.join("journal"), cadence);
    let recovery_journal = JournalConfig::new(opts.work_dir.join("recovery"), cadence);
    let durable = if churn {
        None
    } else {
        let pass = serve::ingest(&streams[0], &recovery_journal);
        report.gate(pass.bits == expected[0].bits, || {
            "journaled ingest pass diverged from its oracle".into()
        });
        report.count(&pass);
        Some(pass)
    };
    let mut recovery = Recovery::default();

    // Serving, in passes over the streams in turn, until the phase's
    // budget (set-up included) is spent and every stream has been served
    // `min_passes` times: an untraced report takes every epoch at its
    // fastest across at least `MIN_PASSES` passes (see `Summary`). A
    // traced run spends half its budget untraced and half traced, so the
    // tracing overhead is measured inside one run. Recoveries are spread
    // between the passes in proportion to the budget spent (see
    // `Recovery`).
    let phases: &[(bool, f64, usize)] = if opts.trace {
        &[(false, 0.5, 1), (true, 0.5, 1)]
    } else {
        &[(false, 1.0, MIN_PASSES)]
    };
    let mut served: Vec<(bool, usize, Pass)> = Vec::new();
    let mut spent_before = 0.0;
    for &(traced, share, min_passes) in phases {
        let budget = opts.seconds * share;
        let mut spent = 0.0;
        let mut i = 0;
        while spent < budget || i < min_passes * streams.len() {
            let s = i % streams.len();
            let pass = if churn {
                let _ = std::fs::remove_dir_all(&journal.dir);
                let pass = serve::ingest(&streams[s], &journal);
                if s == 0 && !recovery_journal.dir.exists() {
                    if let Err(e) = std::fs::rename(&journal.dir, &recovery_journal.dir) {
                        report.failed += 1;
                        report
                            .mismatches
                            .push(format!("keeping the journal failed: {e}"));
                    }
                }
                pass
            } else {
                serve::serial(&streams[s], traced, false)
            };
            report.gate(pass.bits == expected[s].bits, || {
                format!("served pass {i} of stream {s} diverged from its oracle")
            });
            report.count(&pass);
            spent += pass.setup_s + pass.serve_s;
            served.push((traced, s, pass));
            i += 1;
            let progress = ((spent_before + spent.min(budget)) / opts.seconds).min(1.0);
            while recovery.total_s() < RECOVERY_BUDGET_S * progress
                && recovery.calls < MAX_RECOVERIES
            {
                recovery.run(&mut report, &streams[0], &expected[0], &recovery_journal);
            }
        }
        spent_before += budget;
    }
    while recovery.calls < MIN_RECOVERIES
        || (recovery.calls < MAX_RECOVERIES && recovery.total_s() < RECOVERY_BUDGET_S)
    {
        recovery.run(&mut report, &streams[0], &expected[0], &recovery_journal);
    }

    // Set-up samples: every served pass's, topped up without serving.
    let mut setups: Vec<f64> = served.iter().map(|(_, _, p)| p.setup_s).collect();
    let spare = JournalConfig::new(opts.work_dir.join("spare"), cadence);
    while setups.len() < MIN_SETUPS {
        let start = Instant::now();
        let mut service = serve::new_service(&streams[setups.len() % streams.len()]);
        if churn && service.attach_journal(&spare).is_err() {
            report.failed += 1;
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    let phase = |traced: bool| {
        let passes: Vec<(usize, &Pass)> = served
            .iter()
            .filter(|(t, _, _)| *t == traced)
            .map(|(_, s, p)| (*s, p))
            .collect();
        Summary::new(&passes, streams.len())
    };
    let untraced = phase(false);
    let ticks = &untraced.ticks_ms;

    if !opts.trace {
        let peaks: Vec<f64> = served
            .iter()
            .map(|(_, _, p)| p.peak_bytes as f64 / (1024.0 * 1024.0))
            .collect();
        report.metric("events_per_s", untraced.events_per_s, "1/s");
        report.metric("tick_p50_ms", percentile(ticks, 0.5), "ms");
        report.metric("setup_s", median(&setups), "s");
        report.metric("peak_heap_mib", median(&peaks), "MiB");
        report.metric("recovery_s", recovery.fastest_s(), "s");
    } else {
        let first = |traced: bool| -> Vec<&Pass> {
            served
                .iter()
                .filter(|(t, s, _)| *t == traced && *s == 0)
                .map(|(_, _, p)| p)
                .collect()
        };
        trace_report(
            &mut report,
            TraceInputs {
                stream: &streams[0],
                expected: &expected[0],
                oracle_pass: oracle_pass.as_ref(),
                traced_first: first(true),
                ingest_passes: match &durable {
                    Some(pass) => vec![pass],
                    None => first(false),
                },
                journal: &recovery_journal,
                epochs_replayed: recovery.epochs_replayed,
                overhead_ratio: phase(true).events_per_s / untraced.events_per_s,
                gen_s,
                host_ms,
                tick_p90_ms: percentile(ticks, 0.9),
                tick_samples: ticks.len(),
            },
        );
    }
    let failed = report.failed;
    report.gate(failed == 0, || format!("{failed} operations failed"));
    report.correct = report.mismatches.is_empty();
    report
}

/// The timed `recover()` calls of a run, all from the same finished
/// journal. `recovery_s` is the fastest, for the reason `Summary` gives;
/// the calls are spread over the serving phase rather than made in one
/// burst after it, because the host's slow spells last seconds: one
/// burst could fall wholly inside one and slow every call by half.
#[derive(Default)]
struct Recovery {
    calls: usize,
    times_s: Vec<f64>,
    epochs_replayed: u32,
}

impl Recovery {
    /// Recovers once, gating the recovered outcome on the oracle's.
    fn run(
        &mut self,
        report: &mut Report,
        stream: &Stream,
        expected: &Expected,
        journal: &JournalConfig,
    ) {
        self.calls += 1;
        let r = self.calls;
        report.attempted += 1;
        let start = Instant::now();
        let recovered = recover(
            stream.grid,
            stream.match_policy,
            StrategyKind::Maps,
            serve::service_config(stream),
            journal,
        );
        let secs = start.elapsed().as_secs_f64();
        match recovered {
            Ok(recovered) => {
                self.times_s.push(secs);
                self.epochs_replayed = recovered.epochs_replayed;
                let bits = recovered.service.outcome_snapshot().deterministic_bits();
                report.gate(bits == expected.bits, || {
                    format!("recovery {r} diverged from the uninterrupted run")
                });
            }
            Err(e) => {
                report.failed += 1;
                report.mismatches.push(format!("recovery {r} failed: {e}"));
            }
        }
    }

    fn total_s(&self) -> f64 {
        self.times_s.iter().sum()
    }

    fn fastest_s(&self) -> f64 {
        self.times_s.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Serving figures over one phase's passes, taking each epoch at its
/// fastest across the stream's passes. Neighbour load on a shared host
/// only ever slows an epoch, and it comes and goes within seconds: one
/// pass over a world ran anywhere between 180k and 300k events/s in a
/// single process, so a median across passes flips with whichever
/// regime held most of the run, while the fastest of several passes
/// estimates the undisturbed cost. More passes can only lower it, so a
/// faster program, which fits more passes into the budget, gains a
/// little beyond its own speed-up.
struct Summary {
    /// Events of one pass over every stream ÷ the sum, over every
    /// stream's epochs, of the epoch's fastest serving time.
    events_per_s: f64,
    /// Every tick of every stream at its fastest across passes.
    ticks_ms: Vec<f64>,
}

impl Summary {
    fn new(passes: &[(usize, &Pass)], streams: usize) -> Self {
        let (mut events, mut secs) = (0u64, 0.0);
        let mut ticks_ms = Vec::new();
        for s in 0..streams {
            let mine: Vec<&Pass> = passes
                .iter()
                .filter(|(i, _)| *i == s)
                .map(|(_, p)| *p)
                .collect();
            let mine = &mine;
            let Some(first) = mine.first() else { continue };
            events += first.events;
            let fastest = |series: fn(&Pass) -> &[f64]| {
                let n = mine.iter().map(|p| series(p).len()).min().unwrap_or(0);
                (0..n).map(move |t| {
                    mine.iter()
                        .map(|p| series(p)[t])
                        .fold(f64::INFINITY, f64::min)
                })
            };
            secs += fastest(|p| &p.epochs_s).sum::<f64>();
            ticks_ms.extend(fastest(|p| &p.ticks_ms));
        }
        Self {
            events_per_s: events as f64 / secs,
            ticks_ms,
        }
    }
}

struct TraceInputs<'a> {
    stream: &'a Stream,
    expected: &'a Expected,
    /// `churn_durable`'s serial oracle pass (traced).
    oracle_pass: Option<&'a Pass>,
    /// Traced serial passes of the first stream (serial workloads).
    traced_first: Vec<&'a Pass>,
    /// Ingest passes whose generator and sequencer times are reported.
    ingest_passes: Vec<&'a Pass>,
    journal: &'a JournalConfig,
    epochs_replayed: u32,
    overhead_ratio: f64,
    gen_s: f64,
    host_ms: f64,
    /// Ungated here: see `BENCHMARK.json`'s `churn_durable` entry.
    tick_p90_ms: f64,
    tick_samples: usize,
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn trace_report(report: &mut Report, t: TraceInputs<'_>) {
    // Spans around the service calls, per pass over the first stream.
    let engine_passes: Vec<&Pass> = match t.oracle_pass {
        Some(pass) => vec![pass],
        None => t.traced_first,
    };
    let engine_admit_s = mean(engine_passes.iter().map(|p| p.admit_s));
    let engine_tick_s = mean(
        engine_passes
            .iter()
            .map(|p| p.ticks_ms.iter().sum::<f64>() / 1e3),
    );
    let rejected = engine_passes.first().map_or(0, |p| p.rejected);

    // The layer replay of the same stream.
    let layers = layers::replay(t.stream, SimOptions::default().max_edges_per_task);
    report.gate(
        layers.revenue.to_bits() == t.expected.revenue.to_bits()
            && layers.matched == t.expected.matched,
        || {
            format!(
                "layer replay revenue {} / matched {} differ from the service's {} / {}",
                layers.revenue, layers.matched, t.expected.revenue, t.expected.matched
            )
        },
    );
    report.gate(layers.coverage() >= 0.9, || {
        format!("layer spans cover {:.3} of the replay", layers.coverage())
    });

    // Journal: size, re-write timing, recovery's read and checkpoint.
    let journal_path = t.journal.journal_path();
    let journal_bytes = std::fs::metadata(&journal_path).map_or(0, |m| m.len());
    let mut reads = Vec::new();
    let mut records = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        match read_journal(&journal_path) {
            Ok(contents) => {
                reads.push(start.elapsed().as_secs_f64());
                records = contents.records;
            }
            Err(e) => {
                report.failed += 1;
                report.mismatches.push(format!("read_journal failed: {e}"));
            }
        }
    }
    let (append_s, sync_s) = rewrite_journal(report, &records, &t.journal.dir.join("rewrite.bin"));
    let checkpoint_bytes = newest_checkpoint_bytes(&t.journal.dir);

    report.metric("cache.apply_s", layers.apply_s, "s");
    report.metric("cache.gather_s", layers.gather_s, "s");
    report.metric("cache.knn_graph_s", layers.knn_graph_s, "s");
    report.metric("cache.edges", layers.edges as f64, "count");
    report.metric("pricing.price_s", layers.price_s, "s");
    report.metric("pricing.calibrate_s", layers.calibrate_s, "s");
    report.metric("settle.settle_s", layers.settle_s, "s");
    report.metric("settle.matched_tasks", layers.matched as f64, "count");
    report.metric("replay.admit_s", layers.admit_s, "s");
    report.metric("replay.lifecycle_s", layers.lifecycle_s, "s");
    report.metric("replay.observe_s", layers.observe_s, "s");
    report.metric("replay.wall_s", layers.wall_s, "s");
    report.metric("replay.coverage", layers.coverage(), "ratio");
    report.metric("engine.admit_s", engine_admit_s, "s");
    report.metric("engine.tick_s", engine_tick_s, "s");
    report.metric("engine.ticks", layers.ticks as f64, "count");
    report.metric(
        "engine.shard_overhead_s",
        engine_tick_s - layers.tick_s(),
        "s",
    );
    report.metric("engine.rejected_events", rejected as f64, "count");
    report.metric(
        "ingest.send_s",
        mean(t.ingest_passes.iter().map(|p| p.send_s)),
        "s",
    );
    report.metric(
        "ingest.sequence_s",
        mean(t.ingest_passes.iter().map(|p| p.sequence_s)),
        "s",
    );
    report.metric("journal.bytes", journal_bytes as f64, "bytes");
    report.metric("journal.append_s", append_s, "s");
    report.metric("journal.sync_s", sync_s, "s");
    report.metric("recovery.read_journal_s", median(&reads), "s");
    report.metric(
        "recovery.epochs_replayed",
        f64::from(t.epochs_replayed),
        "count",
    );
    report.metric(
        "recovery.checkpoint_bytes",
        checkpoint_bytes as f64,
        "bytes",
    );
    report.metric("tick_p90_ms", t.tick_p90_ms, "ms");
    report.metric("bench.gen_s", t.gen_s, "s");
    report.metric("bench.tick_samples", t.tick_samples as f64, "count");
    report.metric("host.ref_ms", t.host_ms, "ms");
    report.metric("tracing.overhead_ratio", t.overhead_ratio, "ratio");
}

/// Re-writes `records` through `JournalWriter::append`, with one `sync`
/// per epoch barrier, returning `(append_s, sync_s)`.
fn rewrite_journal(
    report: &mut Report,
    records: &[maps_service::JournalRecord],
    path: &Path,
) -> (f64, f64) {
    let (mut append_s, mut sync_s) = (0.0, 0.0);
    let mut writer = match JournalWriter::create(path) {
        Ok(writer) => writer,
        Err(e) => {
            report.failed += 1;
            report
                .mismatches
                .push(format!("journal re-write failed: {e}"));
            return (append_s, sync_s);
        }
    };
    let mut mark = Instant::now();
    for record in records {
        if writer.append(record).is_err() {
            report.failed += 1;
        }
        if record.producer == TICK_PRODUCER {
            let synced = Instant::now();
            append_s += synced.duration_since(mark).as_secs_f64();
            if writer.sync().is_err() {
                report.failed += 1;
            }
            mark = Instant::now();
            sync_s += mark.duration_since(synced).as_secs_f64();
        }
    }
    (append_s, sync_s)
}

/// Size of the newest checkpoint in `dir` (what recovery restores).
fn newest_checkpoint_bytes(dir: &Path) -> u64 {
    list_checkpoints(dir)
        .ok()
        .and_then(|epochs| epochs.last().copied())
        .and_then(|epoch| std::fs::metadata(checkpoint_path(dir, epoch)).ok())
        .map_or(0, |m| m.len())
}
