//! The WiLIS benchmark: simulated packets per second and call latency
//! through `SweepService` → `SweepRunner`, and with `--trace 1` each
//! layer's host time, measured by replaying the workload through the
//! layers' public functions.
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload phy_grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run checks its outputs against a 1-thread runner reference and
//! exits 1 on a mismatch. The last line of standard output is the result
//! object; the line before it describes the host.

mod layers;
mod replay;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use wilis::scenario::{channel_registry, contention_registry, link_registry};
use wilis::{
    PointOutcome, ResultStore, Scenario, ScenarioResult, SweepRunner, SweepService, WilisSystem,
};

use report::{digest, host_block, peak_rss_mb, result_json, Metric};
use stats::{median, percentile, sorted, windowed_rate};
use trace::Tracer;
use workload::{Kind, Workload, EPOCH_CALLS};

/// Worker threads of every timed runner (a 2-core host's `nproc`).
pub const THREADS: usize = 2;
/// Set-up is repeated this many times and its median reported.
const SETUP_REPS: usize = 201;
/// Timed calls made however long each takes.
const MIN_CALLS: usize = 5;
/// Windows the run is cut into for `packets_per_s`.
const RATE_WINDOWS: usize = 10;
/// Where runs keep their files, under the working directory.
const OUT_DIR: &str = ".perfbench";
const USAGE: &str = "usage: perfbench --workload <phy_grid|link_fading|service_revisit> \
                     [--seed N] [--seconds N] [--trace 0|1]";
/// Mismatches reported one by one; further ones are only counted.
const MAX_REPORTED: usize = 10;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Correctness failures found during a run.
#[derive(Debug, Default)]
pub struct Gate {
    failures: usize,
}

impl Gate {
    /// Records a failure.
    pub fn fail(&mut self, message: String) {
        self.failures += 1;
        if self.failures <= MAX_REPORTED {
            eprintln!("perfbench: CHECK FAILED: {message}");
        }
    }

    /// Records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }

    fn passed(&self) -> bool {
        self.failures == 0
    }
}

/// A per-process directory for store files, removed when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> std::io::Result<Self> {
        let path = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One timed `SweepService` call.
struct Call {
    wall_s: f64,
    /// Packets of the results returned, cached or simulated.
    delivered: u64,
    simulated: u64,
    points: u64,
    failed: u64,
    hits: u64,
    misses: u64,
    traced: bool,
}

/// The on-disk store of `service_revisit`: a pristine pre-populated copy,
/// and the working file each store epoch starts from it.
struct StoreFiles {
    pristine: PathBuf,
    working: PathBuf,
}

impl StoreFiles {
    /// A service over a fresh working copy of the pristine store.
    fn open(&self) -> Result<SweepService, String> {
        std::fs::copy(&self.pristine, &self.working)
            .map_err(|e| format!("{}: {e}", self.working.display()))?;
        Ok(SweepService::with_store(
            SweepRunner::new(THREADS),
            ResultStore::at_path(&self.working),
        ))
    }
}

/// The workload's one client: issues its calls and checks every answer.
struct Client<'a> {
    w: &'a Workload,
    reference: &'a [ScenarioResult],
    /// `service_revisit`'s store and long-lived service; the cold
    /// workloads get a fresh in-memory service per call, so every point
    /// is a miss.
    store: Option<(StoreFiles, SweepService)>,
    /// Per call of a store epoch, the result of its new point.
    fresh_reference: Vec<ScenarioResult>,
    requested: Vec<Scenario>,
    next_call: u64,
}

impl<'a> Client<'a> {
    fn call(&mut self, gate: &mut Gate, tracer: Option<&mut Tracer>) -> Result<Call, String> {
        let c = self.next_call;
        self.next_call += 1;
        let k = c % EPOCH_CALLS;
        let mut cold = None;
        let service = match self.store.as_mut() {
            Some((files, service)) => {
                if k == 0 && c > 0 {
                    *service = files.open()?;
                }
                self.requested.truncate(self.w.grid.len());
                self.requested.push(self.w.fresh_point(k));
                service
            }
            None => cold.insert(SweepService::new(SweepRunner::new(THREADS))),
        };
        service.reset_metrics();
        let traced = tracer.is_some();
        let span = tracer.map(|t| {
            t.set_call(c);
            (t.enter("service.call"), t)
        });
        let t0 = Instant::now();
        let sweep = service.run_supervised(&self.requested);
        let wall_s = t0.elapsed().as_secs_f64();
        if let Some((id, t)) = span {
            t.exit(id);
        }
        let m = service.metrics();
        let points = self.requested.len() as u64;
        let mut call = Call {
            wall_s,
            delivered: 0,
            simulated: m.packets_simulated,
            points,
            failed: 0,
            hits: m.hits,
            misses: m.misses,
            traced,
        };
        let sweep = match sweep {
            Ok(sweep) => sweep,
            Err(e) => {
                call.failed = points;
                gate.fail(format!("call {c}: {e}"));
                return Ok(call);
            }
        };
        gate.check(sweep.outcomes.len() == self.requested.len(), || {
            format!(
                "call {c}: {} outcomes for {points} points",
                sweep.outcomes.len()
            )
        });
        for (i, outcome) in sweep.outcomes.iter().enumerate() {
            let want = self.reference.get(i).or_else(|| {
                self.fresh_reference
                    .get(k as usize)
                    .filter(|_| i == self.reference.len())
            });
            match outcome {
                PointOutcome::Failed { message, .. } => {
                    call.failed += 1;
                    gate.fail(format!("call {c}: point {i} failed: {message}"));
                }
                PointOutcome::Completed(r) => {
                    call.delivered += r.packets;
                    gate.check(Some(r) == want, || {
                        format!("call {c}: point {i} differs from the 1-thread reference")
                    });
                }
            }
        }
        Ok(call)
    }

    /// Calls for at least `seconds`, [`MIN_CALLS`] calls and one cycle of
    /// the workload's call mix; with a tracer, every other call is traced.
    fn calls_for(
        &mut self,
        seconds: f64,
        gate: &mut Gate,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Vec<Call>, String> {
        let start = Instant::now();
        let mut calls = Vec::new();
        let min_calls = MIN_CALLS.max(self.w.cycle());
        while calls.len() < min_calls || start.elapsed().as_secs_f64() < seconds {
            let traced = if calls.len() % 2 == 1 {
                tracer.as_deref_mut()
            } else {
                None
            };
            calls.push(self.call(gate, traced)?);
        }
        Ok(calls)
    }
}

/// The user's set-up before the first call: generating the grid,
/// building the registries and the service, which on `service_revisit`
/// loads the on-disk store. Repeated [`SETUP_REPS`] times; returns the
/// median time and the last service built.
fn set_up(w: &Workload, files: Option<&StoreFiles>) -> Result<(f64, SweepService), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(files) = files {
            std::fs::copy(&files.pristine, &files.working).map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        let grid = Workload::new(w.kind, w.seed);
        let registries = (
            WilisSystem::new(),
            channel_registry(),
            link_registry(),
            contention_registry(),
        );
        let store = match files {
            Some(files) => ResultStore::at_path(&files.working),
            None => ResultStore::in_memory(),
        };
        let service = SweepService::with_store(SweepRunner::new(THREADS), store);
        std::hint::black_box((&grid, &registries));
        times.push(t.elapsed().as_secs_f64());
        last = Some(service);
    }
    let service = last.ok_or("no set-up repetitions")?;
    Ok((median(&times).unwrap_or(0.0), service))
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

fn call_latency(calls: &[Call], what: &str) -> (Metric, Metric) {
    let walls = sorted(&calls.iter().map(|c| c.wall_s * 1e3).collect::<Vec<_>>());
    let p50 = percentile(&walls, 0.5).expect("at least one call");
    let p99 = percentile(&walls, 0.99).expect("at least one call");
    println!(
        "{what}: {} calls, p50 {:.4} ms, p99 {:.4} ms ({} beyond p99{})",
        walls.len(),
        p50.value,
        p99.value,
        p99.beyond,
        if p99.resolved() {
            ""
        } else {
            "; too few calls, p99 is the top of the sample"
        }
    );
    (
        Metric::new("call_p50_ms", p50.value, "ms"),
        Metric::new("call_p99_ms", p99.value, "ms"),
    )
}

fn run(args: &Args, dir: &RunDir, gate: &mut Gate) -> Result<Outcome, String> {
    let w = Workload::new(args.kind, args.seed);
    let revisit = w.kind == Kind::ServiceRevisit;
    let files = revisit.then(|| StoreFiles {
        pristine: dir.0.join("store-pristine.jsonl"),
        working: dir.0.join("store.jsonl"),
    });
    let stored = match &files {
        Some(files) => {
            let mut service = SweepService::with_store(
                SweepRunner::new(THREADS),
                ResultStore::at_path(&files.pristine),
            );
            Some(service.run(&w.grid).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    // Set-up is timed first, before the reference run fills the heap.
    let (setup_s, service) = set_up(&w, files.as_ref())?;

    let t = Instant::now();
    let reference_of =
        |points: &[Scenario]| SweepRunner::new(1).run(points).map_err(|e| e.to_string());
    let reference = reference_of(&w.grid)?;
    let mut fresh_reference = if revisit {
        reference_of(
            &(0..EPOCH_CALLS)
                .map(|k| w.fresh_point(k))
                .collect::<Vec<_>>(),
        )?
    } else {
        Vec::new()
    };
    for r in &mut fresh_reference {
        // A new point follows the stored grid in its call.
        r.scenario = w.grid.len();
    }
    let mut all = reference.clone();
    all.extend(fresh_reference.iter().cloned());
    println!(
        "workload {} seed {}: {} points ({} more in new-point calls), 1-thread reference in {:.3} s, \
         statistics digest {:016x}",
        w.kind.name(),
        w.seed,
        w.grid.len(),
        fresh_reference.len(),
        t.elapsed().as_secs_f64(),
        digest(&all)
    );
    if let Some(stored) = stored {
        gate.check(stored == reference, || {
            "pre-populated results differ from the reference".into()
        });
        let loaded = service.store().loaded();
        gate.check(loaded == w.grid.len() as u64, || {
            format!("store loaded {loaded} of {} records", w.grid.len())
        });
    }
    let mut client = Client {
        w: &w,
        reference: &reference,
        store: files.map(|f| (f, service)),
        fresh_reference,
        requested: w.grid.clone(),
        next_call: 0,
    };
    // One untimed call, so lazy allocations and page faults are behind us.
    let warm = client.call(gate, None)?;

    let mut metrics = Vec::new();
    let calls;
    if args.trace {
        let mut tracer = Tracer::new();
        calls = client.calls_for(args.seconds / 2.0, gate, Some(&mut tracer))?;
        let wall = |traced: bool| {
            let v: Vec<f64> = calls
                .iter()
                .filter(|c| c.traced == traced)
                .map(|c| c.wall_s)
                .collect();
            median(&v).unwrap_or(f64::NAN)
        };
        let (hits, misses) = calls
            .iter()
            .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses));
        let (layer_metrics, replay) =
            layers::measure(&w, &reference, args.seconds / 2.0, &dir.0, gate)?;
        metrics.extend(layer_metrics);
        metrics.push(Metric::new(
            "service.hit_frac",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ));
        metrics.push(Metric::new(
            "trace.overhead_frac",
            wall(true) / wall(false) - 1.0,
            "ratio",
        ));
        let stem = Path::new(OUT_DIR).join(format!("trace-{}-{}", w.kind.name(), w.seed));
        for (spans, part) in [(tracer.spans(), "calls"), (replay.spans(), "replay")] {
            let path = stem.with_extension(format!("{part}.jsonl"));
            trace::write_jsonl(spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        println!("spans written to {}.{{calls,replay}}.jsonl", stem.display());
    } else {
        calls = client.calls_for(args.seconds, gate, None)?;
        let (p50, p99) = call_latency(&calls, w.kind.name());
        let simulated: u64 = calls.iter().map(|c| c.simulated).sum();
        let delivered: Vec<f64> = calls.iter().map(|c| c.delivered as f64).collect();
        let walls: Vec<f64> = calls.iter().map(|c| c.wall_s).collect();
        println!(
            "{} packets delivered ({simulated} simulated) in {:.3} s of calls",
            delivered.iter().sum::<f64>(),
            walls.iter().sum::<f64>()
        );
        // Packets over wall time in each tenth of the run, median tenth:
        // totals average the host's speed swings within a window, and the
        // median keeps a burst of contention in one window from setting
        // the figure.
        let packets_per_s = windowed_rate(&delivered, &walls, w.cycle(), RATE_WINDOWS)
            .ok_or("too few calls for a packet rate")?;
        let attempted: u64 = calls.iter().map(|c| c.points).sum();
        let failed: u64 = calls.iter().map(|c| c.failed).sum();
        metrics.push(Metric::new("packets_per_s", packets_per_s, "1/s"));
        metrics.push(p50);
        metrics.push(p99);
        metrics.push(Metric::new("setup_s", setup_s, "s"));
        metrics.push(Metric::new(
            "peak_rss_mb",
            peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
        ));
        metrics.push(Metric::new(
            "completed_frac",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "ratio",
        ));
    }
    let attempted = warm.points + calls.iter().map(|c| c.points).sum::<u64>();
    let failed = warm.failed + calls.iter().map(|c| c.failed).sum::<u64>();
    Ok(Outcome {
        metrics,
        attempted,
        failed,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = match RunDir::create() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
            std::process::exit(2);
        }
    };
    let mut gate = Gate::default();
    let outcome = match run(&args, &dir, &mut gate) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            drop(dir);
            std::process::exit(1);
        }
    };
    for m in &outcome.metrics {
        gate.check(m.value.is_finite(), || {
            format!("{} is not a finite number", m.name)
        });
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", host_block());
    println!(
        "{}",
        result_json(
            gate.passed(),
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    drop(dir);
    if !gate.passed() {
        std::process::exit(1);
    }
}
