//! The traced run's per-layer figures.
//!
//! Every figure comes from timing calls into a layer's public functions
//! from here; nothing inside the library is instrumented.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use wilis::fec::MAX_BATCH_LANES;
use wilis::fxp::rng::mix_seed;
use wilis::phy::PhyRate;
use wilis::{ResultStore, Scenario, ScenarioResult, SweepGrid, SweepRunner, SweepService};

use crate::replay::{time_decode_paths, Counts, Replayer};
use crate::report::Metric;
use crate::stats::median;
use crate::trace::{totals_by_name, Span, Tracer};
use crate::workload::Workload;
use crate::{Gate, THREADS};

/// The layers a replayed packet passes through, by span name prefix.
const LAYERS: [&str; 6] = ["tx", "channel", "rx_front", "decode", "softphy", "link"];
/// Decoders with their own per-packet decode figure.
const DECODERS: [&str; 3] = ["viterbi", "sova", "bcjr"];
/// The stage-share table: rate and decoder pairs replayed at 12 dB AWGN.
const STAGE_TABLE: [(&str, PhyRate, &str); 4] = [
    ("bpsk12_viterbi", PhyRate::BpskHalf, "viterbi"),
    ("qam64_34_viterbi", PhyRate::Qam64ThreeQuarters, "viterbi"),
    ("bpsk12_bcjr", PhyRate::BpskHalf, "bcjr"),
    ("qam64_34_bcjr", PhyRate::Qam64ThreeQuarters, "bcjr"),
];
const STAGE_LAYERS: [&str; 4] = ["tx", "channel", "rx_front", "decode"];
const STAGE_PACKETS: u32 = 64;
const STAGE_PASSES: usize = 3;
/// Repetitions of each whole-grid runner timing.
const RUNNER_REPS: usize = 3;
/// Repetitions of the one-packet runner call behind `runner.fixed_ms`.
const FIXED_REPS: usize = 31;
/// Repetitions of each decode-path timing.
const DECODE_REPS: usize = 5;
/// Store records probed: the workload's results, repeated under distinct
/// seeds up to this count, so per-record costs outweigh per-file ones.
const PROBE_RECORDS: usize = 480;
const STORE_REPS: usize = 5;

/// Layer times of one replay pass.
struct Pass {
    packets: u64,
    packet_ns: u64,
    by_name: BTreeMap<&'static str, (u64, u64)>,
}

impl Pass {
    fn of(spans: &[Span]) -> Self {
        let packets = spans.iter().filter(|s| s.name == "packet");
        Self {
            packets: packets.clone().count() as u64,
            packet_ns: packets.map(|s| s.end_ns - s.start_ns).sum(),
            by_name: totals_by_name(spans),
        }
    }

    /// Self time of `layer`, its sub-names (`decode.bcjr`) included.
    fn layer_ns(&self, layer: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(name, _)| {
                name.strip_prefix(layer)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
            .map(|(_, (ns, _))| ns)
            .sum()
    }

    fn share(&self, layer: &str) -> f64 {
        self.layer_ns(layer) as f64 / self.packet_ns.max(1) as f64
    }

    fn us_per_packet(&self, layer: &str) -> f64 {
        self.layer_ns(layer) as f64 / 1e3 / self.packets.max(1) as f64
    }

    /// Host time inside layer calls, excluding the replay's own
    /// bookkeeping.
    fn layer_sum_ns(&self) -> u64 {
        LAYERS.iter().map(|l| self.layer_ns(l)).sum()
    }

    fn figures(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for layer in ["tx", "channel", "rx_front"] {
            out.push(Metric::new(
                format!("{layer}.us_per_packet"),
                self.us_per_packet(layer),
                "us",
            ));
            out.push(Metric::new(
                format!("{layer}.share"),
                self.share(layer),
                "ratio",
            ));
        }
        out.push(Metric::new("decode.share", self.share("decode"), "ratio"));
        out.push(Metric::new(
            "softphy.us_per_packet",
            self.us_per_packet("softphy"),
            "us",
        ));
        out
    }
}

/// Element-wise medians of equally shaped metric lists.
fn median_metrics(runs: &[Vec<Metric>]) -> Vec<Metric> {
    runs[0]
        .iter()
        .enumerate()
        .map(|(k, m)| {
            let values: Vec<f64> = runs.iter().map(|r| r[k].value).collect();
            Metric::new(m.name.clone(), median(&values).unwrap_or(0.0), m.unit)
        })
        .collect()
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// `results` equal `want`, ignoring the submission index, which a
/// sub-grid renumbers.
fn same_results(results: &[ScenarioResult], want: &[ScenarioResult]) -> bool {
    results.len() == want.len()
        && results.iter().zip(want).all(|(r, w)| {
            let mut w = w.clone();
            w.scenario = r.scenario;
            *r == w
        })
}

/// Measures every per-layer figure of workload `w`, whose 1-thread
/// runner results are `reference`. Replay passes repeat for about
/// `seconds`. Returns the figures and the spans of the first pass.
///
/// # Errors
///
/// A registry or runner error; mismatches go to `gate` instead.
pub fn measure(
    w: &Workload,
    reference: &[ScenarioResult],
    seconds: f64,
    dir: &Path,
    gate: &mut Gate,
) -> Result<(Vec<Metric>, Tracer), String> {
    let replayer = Replayer::new();
    let p2p: Vec<usize> = (0..w.grid.len())
        .filter(|&i| w.grid[i].contention == "p2p")
        .collect();
    let mut out = Vec::new();

    // Replay every point-to-point point, pass after pass.
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first: Option<Tracer> = None;
    while passes.is_empty() || secs(start) < seconds {
        let mut tr = Tracer::new();
        for &i in &p2p {
            tr.set_call(i as u64);
            let counts = replayer
                .replay(&w.grid[i], &mut tr)
                .map_err(|e| e.to_string())?;
            let want = Counts::of(&reference[i]);
            gate.check(counts == want, || {
                format!("replay of point {i} gave {counts:?}, the runner {want:?}")
            });
        }
        passes.push(Pass::of(tr.spans()));
        first.get_or_insert(tr);
    }
    out.extend(median_metrics(
        &passes.iter().map(Pass::figures).collect::<Vec<_>>(),
    ));
    let layer_s = med(&passes
        .iter()
        .map(|p| p.layer_sum_ns() as f64 / 1e9)
        .collect::<Vec<_>>());

    // The stage-share table at 12 dB.
    for (label, rate, decoder) in STAGE_TABLE {
        let sc = SweepGrid::new()
            .rates(&[rate])
            .decoders(&[decoder])
            .snrs_db(&[12.0])
            .seeds(&[mix_seed(w.seed, 3)])
            .packets(STAGE_PACKETS)
            .payload_bits(1704)
            .scenarios()
            .swap_remove(0);
        let mut runs = Vec::new();
        for _ in 0..STAGE_PASSES {
            let mut tr = Tracer::new();
            replayer.replay(&sc, &mut tr).map_err(|e| e.to_string())?;
            let pass = Pass::of(tr.spans());
            runs.push(
                STAGE_LAYERS
                    .iter()
                    .map(|l| {
                        Metric::new(format!("stage.{label}.{l}.share"), pass.share(l), "ratio")
                    })
                    .collect(),
            );
        }
        out.extend(median_metrics(&runs));
    }

    // Each decoder, scalar and batched, on the same planes: the first
    // packets of the workload's first point at each of its rates.
    let mut rates: Vec<&Scenario> = Vec::new();
    for &i in &p2p {
        if !rates.iter().any(|c| c.rate == w.grid[i].rate) {
            rates.push(&w.grid[i]);
        }
    }
    let (mut scalar, mut batch, mut batch1) = (0.0, 0.0, 0.0);
    for d in DECODERS {
        let mut per_packet = 0.0;
        for sc in &rates {
            let mut sc = (*sc).clone();
            sc.decoder = d.to_string();
            let (mut rx, planes, scrambles) = replayer
                .planes(&sc, MAX_BATCH_LANES as u32)
                .map_err(|e| e.to_string())?;
            match time_decode_paths(&mut rx, &planes, &scrambles, sc.payload_bits, DECODE_REPS) {
                Ok(t) => {
                    per_packet += t.scalar_ns / planes.len() as f64;
                    scalar += t.scalar_ns;
                    batch += t.batch_ns;
                    batch1 += t.batch1_ns;
                }
                Err(e) => gate.fail(format!("{}: {e}", sc.label())),
            }
        }
        out.push(Metric::new(
            format!("decode.{d}.us_per_packet"),
            per_packet / 1e3 / rates.len() as f64,
            "us",
        ));
    }
    out.push(Metric::new(
        "decode.batch8_over_scalar",
        batch / scalar,
        "ratio",
    ));
    out.push(Metric::new(
        "decode.batch1_over_scalar",
        batch1 / scalar,
        "ratio",
    ));

    // Link-policy observation; a workload without links is probed with
    // its first point under stock ARQ.
    let link_us = if p2p.iter().any(|&i| w.grid[i].link != "none") {
        med(&passes
            .iter()
            .map(|p| p.us_per_packet("link"))
            .collect::<Vec<_>>())
    } else {
        let mut probe = w.grid[p2p[0]].clone();
        probe.link = "arq".into();
        let mut tr = Tracer::new();
        replayer
            .replay(&probe, &mut tr)
            .map_err(|e| e.to_string())?;
        Pass::of(tr.spans()).us_per_packet("link")
    };
    out.push(Metric::new("link.us_per_packet", link_us, "us"));

    // Link layer counts.
    let (mut attempts, mut closed, mut recovered, mut delivered) = (0u64, 0u64, 0u64, 0u64);
    for (sc, r) in w.grid.iter().zip(reference) {
        if let (true, Some(link)) = (sc.link.starts_with("harq"), &r.link) {
            for (k, &n) in link.attempts_hist.iter().enumerate() {
                attempts += (k as u64 + 1) * n;
                closed += n;
            }
            recovered += link.recovered;
            delivered += link.delivered;
        }
    }
    out.push(Metric::new(
        "harq.attempts_per_packet",
        attempts as f64 / closed.max(1) as f64,
        "count",
    ));
    out.push(Metric::new(
        "harq.recovered_fraction",
        recovered as f64 / delivered.max(1) as f64,
        "ratio",
    ));

    // The cell sub-grid through the runner; a workload without cells is
    // probed with its first point as a 4-node, 48-slot ALOHA cell.
    let cells: Vec<usize> = (0..w.grid.len()).filter(|i| !p2p.contains(i)).collect();
    let (grid, want): (Vec<Scenario>, Vec<ScenarioResult>) = if cells.is_empty() {
        let mut probe = w.grid[p2p[0]].clone();
        probe.contention = "aloha".into();
        probe.nodes = 4;
        probe.packets = 48;
        let want = SweepRunner::new(1)
            .run(std::slice::from_ref(&probe))
            .map_err(|e| e.to_string())?;
        (vec![probe], want)
    } else {
        (
            cells.iter().map(|&i| w.grid[i].clone()).collect(),
            cells.iter().map(|&i| reference[i].clone()).collect(),
        )
    };
    let mut walls = Vec::new();
    for _ in 0..RUNNER_REPS {
        let t = Instant::now();
        let got = SweepRunner::new(1).run(&grid).map_err(|e| e.to_string())?;
        walls.push(secs(t));
        gate.check(same_results(&got, &want), || {
            "cell sub-grid differs from the reference".into()
        });
    }
    let metrics: Vec<_> = want.iter().filter_map(|r| r.cell.as_ref()).collect();
    let tries: u64 = metrics.iter().map(|c| c.attempts()).sum();
    let ok: u64 = metrics
        .iter()
        .flat_map(|c| &c.per_node)
        .map(|n| n.delivered)
        .sum();
    out.push(Metric::new(
        "cell.useful_frac",
        ok as f64 / tries.max(1) as f64,
        "ratio",
    ));
    out.push(Metric::new(
        "cell.us_per_attempt",
        med(&walls) * 1e6 / tries.max(1) as f64,
        "us",
    ));

    out.extend(runner_figures(
        w, reference, &p2p, layer_s, &replayer, gate,
    )?);
    out.extend(store_figures(w, reference, dir, gate));
    Ok((out, first.unwrap_or_else(Tracer::new)))
}

/// The runner's own costs: fixed per-call time, thread scaling,
/// stragglers, and what fusing points saves over solo replay.
fn runner_figures(
    w: &Workload,
    reference: &[ScenarioResult],
    p2p: &[usize],
    layer_s: f64,
    replayer: &Replayer,
    gate: &mut Gate,
) -> Result<Vec<Metric>, String> {
    let n = w.grid.len();
    let (mut t1, mut t2, mut straggle) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..RUNNER_REPS {
        let t = Instant::now();
        let got = SweepRunner::new(1)
            .run(&w.grid)
            .map_err(|e| e.to_string())?;
        t1.push(secs(t));
        gate.check(got == reference, || {
            "1-thread runner differs from the reference".into()
        });

        let mut done: Vec<f64> = Vec::with_capacity(n);
        let mut slots: Vec<Option<ScenarioResult>> = vec![None; n];
        let t = Instant::now();
        SweepRunner::new(THREADS)
            .run_streaming(&w.grid, |i, r| {
                done.push(secs(t));
                slots[i] = Some(r);
            })
            .map_err(|e| e.to_string())?;
        let wall = secs(t);
        t2.push(wall);
        done.sort_by(f64::total_cmp);
        let tail_from = n
            .checked_sub(THREADS)
            .and_then(|k| k.checked_sub(1))
            .map_or(0.0, |k| done[k]);
        straggle.push((wall - tail_from) / wall);
        let same = slots
            .iter()
            .zip(reference)
            .all(|(s, r)| s.as_ref() == Some(r));
        gate.check(same, || {
            format!("{THREADS}-thread runner differs from the reference")
        });
    }

    // The 1-thread wall of just the replayed points.
    let t1_p2p = if p2p.len() == n {
        med(&t1)
    } else {
        let grid: Vec<Scenario> = p2p.iter().map(|&i| w.grid[i].clone()).collect();
        let mut walls = Vec::new();
        for _ in 0..RUNNER_REPS {
            let t = Instant::now();
            SweepRunner::new(1).run(&grid).map_err(|e| e.to_string())?;
            walls.push(secs(t));
        }
        med(&walls)
    };

    // One point, one packet: the runner's wall minus that packet's
    // layer time.
    let mut one = w.grid[p2p[0]].clone();
    one.packets = 1;
    let (mut run_s, mut layers_s) = (Vec::new(), Vec::new());
    let runner = SweepRunner::new(THREADS);
    for _ in 0..FIXED_REPS {
        let t = Instant::now();
        let got = runner
            .run(std::slice::from_ref(&one))
            .map_err(|e| e.to_string())?;
        run_s.push(secs(t));
        let mut tr = Tracer::new();
        let counts = replayer.replay(&one, &mut tr).map_err(|e| e.to_string())?;
        layers_s.push(Pass::of(tr.spans()).layer_sum_ns() as f64 / 1e9);
        gate.check(counts == Counts::of(&got[0]), || {
            "one-packet replay differs from the runner".into()
        });
    }

    Ok(vec![
        Metric::new(
            "runner.fixed_ms",
            (med(&run_s) - med(&layers_s)) * 1e3,
            "ms",
        ),
        Metric::new("runner.t2_over_t1", med(&t2) / med(&t1), "ratio"),
        Metric::new("runner.straggler_frac", med(&straggle), "ratio"),
        Metric::new("runner.fusion_gain", layer_s / t1_p2p, "ratio"),
    ])
}

/// Per-operation costs of the result store and its keys.
fn store_figures(
    w: &Workload,
    reference: &[ScenarioResult],
    dir: &Path,
    gate: &mut Gate,
) -> Vec<Metric> {
    let service = SweepService::new(SweepRunner::new(THREADS));
    let mut records = Vec::new();
    for copy in 0.. {
        if records.len() >= PROBE_RECORDS.max(w.grid.len()) {
            break;
        }
        for (sc, r) in w.grid.iter().zip(reference) {
            let mut sc = sc.clone();
            if copy > 0 {
                sc.seed = mix_seed(sc.seed, copy);
            }
            records.push((service.key_for(&sc), r.clone()));
        }
    }
    let count = records.len() as f64;

    let (mut key, mut get, mut insert, mut load) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut memory = ResultStore::in_memory();
    for (k, r) in &records {
        memory.insert(k.clone(), r.clone());
    }
    let path = dir.join("store-probe.jsonl");
    let mut bytes_per_record = 0.0;
    for _ in 0..STORE_REPS {
        let t = Instant::now();
        for sc in &w.grid {
            std::hint::black_box(service.key_for(sc));
        }
        key.push(secs(t) * 1e6 / w.grid.len() as f64);

        let t = Instant::now();
        for (k, _) in &records {
            std::hint::black_box(memory.get(k).cloned());
        }
        get.push(secs(t) * 1e6 / count);

        let _ = std::fs::remove_file(&path);
        let mut disk = ResultStore::at_path(&path);
        let t = Instant::now();
        for (k, r) in &records {
            disk.insert(k.clone(), r.clone());
        }
        insert.push(secs(t) * 1e6 / count);
        bytes_per_record = disk.bytes_on_disk() as f64 / disk.len().max(1) as f64;

        let t = Instant::now();
        let loaded = ResultStore::at_path(&path);
        load.push(secs(t) * 1e3 * 1e3 / count);
        gate.check(
            loaded.len() == records.len() && loaded.skipped() == 0,
            || {
                format!(
                    "store probe reloaded {} of {} records",
                    loaded.len(),
                    records.len()
                )
            },
        );
    }
    let _ = std::fs::remove_file(&path);
    vec![
        Metric::new("store.key_us", med(&key), "us"),
        Metric::new("store.get_us", med(&get), "us"),
        Metric::new("store.insert_us", med(&insert), "us"),
        Metric::new("store.load_ms_per_krecord", med(&load), "ms"),
        Metric::new("store.bytes_per_record", bytes_per_record, "B"),
    ]
}
