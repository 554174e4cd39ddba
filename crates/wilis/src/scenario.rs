//! The batched scenario engine: Monte-Carlo grids over
//! (rate × decoder × channel × link × SNR × seed), executed across a
//! worker pool with chunk-seeded determinism.
//!
//! Every figure of the paper's evaluation is, at bottom, a grid of
//! independent transmit→channel→receive→decode trials. The paper spent
//! 10¹² FPGA bits on Figure 5 alone; this module is the software analog of
//! that throughput story: one [`Scenario`] describes one grid point, a
//! [`SweepGrid`] enumerates a whole grid, and a [`SweepRunner`] executes it
//! across threads — with results **bit-identical for any thread count**,
//! because every packet's randomness is a pure function of its scenario
//! seed and packet index (the same contract
//! [`wilis_channel::parallel::apply_awgn_parallel`] proves at the sample
//! level).
//!
//! The hot path is allocation-free in the steady state: each scenario
//! execution owns one [`PhyScratch`] and one reusable [`RxResult`],
//! reused across all of its packets, the decoders reuse their trellis
//! scratch, and channels are seed-addressed [`ChannelModel`]s — so
//! Monte-Carlo depth (packets per point) costs arithmetic, not the
//! allocator. Decoder construction shares one compiled trellis per
//! system ([`WilisSystem::compiled_ieee80211`]): the per-rate receiver
//! banks and the all-rates oracle reuse a single table lowering instead
//! of rebuilding decoder state per rate.
//!
//! Two packet bodies execute the grid, chosen by whether a point's next
//! packet depends on the last verdict. The *sequential* body runs
//! rate-adapting policies, HARQ attempt chains, and every cell
//! transmission one attempt at a time through one receive call; the
//! *batched* body runs everything else — PHY-only points and policies
//! that only observe — as lockstep packet blocks of shared-channel
//! groups, a plain point being a group of one.
//!
//! Redundant per-packet work is amortized *across* grid points too:
//! scenarios that share `(rate, channel, params, SNR, seed, packets,
//! payload)` and differ only in decoder or in a non-rate-adapting link
//! policy (see [`LinkPolicy::adapts_rate`]) are fused into one
//! shared-channel job — each packet is built, transmitted, and pushed
//! through the channel **once**, then received and decoded per member.
//! Because every member would have seen the identical realization solo
//! (randomness is a pure function of the scenario seed and packet index),
//! the fused results are bit-identical to the unfused ones, and the
//! determinism contract is untouched. Fusion never starves the worker
//! pool: when a grid collapses into fewer jobs than workers, the largest
//! groups are split until every worker has work.
//!
//! The **link dimension** puts the MAC layer on the grid: a scenario names
//! a [`LinkPolicy`] (resolved through [`link_registry`]; `"none"` keeps
//! the PHY-only behavior) that observes every packet — decisions, SoftPHY
//! hints, the CRC-equivalent ground truth — and accumulates
//! [`LinkMetrics`] per grid point. Rate-adapting policies (SoftRate)
//! steer the transmit rate through their verdicts, and policies that ask
//! for it get the Figure 7 oracle: every rate replayed against the
//! identical channel realization, which the seed-addressed
//! [`ChannelModel`] contract provides for free.
//!
//! The **cell dimension** makes the shared medium itself a grid axis: a
//! scenario names a [`ContentionPolicy`] (resolved through
//! [`contention_registry`]; `"p2p"` keeps today's point-to-point
//! behavior) and a node count, and the grid point becomes a *contention
//! cell* — N nodes running independent link sessions over one slotted
//! medium, with carrier sense, collisions, and physical-layer capture
//! ([`wilis_channel::resolve_slot`]). All N nodes execute inside one
//! fused worker job, so the shared realization of every slot is drawn
//! exactly once, and every draw is a pure function of
//! `(scenario seed, node, attempt)` through the same seed-addressed
//! [`ChannelModel`] registry — cell sweeps are bit-identical for any
//! thread count, like everything else on the grid. Cell scenarios
//! accumulate [`CellMetrics`] (aggregate goodput, Jain fairness index,
//! collision and idle fractions) alongside the per-node-merged link
//! metrics, and a 1-node cell is a *strict generalization*: it reproduces
//! the point-to-point path attempt for attempt, bit for bit.
//!
//! # Example
//!
//! ```
//! use wilis::scenario::{SweepGrid, SweepRunner};
//! use wilis::phy::PhyRate;
//!
//! let grid = SweepGrid::new()
//!     .rates(&[PhyRate::QpskHalf])
//!     .decoders(&["viterbi", "bcjr"])
//!     .snrs_db(&[6.0, 8.0])
//!     .packets(2)
//!     .payload_bits(400);
//! let results = SweepRunner::new(2).run(&grid.scenarios()).unwrap();
//! assert_eq!(results.len(), 4);
//! // Same grid, different thread count: bit-identical results.
//! let serial = SweepRunner::new(1).run(&grid.scenarios()).unwrap();
//! assert_eq!(results, serial);
//! ```

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use wilis_channel::{
    resolve_slot, AwgnChannel, AwgnModel, Channel, ChannelModel, FadingModel, ReplayModel,
    SlotOutcome, SnrDb, TraceModel, TxPower,
};
use wilis_fec::{CompiledTrellis, Llr, MAX_BATCH_LANES, MAX_HINT};
use wilis_fxp::rng::{mix_seed, SmallRng};
use wilis_fxp::Cplx;
use wilis_lis::registry::{Params, Registry, RegistryError};
use wilis_mac::cell::{
    BackoffState, CellMetrics, ContentionPolicy, CsmaBackoff, SlotView, SlottedAloha, TdmaOracle,
    TxDecision,
};
use wilis_mac::link::{LinkContext, LinkMetrics, LinkPolicy, LinkStatus, LinkVerdict, Oracle};
use wilis_mac::ppr::PprConfig;
use wilis_mac::{ArqLink, HarqConfig, HarqCore, HarqLink, PprLink, SoftRate, SoftRateLink};
use wilis_phy::{PhyRate, PhyScratch, Receiver, RxResult, Transmitter};
use wilis_softphy::{BerEstimator, DecoderKind, HintBin, ScalingFactors};

use crate::faults::{FaultInjector, FaultReport, FaultSite, PointOutcome, Quarantine};
use crate::supervisor;
use crate::{SystemConfig, WilisSystem};

/// A factory slot for seed-addressed channel models.
pub type ChannelSlot = Registry<Box<dyn ChannelModel>>;

/// A factory slot for link-layer policies.
pub type LinkSlot = Registry<Box<dyn LinkPolicy>>;

/// A factory slot for cell contention policies.
pub type ContentionSlot = Registry<Box<dyn ContentionPolicy>>;

/// The stock channel registry: `"awgn"` (param: `snr_db`), `"fading"`
/// (params: `snr_db`, `doppler_hz`), `"replay"` (params: `snr_db`,
/// `doppler_hz`, `base_seed`), and `"trace"` (params: `snr_db`,
/// `doppler_hz`, `base_seed`, `gap_secs`) — the time-coherent fading walk
/// protocol experiments like Figure 7 run on.
pub fn channel_registry() -> ChannelSlot {
    let mut reg: ChannelSlot = Registry::new("channel");
    reg.register("awgn", |p| {
        let snr = SnrDb::new(p.get_f64("snr_db").unwrap_or(10.0));
        Box::new(AwgnModel::new(snr))
    });
    reg.register("fading", |p| {
        let snr = SnrDb::new(p.get_f64("snr_db").unwrap_or(10.0));
        let doppler = p.get_f64("doppler_hz").unwrap_or(20.0);
        Box::new(FadingModel::new(snr, doppler))
    });
    reg.register("replay", |p| {
        let snr = SnrDb::new(p.get_f64("snr_db").unwrap_or(10.0));
        let doppler = p.get_f64("doppler_hz").unwrap_or(20.0);
        let base = p.get_u64("base_seed").unwrap_or(0xF17);
        Box::new(ReplayModel::new(snr, doppler, base))
    });
    reg.register("trace", |p| {
        let snr = SnrDb::new(p.get_f64("snr_db").unwrap_or(10.0));
        let doppler = p.get_f64("doppler_hz").unwrap_or(20.0);
        let base = p.get_u64("base_seed").unwrap_or(0xF17);
        let gap = p.get_f64("gap_secs").unwrap_or(0.5e-3);
        Box::new(TraceModel::new(snr, doppler, base, gap))
    });
    reg
}

/// The rate a link policy starts at, resolved from the engine-filled
/// `initial_rate_mbps` parameter.
fn link_param_rate(p: &Params) -> PhyRate {
    p.get_f64("initial_rate_mbps")
        .and_then(|m| PhyRate::all().iter().copied().find(|r| r.mbps() == m))
        .unwrap_or(PhyRate::Qam16Half)
}

/// The stock link-policy registry, mirroring [`channel_registry`]:
///
/// * `"arq"` — whole-packet stop-and-wait ARQ (param: `max_retries`),
/// * `"harq-cc"` — HARQ with Chase combining (params: `attempts`, the
///   total transmission budget per packet, and `combining` to disarm the
///   combiner — disarmed it degenerates to exactly `"arq"` with
///   `attempts - 1` retries),
/// * `"harq-ir"` — HARQ with incremental redundancy (params: `attempts`,
///   `combining`, and `ir_phases`, a comma-separated puncture-phase
///   schedule that must start at 0; defaults to the rate's
///   fastest-covering schedule),
/// * `"ppr"` — partial packet recovery (params: `chunk_bits`,
///   `hint_threshold`),
/// * `"softrate"` — PBER-threshold rate adaptation (params: `pber_lo` /
///   `pber_hi` to override the packet-size-derived band, `oracle` to
///   toggle the per-packet all-rates replay behind the Figure 7 tallies).
///
/// The engine fills in `payload_bits` and `initial_rate_mbps` from the
/// scenario at run time, exactly as it fills `snr_db` for channels. The
/// name `"none"` is reserved: it never reaches the registry and keeps a
/// scenario PHY-only.
///
/// Factories are infallible, so the HARQ factories never reject a bad
/// configuration themselves: [`HarqLink`] stores the problem and the
/// runner's preflight surfaces it as
/// [`RegistryError::invalid_config`] through
/// [`LinkPolicy::config_error`].
pub fn link_registry() -> LinkSlot {
    let mut reg: LinkSlot = Registry::new("link");
    reg.register("arq", |p| {
        let bits = p.get_u64("payload_bits").unwrap_or(1704).max(1);
        let retries = p.get_u64("max_retries").unwrap_or(4) as u32;
        Box::new(ArqLink::new(bits, retries))
    });
    reg.register("harq-cc", |p| {
        let bits = p.get_u64("payload_bits").unwrap_or(1704);
        let attempts = p.get_u64("attempts").unwrap_or(4) as u32;
        let combining = p.get_bool("combining").unwrap_or(true);
        let rate = link_param_rate(p).code_rate();
        let config = HarqConfig::chase(attempts).with_combining(combining);
        Box::new(HarqLink::new(bits, config, rate))
    });
    reg.register("harq-ir", |p| {
        let bits = p.get_u64("payload_bits").unwrap_or(1704);
        let attempts = p.get_u64("attempts").unwrap_or(4) as u32;
        let combining = p.get_bool("combining").unwrap_or(true);
        let rate = link_param_rate(p).code_rate();
        let schedule = match p.get("ir_phases") {
            None => HarqConfig::default_ir_schedule(rate),
            // An unparsable phase becomes usize::MAX — outside every mask
            // period, so validation rejects the schedule instead of the
            // factory panicking on user input.
            Some(s) => s
                .split(',')
                .map(|t| t.trim().parse::<usize>().unwrap_or(usize::MAX))
                .collect(),
        };
        let config = HarqConfig::incremental(attempts, schedule).with_combining(combining);
        Box::new(HarqLink::new(bits, config, rate))
    });
    reg.register("ppr", |p| {
        let chunk = p.get_u64("chunk_bits").unwrap_or(71).max(1) as usize;
        let threshold = p.get_u64("hint_threshold").unwrap_or(8) as u16;
        Box::new(PprLink::new(PprConfig::new(chunk, threshold)))
    });
    reg.register("softrate", |p| {
        let bits = p.get_u64("payload_bits").unwrap_or(1704).max(1) as usize;
        let initial = link_param_rate(p);
        let controller = match (p.get_f64("pber_lo"), p.get_f64("pber_hi")) {
            (Some(lo), Some(hi)) => SoftRate::with_thresholds(initial, lo, hi),
            _ => SoftRate::for_packet_bits(initial, bits),
        };
        let oracle = p.get_bool("oracle").unwrap_or(true);
        Box::new(SoftRateLink::new(controller, oracle))
    });
    reg
}

/// Default capture margin (dB) for contention cells: the strongest of
/// several overlapping arrivals survives iff its SINR clears this.
pub const DEFAULT_CAPTURE_DB: f64 = 10.0;

/// The stock contention-policy registry, third of the family after
/// [`channel_registry`] and [`link_registry`]:
///
/// * `"aloha"` — slotted ALOHA (param: `p`, per-slot transmit probability,
///   default 0.25 — set it near `1/nodes`),
/// * `"csma"` — carrier sense with binary exponential backoff (params:
///   `cw_min` default 2, `cw_max` default 64),
/// * `"tdma"` — the collision-free round-robin oracle (no params).
///
/// Two further parameters are consumed by the cell *engine* rather than
/// the policy factories: `load` (per-node packet-arrival probability per
/// slot; ≥ 1.0 — the default — means saturated queues) and `capture_db`
/// (the capture margin, default [`DEFAULT_CAPTURE_DB`]). The name
/// `"p2p"` is reserved: it never reaches the registry and keeps a
/// scenario point-to-point.
pub fn contention_registry() -> ContentionSlot {
    let mut reg: ContentionSlot = Registry::new("contention");
    reg.register("aloha", |p| {
        // Clamp like the csma factory clamps its windows: registries take
        // user strings, so out-of-range values degrade to the nearest
        // sane configuration instead of panicking mid-run.
        let prob = p
            .get_f64("p")
            .filter(|v| v.is_finite())
            .unwrap_or(0.25)
            .clamp(1e-6, 1.0);
        Box::new(SlottedAloha::new(prob))
    });
    reg.register("csma", |p| {
        let cw_min = p.get_u64("cw_min").unwrap_or(2).clamp(1, 1 << 20) as u32;
        let cw_max = p
            .get_u64("cw_max")
            .unwrap_or(64)
            .clamp(u64::from(cw_min), 1 << 20) as u32;
        Box::new(CsmaBackoff::new(cw_min, cw_max))
    });
    reg.register("tdma", |_| Box::new(TdmaOracle));
    reg
}

/// One point of a (rate × decoder × channel × link × SNR × seed) grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The PHY rate under test (the *initial* rate when a rate-adapting
    /// link policy is in force).
    pub rate: PhyRate,
    /// Decoder implementation name (resolved via [`WilisSystem`]'s
    /// registry: `"viterbi"`, `"sova"`, `"bcjr"`, or a user registration).
    pub decoder: String,
    /// Channel model name (resolved via [`channel_registry`]).
    pub channel: String,
    /// Extra channel parameters (`doppler_hz`, `base_seed`, …); `snr_db`
    /// is filled in from [`Scenario::snr_db`] at run time.
    pub channel_params: Params,
    /// Link policy name (resolved via [`link_registry`]); `"none"` keeps
    /// the scenario PHY-only.
    pub link: String,
    /// Extra link-policy parameters (`max_retries`, `hint_threshold`, …);
    /// `payload_bits` and `initial_rate_mbps` are filled in at run time.
    pub link_params: Params,
    /// Contention policy name (resolved via [`contention_registry`]);
    /// `"p2p"` keeps the scenario point-to-point.
    pub contention: String,
    /// Extra contention parameters (`p`, `cw_min`, plus the engine-level
    /// `load` and `capture_db`).
    pub contention_params: Params,
    /// Contending nodes when this scenario is a cell (`contention !=
    /// "p2p"`); ignored for point-to-point scenarios.
    pub nodes: u32,
    /// Operating SNR in dB.
    pub snr_db: f64,
    /// Scenario seed: all packet payloads and channel realizations derive
    /// from it deterministically.
    pub seed: u64,
    /// Monte-Carlo depth in packets.
    pub packets: u32,
    /// Payload bits per packet.
    pub payload_bits: usize,
}

impl Scenario {
    /// A human-readable grid-point label.
    pub fn label(&self) -> String {
        let link = if self.link == "none" {
            String::new()
        } else {
            format!(" {}", self.link)
        };
        let cell = if self.contention == "p2p" {
            String::new()
        } else {
            format!(" {} x{}", self.contention, self.nodes)
        };
        format!(
            "{} {} {}{}{} @{:.2}dB seed{}",
            self.rate.label(),
            self.decoder,
            self.channel,
            link,
            cell,
            self.snr_db,
            self.seed
        )
    }
}

/// Per-packet coordinates recorded when
/// [`SweepRunner::record_packet_stats`] is on (the Figure 6 scatter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketStat {
    /// PBER predicted from the SoftPHY hints (0 for hard decoders).
    pub predicted: f64,
    /// Ground-truth PBER (bit errors / payload bits).
    pub actual: f64,
}

/// The Monte-Carlo outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Index of the scenario within the submitted grid.
    pub scenario: usize,
    /// The grid-point label (see [`Scenario::label`]).
    pub label: String,
    /// Packets simulated.
    pub packets: u64,
    /// Packets with at least one payload bit error.
    pub packet_errors: u64,
    /// Payload bits simulated.
    pub bits: u64,
    /// Payload bits decoded incorrectly.
    pub bit_errors: u64,
    /// Per-hint statistics, index = hint value (0..=63) — the Figure 5
    /// binning.
    pub hint_bins: Vec<HintBin>,
    /// Sum of predicted per-packet BERs (mean = `/ packets`); 0 for hard
    /// decoders.
    pub predicted_pber_sum: f64,
    /// Per-packet scatter points, populated only when the runner records
    /// packet stats.
    pub packet_stats: Vec<PacketStat>,
    /// Link-layer metrics accumulated by the scenario's [`LinkPolicy`];
    /// `None` for PHY-only (`link == "none"`) scenarios. For a cell, the
    /// per-node sessions merged.
    pub link: Option<LinkMetrics>,
    /// Shared-medium metrics of a contention cell; `None` for
    /// point-to-point (`contention == "p2p"`) scenarios. For cells, the
    /// PHY-level fields above (`packets`, `bits`, `hint_bins`, …) cover
    /// only the transmissions that survived the medium and reached the
    /// receiver — collided attempts are accounted here.
    pub cell: Option<CellMetrics>,
}

impl ScenarioResult {
    /// Overall payload bit error rate.
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.bits as f64
        }
    }

    /// Packet error (loss) rate.
    pub fn per(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.packet_errors as f64 / self.packets as f64
        }
    }

    /// Mean predicted per-packet BER across the run.
    pub fn mean_predicted_pber(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.predicted_pber_sum / self.packets as f64
        }
    }
}

/// A builder enumerating the cartesian product of a sweep's axes.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    rates: Vec<PhyRate>,
    decoders: Vec<String>,
    channels: Vec<String>,
    links: Vec<String>,
    contentions: Vec<String>,
    nodes: u32,
    snrs_db: Vec<f64>,
    seeds: Vec<u64>,
    packets: u32,
    payload_bits: usize,
    channel_params: Params,
    link_params: Params,
    contention_params: Params,
}

impl SweepGrid {
    /// A single-point grid at the paper's Figure 6 operating point
    /// (QAM-16 1/2, BCJR, AWGN, 8 dB, 1704-bit packets); every axis can be
    /// widened from here.
    pub fn new() -> Self {
        Self {
            rates: vec![PhyRate::Qam16Half],
            decoders: vec!["bcjr".to_string()],
            channels: vec!["awgn".to_string()],
            links: vec!["none".to_string()],
            contentions: vec!["p2p".to_string()],
            nodes: 4,
            snrs_db: vec![8.0],
            seeds: vec![1],
            packets: 8,
            payload_bits: 1704,
            channel_params: Params::new(),
            link_params: Params::new(),
            contention_params: Params::new(),
        }
    }

    /// Sets the PHY-rate axis.
    pub fn rates(mut self, rates: &[PhyRate]) -> Self {
        self.rates = rates.to_vec();
        self
    }

    /// Sets the decoder axis (registry names).
    pub fn decoders(mut self, names: &[&str]) -> Self {
        self.decoders = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Sets the channel-model axis (registry names).
    pub fn channels(mut self, names: &[&str]) -> Self {
        self.channels = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Sets the link-policy axis (registry names plus the reserved
    /// `"none"` for PHY-only points).
    pub fn links(mut self, names: &[&str]) -> Self {
        self.links = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Sets the contention axis (registry names plus the reserved
    /// `"p2p"` for point-to-point points). Non-`"p2p"` entries turn the
    /// grid point into an N-node cell — see [`SweepGrid::nodes`].
    pub fn contentions(mut self, names: &[&str]) -> Self {
        self.contentions = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Sets the number of contending nodes for cell grid points.
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.nodes = nodes;
        self
    }

    /// Sets the SNR axis in dB.
    pub fn snrs_db(mut self, snrs: &[f64]) -> Self {
        self.snrs_db = snrs.to_vec();
        self
    }

    /// Sets the seed axis (independent Monte-Carlo replicas).
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Sets the Monte-Carlo depth per grid point, in packets.
    pub fn packets(mut self, packets: u32) -> Self {
        self.packets = packets;
        self
    }

    /// Sets the payload size per packet, in bits.
    pub fn payload_bits(mut self, bits: usize) -> Self {
        self.payload_bits = bits;
        self
    }

    /// Sets an extra channel parameter forwarded to the model factory
    /// (e.g. `doppler_hz`).
    pub fn channel_param(mut self, key: &str, value: &str) -> Self {
        self.channel_params.set(key, value);
        self
    }

    /// Sets an extra link-policy parameter forwarded to the policy factory
    /// (e.g. `hint_threshold`); policies ignore keys they do not use.
    pub fn link_param(mut self, key: &str, value: &str) -> Self {
        self.link_params.set(key, value);
        self
    }

    /// Sets an extra contention parameter (`p`, `cw_min`, `load`,
    /// `capture_db`, …); policies and the cell engine ignore keys they do
    /// not use.
    pub fn contention_param(mut self, key: &str, value: &str) -> Self {
        self.contention_params.set(key, value);
        self
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.rates.len()
            * self.decoders.len()
            * self.channels.len()
            * self.links.len()
            * self.contentions.len()
            * self.snrs_db.len()
            * self.seeds.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the grid points (rate-major, seed-minor).
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        for &rate in &self.rates {
            for decoder in &self.decoders {
                for channel in &self.channels {
                    for link in &self.links {
                        for contention in &self.contentions {
                            for &snr_db in &self.snrs_db {
                                for &seed in &self.seeds {
                                    out.push(Scenario {
                                        rate,
                                        decoder: decoder.clone(),
                                        channel: channel.clone(),
                                        channel_params: self.channel_params.clone(),
                                        link: link.clone(),
                                        link_params: self.link_params.clone(),
                                        contention: contention.clone(),
                                        contention_params: self.contention_params.clone(),
                                        nodes: self.nodes,
                                        snr_db,
                                        seed,
                                        packets: self.packets,
                                        payload_bits: self.payload_bits,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

impl Default for SweepGrid {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything a worker needs to execute scenarios: the system (decoder
/// registry) plus the three sweep-axis registries.
pub type SweepEnv = (WilisSystem, ChannelSlot, LinkSlot, ContentionSlot);

type EnvFactory = dyn Fn() -> SweepEnv + Send + Sync;

/// One unit of worker-pool work: a lone scenario, or a set of scenarios
/// sharing a single transmit + channel realization per packet.
#[derive(Debug, Clone)]
enum Job {
    /// A scenario on the sequential body: a contention cell, a link
    /// policy that steers the rate or combines attempts, or a point with
    /// a scheduled injected panic.
    Solo(usize),
    /// Scenarios sharing `(rate, channel, params, snr, seed, packets,
    /// payload)` — one channel realization serves every member.
    Shared(Vec<usize>),
}

/// The typed shared-channel coordinate two scenarios must agree on, field
/// for field, to fuse into one [`Job::Shared`]: rate, channel name and
/// parameters, SNR (as bits — NaN-safe exact equality), seed, packet
/// budget, payload size. A structured tuple rather than a formatted
/// string, so free-form registry names can never collide into one key.
type GroupKey = (PhyRate, String, Params, u64, u64, u32, usize);

/// The link-policy parameters as the engine fills them in at run time:
/// the grid's own parameters plus `payload_bits` and `initial_rate_mbps`
/// from the scenario. One definition shared by eligibility probing, the
/// solo path, and the fused path, so a future run-time parameter cannot
/// be added to one and missed in another.
fn runtime_link_params(sc: &Scenario) -> Params {
    let mut link_params = sc.link_params.clone();
    link_params.set("payload_bits", &format!("{}", sc.payload_bits.max(1)));
    link_params.set("initial_rate_mbps", &format!("{}", sc.rate.mbps()));
    link_params
}

/// Which Monte-Carlo estimate a [`StoppingRule`] watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StopMetric {
    /// The payload bit-error rate — trials are received payload bits.
    Ber,
    /// The packet-error rate — trials are received packets.
    Per,
}

/// Confidence-driven sequential stopping for Monte-Carlo grid points.
///
/// A point runs packets in chunks of `chunk_packets`; at each chunk
/// boundary the Wilson score interval of the watched error rate is
/// evaluated, and the point stops as soon as the interval half-width
/// closes below `target_half_width` — or at the scenario's `packets`
/// budget, whichever comes first. The budget is the hard cap: a point
/// whose interval never closes (e.g. BER pinned near 0.5 deep in the
/// waterfall) runs exactly the packets it would have run without a rule.
///
/// Determinism: the decision at a boundary is a pure function of the
/// integer error/trial counters accumulated so far, which are themselves
/// pure functions of `(scenario seed, packet index)`. The chunk schedule
/// therefore never depends on thread count, on co-scheduled grid points,
/// or on whether earlier points came from a warm cache — the bit-identity
/// contract of [`SweepRunner`] survives intact. In a fused shared-channel
/// job each member applies its *own* rule to its *own* tally and simply
/// stops observing at its stop point, so fused results remain
/// bit-identical to solo runs.
///
/// The sequential body evaluates the boundary on *logical* packets (the
/// seed schedule axis) while the interval uses the attempt-level tally
/// that [`ScenarioResult::packets`] reports; the two coincide except for
/// combining HARQ policies, whose packets may take several attempts.
/// Contention cells ignore stopping rules: a cell's slot budget is the
/// workload definition, not a Monte-Carlo depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingRule {
    /// The estimate whose confidence interval drives stopping.
    pub metric: StopMetric,
    /// Stop once the Wilson half-width is at or below this.
    pub target_half_width: f64,
    /// The normal quantile of the interval (1.96 ≈ 95% confidence).
    pub z: f64,
    /// Packets per chunk between boundary checks.
    pub chunk_packets: u32,
}

impl StoppingRule {
    /// A BER-watching rule at 95% confidence with the default chunk size.
    pub fn ber(target_half_width: f64) -> Self {
        Self {
            metric: StopMetric::Ber,
            target_half_width,
            z: 1.96,
            chunk_packets: 32,
        }
    }

    /// A PER-watching rule at 95% confidence with the default chunk size.
    pub fn per(target_half_width: f64) -> Self {
        Self {
            metric: StopMetric::Per,
            ..Self::ber(target_half_width)
        }
    }

    /// Replaces the confidence quantile.
    pub fn with_z(mut self, z: f64) -> Self {
        self.z = z;
        self
    }

    /// Replaces the chunk size.
    pub fn with_chunk(mut self, packets: u32) -> Self {
        self.chunk_packets = packets;
        self
    }

    /// The Wilson score interval half-width for `errors` successes in
    /// `trials` Bernoulli trials at quantile `z`. Returns `f64::INFINITY`
    /// for zero trials, so a rule can never stop before observing data.
    pub fn wilson_half_width(errors: u64, trials: u64, z: f64) -> f64 {
        if trials == 0 {
            return f64::INFINITY;
        }
        let n = trials as f64;
        let p = errors as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt()
    }

    fn validate(&self) -> Result<(), RegistryError> {
        // is_finite() also rejects NaN, which every comparison below
        // would otherwise wave through.
        if !self.target_half_width.is_finite() || self.target_half_width <= 0.0 {
            return Err(RegistryError::invalid_config(format!(
                "stopping rule target_half_width must be positive and finite, got {}",
                self.target_half_width
            )));
        }
        if !self.z.is_finite() || self.z <= 0.0 {
            return Err(RegistryError::invalid_config(format!(
                "stopping rule z must be positive and finite, got {}",
                self.z
            )));
        }
        if self.chunk_packets == 0 {
            return Err(RegistryError::invalid_config(
                "stopping rule chunk_packets must be at least 1",
            ));
        }
        Ok(())
    }

    /// True when `packets_done` received packets land on a chunk
    /// boundary — the only points where a stop decision may be taken.
    fn is_boundary(&self, packets_done: u64) -> bool {
        packets_done > 0 && packets_done % u64::from(self.chunk_packets) == 0
    }

    /// True when the watched interval has closed, given the tally after
    /// `receives` received packets of `payload_bits` each.
    fn closed(&self, tally: &PacketTally, receives: u64, payload_bits: usize) -> bool {
        let (errors, trials) = match self.metric {
            StopMetric::Ber => (tally.bit_errors, receives * payload_bits as u64),
            StopMetric::Per => (tally.packet_errors, receives),
        };
        Self::wilson_half_width(errors, trials, self.z) <= self.target_half_width
    }
}

/// Executes scenario grids across a worker pool.
///
/// Determinism contract: scenario `i` of a grid always produces the same
/// [`ScenarioResult`], regardless of `threads`, because all of its
/// randomness derives from `(scenario.seed, packet index)` and workers
/// never share mutable state. Scenarios are dealt round-robin so long and
/// short points interleave across workers.
pub struct SweepRunner {
    threads: usize,
    record_packet_stats: bool,
    stopping: Option<StoppingRule>,
    env: Arc<EnvFactory>,
    faults: Option<FaultInjector>,
}

impl Clone for SweepRunner {
    fn clone(&self) -> Self {
        Self {
            threads: self.threads,
            record_packet_stats: self.record_packet_stats,
            stopping: self.stopping,
            env: Arc::clone(&self.env),
            faults: self.faults.clone(),
        }
    }
}

/// The return value of [`SweepRunner::run_supervised`]: one typed
/// outcome per grid point (in submission order) plus the run's
/// [`FaultReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedSweep {
    /// One outcome per submitted scenario, in submission order.
    pub outcomes: Vec<PointOutcome>,
    /// What the fault layer observed (quarantines, injected panics).
    pub report: FaultReport,
}

impl SupervisedSweep {
    /// The completed results, paired with their grid indices — the
    /// partial-result view over a faulted run.
    pub fn completed(&self) -> impl Iterator<Item = (usize, &ScenarioResult)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.result().map(|r| (i, r)))
    }
}

impl SweepRunner {
    /// A runner with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        Self {
            threads,
            record_packet_stats: false,
            stopping: None,
            env: Arc::new(|| {
                (
                    WilisSystem::new(),
                    channel_registry(),
                    link_registry(),
                    contention_registry(),
                )
            }),
            faults: None,
        }
    }

    /// A runner sized to the host's available parallelism.
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(threads)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Record per-packet (predicted, actual) PBER pairs in the results —
    /// the Figure 6 scatter data.
    pub fn record_packet_stats(mut self, on: bool) -> Self {
        self.record_packet_stats = on;
        self
    }

    /// In-place variant of [`SweepRunner::record_packet_stats`], for
    /// callers (like [`crate::service::SweepService`]) that toggle the
    /// flag around a grid without rebuilding the runner.
    pub fn set_record_packet_stats(&mut self, on: bool) {
        self.record_packet_stats = on;
    }

    /// Whether per-packet statistics recording is on.
    pub fn records_packet_stats(&self) -> bool {
        self.record_packet_stats
    }

    /// Installs a confidence-driven [`StoppingRule`]: every
    /// point-to-point grid point stops at the first chunk boundary where
    /// the watched interval closes, capped at the scenario's `packets`
    /// budget. `None` restores fixed-budget execution. Contention cells
    /// ignore the rule (their slot budget defines the workload).
    pub fn with_stopping(mut self, rule: Option<StoppingRule>) -> Self {
        self.stopping = rule;
        self
    }

    /// In-place variant of [`SweepRunner::with_stopping`].
    pub fn set_stopping(&mut self, rule: Option<StoppingRule>) {
        self.stopping = rule;
    }

    /// The installed stopping rule, if any.
    pub fn stopping(&self) -> Option<StoppingRule> {
        self.stopping
    }

    /// Installs (or clears) a deterministic [`FaultInjector`]. With an
    /// injector in place, [`FaultSite::WorkerPanic`] decisions are
    /// consulted per grid point (occurrence index = grid index), and a
    /// scheduled point panics inside the supervised unwind boundary —
    /// quarantined, never aborting the rest of the grid. `None` (the
    /// default) disables injection entirely; the zero-fault path is
    /// bit-identical with or without an idle injector.
    pub fn with_faults(mut self, faults: Option<FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// In-place variant of [`SweepRunner::with_faults`].
    pub fn set_faults(&mut self, faults: Option<FaultInjector>) {
        self.faults = faults;
    }

    /// The installed fault injector, if any.
    pub fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Replaces the environment factory, for sweeps over user decoder,
    /// channel, link-policy, or contention-policy registrations. The
    /// factory runs once per *job* — a single scenario, a contention
    /// cell, or one shared-channel group of scenarios that differ only in
    /// decoder/link (each job is self-contained — that is what makes the
    /// determinism contract trivial) — so keep it cheap relative to a
    /// scenario's packet budget: register implementations inside it, load
    /// big assets outside and share them via `Arc`.
    pub fn with_env(mut self, env: impl Fn() -> SweepEnv + Send + Sync + 'static) -> Self {
        self.env = Arc::new(env);
        self
    }

    /// Runs every scenario and returns results in submission order.
    ///
    /// # Errors
    ///
    /// Returns the first [`RegistryError`] if a scenario names an
    /// unregistered decoder, channel, or link policy. Names are validated
    /// *before* any Monte-Carlo work starts, so a typo in one grid point
    /// fails the run in microseconds instead of after the other points'
    /// budgets burn.
    ///
    /// # Panics
    ///
    /// Panics (also before any Monte-Carlo work) when a scenario pairs a
    /// PBER-driven link policy (`LinkPolicy::needs_pber`, e.g.
    /// `"softrate"`) with a decoder that has no SoftPHY BER estimator
    /// (e.g. `"viterbi"`): the policy would adapt on a constant 0.0 and
    /// produce plausible-looking garbage. Also panics when a contention
    /// cell has zero nodes, or pairs a rate-adapting link policy
    /// ([`LinkPolicy::adapts_rate`]) with a cell — cells pin every node
    /// to the scenario rate.
    pub fn run(&self, scenarios: &[Scenario]) -> Result<Vec<ScenarioResult>, RegistryError> {
        let mut slots: Vec<Option<ScenarioResult>> = (0..scenarios.len()).map(|_| None).collect();
        self.run_streaming(scenarios, |i, result| slots[i] = Some(result))?;
        Ok(slots
            .into_iter()
            .map(|r| r.expect("every scenario is assigned to exactly one job")) // lint: allow(panic-policy) — the partition loop pushes each index into exactly one job
            .collect())
    }

    /// Streaming variant of [`SweepRunner::run`]: `on_result(i, result)`
    /// fires for each grid point as its worker job finishes, instead of
    /// buffering the whole grid. The callback runs under one mutex (never
    /// concurrently with itself) but on worker threads, hence the `Send`
    /// bound; [`crate::service::SweepService::run_streaming`] bridges it
    /// back onto the caller's thread for non-`Send` consumers.
    ///
    /// Delivery order is completion order — a pure function of nothing:
    /// callers needing submission order index by `i`, and each `i`'s
    /// *result* keeps the full bit-identity contract.
    ///
    /// # Errors
    ///
    /// As [`SweepRunner::run`]: preflight failures return before any
    /// Monte-Carlo work. A failure past preflight (e.g. from a user
    /// environment factory) is reported after the grid drains; results
    /// already delivered to the callback remain valid. A quarantined
    /// grid point (a worker-job panic — injected or organic) is likewise
    /// reported after the grid drains, as an `InvalidConfig` error
    /// naming the lowest quarantined grid index; callers that want the
    /// partial results instead use [`SweepRunner::run_supervised`].
    pub fn run_streaming<F>(
        &self,
        scenarios: &[Scenario],
        mut on_result: F,
    ) -> Result<(), RegistryError>
    where
        F: FnMut(usize, ScenarioResult) + Send,
    {
        let mut first_failed: Option<(usize, String)> = None;
        self.run_streaming_supervised(scenarios, |i, outcome| match outcome {
            PointOutcome::Completed(res) => on_result(i, res),
            PointOutcome::Failed { message, .. } => {
                let wins = match &first_failed {
                    Some((held, _)) => i < *held,
                    None => true,
                };
                if wins {
                    first_failed = Some((i, message));
                }
            }
        })?;
        match first_failed {
            Some((i, message)) => Err(RegistryError::invalid_config(format!(
                "grid point {i} was quarantined: {message}"
            ))),
            None => Ok(()),
        }
    }

    /// Supervised variant of [`SweepRunner::run`]: every worker job runs
    /// under an unwind boundary, a panicking grid point — injected by
    /// the installed [`FaultInjector`] or organic — is quarantined as
    /// [`PointOutcome::Failed`] while every other point completes, and
    /// the partial results come back with a [`FaultReport`]. With no
    /// faults fired the outcomes are exactly [`SweepRunner::run`]'s
    /// results wrapped in [`PointOutcome::Completed`], bit for bit.
    ///
    /// Determinism extends to failure: equal grids under equal injectors
    /// produce equal outcome vectors and equal reports at any thread
    /// count — an injected panic is keyed by the point's grid index,
    /// never by scheduling.
    ///
    /// # Errors
    ///
    /// As [`SweepRunner::run`] — configuration errors are still errors;
    /// only panics are quarantined.
    pub fn run_supervised(&self, scenarios: &[Scenario]) -> Result<SupervisedSweep, RegistryError> {
        let mut slots: Vec<Option<PointOutcome>> = (0..scenarios.len()).map(|_| None).collect();
        let report =
            self.run_streaming_supervised(scenarios, |i, outcome| slots[i] = Some(outcome))?;
        let outcomes = slots
            .into_iter()
            .map(|s| s.expect("every scenario is assigned to exactly one job")) // lint: allow(panic-policy) — the partition loop pushes each index into exactly one job
            .collect();
        Ok(SupervisedSweep { outcomes, report })
    }

    /// Streaming variant of [`SweepRunner::run_supervised`]:
    /// `on_outcome(i, outcome)` fires for each grid point as its worker
    /// job finishes or unwinds, and the run's [`FaultReport`] is
    /// returned at the end. This is the primitive under both
    /// [`SweepRunner::run_streaming`] (which turns quarantines into a
    /// deferred error) and [`SweepRunner::run_supervised`] (which
    /// buffers the outcomes).
    ///
    /// # Errors
    ///
    /// As [`SweepRunner::run_streaming`], minus quarantines — those are
    /// delivered as [`PointOutcome::Failed`] outcomes, not errors.
    pub fn run_streaming_supervised<F>(
        &self,
        scenarios: &[Scenario],
        on_outcome: F,
    ) -> Result<FaultReport, RegistryError>
    where
        F: FnMut(usize, PointOutcome) + Send,
    {
        if let Some(rule) = self.stopping {
            rule.validate()?;
        }
        // Fail fast on unknown names: resolve every distinct
        // (decoder, channel, link, contention) tuple once against a
        // throwaway environment.
        let (system, channels, links, contentions) = (self.env)();
        // The rate joins the key because link-policy validity can depend
        // on it: an IR phase schedule legal at one puncture period is
        // out of range at another.
        let mut checked: Vec<(PhyRate, &str, &str, &str, &str)> = Vec::new();
        for (i, sc) in scenarios.iter().enumerate() {
            let key = (
                sc.rate,
                sc.decoder.as_str(),
                sc.channel.as_str(),
                sc.link.as_str(),
                sc.contention.as_str(),
            );
            // Values no run can give meaning to: a NaN SNR simulates
            // garbage that would then be cached, an empty packet has no
            // per-packet BER, and a zero budget reports 0/0 as BER 0.
            let reject = |problem: &str| {
                Err(RegistryError::invalid_config(format!(
                    "scenario {i} {problem}"
                )))
            };
            if !sc.snr_db.is_finite() {
                return reject(&format!("has a non-finite snr_db ({})", sc.snr_db));
            }
            if sc.payload_bits == 0 {
                return reject("carries zero payload bits");
            }
            if sc.packets == 0 {
                return reject("has a zero packet budget");
            }
            if sc.contention != "p2p" && sc.nodes < 1 {
                return reject(&format!(
                    "puts zero nodes in contention cell {:?}: a cell needs at least one node",
                    sc.contention
                ));
            }
            if !checked.contains(&key) {
                system.receiver(&SystemConfig::new(sc.rate, &sc.decoder))?;
                channels.build(&sc.channel, &sc.channel_params)?;
                // Built with the run-time parameters (payload size,
                // initial rate), so rate-dependent validity checks see
                // what the execution paths will actually build.
                let adapts = match build_link(&links, sc)? {
                    Some(mut policy) => {
                        // Factories are infallible; a policy that
                        // swallowed a bad configuration reports it here.
                        if let Some(problem) = policy.config_error() {
                            return Err(RegistryError::invalid_config(format!(
                                "link policy {:?} is misconfigured: {problem}",
                                sc.link
                            )));
                        }
                        // Every name resolved, but the *pairing* is
                        // invalid: both halves come straight from user
                        // configuration, so this is an error, not a panic.
                        let hard = DecoderKind::from_registry_name(&sc.decoder).is_none();
                        if policy.needs_pber() && hard {
                            return Err(RegistryError::invalid_config(format!(
                                "link policy {:?} adapts on predicted PBER, but decoder \
                                 {:?} exports no SoftPHY BER estimate (its estimate \
                                 would be a constant 0.0); pair it with a soft decoder \
                                 such as \"sova\" or \"bcjr\"",
                                sc.link, sc.decoder
                            )));
                        }
                        if policy.harq().is_some() && hard {
                            return Err(RegistryError::invalid_config(format!(
                                "link policy {:?} combines soft LLR planes across \
                                 retransmissions, but decoder {:?} makes hard decisions \
                                 and would discard them; pair it with a soft decoder \
                                 such as \"sova\" or \"bcjr\"",
                                sc.link, sc.decoder
                            )));
                        }
                        policy.adapts_rate()
                    }
                    None => false,
                };
                if sc.contention != "p2p" {
                    contentions.build(&sc.contention, &sc.contention_params)?;
                    if adapts {
                        return Err(RegistryError::invalid_config(format!(
                            "link policy {:?} steers the transmit rate, which a \
                             contention cell does not support: every node of a \
                             cell transmits at the scenario rate",
                            sc.link
                        )));
                    }
                }
                checked.push(key);
            }
        }

        // Partition the grid into jobs. Scenarios whose link policy never
        // steers the transmit rate and that share the whole
        // (rate, channel, params, SNR, seed, packets, payload) coordinate
        // fuse into one shared-channel job: each packet is generated,
        // transmitted, and faded once, then received per member — the
        // decoder/link axes stop paying for redundant channel work.
        // Rate-adapting policies (SoftRate) diverge from the shared
        // transmit stream after the first verdict, so they keep the solo
        // path.
        let mut jobs: Vec<Job> = Vec::new();
        // BTreeMap, not HashMap: job order must be a pure function of the
        // scenario list, never of hasher state, for results to stay
        // bit-identical across runs and thread counts by construction.
        let mut shared_jobs: BTreeMap<GroupKey, usize> = BTreeMap::new();
        // Solo-required probes are cached per distinct (link, params):
        // large grids repeat a handful of policy configurations thousands
        // of times, and the probe builds a throwaway policy instance. A
        // policy runs solo when it steers the transmit rate (the shared
        // transmit stream would diverge after its first verdict) or when
        // it combines across retransmissions (the engine must replay the
        // *same* payload per attempt, which the fused per-packet stream
        // cannot do).
        let mut solo_required: BTreeMap<(String, Params), bool> = BTreeMap::new();
        for (i, sc) in scenarios.iter().enumerate() {
            // A point with a scheduled injected panic runs solo: its
            // quarantine must not take fused co-members down with it, so
            // the quarantine set stays a pure function of (grid, fault
            // plan), independent of how the partition fused.
            let panic_scheduled = self
                .faults
                .as_ref()
                .is_some_and(|f| f.fires(FaultSite::WorkerPanic, i as u64));
            // A contention cell is already a fused multi-session job of
            // its own: all N nodes run inside one worker job so the
            // shared medium realization is drawn exactly once.
            let shareable = !panic_scheduled
                && sc.contention == "p2p"
                && (sc.link == "none" || {
                    let probe_key = (sc.link.clone(), runtime_link_params(sc));
                    match solo_required.entry(probe_key) {
                        Entry::Occupied(slot) => !*slot.get(),
                        Entry::Vacant(slot) => {
                            let mut policy = links.build(&sc.link, &runtime_link_params(sc))?;
                            let solo = policy.adapts_rate() || policy.harq().is_some();
                            !*slot.insert(solo)
                        }
                    }
                });
            if !shareable {
                jobs.push(Job::Solo(i));
                continue;
            }
            let key: GroupKey = (
                sc.rate,
                sc.channel.clone(),
                sc.channel_params.clone(),
                sc.snr_db.to_bits(),
                sc.seed,
                sc.packets,
                sc.payload_bits,
            );
            match shared_jobs.entry(key) {
                Entry::Occupied(slot) => {
                    if let Job::Shared(members) = &mut jobs[*slot.get()] {
                        members.push(i);
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(jobs.len());
                    jobs.push(Job::Shared(vec![i]));
                }
            }
        }

        // Fusion trades per-packet redundancy for scheduling granularity:
        // a grid concentrated on one channel coordinate could collapse
        // into fewer jobs than workers and serialize the decode-dominant
        // work. Split the largest shared groups until the pool is fed (a
        // split group redoes tx+channel once per piece — the pre-fusion
        // cost — while keeping the sharing within each piece). Any
        // partition yields bit-identical results, since group execution
        // equals solo execution member by member. Splitting happens on
        // the *member* axis only — every piece keeps the group's full
        // packet budget, so the packet-axis batch width of `run_group`
        // (see `batch_blocks`) is unaffected by how finely we split.
        while jobs.len() < self.threads {
            let Some(idx) = jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| matches!(j, Job::Shared(m) if m.len() >= 2))
                .max_by_key(|(_, j)| match j {
                    Job::Shared(m) => m.len(),
                    Job::Solo(_) => 0,
                })
                .map(|(i, _)| i)
            else {
                break;
            };
            if let Job::Shared(members) = &mut jobs[idx] {
                let tail = members.split_off(members.len() / 2);
                jobs.push(Job::Shared(tail));
            }
        }

        let record = self.record_packet_stats;
        let stopping = self.stopping;
        let env = Arc::clone(&self.env);
        let faults = self.faults.clone();
        // Workers funnel finished points through one mutex-serialized
        // sink. Errors are not delivered to the callback; the one from
        // the lowest job index (first member within it) is kept, so the
        // reported error is a pure function of the scenario list.
        // Quarantines accumulate beside it and are sorted by grid index
        // after the drain, erasing completion order from the report.
        type Sink<F> = Mutex<(F, Option<(usize, RegistryError)>, Vec<Quarantine>)>;
        let sink: Sink<F> = Mutex::new((on_outcome, None, Vec::new()));
        let sink_ref = &sink;
        let faults_ref = &faults;
        self.run_indexed(jobs.len(), move |j| {
            let job = &jobs[j];
            // The unwind boundary wraps the whole job — environment
            // construction included — so any worker panic becomes a
            // quarantine instead of a pool abort.
            let outcome = supervisor::run_quarantined(|| {
                let (system, channels, links, contentions) = env();
                match job {
                    Job::Solo(i) => {
                        let sc = &scenarios[*i];
                        if let Some(inj) = faults_ref {
                            if inj.fires(FaultSite::WorkerPanic, *i as u64) {
                                supervisor::inject_panic(*i);
                            }
                        }
                        let result = if sc.contention == "p2p" {
                            run_scenario(&system, &channels, &links, *i, sc, record, stopping)
                        } else {
                            run_cell(&system, &channels, &links, &contentions, *i, sc, record)
                        };
                        vec![(*i, result)]
                    }
                    Job::Shared(members) => run_group(
                        &system, &channels, &links, members, scenarios, record, stopping,
                    ),
                }
            });
            let mut guard = match sink_ref.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            let (on_outcome, first_err, quarantined) = &mut *guard;
            match outcome {
                Ok(computed) => {
                    for (i, result) in computed {
                        match result {
                            Ok(res) => on_outcome(i, PointOutcome::Completed(res)),
                            Err(e) => {
                                let wins = match first_err {
                                    Some((held, _)) => j < *held,
                                    None => true,
                                };
                                if wins {
                                    *first_err = Some((j, e));
                                }
                            }
                        }
                    }
                }
                Err(message) => {
                    // Every member of the unwound job is quarantined.
                    // Injected panics always run solo (the partition
                    // forces it), so this multi-member case only fires
                    // for organic panics inside fused groups.
                    let members: &[usize] = match job {
                        Job::Solo(i) => std::slice::from_ref(i),
                        Job::Shared(m) => m,
                    };
                    for &i in members {
                        quarantined.push(Quarantine {
                            point: i,
                            message: message.clone(),
                        });
                        on_outcome(
                            i,
                            PointOutcome::Failed {
                                job: i,
                                message: message.clone(),
                            },
                        );
                    }
                }
            }
        });
        let (_, first_err, mut quarantined) = match sink.into_inner() {
            Ok(inner) => inner,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        quarantined.sort_by_key(|q| q.point);
        let injected_panics = match &faults {
            Some(inj) => quarantined
                .iter()
                .filter(|q| inj.fires(FaultSite::WorkerPanic, q.point as u64))
                .count() as u64,
            None => 0,
        };
        Ok(FaultReport {
            quarantined,
            injected_panics,
            ..FaultReport::default()
        })
    }

    /// The deterministic-parallel primitive under [`SweepRunner::run`]:
    /// evaluates `f(0..n)` across the worker pool and returns the results
    /// in index order. `f` must be a pure function of its index for the
    /// determinism contract to hold.
    ///
    /// Experiment drivers whose trials are not plain scenario grids (the
    /// Figure 7 protocol trace, Figure 2's per-rate rows) parallelize
    /// through this.
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let threads = self.threads.min(n.max(1));
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let f = &f;
        std::thread::scope(|scope| {
            // Deal indices round-robin, exactly like the parallel channel
            // deals chunks: work assignment is static, results land by
            // index, nothing depends on completion order.
            let mut work: Vec<Vec<(usize, &mut Option<T>)>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (i, slot) in results.iter_mut().enumerate() {
                work[i % threads].push((i, slot));
            }
            let workers: Vec<_> = work
                .into_iter()
                .map(|bundle| {
                    scope.spawn(move || {
                        for (i, slot) in bundle {
                            *slot = Some(f(i));
                        }
                    })
                })
                .collect();
            // Join explicitly: the scope waits only for the closures, and a
            // worker still exiting holds its allocator arena, which makes
            // the next run's workers grow a fresh one.
            for worker in workers {
                supervisor::propagate_join(worker.join());
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("worker filled every slot")) // lint: allow(panic-policy) — run_indexed returns one result per job by construction
            .collect()
    }
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SweepRunner({} threads, packet stats {}, stopping {})",
            self.threads,
            if self.record_packet_stats {
                "on"
            } else {
                "off"
            },
            if self.stopping.is_some() { "on" } else { "off" }
        )
    }
}

/// Builds the scenario's seed-addressed channel model with `snr_db`
/// filled in from the scenario — one construction for every body.
fn build_channel(
    channels: &ChannelSlot,
    sc: &Scenario,
) -> Result<Box<dyn ChannelModel>, RegistryError> {
    let mut params = sc.channel_params.clone();
    params.set("snr_db", &format!("{}", sc.snr_db));
    channels.build(&sc.channel, &params)
}

/// Builds the scenario's link session from its run-time parameters, or
/// `None` for a PHY-only (`"none"`) scenario.
fn build_link(
    links: &LinkSlot,
    sc: &Scenario,
) -> Result<Option<Box<dyn LinkPolicy>>, RegistryError> {
    if sc.link == "none" {
        return Ok(None);
    }
    links.build(&sc.link, &runtime_link_params(sc)).map(Some)
}

/// Builds a `decoder` receiver at `rate` on the SoftPHY hint-path
/// demapper, paired with the rate's analytic BER estimator when the
/// decoder is a builtin soft decoder.
fn build_receiver(
    system: &WilisSystem,
    decoder: &str,
    rate: PhyRate,
) -> Result<(Receiver, Option<BerEstimator>), RegistryError> {
    let mut config = SystemConfig::new(rate, decoder);
    config.demapper_bits = ScalingFactors::hint_demapper_bits(rate.modulation());
    let estimator =
        DecoderKind::from_registry_name(decoder).map(|k| BerEstimator::analytic_for_rate(rate, k));
    Ok((system.receiver(&config)?, estimator))
}

/// Per-rate receiver machinery of the sequential body, built lazily: a
/// fixed-rate point only ever touches its own rate; rate-adapting
/// policies add the rest on demand.
#[derive(Default)]
struct RateBank {
    rx: Vec<(PhyRate, (Receiver, Option<BerEstimator>))>,
}

impl RateBank {
    fn get(
        &mut self,
        system: &WilisSystem,
        decoder: &str,
        rate: PhyRate,
    ) -> Result<&mut (Receiver, Option<BerEstimator>), RegistryError> {
        let idx = match self.rx.iter().position(|(r, _)| *r == rate) {
            Some(idx) => idx,
            None => {
                self.rx.push((rate, build_receiver(system, decoder, rate)?));
                self.rx.len() - 1
            }
        };
        Ok(&mut self.rx[idx].1)
    }
}

/// The Figure 7 oracle: one Viterbi receiver (and scratch) per rate,
/// built lazily on the system's one compiled trellis instead of
/// rebuilding decoder state per rate, plus the replay's own buffers.
struct RateOracle {
    trellis: Arc<CompiledTrellis>,
    bank: Vec<Option<(Receiver, PhyScratch)>>,
    samples: Vec<Cplx>,
    got: RxResult,
}

impl RateOracle {
    fn new(system: &WilisSystem) -> Self {
        Self {
            trellis: system.compiled_ieee80211(),
            bank: PhyRate::all().map(|_| None).into(),
            samples: Vec::new(),
            got: RxResult::default(),
        }
    }

    /// Replays the packet at every rate against the identical channel
    /// realization (same channel seed) and returns the fastest rate that
    /// decoded error-free — grounded on the seed-addressed
    /// [`ChannelModel`] contract. Viterbi suffices: the oracle needs
    /// ground truth, not hints.
    fn replay(
        &mut self,
        channel: &mut dyn ChannelModel,
        chan_seed: u64,
        payload: &[u8],
        scramble_seed: u8,
    ) -> Oracle {
        let Self {
            trellis,
            bank,
            samples,
            got,
        } = self;
        let mut best = None;
        for (ri, &rate) in PhyRate::all().iter().enumerate() {
            let (rx, scratch) = bank[ri].get_or_insert_with(|| {
                (
                    Receiver::viterbi_shared(rate, Arc::clone(trellis)),
                    PhyScratch::new(),
                )
            });
            Transmitter::new(rate).tx_into(payload, scramble_seed, scratch, samples);
            channel.apply(samples, chan_seed);
            rx.rx_from(samples, payload.len(), scramble_seed, scratch, got);
            if got.bit_errors(payload) == 0 {
                best = Some(rate); // rates iterate slowest -> fastest
            }
        }
        match best {
            Some(rate) => Oracle::Best(rate),
            None => Oracle::NoRate,
        }
    }
}

/// The Monte-Carlo accumulators of one grid point, with the per-packet
/// accounting in one place. Both packet bodies — the sequential one
/// ([`run_scenario`], [`run_cell`]) and the batched one ([`run_group`]) —
/// tally through this struct, so the fused==solo bit-identity contract
/// cannot be broken by editing one body's statistics and forgetting the
/// other's.
struct PacketTally {
    hint_bins: Vec<HintBin>,
    packet_errors: u64,
    bit_errors: u64,
    predicted_pber_sum: f64,
    packet_stats: Vec<PacketStat>,
}

impl PacketTally {
    fn new() -> Self {
        Self {
            hint_bins: vec![HintBin::default(); usize::from(MAX_HINT) + 1],
            packet_errors: 0,
            bit_errors: 0,
            predicted_pber_sum: 0.0,
            packet_stats: Vec::new(),
        }
    }

    /// Accounts one received packet against the transmitted payload:
    /// hint-binned bit errors, packet errors, the SoftPHY PBER estimate,
    /// and (when `record` is on) the Figure 6 scatter point. Returns the
    /// packet's bit-error count and predicted PBER for the link layer.
    fn observe(
        &mut self,
        sent: &[u8],
        got: &RxResult,
        estimator: Option<&BerEstimator>,
        record: bool,
    ) -> (u64, f64) {
        let mut errs_this_packet = 0u64;
        for ((&sent_bit, &got_bit), &hint) in sent.iter().zip(&got.payload).zip(&got.hints) {
            let bin = &mut self.hint_bins[usize::from(hint)];
            bin.bits += 1;
            if sent_bit != got_bit {
                bin.errors += 1;
                errs_this_packet += 1;
            }
        }
        self.bit_errors += errs_this_packet;
        if errs_this_packet > 0 {
            self.packet_errors += 1;
        }
        let predicted = estimator
            .map(|est| est.per_packet(&got.hints))
            .unwrap_or(0.0);
        self.predicted_pber_sum += predicted;
        if record {
            self.packet_stats.push(PacketStat {
                predicted,
                actual: errs_this_packet as f64 / sent.len().max(1) as f64,
            });
        }
        (errs_this_packet, predicted)
    }

    /// Folds the tally into the final per-scenario result. `packets` is
    /// the number of packets that actually reached the receiver —
    /// `sc.packets` for point-to-point scenarios, the surviving
    /// transmission count for cells.
    fn into_result(
        self,
        index: usize,
        sc: &Scenario,
        packets: u64,
        link: Option<LinkMetrics>,
        cell: Option<CellMetrics>,
    ) -> ScenarioResult {
        ScenarioResult {
            scenario: index,
            label: sc.label(),
            packets,
            packet_errors: self.packet_errors,
            bits: packets * sc.payload_bits as u64,
            bit_errors: self.bit_errors,
            hint_bins: self.hint_bins,
            predicted_pber_sum: self.predicted_pber_sum,
            packet_stats: self.packet_stats,
            link,
            cell,
        }
    }
}

/// Draws a packet's payload bits into `payload` — a pure function of
/// the packet seed, shared by every body.
fn fill_payload(payload: &mut Vec<u8>, packet_seed: u64, bits: usize) {
    let mut rng = SmallRng::seed_from_u64(packet_seed);
    payload.clear();
    payload.extend((0..bits).map(|_| rng.gen_bit()));
}

/// The scrambler seed of the packet with index `ident`: 1..=127,
/// cycling with the index.
fn scramble_seed(ident: u64) -> u8 {
    (ident % 127 + 1) as u8
}

/// Shows one receive to a link session and returns its verdict — the
/// engine's single fixed-rate check: a session that does not steer the
/// rate (`adapts == false`: every fused member, HARQ chain, and cell
/// node) must never ask to leave `ctx.rate`.
fn link_verdict(
    link: &mut dyn LinkPolicy,
    adapts: bool,
    got: &RxResult,
    ctx: &LinkContext<'_>,
) -> LinkVerdict {
    let verdict = link.observe(got, &got.hints, ctx);
    assert!(
        adapts || verdict.next_rate.is_none() || verdict.next_rate == Some(ctx.rate),
        "link policy {:?} declared adapts_rate() == false but asked to steer the \
         transmit rate",
        link.name()
    );
    verdict
}

/// Seed-stream tag for HARQ retransmission attempts, in the family of
/// [`BACKOFF_STREAM`] and [`ARRIVAL_STREAM`]: attempt 0 of a packet draws
/// exactly the seeds a non-HARQ packet draws (the strict-generalization
/// anchor), and attempt `a > 0` of packet seed `s` draws from
/// `mix_seed(s, HARQ_ATTEMPT_STREAM | a)` — fresh channel noise per
/// retransmission, pure in `(scenario seed, packet, attempt)`.
const HARQ_ATTEMPT_STREAM: u64 = 0x4A59_0000_0000_0000;

/// The attempt seed of attempt `attempt` of the packet with seed
/// `packet_seed`; its channel seed is `mix_seed(attempt seed, 1)`. Every
/// attempt of the sequential body — solo or cell, combining or not —
/// derives its seeds here; a non-combining attempt is always attempt 0,
/// whose seed is the packet seed itself.
fn harq_attempt_seed(packet_seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        packet_seed
    } else {
        mix_seed(packet_seed, HARQ_ATTEMPT_STREAM | u64::from(attempt))
    }
}

/// The working memory of the sequential body — one set per job, reused
/// by every attempt it runs, so the steady state allocates nothing.
#[derive(Default)]
struct AttemptBuffers {
    scratch: PhyScratch,
    samples: Vec<Cplx>,
    payload: Vec<u8>,
    /// The attempt's fresh mother-code LLR plane.
    mother: Vec<Llr>,
    got: RxResult,
}

impl AttemptBuffers {
    /// Transmits the payload at `rate`, punctured at `phase`, and pushes
    /// it through the channel realization `chan_seed`.
    // lint: no_alloc
    fn transmit(
        &mut self,
        rate: PhyRate,
        phase: usize,
        scramble_seed: u8,
        channel: &mut dyn ChannelModel,
        chan_seed: u64,
    ) {
        Transmitter::with_phase(rate, phase).tx_into(
            &self.payload,
            scramble_seed,
            &mut self.scratch,
            &mut self.samples,
        );
        channel.apply(&mut self.samples, chan_seed);
    }

    /// Receives one attempt into `got`: the front end fills the fresh
    /// mother-code plane at `phase`, a HARQ `core` absorbs it (the first
    /// attempt retains, retransmissions saturating-add), and the decoder
    /// runs on the combined plane — or on the fresh one when the policy
    /// does not combine. The sequential body's one receive call.
    // lint: no_alloc
    fn receive(
        &mut self,
        rx: &mut Receiver,
        core: Option<&mut HarqCore>,
        phase: usize,
        scramble_seed: u8,
    ) {
        let bits = self.payload.len();
        rx.set_puncture_phase(phase);
        rx.rx_front_end_into(&self.samples, bits, &mut self.scratch, &mut self.mother);
        let plane: &[Llr] = match core {
            Some(core) => {
                core.absorb(&self.mother);
                core.plane()
            }
            None => &self.mother,
        };
        rx.rx_decode_from(plane, bits, scramble_seed, &mut self.scratch, &mut self.got);
    }
}

/// Executes one point-to-point scenario on the sequential body: the
/// allocation-free steady-state loop for every point whose next packet
/// depends on the last verdict (rate-adapting policies, HARQ attempt
/// chains) and for any point the partition runs alone.
///
/// Each of the `sc.packets` *logical* packets draws its payload and
/// scramble seed once, then runs an attempt loop — transmit at the
/// current rate, channel, [`AttemptBuffers::receive`], tally, link
/// verdict. A combining policy retransmits the identical payload at the
/// puncture phase its [`HarqCore`] schedules until the verdict closes
/// the packet, each attempt drawing fresh channel noise through
/// [`harq_attempt_seed`]; any other policy makes one attempt per packet.
/// The [`PacketTally`] observes every decode, so
/// `ScenarioResult::packets` counts attempts.
fn run_scenario(
    system: &WilisSystem,
    channels: &ChannelSlot,
    links: &LinkSlot,
    index: usize,
    sc: &Scenario,
    record: bool,
    stopping: Option<StoppingRule>,
) -> Result<ScenarioResult, RegistryError> {
    let mut bank = RateBank::default();
    bank.get(system, &sc.decoder, sc.rate)?;
    let mut channel = build_channel(channels, sc)?;
    let mut policy = build_link(links, sc)?;
    let mut oracle = policy
        .as_ref()
        .is_some_and(|p| p.needs_oracle())
        .then(|| RateOracle::new(system));
    let adapts = policy.as_ref().is_some_and(|p| p.adapts_rate());
    let mut buf = AttemptBuffers::default();

    let mut tally = PacketTally::new();
    let mut current_rate = sc.rate;
    let mut receives: u64 = 0;

    for p in 0..sc.packets {
        let packet_seed = mix_seed(sc.seed, u64::from(p));
        fill_payload(&mut buf.payload, packet_seed, sc.payload_bits);
        // Scramble identity follows the *logical* packet: a
        // retransmission is the same packet on the air.
        let scramble = scramble_seed(u64::from(p));
        loop {
            let core = policy.as_mut().and_then(|l| l.harq());
            let combining = core.is_some();
            let (attempt, phase) = core
                .as_ref()
                .map_or((0, 0), |c| (c.attempt(), c.tx_phase()));
            let chan_seed = mix_seed(harq_attempt_seed(packet_seed, attempt), 1);
            let (rx, estimator) = bank.get(system, &sc.decoder, current_rate)?;
            buf.transmit(current_rate, phase, scramble, channel.as_mut(), chan_seed);
            buf.receive(rx, core, phase, scramble);
            receives += 1;
            let (bit_errors, predicted_pber) =
                tally.observe(&buf.payload, &buf.got, estimator.as_ref(), record);
            let Some(link) = policy.as_mut() else { break };
            let ctx = LinkContext {
                sent: &buf.payload,
                bit_errors,
                predicted_pber,
                rate: current_rate,
                oracle: match oracle.as_mut() {
                    Some(o) => o.replay(channel.as_mut(), chan_seed, &buf.payload, scramble),
                    None => Oracle::Unavailable,
                },
            };
            let verdict = link_verdict(link.as_mut(), adapts, &buf.got, &ctx);
            if let Some(next) = verdict.next_rate {
                current_rate = next;
            }
            if !combining || verdict.status != LinkStatus::Retransmit {
                break;
            }
        }
        // The boundary walks the *logical* packet axis — the seed
        // schedule — while the interval watches the attempt-level tally,
        // the same accounting `ScenarioResult::packets` reports.
        if let Some(rule) = stopping {
            if rule.is_boundary(u64::from(p) + 1) && rule.closed(&tally, receives, sc.payload_bits)
            {
                break;
            }
        }
    }

    Ok(tally.into_result(index, sc, receives, policy.map(|p| p.metrics()), None))
}

/// Per-member receive state of a shared-channel job: everything that is
/// *not* shared — receiver, estimator, scratch, link policy, and the same
/// [`PacketTally`] the sequential body accumulates through.
struct GroupMember<'a> {
    index: usize,
    scenario: &'a Scenario,
    rx: Receiver,
    estimator: Option<BerEstimator>,
    scratch: PhyScratch,
    /// One receive result per lane of the current packet block; the
    /// batched RX path fills all of them in lockstep.
    got_lanes: Vec<RxResult>,
    policy: Option<Box<dyn LinkPolicy>>,
    needs_oracle: bool,
    tally: PacketTally,
    /// Packets this member has observed — `scenario.packets` unless its
    /// stopping rule closed the interval first.
    observed: u64,
    /// Set once the member's own stopping rule fires: the member freezes
    /// its tally and policy at exactly the packet where its solo run
    /// would have stopped, so fused results stay bit-identical to solo
    /// results even when co-members keep running.
    stopped: bool,
}

impl<'a> GroupMember<'a> {
    fn build(
        system: &WilisSystem,
        links: &LinkSlot,
        index: usize,
        sc: &'a Scenario,
    ) -> Result<Self, RegistryError> {
        let (rx, estimator) = build_receiver(system, &sc.decoder, sc.rate)?;
        let policy = build_link(links, sc)?;
        let needs_oracle = policy.as_ref().is_some_and(|p| p.needs_oracle());
        Ok(Self {
            index,
            scenario: sc,
            rx,
            estimator,
            scratch: PhyScratch::new(),
            got_lanes: Vec::new(),
            policy,
            needs_oracle,
            tally: PacketTally::new(),
            observed: 0,
            stopped: false,
        })
    }
}

/// Partitions a packet budget into contiguous blocks of at most
/// [`MAX_BATCH_LANES`] whose sizes differ by at most one — the batch
/// width alignment of the fused path. A greedy split would run 9 packets
/// as 8 + 1 and strand the remainder on a single-lane decode; the
/// balanced split runs them as 5 + 4 so every block keeps enough lanes
/// for the lockstep kernels to pay off.
fn batch_blocks(packets: u32) -> impl Iterator<Item = u32> {
    let b = MAX_BATCH_LANES as u32;
    let n_blocks = packets.div_ceil(b);
    let base = packets.checked_div(n_blocks).unwrap_or(0);
    let bumped = packets.checked_rem(n_blocks).unwrap_or(0);
    (0..n_blocks).map(move |i| base + u32::from(i < bumped))
}

/// Executes one shared-channel job on the batched body — the engine's
/// only batched packet body, for points with no dependence between
/// packets (PHY-only points and policies that neither steer the rate nor
/// combine attempts; a plain point runs here as a group of one). The
/// payload, transmit chain, and channel realization of each packet are
/// computed once and every member scenario receives from the identical
/// noisy samples. Bit-identical to running each member on the
/// sequential body ([`run_scenario`]) — the shared inputs are exactly
/// the inputs each member would have derived from its own (equal) seed.
///
/// Packets run through the receivers in lockstep blocks of up to
/// [`MAX_BATCH_LANES`] lanes (see [`batch_blocks`]): each block transmits
/// and corrupts its packets first, then every member decodes the whole
/// block with one batched receive, then the per-packet accounting replays
/// in the original packet order so tallies and link policies observe the
/// exact sequence the sequential body produces. Members whose receive
/// chains coincide share work inside a block — one front-end pass per
/// demapper class, one decode per (rate, builtin decoder) class — because
/// equal configurations produce bit-identical intermediate streams.
fn run_group(
    system: &WilisSystem,
    channels: &ChannelSlot,
    links: &LinkSlot,
    members: &[usize],
    scenarios: &[Scenario],
    record: bool,
    stopping: Option<StoppingRule>,
) -> Vec<(usize, Result<ScenarioResult, RegistryError>)> {
    let lead = &scenarios[members[0]];
    let mut out = Vec::with_capacity(members.len());
    let mut group: Vec<GroupMember> = Vec::with_capacity(members.len());
    for &i in members {
        match GroupMember::build(system, links, i, &scenarios[i]) {
            Ok(m) => group.push(m),
            Err(e) => out.push((i, Err(e))),
        }
    }

    let mut channel = match build_channel(channels, lead) {
        Ok(c) => c,
        Err(e) => {
            for m in group {
                out.push((m.index, Err(e.clone())));
            }
            return out;
        }
    };

    let transmitter = Transmitter::new(lead.rate);
    let mut tx_scratch = PhyScratch::new();
    let mut lane_samples: Vec<Vec<Cplx>> = Vec::new();
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut scramble_seeds: Vec<u8> = Vec::new();
    let mut oracles: Vec<Oracle> = Vec::new();
    let mut oracle = group
        .iter()
        .any(|m| m.needs_oracle)
        .then(|| RateOracle::new(system));

    // Front-end classes: members whose receive front ends agree (same
    // rate, same demapper configuration) produce bit-identical mother LLR
    // streams, so each class runs demod/demap/deinterleave/depuncture
    // once per block and every member decodes the shared stream. In a
    // typical grid group the two hint decoders (SOVA, BCJR) share one
    // class while Viterbi's full-width demapper forms another.
    let mut class_reps: Vec<usize> = Vec::new();
    let mut class_of: Vec<usize> = Vec::with_capacity(group.len());
    for i in 0..group.len() {
        let c = class_reps
            .iter()
            .position(|&r| group[r].rx.front_end_matches(&group[i].rx))
            .unwrap_or_else(|| {
                class_reps.push(i);
                class_reps.len() - 1
            });
        class_of.push(c);
    }
    let mut class_mothers: Vec<Vec<Llr>> = class_reps.iter().map(|_| Vec::new()).collect();

    // Full-receiver classes: members that also run the same decoder
    // produce bit-identical `RxResult`s lane for lane, so only the class
    // representative decodes and the rest copy its results. This is what
    // makes link-policy grid axes nearly free — `none` and `arq` variants
    // of one decoder differ only in accounting. Restricted to the builtin
    // decoders, which are known-pure functions of (name, rate); a user
    // registration could be stateful, so it never shares.
    let mut rx_reps: Vec<usize> = Vec::new();
    let mut rx_of: Vec<usize> = Vec::with_capacity(group.len());
    for i in 0..group.len() {
        let sc = group[i].scenario;
        let builtin = DecoderKind::from_registry_name(&sc.decoder).is_some();
        let c = rx_reps
            .iter()
            .position(|&r| {
                builtin
                    && group[r].scenario.rate == sc.rate
                    && group[r].scenario.decoder == sc.decoder
            })
            .unwrap_or_else(|| {
                rx_reps.push(i);
                rx_reps.len() - 1
            });
        rx_of.push(c);
    }

    let mut first = 0u32;
    for block in batch_blocks(lead.packets) {
        let lanes = block as usize;
        if lane_samples.len() < lanes {
            lane_samples.resize_with(lanes, Vec::new);
            payloads.resize_with(lanes, Vec::new);
        }
        scramble_seeds.clear();
        oracles.clear();

        // Stage 1 — the shared part, in packet order: one transmit and
        // one channel realization per packet, exactly the sequence of
        // channel calls the unbatched loop makes.
        for k in 0..lanes {
            let p = first + k as u32;
            let packet_seed = mix_seed(lead.seed, u64::from(p));
            let payload = &mut payloads[k];
            fill_payload(payload, packet_seed, lead.payload_bits);
            let scramble = scramble_seed(u64::from(p));
            let chan_seed = mix_seed(packet_seed, 1);
            let samples = &mut lane_samples[k];
            transmitter.tx_into(payload, scramble, &mut tx_scratch, samples);
            channel.apply(samples, chan_seed);
            oracles.push(match oracle.as_mut() {
                Some(o) => o.replay(channel.as_mut(), chan_seed, payload, scramble),
                None => Oracle::Unavailable,
            });
            scramble_seeds.push(scramble);
        }

        // Stage 2 — every member decodes the whole block in lockstep:
        // one front-end pass per class, then each member's decoder runs
        // on its class's shared mother stream. Bit-identical per lane to
        // `rx_from`.
        for (c, &r) in class_reps.iter().enumerate() {
            let rep = &mut group[r];
            rep.rx.rx_batch_front_end_into(
                &lane_samples[..lanes],
                lead.payload_bits,
                &mut rep.scratch,
                &mut class_mothers[c],
            );
        }
        for (c, &r) in rx_reps.iter().enumerate() {
            debug_assert_eq!(rx_of[r], c);
            let rep = &mut group[r];
            rep.got_lanes.resize_with(lanes, RxResult::default);
            rep.rx.rx_batch_decode_from(
                &class_mothers[class_of[r]],
                lanes,
                lead.payload_bits,
                &scramble_seeds,
                &mut rep.scratch,
                &mut rep.got_lanes[..lanes],
            );
        }
        for i in 0..group.len() {
            let r = rx_reps[rx_of[i]];
            if r == i {
                continue;
            }
            // The representative always precedes its class members, so a
            // split at `i` puts it in the head. Field-wise `clone_from`
            // keeps the copy allocation-free in the steady state.
            let (head, tail) = group.split_at_mut(i);
            let dst_member = &mut tail[0];
            dst_member.got_lanes.resize_with(lanes, RxResult::default);
            let src_lanes = &head[r].got_lanes[..lanes];
            for (dst, src) in dst_member.got_lanes[..lanes].iter_mut().zip(src_lanes) {
                dst.payload.clone_from(&src.payload);
                dst.hints.clone_from(&src.hints);
                dst.soft_magnitudes.clone_from(&src.soft_magnitudes);
                dst.decoder_id = src.decoder_id;
            }
        }

        // Stage 3 — accounting, packet-major then member, so each
        // member's tally and link policy observe packets in the same
        // order the sequential body delivers them.
        for k in 0..lanes {
            let payload = &payloads[k];
            let done = u64::from(first) + k as u64 + 1;
            for member in &mut group {
                if member.stopped {
                    continue;
                }
                let got = &member.got_lanes[k];
                let (errs_this_packet, predicted) =
                    member
                        .tally
                        .observe(payload, got, member.estimator.as_ref(), record);
                if let Some(policy) = member.policy.as_mut() {
                    let ctx = LinkContext {
                        sent: payload,
                        bit_errors: errs_this_packet,
                        predicted_pber: predicted,
                        rate: lead.rate,
                        oracle: if member.needs_oracle {
                            oracles[k]
                        } else {
                            Oracle::Unavailable
                        },
                    };
                    link_verdict(policy.as_mut(), false, got, &ctx);
                }
                member.observed = done;
                // Each member applies its own rule to its own tally at
                // exactly the boundary its solo run would check — a
                // stopped member freezes while co-members continue.
                if let Some(rule) = stopping {
                    if rule.is_boundary(done) && rule.closed(&member.tally, done, lead.payload_bits)
                    {
                        member.stopped = true;
                    }
                }
            }
        }
        first += block;
        if stopping.is_some() && group.iter().all(|m| m.stopped) {
            break;
        }
    }

    for member in group {
        let link = member.policy.map(|p| p.metrics());
        out.push((
            member.index,
            Ok(member.tally.into_result(
                member.index,
                member.scenario,
                member.observed,
                link,
                None,
            )),
        ));
    }
    out
}

/// Per-node state of one contention cell: the MAC decision machinery,
/// the node's own link session, and its seeded randomness streams.
struct CellNode {
    policy: Box<dyn ContentionPolicy>,
    backoff: BackoffState,
    link: Option<Box<dyn LinkPolicy>>,
    arrivals: SmallRng,
    /// Transmissions made so far — the node's packet-seed index. Node 0's
    /// attempt `a` draws exactly the seeds point-to-point packet `a`
    /// draws, which is what makes a 1-node cell a strict generalization.
    attempts: u64,
    /// Packets closed so far — the index of the open packet, which is
    /// the packet-seed index of a soft-combining HARQ node: its
    /// retransmissions keep the payload (and seed) of the open packet
    /// and draw per-attempt channel noise through [`harq_attempt_seed`].
    /// Only combining nodes read it.
    logical: u64,
    /// Packets queued at this node (head-of-queue is retransmitted until
    /// its link session closes it).
    queue: u64,
    transmitted_last_slot: bool,
}

/// Seed-stream tags for the per-node randomness of a cell, chosen far
/// outside the `attempt | node << 32` packet-seed index space.
const BACKOFF_STREAM: u64 = 0xBAC0_FF00_0000_0000;
const ARRIVAL_STREAM: u64 = 0xA221_0000_0000_0000;

/// Executes one contention-cell scenario: N nodes contending for a
/// slotted shared medium, all inside this one job.
///
/// Each slot: packets arrive (Bernoulli `load` per node, or saturated),
/// every backlogged node's [`ContentionPolicy`] decides on the slot from
/// carrier sense (some *other* node transmitted last slot) and its
/// backoff state, and the overlapping transmissions resolve through the
/// capture model ([`resolve_slot`]) — per-node link gains come from the
/// scenario's seed-addressed [`ChannelModel`], so the whole cell is a
/// pure function of `(scenario seed, node, attempt)`. Every transmission
/// is then one attempt of the sequential body, observed by that node's
/// own [`LinkPolicy`] session: it runs the full PHY chain — transmit,
/// per-node channel realization, the other arrivals as noise, receive,
/// HARQ combine, decode — unless the medium destroyed it and the node
/// does not combine, in which case it is observed as total corruption
/// with zero-confidence hints. Node 0 of a 1-node cell draws exactly the
/// seeds the point-to-point path draws, attempt for attempt.
fn run_cell(
    system: &WilisSystem,
    channels: &ChannelSlot,
    links: &LinkSlot,
    contentions: &ContentionSlot,
    index: usize,
    sc: &Scenario,
    record: bool,
) -> Result<ScenarioResult, RegistryError> {
    let nodes = sc.nodes as usize;
    let slots = u64::from(sc.packets);
    // Every node transmits at the scenario rate toward one receiver, so a
    // single receiver (and estimator) serves the whole cell.
    let (mut rx, estimator) = build_receiver(system, &sc.decoder, sc.rate)?;
    let mut channel = build_channel(channels, sc)?;
    let noise_power = SnrDb::new(sc.snr_db).noise_power();
    let capture_db = sc
        .contention_params
        .get_f64("capture_db")
        .unwrap_or(DEFAULT_CAPTURE_DB);
    let load = sc.contention_params.get_f64("load").unwrap_or(1.0);

    let mut cell_nodes: Vec<CellNode> = Vec::with_capacity(nodes);
    for n in 0..nodes {
        cell_nodes.push(CellNode {
            policy: contentions.build(&sc.contention, &sc.contention_params)?,
            backoff: BackoffState::new(mix_seed(sc.seed, BACKOFF_STREAM | n as u64)),
            link: build_link(links, sc)?,
            arrivals: SmallRng::seed_from_u64(mix_seed(sc.seed, ARRIVAL_STREAM | n as u64)),
            attempts: 0,
            logical: 0,
            queue: 0,
            transmitted_last_slot: false,
        });
    }

    let mut buf = AttemptBuffers::default();
    let mut tally = PacketTally::new();
    let mut metrics = CellMetrics::new(sc.nodes, slots, sc.payload_bits as u64);
    let mut decoded: u64 = 0;
    let mut last_tx_count = 0usize;
    let mut txs: Vec<usize> = Vec::with_capacity(nodes);
    let mut slot_txs: Vec<(usize, u64, u64, u64, u64)> = Vec::with_capacity(nodes);
    let mut powers: Vec<TxPower> = Vec::with_capacity(nodes);

    for slot in 0..slots {
        // Arrivals: saturated queues by default, Bernoulli otherwise.
        for node in &mut cell_nodes {
            if load >= 1.0 {
                node.queue = node.queue.max(1);
            } else if node.arrivals.gen_bool(load) {
                node.queue += 1;
            }
        }

        txs.clear();
        for (n, node) in cell_nodes.iter_mut().enumerate() {
            if node.queue == 0 {
                continue;
            }
            // Carrier sense reads *last* slot's air: busy iff some other
            // node transmitted (a node never defers to its own
            // transmission), i.e. last slot had more transmitters than
            // this node contributed.
            let view = SlotView {
                slot,
                node: n,
                nodes,
                carrier_busy: last_tx_count > usize::from(node.transmitted_last_slot),
            };
            if node.policy.decide(&view, &mut node.backoff) == TxDecision::Transmit {
                txs.push(n);
            }
        }
        for node in cell_nodes.iter_mut() {
            node.transmitted_last_slot = false;
        }
        for &n in &txs {
            cell_nodes[n].transmitted_last_slot = true;
        }
        last_tx_count = txs.len();
        if txs.is_empty() {
            metrics.idle_slots += 1;
            continue;
        }

        // Per-transmission seeds and link gains, then capture resolution.
        slot_txs.clear();
        powers.clear();
        for &n in &txs {
            let node = &mut cell_nodes[n];
            // A soft-combining node keys payload identity to its open
            // logical packet and draws per-attempt noise from the HARQ
            // attempt stream; any other node's transmission is a fresh
            // packet at attempt 0, whose seed is the plain packet seed.
            let (ident, attempt) = match node.link.as_mut().and_then(|l| l.harq()) {
                Some(core) => (node.logical, core.attempt()),
                None => (node.attempts, 0),
            };
            node.attempts += 1;
            let packet_seed = mix_seed(sc.seed, ident | ((n as u64) << 32));
            let attempt_seed = harq_attempt_seed(packet_seed, attempt);
            let chan_seed = mix_seed(attempt_seed, 1);
            powers.push(TxPower {
                node: n,
                gain: channel.packet_gain(chan_seed),
            });
            slot_txs.push((n, ident, packet_seed, attempt_seed, chan_seed));
        }
        let outcome = resolve_slot(&powers, noise_power, capture_db);
        match outcome {
            SlotOutcome::Idle => unreachable!("txs is non-empty"),
            SlotOutcome::Clean { .. } => metrics.clean_slots += 1,
            SlotOutcome::Captured { .. } => metrics.capture_slots += 1,
            SlotOutcome::Collision => metrics.collision_slots += 1,
        }
        let survivor = outcome.survivor();

        for &(n, ident, packet_seed, attempt_seed, chan_seed) in &slot_txs {
            fill_payload(&mut buf.payload, packet_seed, sc.payload_bits);
            let scramble = scramble_seed(ident);
            let bits = sc.payload_bits as u64;
            metrics.per_node[n].attempts += 1;
            metrics.per_node[n].bits_transmitted += bits;

            let survived = survivor == Some(n);
            if !survived {
                metrics.per_node[n].collisions += 1;
            }
            let node = &mut cell_nodes[n];
            let core = node.link.as_mut().and_then(|l| l.harq());
            let (errs, predicted) = if !survived && core.is_none() {
                // Destroyed, and nothing retains the attempt: every bit
                // wrong, zero confidence — the receiver never locked on.
                let got = &mut buf.got;
                got.payload.clear();
                got.payload.extend(buf.payload.iter().map(|b| b ^ 1));
                got.hints.clear();
                got.hints.resize(buf.payload.len(), 0);
                got.soft_magnitudes.clear();
                got.soft_magnitudes.resize(buf.payload.len(), 0);
                got.decoder_id = "collided";
                (bits, 0.0)
            } else {
                // A survivor, or a combining node's destroyed attempt:
                // the full PHY runs, and the other arrivals corrupt the
                // signal as Gaussian noise rather than erase it. The
                // node's channel genie-equalized the signal to unit
                // power, so a captured survivor sees the losers at
                // `interference / gain` and a destroyed attempt sees the
                // whole slot at `others / own`.
                let phase = core.as_ref().map_or(0, |c| c.tx_phase());
                buf.transmit(sc.rate, phase, scramble, channel.as_mut(), chan_seed);
                let sinr = if survived {
                    match outcome {
                        SlotOutcome::Captured {
                            gain, interference, ..
                        } if interference > 0.0 => Some(gain / interference),
                        _ => None,
                    }
                } else {
                    let own = powers
                        .iter()
                        .find(|t| t.node == n)
                        .map(|t| t.gain)
                        .unwrap_or(0.0);
                    let others: f64 = powers.iter().filter(|t| t.node != n).map(|t| t.gain).sum();
                    (others > 0.0).then(|| own / others)
                };
                if let Some(sinr) = sinr {
                    AwgnChannel::new(SnrDb::from_linear(sinr), mix_seed(attempt_seed, 2))
                        .apply(&mut buf.samples);
                }
                buf.receive(&mut rx, core, phase, scramble);
                decoded += 1;
                tally.observe(&buf.payload, &buf.got, estimator.as_ref(), record)
            };

            let (closes, delivered) = match node.link.as_mut() {
                Some(link) => {
                    let ctx = LinkContext {
                        sent: &buf.payload,
                        bit_errors: errs,
                        predicted_pber: predicted,
                        rate: sc.rate,
                        oracle: Oracle::Unavailable,
                    };
                    match link_verdict(link.as_mut(), false, &buf.got, &ctx).status {
                        LinkStatus::Delivered => (true, true),
                        LinkStatus::GaveUp => (true, false),
                        LinkStatus::Retransmit => (false, false),
                    }
                }
                None => (true, errs == 0),
            };
            if closes {
                node.queue = node.queue.saturating_sub(1);
                // Only a combining node reads `logical`, so counting
                // closed packets on every node is harmless.
                node.logical += 1;
                if delivered {
                    metrics.per_node[n].delivered += 1;
                    metrics.per_node[n].bits_delivered += bits;
                }
            }
            node.policy.acked(survived && errs == 0, &mut node.backoff);
        }
    }

    let link_metrics = if sc.link == "none" {
        None
    } else {
        let mut merged = LinkMetrics::default();
        for node in &cell_nodes {
            if let Some(link) = &node.link {
                merged.merge(&link.metrics());
            }
        }
        Some(merged)
    };
    Ok(tally.into_result(index, sc, decoded, link_metrics, Some(metrics)))
}

/// Renders the cell-level metrics of a result set as an aligned table;
/// point-to-point scenarios are skipped.
pub fn render_cell_table(results: &[ScenarioResult]) -> String {
    let mut out = format!(
        "{:<52} {:>8} {:>6} {:>7} {:>7} {:>8} {:>9}\n",
        "scenario", "goodput", "jain", "coll%", "idle%", "attempts", "delivered"
    );
    for r in results {
        let Some(c) = &r.cell else { continue };
        out.push_str(&format!(
            "{:<52} {:>8.3} {:>6.3} {:>6.1}% {:>6.1}% {:>8} {:>9}\n",
            r.label,
            c.aggregate_goodput(),
            c.jain_index(),
            100.0 * c.collision_fraction(),
            100.0 * c.idle_fraction(),
            c.attempts(),
            c.per_node.iter().map(|n| n.delivered).sum::<u64>(),
        ));
    }
    out
}

/// Renders the link-layer metrics of a result set as an aligned table;
/// PHY-only scenarios are skipped.
pub fn render_link_table(results: &[ScenarioResult]) -> String {
    let mut out = format!(
        "{:<50} {:>8} {:>7} {:>9} {:>8} {:>8} {:>17}\n",
        "scenario", "goodput", "retx", "delivered", "gave up", "Mbps", "under/acc/over"
    );
    for r in results {
        let Some(m) = &r.link else { continue };
        out.push_str(&format!(
            "{:<50} {:>8.3} {:>6.1}% {:>9} {:>8} {:>8.1} {:>5}/{:>5}/{:>5}\n",
            r.label,
            m.goodput(),
            100.0 * m.retransmit_fraction(),
            m.delivered,
            m.gave_up,
            m.mean_selected_mbps(),
            m.under,
            m.accurate,
            m.over
        ));
    }
    out
}

/// Renders a result set as an aligned table (label, BER, PER, predicted).
pub fn render_table(results: &[ScenarioResult]) -> String {
    let mut out = format!(
        "{:<44} {:>12} {:>9} {:>12}\n",
        "scenario", "BER", "PER", "pred. PBER"
    );
    for r in results {
        out.push_str(&format!(
            "{:<44} {:>12.3e} {:>8.1}% {:>12.3e}\n",
            r.label,
            r.ber(),
            100.0 * r.per(),
            r.mean_predicted_pber()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> SweepGrid {
        SweepGrid::new()
            .rates(&[PhyRate::QpskHalf, PhyRate::Qam16Half])
            .decoders(&["viterbi", "bcjr"])
            .snrs_db(&[6.0, 10.0])
            .packets(3)
            .payload_bits(300)
    }

    #[test]
    fn grid_enumerates_cartesian_product() {
        let grid = small_grid();
        assert_eq!(grid.len(), 8);
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 8);
        // Every grid point is distinct.
        for (i, a) in scenarios.iter().enumerate() {
            for b in &scenarios[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let scenarios = small_grid().scenarios();
        let serial = SweepRunner::new(1).run(&scenarios).unwrap();
        let parallel = SweepRunner::new(4).run(&scenarios).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn high_snr_scenarios_deliver() {
        let scenarios = SweepGrid::new()
            .snrs_db(&[30.0])
            .packets(2)
            .payload_bits(200)
            .scenarios();
        let results = SweepRunner::new(2).run(&scenarios).unwrap();
        assert_eq!(results[0].bit_errors, 0);
        assert_eq!(results[0].per(), 0.0);
    }

    #[test]
    fn unknown_decoder_is_an_error() {
        let scenarios = SweepGrid::new().decoders(&["turbo"]).scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("turbo"));
    }

    #[test]
    fn unknown_channel_is_an_error() {
        let scenarios = SweepGrid::new().channels(&["vacuum"]).scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("vacuum"));
    }

    #[test]
    fn hint_bins_conserve_bits() {
        let scenarios = SweepGrid::new()
            .snrs_db(&[7.0])
            .packets(4)
            .payload_bits(512)
            .scenarios();
        let r = &SweepRunner::new(2).run(&scenarios).unwrap()[0];
        let binned: u64 = r.hint_bins.iter().map(|b| b.bits).sum();
        assert_eq!(binned, r.bits);
    }

    #[test]
    fn packet_stats_recorded_on_demand() {
        let scenarios = SweepGrid::new().packets(3).payload_bits(200).scenarios();
        let without = SweepRunner::new(1).run(&scenarios).unwrap();
        assert!(without[0].packet_stats.is_empty());
        let with = SweepRunner::new(1)
            .record_packet_stats(true)
            .run(&scenarios)
            .unwrap();
        assert_eq!(with[0].packet_stats.len(), 3);
    }

    #[test]
    fn run_indexed_orders_results() {
        let runner = SweepRunner::new(3);
        let out = runner.run_indexed(10, |i| i * i);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn all_channel_models_run() {
        let scenarios = SweepGrid::new()
            .channels(&["awgn", "fading", "replay"])
            .snrs_db(&[12.0])
            .packets(2)
            .payload_bits(200)
            .scenarios();
        let results = SweepRunner::new(3).run(&scenarios).unwrap();
        assert_eq!(results.len(), 3);
        let table = render_table(&results);
        assert!(table.contains("awgn") && table.contains("fading") && table.contains("replay"));
    }

    #[test]
    fn link_registry_stock_names() {
        let reg = link_registry();
        assert_eq!(
            reg.names(),
            vec!["arq", "harq-cc", "harq-ir", "ppr", "softrate"]
        );
        assert!(!reg.contains("none"), "\"none\" never reaches the registry");
    }

    #[test]
    fn unknown_link_is_an_error() {
        let scenarios = SweepGrid::new().links(&["harq"]).scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("harq"));
    }

    #[test]
    fn none_link_stays_phy_only() {
        let scenarios = SweepGrid::new().packets(2).payload_bits(200).scenarios();
        let results = SweepRunner::new(1).run(&scenarios).unwrap();
        assert!(results[0].link.is_none());
        assert!(
            render_link_table(&results).lines().count() == 1,
            "header only"
        );
    }

    #[test]
    fn link_grid_multiplies_the_axes() {
        let grid = SweepGrid::new()
            .links(&["none", "arq", "ppr"])
            .snrs_db(&[6.0, 8.0]);
        assert_eq!(grid.len(), 6);
        let labels: Vec<String> = grid.scenarios().iter().map(|s| s.label()).collect();
        assert!(labels.iter().any(|l| l.contains(" arq ")));
        assert!(labels.iter().any(|l| l.contains(" ppr ")));
    }

    #[test]
    fn arq_link_accounts_every_packet() {
        let scenarios = SweepGrid::new()
            .links(&["arq"])
            .snrs_db(&[7.0])
            .packets(12)
            .payload_bits(400)
            .scenarios();
        let r = &SweepRunner::new(2).run(&scenarios).unwrap()[0];
        let m = r.link.expect("arq metrics");
        assert_eq!(m.packets, 12, "one attempt per simulated packet");
        assert_eq!(m.bits_transmitted, 12 * 400);
        assert!(m.goodput() >= 0.0 && m.goodput() <= 1.0);
        assert!(m.bits_retransmitted <= m.bits_transmitted);
    }

    #[test]
    fn ppr_beats_arq_goodput_in_the_waterfall() {
        // Where packets are lossy but hints are informative, chunked
        // retransmission must beat whole-packet ARQ on goodput.
        let grid = SweepGrid::new()
            .links(&["arq", "ppr"])
            .snrs_db(&[6.0])
            .packets(30)
            .payload_bits(710);
        let results = SweepRunner::new(2).run(&grid.scenarios()).unwrap();
        let arq = results[0].link.expect("arq");
        let ppr = results[1].link.expect("ppr");
        assert!(results[0].per() > 0.1, "needs a lossy operating point");
        assert!(
            ppr.goodput() > arq.goodput(),
            "PPR {:.3} should beat ARQ {:.3}",
            ppr.goodput(),
            arq.goodput()
        );
        assert!(ppr.retransmit_fraction() <= 1.0);
    }

    #[test]
    fn harq_with_hard_decoder_is_rejected() {
        // The combiner feeds soft LLR planes back into the decoder; a
        // hard decoder would throw the retained information away.
        for link in ["harq-cc", "harq-ir"] {
            let scenarios = SweepGrid::new()
                .decoders(&["viterbi"])
                .links(&[link])
                .scenarios();
            let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
            assert!(err.to_string().contains("hard decisions"), "{link}: {err}");
        }
    }

    #[test]
    fn harq_zero_attempt_budget_is_rejected() {
        let scenarios = SweepGrid::new()
            .links(&["harq-cc"])
            .link_param("attempts", "0")
            .scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("attempt budget"), "{err}");
    }

    #[test]
    fn harq_ir_phase_outside_the_mask_is_rejected() {
        // The default grid rate is QAM-16 1/2 whose puncture period is 2,
        // so phase 3 can never be transmitted.
        let scenarios = SweepGrid::new()
            .links(&["harq-ir"])
            .link_param("ir_phases", "0,3")
            .scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
        // An unparsable schedule is rejected the same way, not panicked.
        let scenarios = SweepGrid::new()
            .links(&["harq-ir"])
            .link_param("ir_phases", "0,banana")
            .scenarios();
        assert!(SweepRunner::new(1).run(&scenarios).is_err());
    }

    #[test]
    fn harq_combining_disabled_is_bit_identical_to_arq() {
        // The strict-generalization diagnostic at the Figure 6 operating
        // point (the SweepGrid default): a HARQ policy with the combiner
        // disarmed is exactly ARQ with attempts - 1 retries — same PHY
        // stream, same accounting, bit for bit.
        for snr in [6.0, 8.0] {
            let grid = SweepGrid::new()
                .links(&["arq", "harq-cc"])
                .link_param("max_retries", "3")
                .link_param("attempts", "4")
                .link_param("combining", "false")
                .snrs_db(&[snr])
                .packets(25)
                .payload_bits(710);
            let results = SweepRunner::new(2).run(&grid.scenarios()).unwrap();
            let (a, h) = (&results[0], &results[1]);
            assert_eq!(a.packets, h.packets);
            assert_eq!(a.packet_errors, h.packet_errors);
            assert_eq!(a.bit_errors, h.bit_errors);
            assert_eq!(a.hint_bins, h.hint_bins);
            assert_eq!(a.predicted_pber_sum, h.predicted_pber_sum);
            assert_eq!(a.link, h.link, "identical link accounting at {snr} dB");
        }
    }

    #[test]
    fn harq_cc_goodput_beats_arq_when_lossy() {
        let grid = SweepGrid::new()
            .links(&["arq", "harq-cc"])
            .link_param("max_retries", "3")
            .link_param("attempts", "4")
            .snrs_db(&[6.0])
            .packets(30)
            .payload_bits(710);
        let results = SweepRunner::new(2).run(&grid.scenarios()).unwrap();
        let arq = results[0].link.expect("arq");
        let harq = results[1].link.expect("harq");
        assert!(results[0].per() > 0.1, "needs a lossy operating point");
        assert!(
            harq.goodput() > arq.goodput(),
            "Chase combining {:.3} should beat ARQ {:.3}",
            harq.goodput(),
            arq.goodput()
        );
        assert!(harq.recovered > 0, "some deliveries needed the combiner");
        assert!(harq.mean_attempts() >= 1.0);
    }

    #[test]
    fn harq_ir_lowers_the_effective_rate() {
        // At a punctured rate, IR retransmissions reveal stolen mother
        // bits: the mean effective rate of closed packets must drop below
        // the nominal 3/4 whenever any packet needed a retransmission.
        let grid = SweepGrid::new()
            .rates(&[PhyRate::Qam16ThreeQuarters])
            .links(&["harq-ir"])
            .snrs_db(&[11.0])
            .packets(30)
            .payload_bits(710);
        let r = &SweepRunner::new(2).run(&grid.scenarios()).unwrap()[0];
        let m = r.link.expect("harq-ir metrics");
        assert!(m.mean_attempts() > 1.0, "needs at least one retransmission");
        assert!(
            m.mean_effective_rate() < 0.75,
            "IR must lower the effective rate, got {:.3}",
            m.mean_effective_rate()
        );
        assert!(m.mean_effective_rate() >= 0.5, "mother code is the floor");
    }

    #[test]
    fn harq_cell_observes_every_attempt() {
        // HARQ under collisions: destroyed attempts still reach the
        // combiner (and the link session), so the per-attempt accounting
        // closes exactly over the cell's attempts.
        let scenarios = SweepGrid::new()
            .contentions(&["aloha"])
            .contention_param("p", "0.5")
            .links(&["harq-cc"])
            .nodes(3)
            .snrs_db(&[8.0])
            .packets(40)
            .payload_bits(300)
            .scenarios();
        let r = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
        let c = r.cell.as_ref().expect("cell metrics");
        let m = r.link.expect("merged link metrics");
        assert!(c.attempts() > 0);
        assert_eq!(
            m.packets,
            c.attempts(),
            "every attempt — survivor or destroyed — is observed"
        );
        assert_eq!(
            r.packets,
            c.attempts(),
            "every attempt decodes the combined plane"
        );
        let collided: u64 = c.per_node.iter().map(|n| n.collisions).sum();
        assert!(collided > 0, "three p=0.5 nodes must overlap");
        assert!(
            m.delivered > 0,
            "the cell still delivers through collisions"
        );
    }

    #[test]
    fn softrate_link_adapts_and_tallies() {
        let scenarios = SweepGrid::new()
            .links(&["softrate"])
            .channels(&["trace"])
            .snrs_db(&[10.0])
            .packets(10)
            .payload_bits(400)
            .scenarios();
        let r = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
        let m = r.link.expect("softrate metrics");
        assert_eq!(m.packets, 10);
        assert_eq!(
            m.under + m.accurate + m.over,
            10,
            "oracle judged each packet"
        );
        assert!(m.mean_selected_mbps() >= 6.0 && m.mean_selected_mbps() <= 54.0);
    }

    #[test]
    fn softrate_with_hard_decoder_is_rejected() {
        // Hard Viterbi exports no BER estimator; adapting on a constant
        // 0.0 would be plausible-looking garbage, so the runner refuses.
        let scenarios = SweepGrid::new()
            .decoders(&["viterbi"])
            .links(&["softrate"])
            .scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("no SoftPHY BER estimate"), "{err}");
    }

    #[test]
    fn softrate_without_oracle_skips_the_tallies() {
        let scenarios = SweepGrid::new()
            .links(&["softrate"])
            .link_param("oracle", "false")
            .packets(4)
            .payload_bits(300)
            .scenarios();
        let r = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
        let m = r.link.expect("softrate metrics");
        assert_eq!(m.under + m.accurate + m.over, 0);
        assert_eq!(m.packets, 4);
    }

    #[test]
    fn contention_registry_stock_names() {
        let reg = contention_registry();
        assert_eq!(reg.names(), vec!["aloha", "csma", "tdma"]);
        assert!(!reg.contains("p2p"), "\"p2p\" never reaches the registry");
    }

    #[test]
    fn contention_factories_clamp_bad_params() {
        // Registries take user strings; out-of-range values degrade to
        // the nearest sane configuration instead of panicking mid-run.
        let reg = contention_registry();
        for (key, value) in [("p", "1.5"), ("p", "0"), ("p", "nan")] {
            let mut params = Params::new();
            params.set(key, value);
            let _ = reg.build("aloha", &params).expect("clamped, not panicked");
        }
        let mut params = Params::new();
        params.set("cw_min", "0");
        params.set("cw_max", "0");
        let _ = reg.build("csma", &params).expect("clamped, not panicked");
    }

    #[test]
    fn unknown_contention_is_an_error() {
        let scenarios = SweepGrid::new()
            .contentions(&["token-ring"])
            .packets(2)
            .scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("token-ring"));
    }

    #[test]
    fn cell_grid_multiplies_the_axes_and_labels() {
        let grid = SweepGrid::new()
            .contentions(&["p2p", "csma"])
            .nodes(3)
            .snrs_db(&[6.0, 8.0]);
        assert_eq!(grid.len(), 4);
        let labels: Vec<String> = grid.scenarios().iter().map(|s| s.label()).collect();
        assert!(labels
            .iter()
            .any(|l| l.contains(" csma") && l.contains("x3")));
        assert!(labels.iter().filter(|l| !l.contains("csma")).count() == 2);
    }

    #[test]
    fn p2p_scenarios_have_no_cell_metrics() {
        let scenarios = SweepGrid::new().packets(2).payload_bits(200).scenarios();
        let results = SweepRunner::new(1).run(&scenarios).unwrap();
        assert!(results[0].cell.is_none());
        assert_eq!(
            render_cell_table(&results).lines().count(),
            1,
            "header only"
        );
    }

    #[test]
    fn saturated_tdma_cell_uses_every_slot_cleanly() {
        let scenarios = SweepGrid::new()
            .contentions(&["tdma"])
            .nodes(2)
            .snrs_db(&[30.0])
            .packets(8)
            .payload_bits(200)
            .scenarios();
        let r = &SweepRunner::new(2).run(&scenarios).unwrap()[0];
        let c = r.cell.as_ref().expect("cell metrics");
        assert_eq!(c.slots, 8);
        assert_eq!(c.idle_slots, 0, "saturated TDMA never idles");
        assert_eq!(c.collision_slots, 0, "TDMA never collides");
        assert_eq!(c.clean_slots, 8);
        assert_eq!(c.attempts(), 8);
        // 30 dB: every packet decodes; each node delivered its 4 slots.
        assert!((c.aggregate_goodput() - 1.0).abs() < 1e-12);
        assert!((c.jain_index() - 1.0).abs() < 1e-12);
        assert_eq!(r.packets, 8, "every attempt reached the receiver");
        assert_eq!(r.bit_errors, 0);
    }

    #[test]
    fn cell_slot_accounting_is_conserved() {
        for contention in ["aloha", "csma", "tdma"] {
            let scenarios = SweepGrid::new()
                .contentions(&[contention])
                .nodes(3)
                .snrs_db(&[10.0])
                .packets(20)
                .payload_bits(200)
                .scenarios();
            let r = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
            let c = r.cell.as_ref().expect("cell metrics");
            assert_eq!(
                c.idle_slots + c.clean_slots + c.capture_slots + c.collision_slots,
                c.slots,
                "{contention}: every slot classified exactly once"
            );
            let collided: u64 = c.per_node.iter().map(|n| n.collisions).sum();
            assert_eq!(
                r.packets + collided,
                c.attempts(),
                "{contention}: attempts = decoded + destroyed"
            );
        }
    }

    #[test]
    fn contending_aloha_nodes_collide_on_awgn() {
        // Equal-power AWGN links cannot capture: any overlap is a full
        // collision — the classic slotted-ALOHA regime.
        let scenarios = SweepGrid::new()
            .contentions(&["aloha"])
            .contention_param("p", "0.5")
            .nodes(4)
            .snrs_db(&[30.0])
            .packets(40)
            .payload_bits(200)
            .scenarios();
        let r = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
        let c = r.cell.as_ref().expect("cell metrics");
        assert!(c.collision_slots > 0, "four p=0.5 nodes must overlap");
        assert_eq!(c.capture_slots, 0, "equal-power arrivals cannot capture");
        assert!(c.aggregate_goodput() < 1.0);
    }

    #[test]
    fn fading_cells_capture() {
        // On fading links, one node in a strong fade-up wins slots the
        // AWGN cell would lose outright.
        let scenarios = SweepGrid::new()
            .contentions(&["aloha"])
            .contention_param("p", "0.6")
            .contention_param("capture_db", "3")
            .channels(&["fading"])
            .nodes(3)
            .snrs_db(&[14.0])
            .packets(60)
            .payload_bits(200)
            .scenarios();
        let r = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
        let c = r.cell.as_ref().expect("cell metrics");
        assert!(
            c.capture_slots > 0,
            "fading links at a 3 dB margin must capture sometimes"
        );
    }

    #[test]
    fn offered_load_controls_idle_fraction() {
        let cell = |load: &str| {
            let scenarios = SweepGrid::new()
                .contentions(&["csma"])
                .contention_param("load", load)
                .nodes(2)
                .snrs_db(&[12.0])
                .packets(50)
                .payload_bits(200)
                .scenarios();
            SweepRunner::new(1).run(&scenarios).unwrap()[0]
                .cell
                .clone()
                .expect("cell metrics")
        };
        let light = cell("0.05");
        let heavy = cell("1.0");
        assert!(
            light.idle_fraction() > heavy.idle_fraction(),
            "light load {:.2} should idle more than saturation {:.2}",
            light.idle_fraction(),
            heavy.idle_fraction()
        );
        // Saturated CSMA still idles a little (every busy slot forces the
        // other node to defer one slot), but the medium must be mostly
        // occupied.
        assert!(
            heavy.idle_fraction() < 0.5,
            "saturation should keep the medium mostly busy, idle {:.2}",
            heavy.idle_fraction()
        );
        assert!(heavy.attempts() > light.attempts());
    }

    #[test]
    fn cell_link_sessions_merge_into_the_result() {
        let scenarios = SweepGrid::new()
            .contentions(&["tdma"])
            .links(&["arq"])
            .nodes(2)
            .snrs_db(&[30.0])
            .packets(6)
            .payload_bits(200)
            .scenarios();
        let r = &SweepRunner::new(1).run(&scenarios).unwrap()[0];
        let m = r.link.expect("merged link metrics");
        assert_eq!(m.packets, 6, "one ARQ attempt per used slot");
        assert_eq!(m.delivered, 6);
        let c = r.cell.as_ref().expect("cell metrics");
        assert_eq!(c.bits_delivered(), 6 * 200);
    }

    #[test]
    fn cells_reject_rate_adapting_link_policies() {
        let scenarios = SweepGrid::new()
            .contentions(&["csma"])
            .links(&["softrate"])
            .scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(
            err.to_string().contains("steers the transmit rate"),
            "{err}"
        );
    }

    #[test]
    fn cells_reject_zero_nodes() {
        let scenarios = SweepGrid::new().contentions(&["csma"]).nodes(0).scenarios();
        let err = SweepRunner::new(1).run(&scenarios).unwrap_err();
        assert!(err.to_string().contains("at least one node"), "{err}");
    }

    /// Preflight must reject a bad value before any job runs, naming the
    /// offending grid index.
    fn assert_preflight_rejects(grid: SweepGrid, needle: &str) {
        let mut scenarios = SweepGrid::new().packets(2).payload_bits(64).scenarios();
        scenarios.extend(grid.scenarios());
        match SweepRunner::new(1).run(&scenarios).unwrap_err() {
            RegistryError::InvalidConfig { message } => assert!(
                message.contains("scenario 1") && message.contains(needle),
                "{message}"
            ),
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn non_finite_snr_is_rejected() {
        assert_preflight_rejects(SweepGrid::new().snrs_db(&[f64::NAN]), "snr_db");
        assert_preflight_rejects(SweepGrid::new().snrs_db(&[f64::INFINITY]), "snr_db");
    }

    #[test]
    fn empty_payload_is_rejected() {
        // Soft decoders used to panic in a worker on an empty packet.
        assert_preflight_rejects(
            SweepGrid::new().decoders(&["sova"]).payload_bits(0),
            "zero payload bits",
        );
    }

    #[test]
    fn zero_packet_budget_is_rejected() {
        assert_preflight_rejects(SweepGrid::new().packets(0), "zero packet budget");
    }

    #[test]
    fn fading_scenarios_lose_more_than_awgn_at_the_waterfall() {
        // Physics check: at the same mean SNR near the QAM-16 waterfall,
        // Rayleigh fading's deep fades must lose more packets than AWGN.
        let grid = SweepGrid::new()
            .channels(&["awgn", "fading"])
            .snrs_db(&[8.0])
            .packets(40)
            .payload_bits(400);
        let results = SweepRunner::auto().run(&grid.scenarios()).unwrap();
        assert!(
            results[1].per() > results[0].per(),
            "fading PER {:.2} should exceed AWGN PER {:.2}",
            results[1].per(),
            results[0].per()
        );
    }
}
